"""Run one epifield CLI command with every layer traced.

    python3 bench/traced_cli.py SPANS.json <epifield arguments...>

Wraps the layers (see tracer.py), calls epifield.cli.main with the given
arguments, writes the recorded spans to SPANS.json and exits with main's
return code.
"""

import sys

import tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = tracer.install()
    import epifield.cli

    code = epifield.cli.main(argv)
    recorder.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
