"""Set-up probe: import the CLI and parse one config, then report the time.

    python3 bench/setup_probe.py CONFIG

Prints time.monotonic() (a system-wide clock on Linux) once the config is
parsed, so the parent can measure from the moment it launched the process.
"""

import sys
import time

import epifield.cli
import epifield.config

epifield.config.load_config(sys.argv[1])
print(repr(time.monotonic()), epifield.cli.__file__)
