"""epifield benchmark: CLI workloads with end-to-end and per-layer metrics.

    python3 bench/run.py --workload robustness-B --seed 1 --seconds 55 --trace 0

Run from the repository root; only the standard library is used here, and
epifield is imported from ./src by the child processes. A workload is one
INI file in bench/workloads/: each `[step NAME]` section is one invocation
of the `epifield` CLI, and the harness writes one plain config per step into
.bench_work/ (the program sees only that config plus `--seed` and `--out`).

With `--trace 0` a run makes a few set-up probes and one untimed warm-up
pass, then repeats the timed pass, every step in a fresh process and
untraced, as often as the whole run fits in `--seconds` seconds (at least
twice). The end-to-end metrics are medians over the timed passes:

- wall_s: wall time of one pass over the workload's steps
- cpu_s: user + sys CPU of those processes
- peak_rss_mb: the largest per-process peak resident set of one pass
- setup_s: launch of a process until `import epifield.cli` and load_config
  are done, median over the probes
- ok_ratio: 1 - failed / attempted operations

With `--trace 1` passes alternate between untraced and traced (tracer.py),
and the per-layer metrics are medians over the traced passes, together
with the traced wall time and its overhead over the untraced passes.

An operation is one CLI invocation, one set-up probe or one sweep cell. It
fails on a nonzero exit, a sweep cell missing from the CSV, or an artifact
whose sha256 differs from bench/digests.json (pinned at the default seed).
The warm-up pass always runs at the default seed, so the pins are checked
in every run; the timed passes use `--seed`, and their seed-independent artifacts
are checked against the pins and the rest against the first pass with the
same seed. `--pin` rewrites bench/digests.json from the current program.

Stdout ends with a machine record line and then the result line
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import tracer

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WORKLOADS = BENCH / "workloads"
DIGESTS = BENCH / "digests.json"
WORK = ROOT / ".bench_work"
DEFAULT_SEED = 0
SETUP_PROBES = 9
CHILD_LIMIT_S = 150.0
# the same call the `epifield` console-script entry point makes
CLI = "import sys; from epifield.cli import main; sys.exit(main())"
SWEEP_CSV = {"sweep-sparsity": "sparsity.csv", "reconstruct": "psnr.csv"}


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, bad workload file)."""


@dataclass
class Step:
    name: str
    command: str
    config: Path


@dataclass
class Proc:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    log: Path


def load_steps(workload_ini: Path, work_dir: Path) -> list[Step]:
    """Write one program config per [step NAME] section; return the steps."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    if not parser.read(workload_ini):
        raise BenchError(f"no workload file {workload_ini}")
    program = [s for s in parser.sections() if not s.startswith("step ")]
    steps = []
    for section in parser.sections():
        if not section.startswith("step "):
            continue
        name = section[len("step "):]
        overrides = dict(parser[section])
        command = overrides.pop("command")
        config = configparser.ConfigParser()
        for sec in program:
            config[sec] = dict(parser[sec])
        for key, value in overrides.items():
            sec, _, option = key.partition(".")
            if not config.has_section(sec):
                config.add_section(sec)
            config[sec][option] = value
        path = work_dir / f"{name}.cfg"
        with open(path, "w") as fh:
            config.write(fh)
        steps.append(Step(name, command, path))
    if not steps:
        raise BenchError(f"{workload_ini} has no [step ...] section")
    return steps


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], log: Path, limit_s: float = CHILD_LIMIT_S) -> Proc:
    """Run argv from the checkout root; wall, CPU and peak RSS of that child."""
    with open(log, "wb") as fh:
        start = time.monotonic()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdout=fh, stderr=subprocess.STDOUT
        )
        killer = threading.Timer(limit_s, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(
        proc.returncode,
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,  # KiB on Linux
        log,
    )


def report_failure(what: str, proc: Proc) -> None:
    tail = proc.log.read_text(errors="replace")[-2000:]
    print(f"FAILED {what} (exit {proc.code}):\n{tail}", file=sys.stderr)


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def artifact_digests(out: Path) -> dict[str, str]:
    return {p.name: sha256(p) for p in sorted(out.iterdir()) if p.is_file()}


def missing_cells(step: Step, out: Path) -> tuple[int, int]:
    """(cells, missing) of a sweep step, read from its CSV; (0, 0) otherwise."""
    name = SWEEP_CSV.get(step.command)
    if name is None:
        return 0, 0
    path = out / name
    if not path.is_file():
        return 0, 0
    rows = path.read_text().splitlines()[1:]
    values = [row.rsplit(",", 1)[-1] for row in rows]
    return len(values), sum(1 for v in values if math.isnan(float(v)))


class DigestCheck:
    """Same config + seed = same bytes, and equal to the pins where they apply.

    pins maps step -> artifact -> {"sha256", "seeded"}; an artifact is
    "seeded" when its bytes depend on the seed. Without pins, every pass is
    compared with the first pass of the same seed.
    """

    def __init__(self, pins: dict | None):
        self.pins = pins
        self.first: dict[tuple[str, int], dict[str, str]] = {}

    def ok(self, step: str, seed: int, found: dict[str, str]) -> bool:
        first = self.first.setdefault((step, seed), found)
        if self.pins is None:
            return found == first
        pinned = self.pins[step]
        for name, pin in pinned.items():
            if seed == DEFAULT_SEED or not pin["seeded"]:
                expected = pin["sha256"]
            else:
                expected = first.get(name)
            if name not in found or found[name] != expected:
                return False
        return True


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def add(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


def cli_args(step: Step, seed: int, out: Path) -> list[str]:
    return [step.command, "--config", str(step.config), "--seed", str(seed), "--out", str(out)]


def run_pass(steps, seed, traced, work_dir, check, tally) -> dict:
    """One pass over the steps; returns its wall/CPU/RSS and layer sums."""
    totals = {"wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0}
    layers: dict[str, float] = {}
    for step in steps:
        out = work_dir / "out" / step.name
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        spans_path = work_dir / f"spans-{step.name}.json"
        args = cli_args(step, seed, out)
        if traced:
            argv = [sys.executable, str(BENCH / "traced_cli.py"), str(spans_path), *args]
        else:
            argv = [sys.executable, "-c", CLI, *args]
        proc = spawn(argv, work_dir / f"log-{step.name}.txt")
        totals["wall_s"] += proc.wall_s
        totals["cpu_s"] += proc.cpu_s
        totals["peak_rss_mb"] = max(totals["peak_rss_mb"], proc.rss_mb)
        if proc.code != 0:
            report_failure(f"{step.name} (seed {seed})", proc)
            tally.add(1, 1)
            continue
        cells, missing = missing_cells(step, out)
        digests_ok = check.ok(step.name, seed, artifact_digests(out))
        if not digests_ok:
            print(f"FAILED {step.name} (seed {seed}): artifact digest mismatch", file=sys.stderr)
        tally.add(1 + cells, missing + (0 if digests_ok else 1))
        if traced:
            with open(spans_path) as fh:
                summary = tracer.summarize([tuple(s) for s in json.load(fh)])
            for key, value in summary.items():
                layers[key] = layers.get(key, 0.0) + value
    totals["layers"] = layers
    return totals


def setup_times(step: Step, work_dir: Path, tally: Tally, count: int) -> list[float]:
    """Launch-to-parsed-config times of `count` probes, after one warm-up."""
    times = []
    for i in range(count + 1):
        log = work_dir / "log-setup.txt"
        start = time.monotonic()
        proc = spawn([sys.executable, str(BENCH / "setup_probe.py"), str(step.config)], log)
        tally.add(1, 0 if proc.code == 0 else 1)
        if proc.code != 0:
            report_failure("set-up probe", proc)
            continue
        stamp, cli_file = log.read_text().splitlines()[-1].split(" ", 1)
        if Path(cli_file).resolve().parent != (ROOT / "src" / "epifield").resolve():
            raise BenchError(f"epifield was imported from {cli_file}, not ./src")
        if i > 0:
            times.append(float(stamp) - start)
    return times


def layer_metrics(layers: dict[str, float]) -> dict[str, float]:
    """The per-layer metrics of one traced pass, from summed span summaries."""

    def get(key: str) -> float:
        return layers.get(key, 0.0)

    def ratio(num: str, den: str) -> float:
        return get(num) / get(den) if get(den) else 0.0

    metrics = {k: v for k, v in layers.items() if k.endswith((".self_s", ".calls"))}
    for key in (
        "mapping.intersect_rays.rays",
        "scene.radiance.samples",
        "render.render_epi.rows",
        "experiments.sweep.cells",
        "experiments.sweep.missing",
        "fileio.write.bytes",
    ):
        metrics[key] = get(key)
    metrics["mapping.intersect_rays.hit_ratio"] = ratio(
        "mapping.intersect_rays.hits", "mapping.intersect_rays.rays"
    )
    metrics["render.rows_kept_ratio"] = ratio("rows_used", "render.render_epi.rows")
    metrics["experiments.sweep.busy_ratio"] = ratio("sweep.busy_s", "sweep.capacity_s")
    return metrics


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def machine(seed: int) -> dict:
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "commit": commit,
        "seed": seed,
    }


def measure(
    workload_ini: Path,
    seed: int,
    seconds: float,
    trace: bool,
    pins: dict | None,
    specs: dict[str, str],
    work_dir: Path,
    setup_probes: int = SETUP_PROBES,
) -> tuple[dict, dict]:
    """Run one workload; returns (result, record).

    specs maps each metric to report to its unit. The result holds correct,
    attempted, failed and those metrics; the record holds the per-metric
    quartiles over the passes and the pass count.
    """
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    steps = load_steps(workload_ini, work_dir)
    check = DigestCheck(pins)
    tally = Tally()
    samples: dict[str, list[float]] = {}

    def keep(name: str, value: float) -> None:
        samples.setdefault(name, []).append(value)

    run_start = time.monotonic()
    if not trace:
        for value in setup_times(steps[0], work_dir, tally, setup_probes):
            keep("setup_s", value)
    # warm-up at the default seed: checked against the pins, not timed
    start = time.monotonic()
    run_pass(steps, DEFAULT_SEED, False, work_dir, check, tally)
    per_pass = (time.monotonic() - start) * (2 if trace else 1)
    start = time.monotonic()
    untraced_walls, traced_walls = [], []
    index = 0
    min_passes = 1 if trace else 2
    # start another pass only while it is expected to end within the budget
    while index < min_passes or time.monotonic() - run_start + per_pass <= seconds:
        if trace:
            order = (False, True) if index % 2 == 0 else (True, False)
        else:
            order = (False,)
        for traced in order:
            totals = run_pass(steps, seed, traced, work_dir, check, tally)
            if traced:
                traced_walls.append(totals["wall_s"])
                for name, value in layer_metrics(totals["layers"]).items():
                    keep(name, value)
            else:
                untraced_walls.append(totals["wall_s"])
                if not trace:
                    for name in ("wall_s", "cpu_s", "peak_rss_mb"):
                        keep(name, totals[name])
        index += 1
        per_pass = (time.monotonic() - start) / index
    if trace:
        keep("trace.wall_s", statistics.median(traced_walls))
        keep("trace.overhead_s", statistics.median(traced_walls) - statistics.median(untraced_walls))
    else:
        keep("ok_ratio", (tally.attempted - tally.failed) / tally.attempted)

    metrics, spread = {}, {}
    for name, unit in specs.items():
        if name not in samples:
            raise BenchError(f"BENCHMARK.json names {name}, which the harness does not measure")
        values = samples[name]
        q1, median, q3 = quartiles(values)
        metrics[name] = {"value": median, "unit": unit}
        spread[name] = {
            "n": len(values),
            "q1": q1,
            "median": median,
            "q3": q3,
            "iqr_over_median": (q3 - q1) / median if median else 0.0,
        }
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    record = {"passes": index, "spread": spread}
    return result, record


def pin(workloads: list[str]) -> dict:
    """Digests of every artifact at the default seed; 'seeded' if the bytes
    change at the next seed."""
    pins = {}
    for name in workloads:
        work_dir = WORK / name
        shutil.rmtree(work_dir, ignore_errors=True)
        work_dir.mkdir(parents=True)
        pins[name] = {}
        for step in load_steps(WORKLOADS / f"{name}.ini", work_dir):
            found = []
            for seed in (DEFAULT_SEED, DEFAULT_SEED + 1):
                out = work_dir / "out" / f"{step.name}-{seed}"
                out.mkdir(parents=True)
                proc = spawn([sys.executable, "-c", CLI, *cli_args(step, seed, out)], work_dir / "log.txt")
                if proc.code != 0:
                    report_failure(step.name, proc)
                    raise BenchError(f"{name}/{step.name} failed while pinning")
                found.append(artifact_digests(out))
            pins[name][step.name] = {
                artifact: {"sha256": sha, "seeded": found[1].get(artifact) != sha}
                for artifact, sha in found[0].items()
            }
    return pins


def main(argv=None) -> int:
    workloads = sorted(p.stem for p in WORKLOADS.glob("*.ini"))
    parser = argparse.ArgumentParser(description="epifield benchmark")
    parser.add_argument("--workload", choices=workloads)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true", help="rewrite bench/digests.json")
    args = parser.parse_args(argv)
    try:
        if not (ROOT / "src" / "epifield" / "cli.py").is_file():
            raise BenchError(f"no epifield sources under {ROOT / 'src'}")
        if args.pin:
            pins = pin(workloads)
            DIGESTS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        group = spec["per_layer"] if args.trace else spec["end_to_end"]
        specs = {m["name"]: m["unit"] for m in group}
        pins = json.loads(DIGESTS.read_text())[args.workload]
        result, record = measure(
            WORKLOADS / f"{args.workload}.ini",
            args.seed,
            args.seconds,
            bool(args.trace),
            pins,
            specs,
            WORK / args.workload,
        )
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    record = {"workload": args.workload, "trace": args.trace, **machine(args.seed), **record}
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
