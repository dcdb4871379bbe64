"""The traced benchmark run keeps working as the package changes.

bench/tracer.py wraps epifield's public functions by module and name, and
reads `threads=` from the sweep calls' keywords. A rename, a move, or a
caller that binds a function before the tracer can replace it would drop
a layer from the traced run without any error, so these checks pin the
names and run one traced CLI command end to end. A workload whose config
the parser rejects would fail every operation, so every workload's step
configs are loaded too.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path
from textwrap import dedent

import epifield
import epifield.cli
import epifield.experiments
from epifield.config import load_config
from epifield.scene import TextureSpec

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_workload_parses(tmp_path, monkeypatch):
    # bench/run.py imports its tracer as a top-level module
    monkeypatch.setitem(sys.modules, "tracer", _load_tracer())
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_run", run)  # its dataclasses look it up
    spec.loader.exec_module(run)
    workloads = sorted((BENCH / "workloads").glob("*.ini"))
    assert workloads
    for workload in workloads:
        work = tmp_path / workload.stem
        work.mkdir()
        for step in run.load_steps(workload, work):
            load_config(step.config)


def test_every_trace_target_resolves():
    tracer = _load_tracer()
    for module_name, attr, _span, _count in tracer.TARGETS:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), attr
    assert callable(TextureSpec.radiance)


def test_cli_calls_the_sweeps_the_tracer_wraps():
    assert epifield.cli.sweep_sparsity is epifield.experiments.sweep_sparsity
    assert epifield.cli.sweep_reconstruction is epifield.experiments.sweep_reconstruction


def test_traced_sweep_records_every_layer(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(
        dedent(
            """
            [scene]
            preset = A

            [plane]
            depth = infinity

            [grid]
            n_s = 16
            n_u = 16

            [run]
            threads = 2

            [sweep]
            depth_min = 1.4
            depth_max = 1.6
            depth_count = 2
            tilt_min = 0.0
            tilt_max = 10.0
            tilt_count = 2
            factor = 2
            """
        )
    )
    src = str(Path(epifield.__file__).resolve().parent.parent)
    pythonpath = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in pythonpath if p)}
    tracer = _load_tracer()
    for command in ("sweep-sparsity", "reconstruct"):
        spans_path = tmp_path / f"{command}.json"
        argv = [str(spans_path), command, "--config", str(cfg), "--out", str(tmp_path / command)]
        proc = subprocess.run(
            [sys.executable, str(BENCH / "traced_cli.py"), *argv],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        summary = tracer.summarize([tuple(s) for s in json.loads(spans_path.read_text())])
        assert summary["experiments.sweep.calls"] == 1
        assert summary["experiments.sweep.cells"] == 4
        assert summary["render.render_epi.calls"] == 4
        assert summary["mapping.intersect_rays.calls"] >= 4
        assert summary["scene.radiance.calls"] >= 4
        assert summary["fileio.write.calls"] >= 1
        assert summary["sweep.capacity_s"] > 0.0
