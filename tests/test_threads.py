"""What importing and running the CLI costs: no thread, no OpenSSL, no executor.

`[run] threads` is the only thread count. numpy's bundled OpenBLAS starts a
busy-waiting worker per extra core when numpy loads, unless
OPENBLAS_NUM_THREADS says otherwise; epifield sets it to 1 before its first
numpy import, and a value the user exported wins. hashlib loads OpenSSL
(3.5 MB resident), and so does numpy.random, through secrets and hmac. The
manifest's config hash uses CPython's built-in SHA-256 and the sensor noise
comes from epifield.noise, so no command loads numpy.random or OpenSSL,
noisy scenes included. The sweeps run their workers on plain threads, so
no command loads concurrent.futures or, through it, logging. Each check
runs in a fresh interpreter, since this one has loaded numpy already.
"""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path
from textwrap import dedent

import pytest

import epifield
from epifield import cli
from epifield.config import load_config

SRC = str(Path(epifield.__file__).resolve().parent.parent)


def _run(code: str, **env_vars) -> str:
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env.update(env_vars)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or (os.cpu_count() or 1) < 2,
    reason="needs /proc/self/task and at least 2 cores for OpenBLAS to start a pool",
)
def test_importing_the_cli_starts_no_thread():
    code = "import os, epifield.cli; print(len(os.listdir('/proc/self/task')))"
    assert _run(code) == "1"


def test_an_exported_openblas_thread_count_wins():
    code = "import os, epifield; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _run(code, OPENBLAS_NUM_THREADS="2") == "2"
    assert _run(code) == "1"


def test_importing_the_cli_leaves_openssl_unloaded():
    code = "import sys, epifield.cli; print('_hashlib' in sys.modules)"
    assert _run(code) == "False"


def test_importing_the_cli_leaves_concurrent_futures_and_logging_unloaded():
    code = (
        "import sys, epifield.cli\n"
        "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))"
    )
    assert _run(code) == "[]"


def test_running_noise_free_commands_leaves_openssl_unloaded(tmp_path):
    config = tmp_path / "planar.cfg"
    config.write_text(
        dedent(
            f"""
            [scene]
            preset = A

            [plane]
            depth = 1.5

            [grid]
            n_s = 16
            n_u = 16

            [run]
            out_dir = {tmp_path / "reconstruct"}

            [sweep]
            depth_min = 1.4
            depth_max = 1.6
            depth_count = 2
            tilt_min = 0.0
            tilt_max = 10.0
            tilt_count = 2
            factor = 4
            """
        )
    )
    guidelines = ["guidelines", "--scene", "C", "--out", str(tmp_path / "guidelines")]
    code = (
        "import sys\n"
        "from epifield.cli import main\n"
        f"assert main(['reconstruct', '--config', {str(config)!r}]) == 0\n"
        f"assert main({guidelines!r}) == 0\n"
        "print('_hashlib' in sys.modules)"
    )
    assert _run(code).splitlines()[-1] == "False"
    for cfg, out in (
        (load_config(config), "reconstruct"),
        (cli._load(cli.build_parser().parse_args(guidelines)), "guidelines"),
    ):
        manifest = (tmp_path / out / "manifest.txt").read_text()
        want = hashlib.sha256(cfg.canonical().encode()).hexdigest()
        assert re.search(r"config_hash = (\S+)", manifest).group(1) == want


def test_a_noisy_threaded_sweep_loads_neither_numpy_random_nor_openssl(tmp_path):
    config = tmp_path / "noisy.cfg"
    config.write_text(
        dedent(
            f"""
            [scene]
            preset = B

            [texture]
            noise_sigma = 0.05

            [plane]
            depth = 1.5

            [grid]
            n_s = 16
            n_u = 16

            [run]
            threads = 2
            out_dir = {tmp_path / "sweep"}

            [sweep]
            depth_min = 1.0
            depth_max = 2.0
            depth_count = 2
            tilt_min = 0.0
            tilt_max = 20.0
            tilt_count = 2
            """
        )
    )
    code = (
        "import sys\n"
        "from epifield.cli import main\n"
        f"assert main(['sweep-sparsity', '--config', {str(config)!r}]) == 0\n"
        "print(sorted({'numpy.random', '_hashlib'} & set(sys.modules)))"
    )
    assert _run(code).splitlines()[-1] == "[]"
    assert (tmp_path / "sweep" / "manifest.txt").exists()
