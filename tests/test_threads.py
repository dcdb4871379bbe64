"""What importing the CLI costs: no thread, and no OpenSSL.

`[run] threads` is the only thread count. numpy's bundled OpenBLAS starts a
busy-waiting worker per extra core when numpy loads, unless
OPENBLAS_NUM_THREADS says otherwise; epifield sets it to 1 before its first
numpy import, and a value the user exported wins. hashlib loads OpenSSL,
which only the manifest's config hash needs. Each check runs in a fresh
interpreter, since this one has loaded numpy already.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import epifield

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
