"""The conv byte tests under every OpenBLAS kernel set this CPU can run.

OpenBLAS picks its kernels once, when it loads, from the CPU or from
``OPENBLAS_CORETYPE``; so each kernel set runs ``tests/test_ops.py -k
conv_bytes`` in a child process with the variable set for that child only.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent

# (OPENBLAS_CORETYPE, the /proc/cpuinfo flag its kernels need); pni is SSE3
CORE_TYPES = [("SkylakeX", "avx512f"), ("Haswell", "avx2"), ("Zen", "avx2"),
              ("Sandybridge", "avx"), ("Prescott", "pni")]


def _cpu_flags():
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        return set()
    for line in lines:
        if line.startswith("flags"):
            return set(line.split(":", 1)[1].split())
    return set()


def _numpy_uses_openblas():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "openblas" in str(blas.get("name", "")).lower()


@pytest.mark.parametrize("core, flag", CORE_TYPES)
def test_conv_byte_oracles_hold_on_core_type(core, flag):
    if not _numpy_uses_openblas():
        pytest.skip("numpy is not built on OpenBLAS")
    if flag not in _cpu_flags():
        pytest.skip(f"this CPU lacks {flag}, which {core} kernels need")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_ops.py", "-k", "conv_bytes"],
        cwd=ROOT, env=dict(os.environ, OPENBLAS_CORETYPE=core),
        capture_output=True, text=True, timeout=600)
    # pytest exits 0 only when tests ran and all passed
    assert run.returncode == 0, f"{core}:\n{run.stdout[-4000:]}{run.stderr[-2000:]}"
