"""The batchnorm byte tests under every numpy SIMD level this CPU runs.

numpy picks its SIMD kernels once, when it loads, from the CPU or from
``NPY_ENABLE_CPU_FEATURES``; so each level runs ``tests/test_ops.py -k
batchnorm_bytes`` in a child process with the variable set for that child
only, and prints a digest of the training kernels' outputs, which must not
depend on the level.
"""

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent

# None is numpy's full dispatch on this CPU
LEVELS = ["X86_V2", "X86_V3", None]


def _env(level):
    env = {k: v for k, v in os.environ.items()
           if k not in ("NPY_ENABLE_CPU_FEATURES", "NPY_DISABLE_CPU_FEATURES")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    if level:
        env["NPY_ENABLE_CPU_FEATURES"] = level
    return env


def _runs(level):
    """Whether numpy on this CPU runs ``level`` (x86-64 levels only)."""
    if level is None:
        return True
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return False
    from numpy._core._multiarray_umath import __cpu_features__
    return bool(__cpu_features__.get(level))


def batchnorm_digest():
    """sha256 (first 16 hex digits) of batchnorm's training forward (y,
    xhat, running stats) and backward outputs on seeded inputs: four shapes,
    float32 and float64, means off zero."""
    from sakit import ops
    from sakit.rng import stream
    h = hashlib.sha256()
    for dtype in (np.float32, np.float64):
        for shape in [(32, 16, 32, 32), (32, 64, 8, 8), (5, 7, 3, 3), (2, 3, 1, 1)]:
            r = stream(4, "simd-levels", *shape)
            c = shape[1]
            x = (r.normal(size=shape) * 2 + 3).astype(dtype)
            dy = r.normal(size=shape).astype(dtype)
            gamma, beta = r.normal(size=c).astype(dtype), r.normal(size=c).astype(dtype)
            y, cache, mean, var = ops.batchnorm2d_forward(
                x, gamma, beta, np.zeros(c, dtype), np.ones(c, dtype))
            outputs = [y, cache[0], mean, var]
            outputs += ops.batchnorm2d_backward(dy, cache)
            for a in outputs:
                h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def _child(level, args):
    run = subprocess.run([sys.executable, *args], cwd=ROOT, env=_env(level),
                         capture_output=True, text=True, timeout=600)
    return run, f"{level or 'full'}:\n{run.stdout[-4000:]}{run.stderr[-2000:]}"


@pytest.mark.parametrize("level", LEVELS)
def test_batchnorm_byte_oracle_holds_at_simd_level(level):
    if not _runs(level):
        pytest.skip(f"numpy does not run {level} on this CPU")
    run, log = _child(level, ["-m", "pytest", "-q", "-p", "no:cacheprovider",
                              "tests/test_ops.py", "-k", "batchnorm_bytes"])
    # pytest exits 0 only when tests ran and all passed
    assert run.returncode == 0, log


def test_batchnorm_bytes_do_not_depend_on_simd_level():
    digests = {}
    for level in filter(_runs, LEVELS):
        run, log = _child(level, ["-c", "import sys; sys.path.insert(0, 'tests'); "
                                        "import test_simd_levels as t; print(t.batchnorm_digest())"])
        assert run.returncode == 0, log
        digests[level or "full"] = run.stdout.strip()
    assert len(set(digests.values())) == 1, digests
