"""Demos 01-05 run to completion against the current package.

Each runs in its own temporary working directory, so files a demo writes
(demo 05's ``rf_scalenet50.csv``) stay out of the checkout. Demos 06 and 07
train networks for minutes and are left out.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FAST_DEMOS = sorted(p.name for p in (ROOT / "demos").glob("0[1-5]_*.py"))


@pytest.mark.parametrize("demo", FAST_DEMOS)
def test_demo_runs(demo, tmp_path):
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
