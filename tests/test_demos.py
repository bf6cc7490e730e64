"""Demos 01-05 and README's library quick start run to completion against
the current package.

Each runs in its own temporary working directory, so files a demo writes
(demo 05's ``rf_scalenet50.csv``) stay out of the checkout. Demos 06 and 07
train networks for minutes and are left out, as is README's second Python
block, the desk-scale pipeline.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FAST_DEMOS = sorted(p.name for p in (ROOT / "demos").glob("0[1-5]_*.py"))


def _run(args, cwd):
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=120)


@pytest.mark.parametrize("demo", FAST_DEMOS)
def test_demo_runs(demo, tmp_path):
    proc = _run([str(ROOT / "demos" / demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    quick_start = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    assert "build_scalenet" in quick_start  # the library quick start comes first
    proc = _run(["-c", quick_start], tmp_path)
    assert proc.returncode == 0, proc.stderr
