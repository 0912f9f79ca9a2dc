"""Every demo script runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(script, tmp_path):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, TMPDIR=str(tmp_path),
               PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
