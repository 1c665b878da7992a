"""Each demo script runs to completion in a fresh process."""

import glob
import os
import subprocess
import sys

import pytest

DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), os.pardir, "demos", "*.py")))


def _env():
    import torusdyn

    src = os.path.dirname(os.path.dirname(os.path.abspath(torusdyn.__file__)))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path), OPENBLAS_NUM_THREADS="1")


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("script", DEMOS, ids=os.path.basename)
def test_demo_runs(script):
    proc = subprocess.run([sys.executable, script], env=_env(), capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
