"""The demos that build model sets run to completion from a source checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# each demo is a fresh interpreter: `pytest -m "not slow"` leaves them out
pytestmark = pytest.mark.slow


@pytest.mark.parametrize("demo", ["build_model_set.py", "input_design_walkthrough.py"])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
