"""Every demo script runs to the end against the package sources."""

import os
import pathlib
import subprocess
import sys

import pytest

import matroidlab

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_without_error(demo):
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(matroidlab.__file__))}
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
