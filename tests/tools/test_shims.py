"""The repo-root ``iwarplint.py`` and ``iwarpcheck.py`` shims must work
from a bare checkout: both tools import the live ``repro`` machines, so
each shim has to put ``src/`` on ``sys.path`` itself rather than rely on
an inherited ``PYTHONPATH``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("argv", [["iwarplint", "src"], ["iwarpcheck"]])
def test_shim_runs_without_pythonpath(argv):
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-m", *argv],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
