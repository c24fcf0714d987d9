"""Each demo script runs to completion against the package source."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from support import src_env

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "name", ["factor_pair_trace.py", "fan_classification.py", "search_labelings.py"]
)
def test_demo_runs(name):
    proc = subprocess.run([sys.executable, str(DEMOS / name)], capture_output=True,
                          text=True, env=src_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
