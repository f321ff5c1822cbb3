"""Smoke test: every demo script runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DEMOS = ["01_group_basics", "02_key_wrapping", "03_stop_and_wait", "04_secure_transfer", "05_security_games"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_cleanly(demo):
    paths = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    result = subprocess.run(
        [sys.executable, str(REPO / "demos" / f"{demo}.py")], env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
    assert result.stdout.strip()
