"""Every walkthrough in demos/ runs to completion.

Each demo runs in its own interpreter from a fresh temporary working
directory, with the package importable from src/, and must exit 0.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from tests.util import src_env

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=src_env(), capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr[-2000:]
