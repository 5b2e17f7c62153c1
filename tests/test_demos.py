"""Each demo runs standalone, as the README says, against this test run's arctext."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import arctext

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


def test_there_are_demos():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo, tmp_path):
    src = str(Path(arctext.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path}, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
