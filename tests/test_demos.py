"""Every demo runs to completion: the demos are callers of the package as
much as the commands are, so a name they use must keep working."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_runs(tmp_path, demo):
    """The demo exits 0 with the package on its path and its temporary
    files under the test's own directory."""
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path, "TMPDIR": str(tmp_path)}
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, capture_output=True, text=True, env=env, timeout=300, check=False
    )
    assert proc.returncode == 0, proc.stderr
