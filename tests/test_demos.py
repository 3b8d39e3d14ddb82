"""Every script under ``demos/`` runs to completion."""

import glob
import os
import subprocess
import sys

import pytest

import treecolor

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(REPO, "demos", "*.py")))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(treecolor.__file__)))


def test_all_demos_found():
    assert len(DEMOS) == 8


@pytest.mark.parametrize("script", DEMOS, ids=os.path.basename)
def test_demo_exits_cleanly(script, tmp_path):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
