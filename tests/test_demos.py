"""Smoke test of the walkthroughs in demos/: each runs to the end, quietly."""

import os
import pathlib
import subprocess
import sys

import pytest

import dephasim

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_six_demos():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_cleanly(demo, tmp_path):
    # the demo runs in tmp_path, so PYTHONPATH names the package imported here
    pkg_root = os.path.dirname(os.path.dirname(dephasim.__file__))
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=pkg_root + (os.pathsep + inherited if inherited else ""))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout
    assert not any(tmp_path.iterdir())  # it writes no files
