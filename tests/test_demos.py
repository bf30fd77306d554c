"""Every demo script runs to completion against the package in src/, and
importing the package leaves the command line out."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_package_import_leaves_the_command_line_out():
    # a fresh `import knightian` is what the benchmark's setup_s times
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = "import sys, knightian; print(sorted({'knightian.cli', 'argparse', 'csv'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", probe], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
