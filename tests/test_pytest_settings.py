"""The suite's own pytest settings: a failing property is an ordinary failure."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING_PROPERTY = """\
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=5, deadline=None, database=None)
@given(st.integers())
def test_fails(n):
    assert n != n


def test_after():
    pass
"""


def test_failing_property_does_not_abort_the_session(tmp_path):
    # with warnings as errors, hypothesis's failure report must not end the
    # session in an internal error that skips the tests after it
    test_file = tmp_path / "test_property.py"
    test_file.write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
            "--rootdir", str(tmp_path), "-p", "no:cacheprovider", str(test_file),
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
