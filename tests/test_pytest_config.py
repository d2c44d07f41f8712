"""The repository's pytest settings report a failing property test as an
ordinary failure, with its falsifying example."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_small(n):
    assert n < 10
'''


def test_failing_property_test_exits_one_with_its_example(tmp_path):
    # Run in tmp_path, where hypothesis keeps its example database.
    (tmp_path / "test_small.py").write_text(FAILING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_small.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example: test_small(" in run.stdout
