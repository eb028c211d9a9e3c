"""The suite reports every failure: a failing Hypothesis test fails alone,
and the tests after it still run."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent

PAIR = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(derandomize=True, database=None)
@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


@pytest.mark.skipif(importlib.util.find_spec("libcst") is None,
                    reason="Hypothesis reports failing examples through libcst")
def test_a_failing_hypothesis_test_is_reported_next_to_a_passing_one(tmp_path):
    (tmp_path / "test_pair.py").write_text(PAIR)
    # the project's pytest settings and this suite's conftest, on a pair of
    # tests outside it
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(TESTS.parent / "pyproject.toml"), "-p", "conftest", "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(TESTS), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))])})
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout, run.stdout + run.stderr
