"""The suite's own configuration: which warnings fail a test run."""

from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

INNER = """
import numpy as np
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_property_fails(x):
    assert x < 5


def test_numpy_warning_fails():
    np.log(np.zeros(1))


def test_passes():
    pass
"""


def test_failing_property_test_fails_only_itself(pytester):
    """Under the suite's warning filters, a failing ``@given`` test is one failure.

    On a failure, hypothesis's pytest plugin imports libcst, which warns that
    ``mypy_extensions.TypedDict`` is deprecated.  As an error, that warning
    aborted the whole session with an INTERNALERROR.  Numpy warnings must
    still fail their test.
    """
    pytester.makepyfile(test_inner=INNER)
    result = pytester.runpytest_subprocess(
        "-c", str(PYPROJECT), "--rootdir", str(pytester.path), "-p", "no:cacheprovider", "test_inner.py"
    )
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
    result.assert_outcomes(failed=2, passed=1)
    result.stdout.fnmatch_lines(["E       RuntimeWarning: divide by zero encountered in log"])
