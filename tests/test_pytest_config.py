"""The suite's pytest settings survive a failing hypothesis example.

`filterwarnings = ["error"]` turns every warning into an error.  When a
`@given` test fails, Hypothesis's pytest plugin imports libcst to offer a
patch, and that import warns; unless the settings ignore that one warning,
the report hook raises, pytest stops with INTERNALERROR and every later
test goes unrun.
"""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0
'''


def test_failing_given_example_is_reported_as_a_failure(tmp_path):
    (tmp_path / "test_failing.py").write_text(FAILING, encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(CONFIG), "--rootdir",
         str(tmp_path), "-p", "no:cacheprovider", "-q", "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "1 failed" in output
    assert "INTERNALERROR" not in output
