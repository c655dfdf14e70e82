"""`tools/line_coverage.py`, the statements a pytest run never executes."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MODULE = '''"""Module docstring."""
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from fractions import Fraction


@staticmethod
def sign(x):
    """Docstring."""
    global CALLS
    if x < 0:
        return -1
    return 1
'''

TEST = '''from covsample import mod


def test_positive():
    assert mod.sign.__func__(2) == 1
'''


def test_lists_the_statements_a_selection_never_runs(tmp_path):
    # Counted: the import, the if, the decorated def, its if and its two
    # returns; the docstrings, the global and the type-checking import
    # are not.  Hypothesis's plugin would double the run time.
    package = tmp_path / "src" / "covsample"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(MODULE)
    (tmp_path / "test_sample.py").write_text(TEST)
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "line_coverage.py"),
         "--source", str(package), "-q", "-p", "no:cacheprovider",
         "-p", "no:hypothesispytest", str(tmp_path / "test_sample.py")],
        capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "1 passed" in result.stdout
    assert result.stdout.splitlines()[-2:] == [
        "mod.py:13: return -1", "1 of 6 statements never executed"]
