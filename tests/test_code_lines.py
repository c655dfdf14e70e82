"""`tools/code_lines.py`, the code-line count of the package's modules."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SAMPLE = '''"""Module docstring,
over two lines."""

import math  # a comment on a code line

# A comment line.


class Box:
    """Class docstring."""

    side = 1.0

    def area(self):
        """Function docstring."""
        text = """a string
        over two lines"""
        return math.pow(self.side, 2), text
'''

NESTED = '''import functools


@functools.cache
def outer(x):
    """Docstring."""
    def inner(y):
        return y + 1
    return inner(x)


class Box:
    class Lid:
        def open(self):
            return True
'''


def count(path, *flags: str) -> list[str]:
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "code_lines.py"), *flags,
         str(path)], capture_output=True, text=True, check=True,
    ).stdout.split("\n")


def test_counts_code_lines_without_comments_blanks_or_docstrings(tmp_path):
    # import, class, side, def, the two lines of `text`, return.
    sample = tmp_path / "sample.py"
    sample.write_text(SAMPLE)
    assert count(sample) == ["     7  sample.py", "     7  total", ""]


def test_functions_lists_each_function_and_method_before_its_module(
        tmp_path):
    # area: def, the two lines of `text`, return.
    sample = tmp_path / "sample.py"
    sample.write_text(SAMPLE)
    assert count(sample, "--functions") == [
        "     4  sample.py:Box.area", "     7  sample.py", "     7  total", ""]


def test_functions_count_decorators_and_nested_functions_in_their_own(
        tmp_path):
    # outer: decorator, def, inner's two lines, return; open: two lines.
    sample = tmp_path / "nested.py"
    sample.write_text(NESTED)
    assert count(sample, "--functions") == [
        "     5  nested.py:outer", "     2  nested.py:Box.Lid.open",
        "    10  nested.py", "    10  total", ""]
