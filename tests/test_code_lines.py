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


def test_counts_code_lines_without_comments_blanks_or_docstrings(tmp_path):
    # import, class, side, def, the two lines of `text`, return.
    sample = tmp_path / "sample.py"
    sample.write_text(SAMPLE)
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "code_lines.py"), str(sample)],
        capture_output=True, text=True, check=True).stdout
    assert out.split("\n") == ["     7  sample.py", "     7  total", ""]
