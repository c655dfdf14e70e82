"""Count the code lines of each module of a package.

A code line holds a token other than a comment; blank lines, comments and
module, class and function docstrings do not count.  A token that spans
several lines, such as a multi-line string, counts on each of them.

    python tools/code_lines.py [directory or file ...]

With no argument it counts `src/dmflow`.  It prints one count per module
and the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
             tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
             tokenize.ENCODING}


def docstring_lines(source: str) -> set[int]:
    """The line numbers of the module, class and function docstrings."""
    lines: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(source))


def main(argv: list[str]) -> int:
    roots = [Path(a) for a in argv] or [
        Path(__file__).resolve().parent.parent / "src" / "dmflow"]
    files = [f for r in roots
             for f in (sorted(r.glob("*.py")) if r.is_dir() else [r])]
    total = 0
    for f in files:
        n = code_lines(f.read_text())
        total += n
        print(f"{n:6d}  {f.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
