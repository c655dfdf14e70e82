"""Count the code lines of each module of a package.

A code line holds a token other than a comment; blank lines, comments and
module, class and function docstrings do not count.  A token that spans
several lines, such as a multi-line string, counts on each of them.

    python tools/code_lines.py [--functions] [directory or file ...]

With no path it counts `src/dmflow`.  It prints one count per module and
the total.  With `--functions` each module's count follows one count per
function and method, `module.py:Class.method`, in source order; a nested
function counts in the function around it and gets no row of its own.
When its reader closes the pipe, as `| head` does, it stops quietly.
"""

from __future__ import annotations

import ast
import io
import os
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


def code_lines(source: str) -> set[int]:
    """The line numbers of one module's code lines."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return lines - docstring_lines(source)


def functions(source: str) -> list[tuple[str, int]]:
    """(qualified name, code lines) of each function and method, in
    source order; decorators count, nested functions only in the function
    around them."""
    lines = code_lines(source)
    rows: list[tuple[str, int]] = []

    def visit(body: list[ast.stmt], prefix: str) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno]
                            + [d.lineno for d in node.decorator_list])
                span = lines.intersection(range(first, node.end_lineno + 1))
                rows.append((prefix + node.name, len(span)))

    visit(ast.parse(source).body, "")
    return rows


def main(argv: list[str]) -> int:
    per_function = "--functions" in argv
    roots = [Path(a) for a in argv if a != "--functions"] or [
        Path(__file__).resolve().parent.parent / "src" / "dmflow"]
    files = [f for r in roots
             for f in (sorted(r.glob("*.py")) if r.is_dir() else [r])]
    total = 0
    for f in files:
        source = f.read_text()
        if per_function:
            for name, n in functions(source):
                print(f"{n:6d}  {f.name}:{name}")
        n = len(code_lines(source))
        total += n
        print(f"{n:6d}  {f.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BrokenPipeError:
        # The reader stopped reading, as `| head` does: stop quietly, and
        # point stdout at devnull so that the flush at exit cannot fail too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
