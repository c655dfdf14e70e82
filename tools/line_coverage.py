"""List the statements of a package that a pytest run never executes.

    python tools/line_coverage.py [--source DIR] [pytest argument ...]

It runs pytest in this process under `sys.settrace`, with DIR's parent
first on `sys.path`, and records the lines that run in DIR's modules,
`src/dmflow` by default.  The statements come from `ast`; docstrings,
found by `docstring_lines` of `code_lines.py` beside this script, and
the `global` and `nonlocal` declarations, which execute nothing, do not
count, nor does the body of an `if TYPE_CHECKING:`, which runs only under
a type checker.  A statement counts as executed when any of its lines,
decorators included, runs: a body that runs means its header ran.  Each
statement that never ran is printed as `module.py:line: source`, followed
by the count.  Only this process is traced, so code that runs only in a
subprocess counts as not executed.  The exit status is pytest's.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

import pytest
from code_lines import docstring_lines

_NOT_RUN = (ast.Global, ast.Nonlocal)


def statements(source: str) -> list[tuple[int, int]]:
    """(first line, last line) of each statement that executes something,
    decorators included, in source order; docstrings and type-checking
    imports left out."""
    tree = ast.parse(source)
    docstrings = docstring_lines(source)
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(
                node.test):
            skip.update(n for stmt in node.body for n in ast.walk(stmt))
    spans = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.stmt) and node not in skip
                and node.lineno not in docstrings
                and not isinstance(node, _NOT_RUN)):
            first = min([node.lineno] + [d.lineno for d in getattr(
                node, "decorator_list", [])])
            spans.append((first, node.end_lineno))
    return sorted(spans)


def traced(files: list[Path], run) -> tuple[object, dict[Path, set[int]]]:
    """run()'s result and the lines it ran in each of `files`."""
    ran: dict[Path, set[int]] = {f: set() for f in files}
    by_name = {os.path.realpath(f): lines for f, lines in ran.items()}
    seen: dict[str, set[int] | None] = {}

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in seen:
            seen[name] = by_name.get(os.path.realpath(name))
        lines = seen[name]
        if lines is None:
            return None

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line

        return line

    sys.settrace(call)
    try:
        result = run()
    finally:
        sys.settrace(None)
    return result, ran


def main(argv: list[str]) -> int:
    source = Path(__file__).resolve().parent.parent / "src" / "dmflow"
    if argv[:1] == ["--source"]:
        source, argv = Path(argv[1]).resolve(), argv[2:]
    sys.path.insert(0, str(source.parent))
    files = sorted(source.glob("*.py"))
    status, ran = traced(files, lambda: pytest.main(argv))
    missed = total = 0
    for f in files:
        text = f.read_text()
        lines = text.splitlines()
        for first, last in statements(text):
            total += 1
            if ran[f].isdisjoint(range(first, last + 1)):
                missed += 1
                print(f"{f.name}:{first}: {lines[first - 1].strip()}")
    print(f"{missed} of {total} statements never executed")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
