"""Print every statement of the package that the test suite never executes.

Runs the Tier-1 suite in this process under ``sys.settrace`` and records the
lines executed in ``src/``.  A statement counts as executed when a line of
its own span (for a compound statement, its header) was.  Docstrings,
other bare constants and global or nonlocal declarations run no code and
are not counted.  Usage, from the repository root::

    python tools/uncovered.py [extra pytest arguments]

It prints one ``path:line: source`` per statement not executed, and exits
with pytest's status.  Tests that run the package in a subprocess are not
traced.
"""
from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _spans(tree: ast.AST):
    """(first, last) line of each statement's own part: its header for a compound one."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        if isinstance(node, (ast.Global, ast.Nonlocal)) or (
                isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)):
            continue  # declarations and docstrings run no code
        bodies = [getattr(node, name, None) for name in ("body", "orelse", "handlers",
                                                         "finalbody", "cases")]
        inner = [stmt.lineno for body in bodies if isinstance(body, list) for stmt in body]
        last = min(inner) - 1 if inner else node.end_lineno
        first = min([node.lineno] + [dec.lineno for dec in
                                     getattr(node, "decorator_list", [])])
        yield first, max(first, last)


def main(argv: list[str]) -> int:
    import pytest

    executed: dict[str, set[int]] = {}
    prefix = str(SRC)

    def tracer(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(prefix):
            return None
        lines = executed.setdefault(path, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        lines.add(frame.f_lineno)
        return local

    sys.path.insert(0, prefix)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    for path in sorted(SRC.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = executed.get(str(path), set())
        text = source.splitlines()
        for first, last in sorted(set(_spans(ast.parse(source)))):
            if not lines.intersection(range(first, last + 1)):
                print(f"{path.relative_to(ROOT)}:{first}: {text[first - 1].strip()}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
