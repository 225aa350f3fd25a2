#!/usr/bin/env python3
"""Run the tests in this process and print each statement of
``src/hdclass/`` that the run never executed.

    python3 tools/line_coverage.py [PYTEST_ARGS...]

With no arguments the whole ``tests/`` directory runs, less the bench
self-test, whose work happens in child processes that no tracer here
sees.  Given arguments replace that default and go to pytest unchanged.
A ``sys.settrace`` hook follows only frames whose code lies in
``src/hdclass/``; every other call returns at once.  The statements come
from ``ast``: a compound statement counts by its header lines, a simple
one by all of its lines, and docstrings and ``global``/``nonlocal``
lines, which compile to nothing, are not counted.  Each unexecuted
statement prints as ``path:line  source``, followed by one summary line.
The exit status is pytest's.  Only the standard library and pytest are
used; tracing slows the run to about twice the plain test time.
"""

from __future__ import annotations

import ast
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "hdclass")
DEFAULT_ARGS = ["-q", "-p", "no:cacheprovider", os.path.join(ROOT, "tests"),
                "--deselect", "tests/test_bench_selftest.py::test_bench_selftest_passes"]


def statement_lines(source: str) -> dict[int, range]:
    """The first line of each counted statement, mapped to the lines whose
    execution counts for it."""
    tree = ast.parse(source)
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            docstrings.add(id(node.body[0]))
    lines = {}
    for node in ast.walk(tree):
        if (not isinstance(node, ast.stmt) or id(node) in docstrings
                or isinstance(node, (ast.Global, ast.Nonlocal))):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        lines[first] = range(first, max(first, last) + 1)
    return lines


def main(argv: list[str]) -> int:
    import pytest

    hit: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(PACKAGE + os.sep):
            return None
        hit.setdefault(path, set())
        return local

    # Set before pytest imports the package, so module bodies are traced too.
    sys.settrace(call)
    try:
        status = pytest.main(argv or DEFAULT_ARGS)
    finally:
        sys.settrace(None)

    total = missed = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        text = source.splitlines()
        seen = hit.get(path, set())
        for first, span in sorted(statement_lines(source).items()):
            total += 1
            if seen.isdisjoint(span):
                missed += 1
                print(f"{os.path.relpath(path, ROOT)}:{first}  {text[first - 1].strip()}")
    print(f"{missed} of {total} statements in src/hdclass/ never executed")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
