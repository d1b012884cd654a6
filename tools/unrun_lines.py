#!/usr/bin/env python3
"""List the statements of ``src/numakmeans`` that no test executes.

Runs the tier-1 pytest suite in this process under ``sys.settrace`` and
``threading.settrace``, so the engine's worker threads and kmeans++'s range
threads are traced too, records every line executed in ``src/numakmeans``,
and prints each statement none of those lines belongs to:

    python tools/unrun_lines.py                 # the whole tier-1 suite
    python tools/unrun_lines.py tests/test_sem.py -k cache

Arguments are passed to pytest in place of the default ``-q
--continue-on-collection-errors``.  Only the standard library is used: a
statement counts as run when any line of its own (a compound statement's
header, a simple statement's whole span) raised a line event.  Lines the
compiler emits no code for, such as docstrings, are never listed.

The tracer slows the suite severalfold and allocates on the traced threads,
so tests that bound peak memory with ``tracemalloc`` (such as
``test_scan_block_scratch_is_bounded_by_the_chunk``) or that time a run can
fail under it; their statements still count as run.  The exit status is
pytest's.
"""

from __future__ import annotations

import ast
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "numakmeans"


def own_lines(node: ast.stmt) -> range:
    """The lines that belong to ``node`` itself: up to its first nested
    statement for a compound statement, its whole span otherwise."""
    first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", []))])
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        return range(first, max(node.lineno, body[0].lineno - 1) + 1)
    return range(first, node.end_lineno + 1)


def code_lines(code) -> set[int]:
    """Every line that ``code`` or a code object nested in it emits code for."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def unrun(path: Path, executed: set[int]) -> list[int]:
    """First lines of the statements of ``path`` that ran none of their lines."""
    source = path.read_text()
    emitted = code_lines(compile(source, str(path), "exec"))
    missed = []
    for node in ast.walk(ast.parse(source)):
        docstring = isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
        if isinstance(node, ast.stmt) and not docstring:
            mine = set(own_lines(node)) & emitted
            if mine and not mine & executed:
                missed.append(node.lineno)
    return sorted(missed)


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    prefix = str(PACKAGE) + "/"
    executed: dict[str, set[int]] = defaultdict(set)

    def trace(frame, event, arg):
        # called for each new frame; trace lines only inside the package
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        lines = executed[frame.f_code.co_filename]

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line

        return line

    import pytest

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(argv or ["-q", "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = path.read_text().splitlines()
        for n in unrun(path, executed.get(str(path), set())):
            print(f"{path.relative_to(ROOT)}:{n}: {lines[n - 1].strip()}")
            total += 1
    print(f"{total} statements in {PACKAGE.relative_to(ROOT)} were not run")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
