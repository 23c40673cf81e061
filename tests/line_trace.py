"""Print the executable statements of the package that the test suite never runs.

Runs the suite in this process (``pytest.main``) under a line tracer
(``sys.settrace`` and ``threading.settrace``) that follows only frames of
``src/qgt``, then lists, per file, each statement no traced line
reached.  Run from the repository root:

    python tests/line_trace.py [pytest arguments ...]

With no argument it runs the whole suite (a few minutes: tracing slows
the package several times over).  A statement counts as run when a line
of its own reads (for a compound statement: its header, or any statement
inside it) was traced.  Not counted: docstrings, ``nonlocal`` and
``global``, the ``if TYPE_CHECKING:`` block, the body of an
``if __name__ == "__main__":`` block and ``__main__.py``.  Code that
the suite runs in a subprocess (the CLI tests that start ``python -m
qgt``, the benchmark smoke runs) is not traced, so a statement only such
a run reaches is listed too.  pytest does not collect this file.
"""

from __future__ import annotations

import ast
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qgt"

_NEVER_COUNTED = (ast.Global, ast.Nonlocal)


def _is_docstring(node: ast.stmt) -> bool:
    return isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)


def _guard(node: ast.stmt) -> str | None:
    """'TYPE_CHECKING' or '__main__' for the two guarded blocks the report skips; else None."""
    if not isinstance(node, ast.If):
        return None
    test = node.test
    if isinstance(test, ast.Name) and test.id == "TYPE_CHECKING":
        return "TYPE_CHECKING"
    if (
        isinstance(test, ast.Compare)
        and isinstance(test.left, ast.Name)
        and test.left.id == "__name__"
        and any(isinstance(c, ast.Constant) and c.value == "__main__" for c in test.comparators)
    ):
        return "__main__"
    return None


def _bodies(node: ast.stmt) -> list[list[ast.stmt]]:
    return [
        body
        for body in (
            getattr(node, "body", None),
            getattr(node, "orelse", None),
            getattr(node, "finalbody", None),
            *(handler.body for handler in getattr(node, "handlers", ())),
            *(case.body for case in getattr(node, "cases", ())),
        )
        if isinstance(body, list) and body and isinstance(body[0], ast.stmt)
    ]


def _statements(body: list[ast.stmt], out: list[tuple[ast.stmt, range, list]]) -> None:
    """(statement, its own lines, the statements inside it) for each counted statement in ``body``."""
    for position, node in enumerate(body):
        if (position == 0 and _is_docstring(node)) or isinstance(node, _NEVER_COUNTED):
            continue
        guard = _guard(node)
        if guard == "TYPE_CHECKING":
            continue
        bodies = [] if guard == "__main__" else _bodies(node)
        start = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
        end = min(b[0].lineno for b in bodies) - 1 if bodies else node.end_lineno
        inner: list[tuple[ast.stmt, range, list]] = []
        for sub in bodies:
            _statements(sub, inner)
        out.append((node, range(start, max(start, end) + 1), inner))
        out.extend(inner)


def _reached(own: range, inner: list, ran: set[int]) -> bool:
    return any(line in ran for line in own) or any(_reached(o, i, ran) for _, o, i in inner)


def report(executed: dict[str, set[int]]) -> list[str]:
    lines, total = [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__main__.py":
            continue
        source = path.read_text()
        statements: list[tuple[ast.stmt, range, list]] = []
        _statements(ast.parse(source).body, statements)
        ran = executed.get(str(path), set())
        text = source.splitlines()
        missed = [node for node, own, inner in statements if not _reached(own, inner, ran)]
        total += len(missed)
        for node in missed:
            lines.append(f"{path.relative_to(ROOT)}:{node.lineno}: {text[node.lineno - 1].strip()}")
    lines.append(f"{total} statements never ran")
    return lines


def main(argv: list[str]) -> int:
    import pytest

    prefix = str(PACKAGE) + "/"
    executed: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *(argv or [str(ROOT / "tests")])])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    print("\n".join(report(executed)))
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
