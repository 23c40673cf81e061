"""Print the total and code-only line counts of the package sources.

Code-only lines are those holding a token that is not a comment or a
docstring (the string that opens a module, class or function body);
blank lines hold no token.  Run from the repository root:

    python tests/code_lines.py [file.py ...]

With no argument it counts ``src/qgt/*.py``, one line per file and a
total.  pytest does not collect this file.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NO_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(source: str) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(total lines, code-only lines) of one source file."""
    source = path.read_text()
    docstrings = _docstring_lines(source)
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NO_CODE or (tok.type == tokenize.STRING and tok.start[0] in docstrings):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code)


def main(argv: list[str]) -> None:
    paths = [Path(a) for a in argv] or sorted(Path("src/qgt").glob("*.py"))
    total = code = 0
    for path in paths:
        lines, code_lines = count(path)
        total += lines
        code += code_lines
        print(f"{lines:6d} {code_lines:6d}  {path}")
    print(f"{total:6d} {code:6d}  total (lines, code-only lines)")


if __name__ == "__main__":
    main(sys.argv[1:])
