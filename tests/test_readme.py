"""README's "Library entry points" block runs, and each value comment holds.

A line whose comment reads as a Python literal, alone or after a
"label:" prefix (``# {9: 1}``, ``# exhaustive oracle: True``), is an
expression whose value the comment states; every other line is run as
written.
"""

import ast
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _entry_points_block() -> list[str]:
    text = README.read_text()
    section = text[text.index("## Library entry points") :]
    start = section.index("```python\n") + len("```python\n")
    return section[start : section.index("```", start)].splitlines()


def _stated_value(comment: str):
    """The literal a comment states, or None for a descriptive comment."""
    for candidate in (comment, comment.partition(": ")[2]):
        try:
            return (ast.literal_eval(candidate.strip()),)
        except (ValueError, SyntaxError):
            continue
    return None


def test_library_entry_points_block_states_true_values():
    namespace: dict = {}
    checked = 0
    for line in _entry_points_block():
        code, _, comment = line.partition("#")
        stated = _stated_value(comment) if comment else None
        if stated is None:
            exec(code, namespace)
            continue
        assert eval(code, namespace) == stated[0], line
        checked += 1
    assert checked == 5  # {5: 1, 11: 1}, None, {7: 3}, True, {9: 1}
