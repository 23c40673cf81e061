"""CI runs no check that Tier-1 does not: every workflow step is one of a few calls.

The workflow file is read as text, with no yaml parser: a ``run:`` value
is the rest of its line, or, after ``run: |``, the lines indented below it.
"""

import re
from pathlib import Path

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"

# pytest (Tier-1 and the benchmark's smoke tests), the source size report,
# the install, and the benchmark's own runs
ALLOWED = re.compile(r"python3? (-m pytest|tests/code_lines\.py|-m pip install|perfbench/run\.py)\b")
# a check on the package itself, which belongs in tests/
RUNS_QGT = re.compile(r"-m qgt\b|python3? -c\b|\bimport qgt\b")


def run_scripts(text):
    lines = text.splitlines()
    scripts = []
    for i, line in enumerate(lines):
        key = line.strip().removeprefix("- ")
        if not key.startswith("run:"):
            continue
        value = key[len("run:"):].strip()
        if value not in ("|", ">"):
            scripts.append(value)
            continue
        indent = len(line) - len(line.lstrip())
        body = []
        for below in lines[i + 1:]:
            if below.strip() and len(below) - len(below.lstrip()) <= indent:
                break
            body.append(below.strip())
        scripts.append("\n".join(body).strip())
    return scripts


def test_run_scripts_are_read_from_one_line_and_block_values():
    text = "steps:\n  - run: python -m pytest -q\n  - name: x\n    run: |\n      a\n\n      b\n  - run: c\n"
    assert run_scripts(text) == ["python -m pytest -q", "a\n\nb", "c"]


def test_every_ci_step_is_pytest_the_size_report_the_install_or_a_benchmark_run():
    scripts = run_scripts(WORKFLOW.read_text())
    assert scripts
    for script in scripts:
        assert ALLOWED.search(script), f"a CI step runs a check that Tier-1 does not:\n{script}"
        assert not RUNS_QGT.search(script), f"a CI step runs qgt itself; make it a test:\n{script}"
