"""Every one-line or one-token mutation of a code file is refused, or loads a code that works.

The sources are the golden family files, the (512, 2, 2) table file and
the list forms (``qgtc 1``, ``list_form.list_text``) of small codes.
Each mutant deletes or duplicates one line, or deletes, duplicates,
shifts by +-1 or replaces with a non-integer one token.  A mutant must
raise ``FormatError``, or load a code that round-trips through
``code_to_text``; that code's decode of sampled sets must then
re-encode to the same vector or raise ``DecodeError``.  Any other
exception fails the test.
"""

import random

import pytest

from qgt.code import build_code, build_code_multiset
from qgt.decode import DecodeError, decode
from qgt.serialize import FormatError, code_from_text, code_to_text

from list_form import list_text
from test_golden_codes import GOLDEN

SOURCES = [family_text for *_, family_text in GOLDEN] + [
    code_to_text(build_code(512, 2, 2)),
    list_text(build_code(16, 2, 2)),
    list_text(build_code(32, 1, 2)),  # the table, one-element bases and full ones
    list_text(build_code_multiset(8, 3)),
]


def _token_variants(token):
    yield []  # deleted
    yield [token, token]  # duplicated
    if token.lstrip("-").isdigit():
        yield [str(int(token) + 1)]
        yield [str(int(token) - 1)]
    yield ["x"]  # not an integer


def _mutants(text):
    lines = text.splitlines()
    for i in range(len(lines)):
        yield lines[:i] + lines[i + 1 :]
        yield lines[: i + 1] + lines[i:]
        tokens = lines[i].split()
        for j, token in enumerate(tokens):
            for variant in _token_variants(token):
                line = " ".join(tokens[:j] + variant + tokens[j + 1 :])
                yield lines[:i] + [line] + lines[i + 1 :]


def _samples(code, rng):
    yield {}
    for _ in range(3):
        yield {v: 1 for v in rng.sample(range(1, code.n + 1), min(code.k, code.n))}


@pytest.mark.parametrize("text", SOURCES, ids=[f"source{i}" for i in range(len(SOURCES))])
def test_every_mutant_is_refused_or_works(text):
    rng = random.Random(0)
    loaded = 0
    for lines in _mutants(text):
        mutant = "\n".join(lines) + "\n"
        try:
            code = code_from_text(mutant)
        except FormatError:
            continue
        loaded += 1
        assert code_from_text(code_to_text(code)) == code, mutant
        for hidden in _samples(code, rng):
            fv = code.feedback(hidden)
            try:
                got = decode(code, fv)
            except DecodeError:
                continue
            assert code.feedback(got) == fv, (mutant, hidden, got)
    assert loaded  # a header value moved by one still loads
