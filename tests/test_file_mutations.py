"""Every one-line or one-token mutation of a code, feedback or op-log file is refused, or works.

The code sources are the golden family files, the (512, 2, 2) table
file and the list forms (``qgtc 1``, ``list_form.list_text``) of small
codes.  Each mutant deletes or duplicates one line, or deletes,
duplicates, shifts by +-1 or replaces with a non-integer one token.  A
mutant must raise ``FormatError``, or load a code that round-trips
through ``code_to_text``; that code's decode of sampled sets must then
re-encode to the same vector or raise ``DecodeError``.  Any other
exception fails the test.

A feedback file is one line, so its mutants are its one-token mutants.
Each must raise ``FormatError`` in ``fv_from_text`` or ``DecodeError``
in the decoder, or decode to at most k elements that re-encode to the
mutant vector.  An op log's mutants are replayed through ``parse_ops``
and ``StreamSketch.apply``: an op either raises ``ValueError`` and
leaves the counters as they were, or applies, and ``reconstruct``
returns the multiset of the applied ops, refusing exactly when its
total passes min(alpha, k).
"""

import random
from collections import Counter

import pytest

from qgt.code import build_code, build_code_multiset
from qgt.decode import DecodeError, decode
from qgt.serialize import FormatError, code_from_text, code_to_text, fv_from_text, fv_to_text
from qgt.streaming import StreamSketch, parse_ops

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


# A feedback file's mutants cost O(m) each to parse, so O(m^2) a file:
# the golden codes of length at most 1,024, and the (512, 2, 2) table.
FEEDBACK_CODES = [code for code in (code_from_text(text) for *_, text in GOLDEN) if len(code) <= 1024]


def _feedback_mutants(text):
    tokens = text.split()
    for j, token in enumerate(tokens):
        for variant in _token_variants(token):
            yield " ".join(tokens[:j] + variant + tokens[j + 1 :]) + "\n"


def _hidden_sets(code, rng, count):
    for _ in range(count):
        hidden = Counter(rng.sample(range(1, code.n + 1), min(code.k, code.n)))
        if code.mode == "multiset" and code.k > 1:
            hidden[min(hidden)] += 1  # a repeated element, still within k
            del hidden[max(hidden)]
        yield hidden


@pytest.mark.parametrize(
    "code, sets",
    [*((code, 1) for code in FEEDBACK_CODES), (build_code(512, 2, 2), 3)],
    ids=[*(f"{c.mode}-{c.n}-{c.k}-{c.alpha}" for c in FEEDBACK_CODES), "table-512-2-2"],
)
def test_every_feedback_mutant_is_refused_or_reencodes(code, sets):
    rng = random.Random(code.n + code.k)
    for hidden in _hidden_sets(code, rng, sets):
        text = fv_to_text(code.feedback(hidden))
        assert decode(code, fv_from_text(text)) == dict(sorted(hidden.items()))
        for mutant in _feedback_mutants(text):
            try:
                fv = fv_from_text(mutant)
                got = decode(code, fv)
            except (FormatError, DecodeError):
                continue
            assert len(got) <= code.k, (mutant, got)
            assert code.feedback(got) == fv, (mutant, got)


def _op_log(n, k, ops, seed):
    """A seeded log of inserts and deletes whose total hovers up to one past k."""
    rng, held, lines = random.Random(seed), Counter(), []
    for _ in range(ops):
        if held and (held.total() > k or rng.random() < 0.45):
            v = rng.choice(sorted(held))
            lines.append(f"D {v}")
            held[v] -= 1
            held = +held
        else:
            v = rng.choice(sorted(held)) if held and rng.random() < 0.2 else rng.randint(1, n)
            lines.append(f"I {v}")
            held[v] += 1
    return "".join(line + "\n" for line in lines)


def _replay(code, text):
    """Apply each op of ``text`` until one raises; returns the multiset applied and whether one raised."""
    sketch, held = StreamSketch(code), Counter()
    try:
        ops = parse_ops(text.splitlines())
    except ValueError:
        return sketch, held, True
    for op, params in ops:
        before = dict(sketch.counters)
        try:
            if len(params) != 1:  # as ``qgt stream`` refuses it
                raise ValueError(f"stream operations take one element, got {params}")
            sketch.apply(op, params[0])
        except ValueError:
            assert sketch.counters == before, (text, op, params)
            return sketch, held, True
        held[params[0]] += 1 if op == "I" else -1
        held = +held
    return sketch, held, False


def test_every_op_log_mutant_is_refused_at_an_op_or_reconstructs():
    code = build_code_multiset(64, 4)
    text = _op_log(64, 4, 200, seed=64)
    refused = over = 0
    for lines in _mutants(text):
        mutant = "\n".join(lines) + "\n"
        sketch, held, raised = _replay(code, mutant)
        refused += raised
        if held.total() > min(sketch.alpha, code.k):
            over += 1
            with pytest.raises(ValueError, match="capacity exceeded"):
                sketch.reconstruct()
        else:
            assert sketch.reconstruct() == dict(sorted(held.items())), mutant
    assert refused and over
