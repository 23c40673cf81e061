"""Differential decode properties over small codes of every decodable mode.

For an arbitrary feedback vector the decoder either raises DecodeError
or returns a multiset of at most k distinct elements whose encoding is
exactly that vector; every set of at most k elements (every multiset of
total at most k, on a multiset code) decodes to itself, checked
exhaustively by ``verify_decoding``.
A family's decode only proposes: it hands over the uncapped counts of
its proposal, reads each multiplicity below the cap, and a wrong
proposal is refused by ``decode_detailed``.
Kept as its nonzero entries (a ``Feedback``), a vector decodes exactly
as its dense tuple does, and ``Code.feedback`` equals the reference
``feedback_vector`` in every way a tuple is read.
"""

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgt import streaming
from qgt.bounds import verify_decoding
from qgt.code import MODE_MULTISET, Listed, Singletons, SlicedTable
from qgt.code import build_code, build_code_large, build_code_multiset
from qgt.decode import DecodeError, DecodeStats, decode
from qgt.model import Feedback, feedback_vector
from qgt.serialize import code_from_text, fv_from_text

from list_form import list_text
from rs_table import rs_table_code, trunc_table_code

CODES = (
    build_code(4, 4, 3),
    build_code(8, 2, 2),
    build_code(16, 3, 3),
    build_code(16, 4, 2),
    build_code_large(16, 8, 2),
    build_code_large(16, 4, 4),
    build_code_multiset(8, 2),
    build_code_multiset(16, 3),
    # at kappa = 1 the table has q < n, so its bases hold several elements
    rs_table_code(8, 1),
    rs_table_code(16, 1),
    rs_table_code(16, 2),
    dataclasses.replace(rs_table_code(16, 1), alpha=3),
    dataclasses.replace(rs_table_code(16, 4), alpha=3),
    # the table read exactly: multiplicities spelled out through slices
    dataclasses.replace(rs_table_code(16, 1), alpha=0, mode=MODE_MULTISET),
    # the truncated width-k table, as built from n = 2^5 at k = 1 and laid
    # out below the n where the builder takes it
    build_code(32, 1, 2),
    trunc_table_code(16, 2),
    trunc_table_code(32, 2),
    trunc_table_code(16, 3, alpha=3),
    trunc_table_code(32, 2, alpha=3),
    trunc_table_code(16, 2, alpha=0, mode=MODE_MULTISET),
    trunc_table_code(32, 3, alpha=0, mode=MODE_MULTISET),
)
CODE_IDS = [f"{c.mode}-{c.n}-{c.k}-{c.alpha}-m{len(c)}" for c in CODES]


def test_codes_cover_fat_bases_in_plain_and_multiset_mode():
    fat = [c for c in CODES if any(len(c.queries[b.base]) > 1 for b in c.blocks)]
    assert {c.mode for c in fat} == {"plain", MODE_MULTISET}


@st.composite
def _code_and_vector(draw):
    """An encoding of any multiset (possibly over k, possibly capped), then a few values overwritten."""
    code = draw(st.sampled_from(CODES))
    hidden = draw(
        st.dictionaries(st.integers(1, code.n), st.integers(1, 3), max_size=code.k + 1)
    )
    fv = list(code.feedback(hidden))
    for _ in range(draw(st.integers(0, 3))):
        idx = draw(st.integers(0, len(fv) - 1))
        fv[idx] = draw(st.integers(0, max(code.alpha, 3) + 1))
    return code, tuple(fv)


@given(_code_and_vector())
@settings(max_examples=1500, deadline=None)
def test_arbitrary_vector_raises_or_is_reproduced_exactly(case):
    code, fv = case
    family, cap = code.family, code.alpha
    # a family only proposes: it raises nothing and hands over the uncapped counts of its proposal
    found, counts, _ = family.decode(Feedback.of(fv).entries, code.n, code.k, cap)
    assert counts == family.encode(found, 0)
    try:
        got = decode(code, fv)
    except DecodeError:
        return
    assert got == found
    assert len(got) <= code.k
    assert all(mult >= 1 for mult in got.values())
    assert code.feedback(got) == fv
    if cap:  # each multiplicity was read where the value is below the cap, so exact
        for v, mult in got.items():
            assert any(counts[p] < cap for p in family.encode({v: mult}, 0)), v


@pytest.mark.parametrize("code", CODES, ids=CODE_IDS)
def test_every_set_within_capacity_decodes_to_itself(code):
    assert verify_decoding(code) is None


@pytest.mark.parametrize("code", [c for c in CODES if c.mode == MODE_MULTISET])
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_every_multiset_within_capacity_decodes_to_itself(code, data):
    hidden = data.draw(
        st.dictionaries(st.integers(1, code.n), st.integers(1, 4), max_size=code.k)
    )
    assert decode(code, code.feedback(hidden)) == dict(sorted(hidden.items()))


def test_plain_code_reads_a_multiplicity_below_the_cap():
    # no set produces a 2 at a singleton; the one multiset that does is returned
    code = build_code(16, 3, 3)
    fv = [0] * len(code)
    (idx,) = code.incidence[5]
    fv[idx] = 2
    assert decode(code, tuple(fv)) == {5: 2}


def test_multiset_code_refuses_more_than_k_distinct_elements():
    code = build_code_multiset(16, 3)
    fv = code.feedback({1: 1, 2: 2, 3: 1, 4: 1})
    with pytest.raises(DecodeError, match="more than k=3"):
        decode(code, fv)


def _outcome(code, fv):
    try:
        return decode(code, fv)
    except DecodeError as exc:
        return type(exc), str(exc)


def _sparse(fv):
    return Feedback(len(fv), {i: c for i, c in enumerate(fv) if c})


@pytest.mark.parametrize(
    "code, top",
    [(build_code_multiset(4, 2), 3), (build_code(8, 2, 2), 2)],
    ids=["multiset-4-2", "plain-8-2-2"],
)
def test_every_vector_of_a_tiny_code_raises_or_is_reproduced_exactly(code, top):
    decoded = 0
    for fv in itertools.product(range(top + 1), repeat=len(code)):
        got = _outcome(code, fv)
        if isinstance(got, dict):
            assert len(got) <= code.k
            assert code.feedback(got) == fv
            decoded += 1
        assert _outcome(code, _sparse(fv)) == got
        assert _outcome(code, list(fv)) == got
    assert decoded


@pytest.mark.parametrize(
    "code, top",
    [(build_code(8, 2, 2), 2), (build_code(8, 3, 3), 3), (build_code_multiset(4, 3), 4)],
    ids=["plain-8-2-2", "plain-8-3-3", "multiset-4-3"],
)
def test_singletons_read_gives_the_sweeps_outcome(code, top):
    # the list-form twin holds the same singletons as plain tuples, so it takes the sweep
    twin = code_from_text(list_text(code))
    assert type(code.family) is Singletons and type(twin.family) is not Singletons
    assert twin.queries == code.queries and twin.blocks == code.blocks
    errors = set()
    for fv in itertools.product(range(top + 1), repeat=len(code)):
        sparse = _sparse(fv)
        got = _outcome(code, sparse)
        assert got == _outcome(twin, sparse)
        if not isinstance(got, dict):
            errors.add(got[1].split(":")[0])
    # a capped code meets both errors; uncapped, only a (k+1)-th element raises
    expected = {f"decoded more than k={code.k} elements"}
    assert errors == (expected | {"inconsistent feedback"} if code.alpha else expected)


# Codes whose encodings are compared with the reference oracle: the
# 1,024 singletons, the 380-query truncated table at (512, 2), a list
# file parsed back into plain tuples, and a multiset code.
AGREEMENT_CODES = (
    build_code(1024, 4, 2),
    build_code(512, 2, 2),
    code_from_text(list_text(dataclasses.replace(rs_table_code(16, 2), alpha=3))),
    build_code_multiset(64, 4),
)
AGREEMENT_IDS = [f"{c.mode}-{c.n}-{c.k}-{c.alpha}-m{len(c)}" for c in AGREEMENT_CODES]


def _hidden_sets(code, rng):
    """The empty set, sets within capacity, multisets, and overfull multisets."""
    yield {}
    for size in range(1, code.k + 2):
        for _ in range(6):
            elements = rng.sample(range(1, code.n + 1), size)
            yield {v: rng.choice((1, 1, 2, 3, 5)) for v in elements}


@pytest.mark.parametrize("code", AGREEMENT_CODES, ids=AGREEMENT_IDS)
def test_feedback_agrees_with_the_reference_vector(code):
    rng = random.Random(len(code))
    m = len(code)
    for hidden in _hidden_sets(code, rng):
        for alpha in (None, 1, 2, 4):
            fv = code.feedback(hidden, alpha)
            ref = feedback_vector(code.queries, hidden, alpha or code.alpha or 10**6)
            assert type(fv) is Feedback and type(ref) is tuple
            assert fv == ref and ref == fv and not fv != ref
            assert hash(fv) == hash(ref)
            assert len(fv) == m
            assert tuple(fv) == ref and list(fv) == list(ref)
            assert list(reversed(fv)) == list(reversed(ref))
            positions = [0, m - 1, *fv.entries, *rng.sample(range(m), 8)]
            for i in positions:
                assert fv[i] == ref[i] and fv[i - m] == ref[i - m]
            for start, stop, step in ((0, m, 1), (3, m // 2, 1), (None, None, -1), (1, None, 7)):
                assert fv[start:stop:step] == ref[start:stop:step]
            assert fv == code.feedback(hidden, alpha)
            assert set(fv.entries) == {i for i, c in enumerate(ref) if c}


@pytest.mark.parametrize("code", AGREEMENT_CODES, ids=AGREEMENT_IDS)
def test_sparse_and_dense_vectors_decode_alike(code):
    rng = random.Random(len(code) + 1)
    for hidden in _hidden_sets(code, rng):
        fv = code.feedback(hidden)
        assert _outcome(code, fv) == _outcome(code, tuple(fv))
        # perturbed: a value moved at a touched or an untouched position
        dense = list(fv)
        for idx in (*list(fv.entries)[:2], rng.randrange(len(code))):
            dense[idx] = dense[idx] - 1 if dense[idx] else 2
            assert _outcome(code, _sparse(dense)) == _outcome(code, tuple(dense))


def test_feedback_reads_zero_off_its_entries():
    fv = Feedback(4, {3: 2, 0: 1})
    assert fv == (1, 0, 0, 2) and fv[1] == 0 and fv[-1] == 2
    assert fv.entries == {0: 1, 3: 2} and 1 not in fv.entries
    assert repr(fv) == "Feedback(4, {0: 1, 3: 2})"
    assert decode(build_code_multiset(4, 2), fv) == {1: 1, 4: 2}
    assert Feedback(0, {}) == ()
    with pytest.raises(IndexError):
        fv[4]
    with pytest.raises(IndexError):
        fv[-5]


def test_comparing_with_a_tuple_answers_as_the_dense_tuple_does():
    fv = Feedback(5, {1: 1, 3: 2})
    tuples = [
        (0, 1, 0, 2, 0),
        (0.0, 1, False, 2.0, 0),  # values equal to 0, 1 and 2
        (0, True, 0, 2, 0),  # True == 1
        (0, 1, None, 2, 0),
        (None, 1, 0, 2, 0),
        (0, 1, 0, True, 0),
        (0, 0, 0, 2, 0),
        (0, 1, 0, 2, 1),
        (0, 1, 0, 2),  # wrong lengths
        (0, 1, 0, 2, 0, 0),
        (),
    ]
    for t in tuples:
        assert (fv == t) is (fv.dense() == t) is (t == fv), t
        assert (fv != t) is (fv.dense() != t), t
    assert Feedback(0, {}) == () and Feedback(2, {}) == (0, False) and Feedback(2, {}) != (0, None)
    assert list(fv) == [0, 1, 0, 2, 0] and list(Feedback(0, {})) == []


def test_every_vector_keeps_its_entries_in_a_plain_dict(monkeypatch):
    code = build_code_multiset(16, 2)
    sketch = streaming.StreamSketch(code)
    sketch.insert(5)
    handed = []
    monkeypatch.setattr(streaming, "decode", lambda code, fv: handed.append(fv))
    sketch.reconstruct()
    assert handed[0].entries is not sketch.counters
    vectors = (
        code.feedback({5: 1}),
        Feedback(16, {4: 1}),
        Feedback.of([0] * 4 + [1] + [0] * 11),
        fv_from_text("0 0 0 0 1" + " 0" * 11 + "\n"),
        handed[0],
    )
    for fv in vectors:
        assert type(fv.entries) is dict and fv.entries == {4: 1}
        assert fv[3] == 0 and fv[15] == 0 and fv[4] == 1


@pytest.mark.parametrize(
    "length, entries, error, message",
    [
        (4, {4: 1}, ValueError, "position 4 outside"),
        (4, {-1: 1}, ValueError, "position -1 outside"),
        (4, {1.0: 1}, TypeError, "position must be an int"),
        (4, {"1": 1}, TypeError, "position must be an int"),
        (4, {True: 1}, TypeError, "position must be an int"),
        (4, {0: 0}, ValueError, "must be positive"),
        (4, {0: 1, 2: -3}, ValueError, "position 2 must be positive"),
        (4, {0: 1.5}, TypeError, "must be an int"),
        (4, {0: "1"}, TypeError, "must be an int"),
        (-1, {}, ValueError, "length must be"),
        (4.0, {}, ValueError, "length must be"),
    ],
    ids=[
        "position-past-the-end",
        "position-negative",
        "position-float",
        "position-str",
        "position-bool",
        "value-zero",
        "value-negative",
        "value-float",
        "value-str",
        "length-negative",
        "length-float",
    ],
)
def test_feedback_refuses_bad_entries(length, entries, error, message):
    with pytest.raises(error, match=message):
        Feedback(length, entries)


# one code of each family, for vectors handed over as a list or a tuple
FORM_CODES = [build_code(16, 2, 2), build_code(512, 2, 2), code_from_text(list_text(build_code(16, 2, 2)))]


@pytest.mark.parametrize("entry", [1.0, True, -1], ids=["float", "bool", "negative"])
@pytest.mark.parametrize("form", [list, tuple])
@pytest.mark.parametrize("code", FORM_CODES, ids=["singletons", "table", "listed"])
def test_decode_refuses_what_feedback_refuses(code, form, entry):
    # a vector that is not a Feedback becomes one, so it is refused as Feedback refuses it
    values = [0] * (len(code) - 1) + [entry]
    with pytest.raises((TypeError, ValueError)) as refused:
        Feedback(len(values), {p: x for p, x in enumerate(values) if x})
    with pytest.raises((TypeError, ValueError)) as raised:
        decode(code, form(values))
    assert type(raised.value) is type(refused.value) and str(raised.value) == str(refused.value)


@pytest.mark.parametrize("form", [list, tuple])
@pytest.mark.parametrize("code", FORM_CODES, ids=["singletons", "table", "listed"])
def test_a_value_equal_to_zero_reads_as_zero_and_no_other(code, form):
    values = list(code.feedback({3: 1}))
    for zero in (0.0, False):
        assert decode(code, form([zero if x == 0 else x for x in values])) == {3: 1}
    p = values.index(0)
    for entry in (None, 1.0, True):
        bad = values[:p] + [entry] + values[p + 1 :]
        with pytest.raises(TypeError, match=rf"^feedback value at position {p} must be an int, got {entry!r}$"):
            decode(code, form(bad))


@pytest.mark.parametrize(
    "entry, error, wording",
    [(None, TypeError, "must be an int, got None"), (True, TypeError, "must be an int, got True"),
     (-1, ValueError, "must be positive, got -1"), (1.5, TypeError, "must be an int, got 1.5")],
    ids=["none", "bool", "negative", "float"],
)
@pytest.mark.parametrize("form", [list, tuple])
def test_a_list_form_vector_names_its_first_bad_entry(form, entry, error, wording):
    # positive ints around it, and bad entries after it, which are not named
    values = form([0, 2, 0, 1, entry, 0, 3, -2, 2.5, None])
    with pytest.raises(error, match=rf"^feedback value at position 4 {wording}$"):
        Feedback.of(values)
    good = form([0, 2, 0, 1, 7, 0, 3, 0.0, False, 0])
    fv = Feedback.of(good)
    assert type(fv.entries) is dict and fv.entries == {1: 2, 3: 1, 4: 7, 6: 3} and len(fv) == 10
    assert fv == Feedback(10, {1: 2, 3: 1, 4: 7, 6: 3}) and Feedback.of(form([0, 0])).entries == {}


def test_consistency_error_names_the_first_disagreeing_position():
    code = build_code(16, 3, 2)  # the singletons: a 2 sits at the cap and decodes nothing
    for fv in (Feedback(16, {9: 1, 5: 2}), (0, 0, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0)):
        with pytest.raises(
            DecodeError,
            match=r"^inconsistent feedback: residual counts unexplained by decoded set: "
            r"position 5 reads 2, decoded count 0$",
        ):
            decode(code, fv)


def test_consistency_error_names_a_touched_position_that_reads_zero():
    code = dataclasses.replace(rs_table_code(16, 2), alpha=3)
    fv = list(code.feedback({6: 1}))
    touched = [i for i, c in enumerate(fv) if c]
    fv[touched[-1]] = 0  # a slice of a later base: the first base still decodes 6
    with pytest.raises(DecodeError, match=rf"position {touched[-1]} reads 0, decoded count 1$"):
        decode(code, _sparse(fv))


def test_over_explained_query_names_its_base():
    code = dataclasses.replace(rs_table_code(16, 2), alpha=3)
    fv = list(code.feedback({6: 2}))
    bases = [b.base for b in code.blocks if fv[b.base]]
    fv[bases[-1]] = 1  # the first base decodes 6 twice; the last reads only 1
    with pytest.raises(
        DecodeError,
        match=r"^inconsistent feedback: residual counts unexplained by decoded set: "
        rf"position {bases[-1]} reads 1, decoded count 2$",
    ):
        decode(code, _sparse(fv))


class _Proposing(Listed):
    """A listed family whose decode proposes a fixed multiset, with its honest counts."""

    def __init__(self, queries, blocks, proposal):
        super().__init__(queries, blocks)
        self.proposal = proposal

    def decode(self, entries, n, k, cap):
        return self.proposal, self.encode(self.proposal, 0), DecodeStats()


@pytest.mark.parametrize(
    "code", [build_code(16, 3, 3), build_code_multiset(16, 3)], ids=["plain-16-3-3", "multiset-16-3"]
)
def test_a_wrong_proposal_is_refused(code):
    def proposing(proposal):
        return dataclasses.replace(code, family=_Proposing(tuple(code.queries), code.blocks, proposal))

    fv = Feedback(16, {6: 2})  # element 7 twice
    assert decode(proposing({7: 2}), fv) == {7: 2}
    with pytest.raises(DecodeError, match=r"^decoded more than k=3 elements$"):
        decode(proposing({1: 1, 2: 1, 3: 1, 4: 1}), fv)
    with pytest.raises(
        DecodeError,
        match=r"^inconsistent feedback: residual counts unexplained by decoded set: "
        r"position 6 reads 2, decoded count 3$",
    ):
        decode(proposing({7: 3}), fv)


@pytest.mark.parametrize(
    "code, hidden",
    [
        (build_code_multiset(2**20, 16), {5: 3, 77: 1, 4096: 2, 2**19 + 1: 1, 2**20: 9}),
        (build_code(2**18, 4, 3), {3: 1, 70000: 1, 200000: 2, 2**18: 1}),
    ],
    ids=["multiset-2^20-16", "plain-2^18-4-3"],
)
def test_round_trip_never_builds_a_dense_vector(code, hidden, monkeypatch):
    def refuse(*args):
        raise AssertionError("a dense vector or a laid-out code was built")

    plain = tuple(code.feedback(hidden))  # a plain tuple, made before anything is refused
    monkeypatch.setattr(Feedback, "dense", refuse)
    for family in (Singletons, SlicedTable):
        monkeypatch.setattr(family, "_make", refuse)
    fv = code.feedback(hidden)
    assert len(fv) == len(code) and len(fv.entries) <= len(hidden) * code.occurrence_max
    assert decode(code, fv) == hidden
    assert decode(code, plain) == hidden
