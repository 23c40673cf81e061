import itertools

import pytest

from qgt.disperser import DisperserParams, build_disperser, default_delta
from qgt.model import singletons
from qgt.ssui import rs_trunc_size
from qgt.sui import (
    SuIFamily,
    build_sui,
    build_sui_rr,
    chunk_query,
    compose,
    occurrence_total,
    verify_sui,
)

TINY_STRONG_8 = tuple(frozenset(c) for c in itertools.combinations(range(1, 9), 2))
TINY_PARAMS = DisperserParams(ell_star=1, epsilon=0.25, degree=4, delta=2, seed=3)


def _tiny_graph():
    return build_disperser(8, TINY_PARAMS)


def test_singleton_branch_at_small_n():
    fam = build_sui(8, 2, 0.5, 4, 2)
    assert fam.provenance == "singleton"
    assert fam.queries == tuple(frozenset({v}) for v in range(1, 9))


def test_singleton_family_verifies_with_zero_unselected():
    fam = build_sui(16, 4, 0.25, 4, 2)
    report = verify_sui(fam.queries, 16, 4, 0.25, 4, 2)
    assert report.max_unselected == 0
    assert report.passed


def test_admissibility_gate():
    with pytest.raises(ValueError, match="inadmissible"):
        build_sui(16, 1, 0.5, 8, 2)  # alpha*ell = 2 < kappa = 8
    build_sui(16, 4, 0.5, 8, 2)  # equality boundary is accepted


def test_composed_queries_are_neighborhood_subsets():
    graph = _tiny_graph()
    queries = compose(TINY_STRONG_8, graph)
    assert graph.n_right == 2  # |W| = ceil(1*4/2) = 2
    assert len(queries) == len(TINY_STRONG_8) * 2
    # right-node major, selector order within each node, empty sets kept
    hoods = graph.right_neighborhoods()
    for i, s in enumerate(queries):
        hood, t = hoods[i // len(TINY_STRONG_8)], TINY_STRONG_8[i % len(TINY_STRONG_8)]
        assert s == t & hood
    # every composed query is a subset of some strong-selector query
    for s in queries:
        assert any(s <= t for t in TINY_STRONG_8)


def test_composed_family_passes_the_oracle():
    queries = compose(TINY_STRONG_8, _tiny_graph())
    report = verify_sui(queries, 8, 2, 0.25, 2, 2)
    assert report.passed, report


def test_chunk_query_shapes():
    s = frozenset(range(1, 11))
    chunks = chunk_query(s, 4)
    assert [len(c) for c in chunks] == [4, 4, 2]
    assert frozenset().union(*chunks) == s
    assert chunk_query(frozenset(), 4) == []


def test_rr_chunks_respect_alpha():
    fam = build_sui_rr(8, 2, 0.5, 8, 2)
    assert fam.provenance == "alpha-chunked"
    assert all(len(s) <= 2 for s in fam.queries)


def test_rr_regime_gate():
    with pytest.raises(ValueError, match="chunked builder"):
        build_sui_rr(16, 8, 0.5, 4, 2)  # alpha*ell = 16 > kappa = 4


def test_chunking_preserves_occurrences_and_selection():
    base = compose(TINY_STRONG_8, _tiny_graph())
    chunked = [c for s in base for c in chunk_query(s, 2)]
    assert all(len(s) <= 2 for s in chunked)
    assert occurrence_total(base) == occurrence_total(tuple(chunked))
    # monotonicity: if the wide family selects v from K1, so does some chunk
    for k1 in itertools.combinations(range(1, 9), 2):
        k1_set = frozenset(k1)
        for v in k1:
            if any(s & k1_set == {v} for s in base):
                assert any(s & k1_set == {v} for s in chunked)


def test_empty_family_fails():
    report = verify_sui((), 8, 2, 0.5, 2, 2)
    assert report.max_unselected == 2
    assert not report.passed


def test_determinism():
    a = build_sui(16, 4, 0.5, 4, 2, seed=5)
    b = build_sui(16, 4, 0.5, 4, 2, seed=5)
    assert a == b


def test_composed_occurrence_bounded_by_degree_times_strong():
    queries = compose(TINY_STRONG_8, _tiny_graph())
    strong_occ = {v: sum(1 for t in TINY_STRONG_8 if v in t) for v in range(1, 9)}
    for v in range(1, 9):
        occ = sum(1 for s in queries if v in s)
        assert occ <= TINY_PARAMS.degree * strong_occ[v]


def test_occurrence_total_chunk_invariant():
    s = [frozenset(range(1, 11)), frozenset({1, 5})]
    chunked = [c for q in s for c in chunk_query(q, 3)]
    assert occurrence_total(tuple(s)) == occurrence_total(tuple(chunked))


@pytest.mark.parametrize("n", [2**e for e in range(1, 17)])
def test_default_sizing_always_takes_the_singleton_shortcut(n):
    # the composition is never shorter at these n (next test), so every
    # selector under interference is the n singletons
    for ell in (1, 2, 4, 8, 16):
        if ell <= n:
            fam = build_sui(n, ell, 0.5, ell, 1)
            assert fam.provenance == "singleton", (n, ell)
            assert fam.queries == singletons(n), (n, ell)


def _default_table_length(n):
    """Queries in the width-2*default_delta(n) truncated table, L*q, from its closed form."""
    q, _, points = rs_trunc_size(n, 2 * default_delta(n))
    return points * q


def test_default_strong_selector_is_first_shorter_than_n_at_2_33():
    # A composition has len(strong) * |W| >= len(strong) queries, so below
    # 2^33 it is never shorter than the n singletons build_sui returns.
    for e in range(1, 33):
        assert _default_table_length(2**e) >= 2**e, e
    assert rs_trunc_size(2**32, 2 * 32**3) == (65_537, 1, 65_536)
    assert _default_table_length(2**32) == 2**32 + 2**16  # just above n
    assert rs_trunc_size(2**33, 2 * 33**3) == (92_683, 1, 71_874)
    assert _default_table_length(2**33) == 6_661_497_942 < 2**33


def test_build_sui_builds_no_strong_selector_or_disperser(monkeypatch):
    import qgt.disperser
    import qgt.ssui
    import qgt.sui

    def refuse(*args, **kwargs):
        raise AssertionError("build_sui left the singleton family")

    monkeypatch.setattr(qgt.ssui, "strong_selector", refuse)
    monkeypatch.setattr(qgt.disperser, "build_disperser", refuse)
    monkeypatch.setattr(qgt.sui, "build_disperser", refuse)
    monkeypatch.setattr(qgt.sui, "compose", refuse)
    fam = build_sui(1024, 16, 0.5, 16, 3)
    assert fam.provenance == "singleton"
    assert fam.queries == tuple(frozenset({v}) for v in range(1, 1025))
