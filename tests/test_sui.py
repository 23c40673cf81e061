import itertools

import pytest

from qgt.disperser import DisperserParams, build_disperser
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
    # the composed branch never runs at any n a code can be built for
    for ell in (1, 2, 4, 8, 16):
        if ell <= n:
            assert build_sui(n, ell, 0.5, ell, 1).provenance == "singleton", (n, ell)


def test_singleton_shortcut_reuses_the_strong_selectors_tuple(monkeypatch):
    # At default sizing the width-2*delta strong selector is the n singletons;
    # the shortcut hands that tuple on instead of building the singletons again.
    import qgt.ssui

    original = qgt.ssui.strong_selector
    returned = []

    def recording(n, width):
        returned.append(original(n, width))
        return returned[-1]

    monkeypatch.setattr(qgt.ssui, "strong_selector", recording)
    fam = build_sui(1024, 16, 0.5, 16, 3)
    assert len(returned) == 1
    assert fam.queries is returned[0]
    assert fam.provenance == "singleton"
    assert fam.queries == tuple(frozenset({v}) for v in range(1, 1025))
