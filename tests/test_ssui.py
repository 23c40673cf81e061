import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgt.ssui import (
    BudgetError,
    build_ssui,
    cooccurrence_bound_holds,
    is_prime,
    max_unselected_count,
    occurrence_counts,
    rs_size,
    rs_table,
    rs_trunc_size,
    smallest_admissible_prime,
    strong_selector,
    truncated_table,
    verify_ssui,
)

from rs_table import nth_polynomial, poly_eval


def _prime_scan_oracle(lower: int, floor_pow: int, d: int) -> int:
    """Independent trial-division scan used to freeze expected primes."""

    def prime(x):
        return x >= 2 and all(x % f for f in range(2, int(x**0.5) + 1))

    q = lower
    while not (prime(q) and q ** (d + 1) >= floor_pow):
        q += 1
    return q


def test_smallest_admissible_prime_examples():
    assert smallest_admissible_prime(4, 2, 2, 16) == 17
    assert smallest_admissible_prime(2, 1, 2, 4) == 5
    # frozen from the scan oracle: first prime >= 48 with q^4 >= 4096
    assert _prime_scan_oracle(48, 4096, 3) == 53
    assert smallest_admissible_prime(8, 3, 2, 4096) == 53


def test_is_prime_small():
    primes = [x for x in range(2, 60) if is_prime(x)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_nth_polynomial():
    q, d = 5, 2
    assert nth_polynomial(1, q, d) == (0, 0, 0)
    assert nth_polynomial(q + 1, q, d) == (0, 1, 0)  # the polynomial x
    seen = {nth_polynomial(i, q, d) for i in range(1, 26)}
    assert len(seen) == 25
    with pytest.raises(ValueError):
        nth_polynomial(0, q, d)


def test_poly_eval_matches_horner_free_form():
    q = 7
    coeffs = (3, 0, 5)  # 3 + 5x^2
    for x in range(q):
        assert poly_eval(coeffs, x, q) == (3 + 5 * x * x) % q


def test_build_ssui_shape():
    fam = build_ssui(16, 4, 4, 2)
    assert fam.q == 17
    assert len(fam.queries) == 17 * 17
    occ = occurrence_counts(fam.queries, 16)
    assert all(c == fam.q for c in occ[1:])
    assert fam.analytic_slack > 0


def test_argument_groups_partition_universe():
    fam = build_ssui(16, 4, 4, 2)
    q = fam.q
    for x in range(q):
        group = fam.queries[x * q : (x + 1) * q]
        union = set().union(*group)
        assert union == set(range(1, 17))
        assert sum(len(s) for s in group) == 16


def test_cooccurrence_at_most_d():
    assert cooccurrence_bound_holds(build_ssui(16, 4, 4, 2))
    # q < n here, so queries actually share elements
    fam = build_ssui(256, 4, 4, 2)
    assert fam.q < 256
    counts = {}
    for s in fam.queries:
        for a, b in itertools.combinations(sorted(s), 2):
            counts[(a, b)] = counts.get((a, b), 0) + 1
    assert counts and max(counts.values()) <= fam.d
    assert cooccurrence_bound_holds(fam)


@pytest.mark.parametrize(
    "n,ell,kappa,alpha",
    [(16, 2, 4, 2), (16, 4, 4, 2), (8, 3, 4, 2), (8, 2, 2, 1), (32, 2, 3, 2)],
)
def test_verify_ssui_accepts_construction(n, ell, kappa, alpha):
    fam = build_ssui(n, ell, kappa, alpha)
    assert verify_ssui(fam.queries, n, ell, kappa, alpha)


def test_verify_ssui_rejects_empty_queries():
    empty = tuple(frozenset() for _ in range(10))
    assert not verify_ssui(empty, 8, 2, 2, 1)


def test_verify_ssui_accepts_round_robin_any_cap():
    singles = tuple(frozenset({v}) for v in range(1, 9))
    for alpha in (1, 2, 3):
        assert verify_ssui(singles, 8, 3, 4, alpha)


def test_verify_ssui_budget_guard():
    singles = tuple(frozenset({v}) for v in range(1, 9))
    with pytest.raises(BudgetError, match="too large"):
        verify_ssui(singles, 8, 3, 4, 1, budget=10)


def test_max_unselected_full_query_jam():
    # one query containing everything: any pair K1={u,v} leaves both unselected
    full = (frozenset(range(1, 9)),)
    worst = max_unselected_count(full, 8, 2, 0, 1)
    assert worst == 2


def _naive_max_unselected(queries, n, ell, kappa, alpha):
    """Independent oracle: literal scan over every (K1, K2) pair."""
    worst = 0
    universe = range(1, n + 1)
    k1s = [
        frozenset(c)
        for r in range(1, ell + 1)
        for c in itertools.combinations(universe, r)
    ]
    k2s = [
        frozenset(c)
        for r in range(kappa + 1)
        for c in itertools.combinations(universe, r)
    ]
    for k1 in k1s:
        for k2 in k2s:
            unsel = 0
            for v in k1:
                if not any(
                    s & k1 == {v} and len((s & k2) - {v}) < alpha for s in queries
                ):
                    unsel += 1
            worst = max(worst, unsel)
    return worst


def test_max_unselected_matches_naive_enumeration():
    fam = build_ssui(8, 2, 2, 1)
    assert max_unselected_count(fam.queries, 8, 2, 2, 1) == _naive_max_unselected(
        fam.queries, 8, 2, 2, 1
    )


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_max_unselected_matches_naive_on_random_families(data):
    n = 6
    count = data.draw(st.integers(0, 7))
    queries = tuple(
        frozenset(data.draw(st.sets(st.integers(1, n), max_size=n)))
        for _ in range(count)
    )
    ell = data.draw(st.integers(1, 3))
    kappa = data.draw(st.integers(0, 3))
    alpha = data.draw(st.integers(1, 3))
    fast = max_unselected_count(queries, n, ell, kappa, alpha)
    assert fast == _naive_max_unselected(queries, n, ell, kappa, alpha)


def test_strong_selector_prefers_singletons_at_small_n():
    fam = strong_selector(16, 50)
    assert fam == tuple(frozenset({v}) for v in range(1, 17))


def test_strong_selector_isolates_all_pairs():
    fam = strong_selector(16, 2)
    for k1 in itertools.combinations(range(1, 17), 2):
        k1_set = frozenset(k1)
        for v in k1:
            assert any(s & k1_set == {v} for s in fam)


@pytest.mark.parametrize("n, ell, kappa, alpha", [(16, 2, 4, 2), (32, 1, 1, 1), (64, 2, 0, 1)])
def test_truncated_table_is_the_first_points_of_the_full_table(n, ell, kappa, alpha):
    full = build_ssui(n, ell, kappa, alpha)
    # element i sits in query x*q + P_i(x) for the i-th polynomial P_i
    reference = [set() for _ in range(full.q**2)]
    for i in range(1, n + 1):
        coeffs = nth_polynomial(i, full.q, full.d)
        for x in range(full.q):
            reference[x * full.q + poly_eval(coeffs, x, full.q)].add(i)
    assert full.queries == tuple(map(frozenset, reference))
    for points in (1, 2, full.q - 1):
        assert rs_table(n, full.q, points) == full.queries[: points * full.q]
        assert truncated_table(n, full.q, points) == tuple(
            s for s in full.queries[: points * full.q] if s
        )


@pytest.mark.parametrize("n", [16, 32, 64, 128])
@pytest.mark.parametrize("width", [1, 2, 3])
def test_strong_selector_takes_the_truncated_table_where_it_is_shorter(n, width):
    q, _, points = rs_trunc_size(n, width)
    fam = strong_selector(n, width)
    if points * q < n:
        assert fam == truncated_table(n, q, points)
        assert len(fam) <= points * q < n
    else:
        assert fam == tuple(frozenset({v}) for v in range(1, n + 1))
    assert verify_ssui(fam, n, width, 0, 1)


def test_rs_size_is_unchanged_by_the_shared_prime_search():
    # the full table's q, frozen from the trial-division scan
    for n, ell, d in ((16, 2, 4), (1024, 4, 5), (2**15, 1, 15)):
        assert rs_size(n, ell, 0, 1) == (_prime_scan_oracle(max(2, 2 * ell * d), n, d), d)


def test_build_ssui_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_ssui(12, 2, 2, 2)
    with pytest.raises(ValueError):
        build_ssui(16, 0, 2, 2)
    with pytest.raises(ValueError):
        build_ssui(16, 2, -1, 2)
    with pytest.raises(ValueError):
        build_ssui(16, 2, 2, 0)


def test_strong_selector_refuses_width_zero():
    with pytest.raises(ValueError, match="^width must be >= 1, got 0$"):
        strong_selector(16, 0)
