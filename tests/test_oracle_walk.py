"""The push/pop oracle walks against the reference scans of oracle_reference.py.

Random families at n <= 8 check value, ``stop_at`` result, verdict,
first witness and BudgetError points; built codes of every mode at
n <= 16, the Reed-Solomon table laid out as a code, a strong selector
under interference and the one-full-query family check whole verdicts.
The uniqueness walk is also run with every fingerprint step forced to 0,
so that every set shares one fingerprint and each verdict rests on the
comparison of full capped profiles.

The walks skip inert elements (``model.active_elements``), so the random
families mix private singleton queries, elements in no query and random
queries, checking that the skip changes no value, witness or refusal;
the built codes of the benchmark's oracle grid check it at n = 32.

On a built code's queries the oracles read the active elements from the
rule (the family's ``active``): every walking oracle must give the
same outcome there, on the same queries as a plain tuple and in the
reference scan, under every budget; a call over another universe must
not read the rule, the immediate verdicts with no active element must
keep the reference's verdicts at cap 0, a negative cap or set width
must be refused, and the n = 2^18
singletons and the n = 2^15 table must be checked with no query laid
out.  The index a built family gives must equal the one scanned from
its queries, and each way the walks settle a set at their last level
(a jamming walk without a push, or with one where a query crosses the
over-full line; a uniqueness walk on a repeated fingerprint) must keep
the reference's witness or verdict.  Uniqueness at k <= 1 is read from
the columns without a walk, checked against the reference on families
with twin columns, elements in no query, repeated singleton queries and
empty queries.  Claim A is checked on both sides
of k = alpha + 1: at or below it no query can be over-full and nothing
is walked, above it the walk runs, and either way the witness and the
BudgetError points are the reference's.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qgt.bounds
import qgt.model
from qgt.bounds import find_unjammed_violation, verify_uniqueness
from qgt.code import MODE_LARGE, MODE_MULTISET, MODE_PLAIN, Singletons, SlicedTable, build, build_code
from qgt.code import build_code_multiset, level_params
from qgt.model import BudgetError, OracleIndex, _Filled, active_elements, incidence, sets_up_to, singletons
from qgt.model import subset_at, walk_subsets
from qgt.random_code import RandomCode, build_random_code, verify_claims
from qgt.ssui import build_ssui, max_unselected_count, verify_ssui
from qgt.sui import build_sui

from oracle_reference import (
    reference_find_unjammed_violation,
    reference_max_unselected_count,
    reference_verify_claims,
    reference_verify_uniqueness,
)
from rs_table import rs_table_code, trunc_table_code
from test_golden_codes import BUILDERS, GOLDEN


def _outcome(oracle, *args, **kwargs):
    """The oracle's result, or BudgetError when it refuses its budget."""
    try:
        return oracle(*args, **kwargs)
    except BudgetError:
        return BudgetError


@st.composite
def _family(draw):
    """Random queries at n <= 8, mixed with private singletons (some repeated), shuffled.

    Half the time the random queries avoid the private elements, which
    then stay inert; elements in no query occur throughout.
    """
    n = draw(st.integers(1, 8))
    private = sorted(draw(st.sets(st.integers(1, n), max_size=n)))
    queries = [frozenset((v,)) for v in private for _ in range(draw(st.integers(1, 2)))]
    others = [v for v in range(1, n + 1) if v not in private]
    if others and draw(st.booleans()):
        pool, size = st.sampled_from(others), len(others)
    else:
        pool, size = st.integers(1, n), n
    count = draw(st.integers(0, 8))
    queries += [frozenset(draw(st.sets(pool, max_size=size))) for _ in range(count)]
    return tuple(draw(st.permutations(queries))), n


@given(_family(), st.data())
@settings(max_examples=400, deadline=None)
def test_max_unselected_matches_reference_scan(family, data):
    queries, n = family
    ell = data.draw(st.integers(1, min(4, n)))
    kappa = data.draw(st.integers(0, 4))
    alpha = data.draw(st.integers(1, 3))
    # just around the K1 count, where the collapsed K2 scans' charges decide a refusal
    tight = sets_up_to(n, ell) + data.draw(st.integers(-1, 40))
    for budget in (tight, 10_000_000):
        for stop_at in (None, 1, 2):
            args = (queries, n, ell, kappa, alpha, budget, stop_at)
            assert _outcome(max_unselected_count, *args) == _outcome(
                reference_max_unselected_count, *args
            )


@given(_family(), st.data())
@settings(max_examples=400, deadline=None)
def test_find_unjammed_violation_matches_reference_scan(family, data):
    queries, n = family
    k = data.draw(st.integers(1, n))
    alpha = data.draw(st.integers(1, 3))
    for budget in (sets_up_to(n, k) - 1, sets_up_to(n, k)):
        args = (queries, n, k, alpha, budget)
        assert _outcome(find_unjammed_violation, *args) == _outcome(
            reference_find_unjammed_violation, *args
        )


def _budgets(count):
    """Just below, at and far above the number of sets the oracle must cover."""
    return (count - 1, count, 10_000_000)


def _uniqueness_matches_reference(queries, n, k, alpha):
    for budget in _budgets(sets_up_to(n, k)):
        args = (queries, n, k, alpha, budget)
        assert _outcome(verify_uniqueness, *args) == _outcome(reference_verify_uniqueness, *args)


@given(_family(), st.data())
@settings(max_examples=400, deadline=None)
def test_verify_uniqueness_matches_reference_scan(family, data):
    queries, n = family
    k = data.draw(st.integers(1, 4))
    alpha = data.draw(st.integers(1, 3))
    _uniqueness_matches_reference(queries, n, k, alpha)


def _zero_steps(m, levels):
    return [[0] * levels for _ in range(m)]


@given(_family(), st.data())
@settings(max_examples=200, deadline=None)
def test_verify_uniqueness_with_forced_collisions_matches_reference_scan(family, data):
    queries, n = family
    k = data.draw(st.integers(1, 4))
    alpha = data.draw(st.integers(1, 3))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qgt.bounds, "_fingerprint_steps", _zero_steps)
        _uniqueness_matches_reference(queries, n, k, alpha)


# the verify_uniqueness cases of test_bounds.py
UNIQUENESS_CASES = [
    ((), 8, 1, 1),
    ((frozenset(range(1, 9)),), 8, 2, 1),
    (rs_table_code(8, 2).queries, 8, 2, 2),
    (rs_table_code(16, 2).queries, 16, 2, 2),
    (rs_table_code(16, 3).queries, 16, 3, 2),
]


@pytest.mark.parametrize("queries,n,k,alpha", UNIQUENESS_CASES)
def test_verify_uniqueness_with_forced_collisions_keeps_verdicts(queries, n, k, alpha):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qgt.bounds, "_fingerprint_steps", _zero_steps)
        assert verify_uniqueness(queries, n, k, alpha) == reference_verify_uniqueness(
            queries, n, k, alpha
        )


@st.composite
def _column_family(draw):
    """Queries at n <= 8 whose columns (each element's queries) repeat, vanish or stand alone.

    A twin takes another element's column, so the two lie in exactly the
    same queries; private singleton queries (some repeated) and empty
    queries follow, and elements in no query occur throughout.
    """
    n = draw(st.integers(1, 8))
    queries = [set(draw(st.sets(st.integers(1, n), max_size=n))) for _ in range(draw(st.integers(0, 5)))]
    for _ in range(draw(st.integers(0, 2))):
        u, twin = draw(st.integers(1, n)), draw(st.integers(1, n))
        for q in queries:
            if u in q:
                q.add(twin)
            else:
                q.discard(twin)
    for v in sorted(draw(st.sets(st.integers(1, n), max_size=3))):
        queries += [{v}] * draw(st.integers(1, 2))
    queries += [set()] * draw(st.integers(0, 2))
    return tuple(draw(st.permutations([frozenset(q) for q in queries]))), n


@given(_column_family(), st.integers(0, 1), st.integers(0, 3))
@settings(max_examples=600, deadline=None)
def test_uniqueness_closed_form_matches_reference_scan(family, k, alpha):
    queries, n = family
    _uniqueness_matches_reference(queries, n, k, alpha)


def test_two_elements_with_one_column_collide_at_k_1():
    # 1 and 2 lie in exactly the same queries, so {1} and {2} read alike
    queries = tuple(map(frozenset, ((1, 2, 3), (1, 2), (3, 4))))
    for alpha in (1, 2):
        assert verify_uniqueness(queries, 4, 1, alpha) is False
        assert reference_verify_uniqueness(queries, 4, 1, alpha) is False
    split = queries + (frozenset({1}),)  # a private singleton tells 1 from 2
    assert verify_uniqueness(split, 4, 1, 2) is True
    assert reference_verify_uniqueness(split, 4, 1, 2) is True
    # a budget one short of the n + 1 sets of at most one element is refused before any verdict
    with pytest.raises(BudgetError):
        verify_uniqueness(queries, 4, 1, 2, budget=4)
    assert verify_uniqueness(queries, 4, 1, 2, budget=5) is False


def _fingerprint_tables(queries, n, k, alpha):
    """The (m, levels) of every fingerprint table one verify_uniqueness call draws."""
    sizes = []
    original = qgt.bounds._fingerprint_steps

    def spy(m, levels):
        sizes.append((m, levels))
        return original(m, levels)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qgt.bounds, "_fingerprint_steps", spy)
        verify_uniqueness(queries, n, k, alpha)
    return sizes


# tables whose bases hold two or more elements, so every element is active
TABLES = {
    "trunc-8-1": (lambda: trunc_table_code(8, 1).queries, 8),
    "trunc-16-2": (lambda: trunc_table_code(16, 2).queries, 16),
    "rs-32-3": (lambda: rs_table_code(32, 3).queries, 32),
    "built-32-1-2": (lambda: build(32, 1, 2, MODE_PLAIN).queries, 32),
}


@pytest.mark.parametrize(  # caps below, at and above k
    "family,k,alpha",
    [("trunc-8-1", 3, 1), ("trunc-16-2", 2, 3), ("rs-32-3", 3, 9), ("built-32-1-2", 2, 2)],
)
def test_fingerprint_table_is_m_by_capped_levels(family, k, alpha):
    make, n = TABLES[family]
    queries = make()
    assert active_elements(queries, n) == list(range(1, n + 1))
    assert _fingerprint_tables(queries, n, k, alpha) == [(len(queries), min(alpha, k))]
    assert qgt.bounds._fingerprint_steps(3, 2) == qgt.bounds._fingerprint_steps(3, 2)  # one fixed seed


@pytest.mark.parametrize(
    "queries,n",
    [
        (build(16, 3, 2, MODE_PLAIN).queries, 16),
        (singletons(16), 16),
        # q > n: every base of the full table holds at most one element
        (rs_table_code(8, 2).queries, 8),
        (rs_table_code(16, 3).queries, 16),
    ],
    ids=["built-16-3-2", "singletons-16", "rs-8-2", "rs-16-3"],
)
def test_a_family_with_no_active_element_draws_no_fingerprint_table(queries, n):
    assert active_elements(queries, n) == []
    assert _fingerprint_tables(queries, n, 3, 2) == []


@pytest.mark.parametrize("alpha", [1, 2, 3])
def test_uniqueness_walks_only_above_k_1(monkeypatch, alpha):
    walks = []
    monkeypatch.setattr(qgt.bounds, "walk_subsets", lambda *args: walks.append(args) or walk_subsets(*args))
    for family in ("trunc-8-1", "built-32-1-2"):
        make, n = TABLES[family]
        queries = make()
        for k in (0, 1, 2):
            walks.clear()
            assert verify_uniqueness(queries, n, k, alpha) is reference_verify_uniqueness(queries, n, k, alpha)
            assert bool(walks) == (k >= 2)


@given(_family(), st.data())
@settings(max_examples=400, deadline=None)
def test_exhaustive_verify_claims_matches_reference_scan(family, data):
    queries, n = family
    if data.draw(st.booleans()):
        queries = singletons(n) + queries  # families that can pass part 1
    k = data.draw(st.integers(1, 4))
    alpha = data.draw(st.integers(1, 3))
    seed = data.draw(st.integers(0, 3))
    if data.draw(st.booleans()):
        code = RandomCode(queries, n, k, alpha, seed, len(queries), 0, True)
    else:
        t1 = data.draw(st.integers(0, len(queries)))
        t2 = data.draw(st.integers(0, len(queries) - t1 + 1))
        code = RandomCode(queries, n, k, alpha, seed, t1, t2, False)
    for budget in _budgets(sets_up_to(n, k) - 1):  # the empty set is not checked
        assert _outcome(verify_claims, code, budget=budget) == _outcome(
            reference_verify_claims, code, budget=budget
        )


def _verdicts(code, unjammed, unselected):
    """Claim-a witness and every selector level's unselected counts, as `qgt verify` reads them."""
    kappa, cap = level_params(code.k, code.alpha)
    verdicts = [unjammed(code.queries, code.n, code.k, max(1, code.alpha))]
    for _, level, positions in code.block_groups:
        queries = tuple(code.queries[p] for p in positions)
        for stop_at in (None, 1):
            verdicts.append(unselected(queries, code.n, level, kappa, cap, stop_at=stop_at))
    return verdicts


BUILT = [
    (mode, n, k, alpha)
    for mode in (MODE_PLAIN, MODE_LARGE)
    for n in (8, 16)
    for k in (1, 2, 3, 4)
    for alpha in (2, 3)
] + [(MODE_MULTISET, n, k, 0) for n in (8, 16) for k in (1, 2, 3, 4)]


@pytest.mark.parametrize("mode,n,k,alpha", BUILT)
def test_built_code_verdicts_match_reference_scans(mode, n, k, alpha):
    code = build(n, k, alpha, mode)
    assert _verdicts(code, find_unjammed_violation, max_unselected_count) == _verdicts(
        code, reference_find_unjammed_violation, reference_max_unselected_count
    )


@pytest.mark.parametrize("n,k", [(8, 2), (16, 2), (16, 3)])
def test_rs_table_code_verdicts_match_reference_scans(n, k):
    code = rs_table_code(n, k)
    assert _verdicts(code, find_unjammed_violation, max_unselected_count) == _verdicts(
        code, reference_find_unjammed_violation, reference_max_unselected_count
    )


def test_ssui_family_matches_reference_scan():
    queries = build_ssui(16, 2, 4, 2).queries
    for stop_at in (None, 1, 2):
        assert max_unselected_count(
            queries, 16, 2, 4, 2, stop_at=stop_at
        ) == reference_max_unselected_count(queries, 16, 2, 4, 2, stop_at=stop_at)


def test_one_full_query_family_matches_reference_scan():
    full = (frozenset(range(1, 9)),)
    witness = find_unjammed_violation(full, 8, 5, 2)
    assert witness == reference_find_unjammed_violation(full, 8, 5, 2)
    assert witness == (frozenset({1, 2, 3, 4}), 1)
    for kappa, alpha in [(0, 1), (2, 1), (3, 2)]:
        assert max_unselected_count(full, 8, 2, kappa, alpha) == reference_max_unselected_count(
            full, 8, 2, kappa, alpha
        )


def test_max_unselected_with_a_jammable_query_keeps_the_full_universe():
    # {5..8} is not thin, so K2 scans run and each costs comb(4, 2) = 6 per visited K1:
    # 20 K1 sets of at most 2 elements hold exactly one of 5..8, of which only 4
    # avoid the inert 1..4.  Walking the active elements alone would charge 24.
    queries = singletons(4) + (frozenset({5, 6, 7, 8}),)
    assert active_elements(queries, 8) == [5, 6, 7, 8]
    full = sets_up_to(8, 2) + 20 * 6
    for budget in (full - 1, full):
        for stop_at in (None, 1):
            args = (queries, 8, 2, 2, 1, budget, stop_at)
            assert _outcome(max_unselected_count, *args) == _outcome(
                reference_max_unselected_count, *args
            )
    assert _outcome(max_unselected_count, queries, 8, 2, 2, 1, full - 1) is BudgetError
    assert max_unselected_count(queries, 8, 2, 2, 1, full) == 2  # K1 = {5, 6}: neither isolated


@pytest.mark.parametrize("singletons_in", [1, 2])
def test_claims_with_singletons_in_one_part_match_reference_scan(singletons_in):
    # n // alpha = 2 < k, so sets of 1 or 2 elements read part 1 and sets of 3 read
    # part 2; an element is inert in its singleton's part only, so both are walked
    n, k, alpha = 8, 3, 4
    other = (frozenset({1, 2}), frozenset({3, 4, 5}))
    parts = (singletons(n), other) if singletons_in == 1 else (other, singletons(n))
    queries = parts[0] + parts[1]
    code = RandomCode(queries, n, k, alpha, 0, len(parts[0]), len(parts[1]), False)
    for budget in _budgets(sets_up_to(n, k) - 1):
        assert _outcome(verify_claims, code, budget=budget) == _outcome(
            reference_verify_claims, code, budget=budget
        )
    assert not verify_claims(code).passed


ORACLE_GRID = [(32, k, alpha) for k in (1, 2, 3) for alpha in (2, 3)]


@pytest.mark.parametrize("n,k,alpha", ORACLE_GRID)
def test_oracle_grid_codes_match_reference_scans(n, k, alpha):
    code = build(n, k, alpha, MODE_PLAIN)
    args = (code.queries, n, k, alpha)
    assert verify_uniqueness(*args) == reference_verify_uniqueness(*args) is True
    assert _verdicts(code, find_unjammed_violation, max_unselected_count) == _verdicts(
        code, reference_find_unjammed_violation, reference_max_unselected_count
    )


def test_oracle_grid_selector_and_random_code_match_reference_scans():
    queries = build_sui(32, 4, 0.25, 4, 4).queries
    for stop_at in (None, 1):
        assert max_unselected_count(
            queries, 32, 4, 4, 4, stop_at=stop_at
        ) == reference_max_unselected_count(queries, 32, 4, 4, 4, stop_at=stop_at)
    code = build_random_code(32, 3, 8, seed=1)
    assert verify_claims(code) == reference_verify_claims(code)


@pytest.mark.parametrize(
    "elements,max_size", [((), 3), ((2,), 1), ((1, 4, 5, 9), 3), (tuple(range(1, 8)), 7)]
)
def test_subset_at_inverts_the_walk_order(elements, max_size):
    order, chosen = [[]], []
    walk_subsets(
        elements, max_size, chosen.append, lambda e: chosen.pop(), lambda e: order.append([*chosen, e])
    )
    assert [subset_at(elements, rank) for rank in range(len(order))] == order


def _outcomes(queries, n, k, alpha, kappa, cap, oracles):
    """Each walking oracle's outcome on one family, under every budget around its own count."""
    uniqueness, unjammed, unselected, claims = oracles
    code = RandomCode(queries, n, k, alpha, 0, len(queries), 0, True)
    out = []
    for budget in _budgets(sets_up_to(n, k)):
        out.append(_outcome(uniqueness, queries, n, k, alpha, budget))
        out.append(_outcome(unjammed, queries, n, k, alpha, budget))
        out.append(_outcome(claims, code, budget=budget - 1))  # the empty set is not checked
        # the selector levels' check, then `qgt verify --ssui`'s
        out.append(_outcome(unselected, queries, n, k, kappa, cap, budget))
        out.append(_outcome(unselected, queries, n, k, 0, 1, budget))
    return out


OURS = (verify_uniqueness, find_unjammed_violation, max_unselected_count, verify_claims)
REFERENCE = (
    reference_verify_uniqueness,
    reference_find_unjammed_violation,
    reference_max_unselected_count,
    reference_verify_claims,
)


@pytest.mark.parametrize(
    "mode,n,k,alpha", BUILT + [(MODE_PLAIN, n, k, alpha) for n, k, alpha in ORACLE_GRID]
)
def test_built_queries_tuples_and_reference_scans_agree(mode, n, k, alpha):
    code = build(n, k, alpha, mode)
    args = (n, k, max(1, alpha), *level_params(k, alpha))
    on_code = _outcomes(code.queries, *args, OURS)
    assert on_code == _outcomes(tuple(code.queries), *args, OURS)
    assert on_code == _outcomes(tuple(code.queries), *args, REFERENCE)


@pytest.mark.parametrize("code", [build_code_multiset(32, 2), build(32, 1, 2, MODE_PLAIN)])
def test_another_universe_is_not_read_from_the_rule(code):
    queries = code.queries
    assert queries.active(32) == active_elements(tuple(queries), 32)
    for n in (16, 64):  # over [1..64], 33..64 lie in no query; over [1..16], 17..32 lie outside
        assert queries.active(n) == active_elements(tuple(queries), n)
        assert active_elements(queries, n) == active_elements(tuple(queries), n)
        args = (n, 2, 1, *level_params(2, 1))
        assert _outcomes(queries, *args, OURS) == _outcomes(tuple(queries), *args, REFERENCE)


@pytest.mark.parametrize("queries", [singletons(8), build_code_multiset(8, 2).queries])
def test_no_active_element_keeps_the_verdicts_at_cap_zero(queries):
    # At alpha = 0 a singleton query is not thin, so the selector walk must still run
    # and find the elements jammed at interference 0, as the reference scan does.
    assert find_unjammed_violation(queries, 8, 2, 0) is reference_find_unjammed_violation(
        queries, 8, 2, 0
    ) is None
    for kappa in (0, 1):
        assert max_unselected_count(queries, 8, 2, kappa, 0) == reference_max_unselected_count(
            queries, 8, 2, kappa, 0
        )
    assert max_unselected_count(queries, 8, 2, 0, 0) > 0
    assert verify_ssui(queries, 8, 2, 0, 0) is False


# A negative cap breaks the inert-element lemma: at alpha = -1 every query holding an
# element of K is over-full, so the reference finds {1} jammed on the singletons, where
# a walk over the active elements would find nothing.  Each walking oracle refuses it.
def test_find_unjammed_violation_refuses_a_negative_cap():
    assert reference_find_unjammed_violation(singletons(8), 8, 2, -1) == ({1}, 1)
    with pytest.raises(ValueError, match=r"feedback cap must be >= 0, got -1"):
        find_unjammed_violation(singletons(8), 8, 2, -1)


def test_verify_uniqueness_refuses_a_negative_cap():
    with pytest.raises(ValueError, match=r"feedback cap must be >= 0, got -2"):
        verify_uniqueness(singletons(8), 8, 2, -2)


def test_max_unselected_count_refuses_a_negative_cap():
    with pytest.raises(ValueError, match=r"feedback cap must be >= 0, got -1"):
        max_unselected_count(singletons(8), 8, 2, 1, -1)


# A negative width walks no set, so its verdict would be vacuous: on these queries
# uniqueness at k = -1 would read True where k = 1 reads False ({3} and {4} collide),
# and the selector check at ell = -1 would pass where ell = 2 fails.  Width 0 stays legal.
NEGATIVE_WIDTH_QUERIES = (frozenset({1, 2, 3, 4}), frozenset({1, 2}))


def test_find_unjammed_violation_refuses_a_negative_width():
    with pytest.raises(ValueError, match=r"^k must be >= 0, got -1$"):
        find_unjammed_violation(NEGATIVE_WIDTH_QUERIES, 4, -1, 1)
    assert find_unjammed_violation(NEGATIVE_WIDTH_QUERIES, 4, 0, 1) is None


def test_verify_uniqueness_refuses_a_negative_width():
    assert verify_uniqueness(NEGATIVE_WIDTH_QUERIES, 4, 1, 1) is False
    with pytest.raises(ValueError, match=r"^k must be >= 0, got -1$"):
        verify_uniqueness(NEGATIVE_WIDTH_QUERIES, 4, -1, 1)
    assert verify_uniqueness(NEGATIVE_WIDTH_QUERIES, 4, 0, 1) is True


def test_max_unselected_count_refuses_a_negative_width():
    assert verify_ssui(NEGATIVE_WIDTH_QUERIES, 4, 2, 0, 1) is False
    with pytest.raises(ValueError, match=r"^ell must be >= 0, got -1$"):
        verify_ssui(NEGATIVE_WIDTH_QUERIES, 4, -1, 0, 1)
    with pytest.raises(ValueError, match=r"^kappa must be >= 0, got -1$"):
        max_unselected_count(NEGATIVE_WIDTH_QUERIES, 4, 2, -1, 1)
    assert max_unselected_count(NEGATIVE_WIDTH_QUERIES, 4, 0, 0, 1) == 0


def test_a_repeat_rebuilds_the_first_set_from_its_rank(monkeypatch):
    # Capped at 1, {1, 2} and {1, 3} both read 1 on all three queries: the first repeat
    # in walk order (the empty set, {1}, {2}, {3}, {1, 2}, {1, 3}) rebuilds rank 4.
    # 4 is inert, so it is not walked and takes no rank.
    queries = (frozenset({1, 2}), frozenset({1, 3}), frozenset({2, 3}), frozenset({4}))
    ranks = []
    monkeypatch.setattr(qgt.bounds, "subset_at", lambda e, r: ranks.append(r) or subset_at(e, r))
    assert verify_uniqueness(queries, 4, 2, 1) is False
    assert ranks == [4]
    assert subset_at(active_elements(queries, 4), 4) == [1, 2]
    assert reference_verify_uniqueness(queries, 4, 2, 1) is False


def test_oracles_on_the_2_18_singletons_lay_out_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("the queries were laid out")

    n = 2**18
    queries = build_code_multiset(n, 2).queries
    monkeypatch.setattr(Singletons, "_make", refuse)
    assert active_elements(queries, n) == []
    budget = 10**11
    assert verify_uniqueness(queries, n, 2, 1, budget) is True
    assert find_unjammed_violation(queries, n, 2, 1, budget) is None
    assert verify_ssui(queries, n, 2, 0, 1, budget) is True
    assert max_unselected_count(queries, n, 2, 4, 3, budget) == 0
    with pytest.raises(BudgetError):  # the budget is still checked first
        verify_uniqueness(queries, n, 2, 1)


# At the walk's last level each set is the prefix plus one element e, settled before e is
# pushed: a jamming walk pushes e only where one of e's queries crosses the over-full line,
# and a uniqueness walk compares profiles only on a repeated fingerprint.
LAST_LEVEL_JAMMING = {
    # adding 3 to {1, 2} puts 3 > alpha + 1 elements in query {1, 2, 3}: it jams 1 first
    "crossing": (((1, 2, 3), (4,)), 4, 3, 1, ({1, 2, 3}, 1)),
    # 1 and 2 have room alone; 3 is in no query, so {3} is jammed by 3 itself
    "no-query": (((1, 2),), 4, 2, 1, ({3}, 3)),
    # at cap 0 one element fills a query: adding 2 to {1} jams 1, whose only query is {1, 2}
    "cap-0": (((1, 2), (2, 3), (3, 4)), 4, 2, 0, ({1, 2}, 1)),
    # no query ever crosses, and every element keeps a query within the line
    "none": (((1, 2), (2, 3), (1, 3)), 3, 3, 1, None),
}


@pytest.mark.parametrize("queries,n,k,alpha,witness", LAST_LEVEL_JAMMING.values(), ids=LAST_LEVEL_JAMMING)
def test_each_last_level_jamming_path_keeps_the_reference_witness(queries, n, k, alpha, witness):
    queries = tuple(map(frozenset, queries))
    expected = None if witness is None else (frozenset(witness[0]), witness[1])
    assert reference_find_unjammed_violation(queries, n, k, alpha) == expected
    assert find_unjammed_violation(queries, n, k, alpha) == expected


LAST_LEVEL_REPEATS = {
    # capped at 1, {1, 3} repeats {1, 2} (rank 4); 4 is inert and takes no rank
    "size-2": (((1, 2), (1, 3), (2, 3), (4,)), 4, 1, [1, 2], 4),
    # capped at 2, {1, 2, 4} repeats {1, 2, 3} (rank 11), after no repeat in sizes 1 and 2
    "size-3": (((1, 2), (1, 2, 3, 4), (1, 2, 4), (2, 3, 4)), 4, 2, [1, 2, 3], 11),
}


@pytest.mark.parametrize("queries,n,alpha,first,rank", LAST_LEVEL_REPEATS.values(), ids=LAST_LEVEL_REPEATS)
def test_a_last_level_repeat_rebuilds_the_first_set(monkeypatch, queries, n, alpha, first, rank):
    queries = tuple(map(frozenset, queries))
    k = len(first)
    ranks = []
    monkeypatch.setattr(qgt.bounds, "subset_at", lambda e, r: ranks.append(r) or subset_at(e, r))
    for size, unique, rebuilt in ((k - 1, True, []), (k, False, [rank])):
        assert verify_uniqueness(queries, n, size, alpha) is unique
        assert reference_verify_uniqueness(queries, n, size, alpha) is unique
        assert ranks == rebuilt
    assert subset_at(active_elements(queries, n), rank) == first


def test_uniqueness_at_cap_0_keeps_the_reference_verdict():
    # at cap 0 every capped vector is all zero: the empty set and {1} already collide
    for queries in (tuple(map(frozenset, ((1, 2), (2, 3), (3, 4)))), singletons(4)):
        for k in (0, 1, 2, 3):
            expected = k == 0
            assert reference_verify_uniqueness(queries, 4, k, 0) is expected
            assert verify_uniqueness(queries, 4, k, 0) is expected


# every golden built family at n <= 1024
GOLDEN_FAMILIES = {"-".join([m, *map(str, a)]): (m, a) for m, a, *_ in GOLDEN if a[0] <= 1024}


@pytest.mark.parametrize("mode,args", GOLDEN_FAMILIES.values(), ids=GOLDEN_FAMILIES)
def test_the_index_reads_the_family_incidence_as_the_scan_does(mode, args):
    queries = BUILDERS[mode](*args).queries
    n = args[0]
    assert isinstance(queries, (Singletons, SlicedTable))
    scanned = incidence(tuple(queries))
    for universe in (n // 2, n, 2 * n):
        expected = [scanned.get(v, ()) for v in range(universe + 1)]
        assert OracleIndex(queries, universe).queries_of == expected
        assert OracleIndex(tuple(queries), universe).queries_of == expected


def test_the_index_over_the_family_universe_reads_every_entry_directly(monkeypatch):
    # over its own [1..n] a built family's incidence has an entry for every element,
    # so the index reads each one directly and never falls back to a default
    def refuse(*args):
        raise AssertionError("the index fell back to get")

    monkeypatch.setattr(_Filled, "get", refuse)
    for queries in (Singletons(16), build_code(32, 1, 2).queries):
        n = queries.n
        expected = [(), *(queries.incidence[v] for v in range(1, n + 1))]
        assert OracleIndex(queries, n).queries_of == expected


def test_oracles_on_a_2_15_table_lay_out_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("the queries were laid out")

    n = 2**15
    queries = build_code(n, 1, 2).queries
    assert isinstance(queries, SlicedTable)
    monkeypatch.setattr(SlicedTable, "_make", refuse)
    assert verify_uniqueness(queries, n, 1, 2) is True
    assert find_unjammed_violation(queries, n, 1, 2) is None


# Claim A on both sides of k = alpha + 1: at or below it no query can be over-full, so
# the witness is read off the elements in no query without a walk; above it the walk runs.
CLAIM_A_FAMILIES = {
    # 5 and 8 lie in no query, 1 in a private singleton as well
    "no-query": (tuple(map(frozenset, ((1, 2, 3), (2, 3, 4), (6, 7), (1,)))), 8),
    # every element lies in some query; one query holds them all, so a set above the line jams
    "covered": (tuple(map(frozenset, ((1, 2, 3, 4, 5, 6, 7, 8), (1, 2), (7,), (3, 4, 5)))), 8),
    # the built singletons: no active element over their own n, and 9..16 in no query over 16
    "singletons": (build(8, 2, 2).queries, 8),
    "singletons-over-16": (build(8, 2, 2).queries, 16),
    "table": (build(32, 1, 2).queries, 32),
}


@pytest.mark.parametrize("alpha", [0, 1, 2, 3])
@pytest.mark.parametrize("queries,n", CLAIM_A_FAMILIES.values(), ids=CLAIM_A_FAMILIES)
def test_claim_a_on_both_sides_of_the_over_full_line(monkeypatch, queries, n, alpha):
    walks = []
    monkeypatch.setattr(qgt.bounds, "walk_subsets", lambda *args: walks.append(args) or walk_subsets(*args))
    active = active_elements(tuple(queries), n)
    for k in range(alpha + 3):
        count = sets_up_to(n, k)
        for budget in (count - 1, count):
            args = (queries, n, k, alpha, budget)
            walks.clear()
            assert _outcome(find_unjammed_violation, *args) == _outcome(reference_find_unjammed_violation, *args)
            assert bool(walks) == (budget >= count and k > alpha + 1 and bool(active))
