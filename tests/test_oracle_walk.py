"""The push/pop oracle walks against the reference scans of oracle_reference.py.

Random families at n <= 8 check value, ``stop_at`` result, first
witness and BudgetError points; built codes of every mode at n <= 16,
the Reed-Solomon table laid out as a code, a strong selector under
interference and the one-full-query family check whole verdicts.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgt.bounds import find_unjammed_violation
from qgt.code import MODE_LARGE, MODE_MULTISET, MODE_PLAIN, build, level_params
from qgt.model import BudgetError, sets_up_to
from qgt.ssui import build_ssui, max_unselected_count

from oracle_reference import reference_find_unjammed_violation, reference_max_unselected_count
from rs_table import rs_table_code


def _outcome(oracle, *args, **kwargs):
    """The oracle's result, or BudgetError when it refuses its budget."""
    try:
        return oracle(*args, **kwargs)
    except BudgetError:
        return BudgetError


@st.composite
def _family(draw):
    n = draw(st.integers(1, 8))
    count = draw(st.integers(0, 8))
    queries = tuple(
        frozenset(draw(st.sets(st.integers(1, n), max_size=n))) for _ in range(count)
    )
    return queries, n


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


def _verdicts(code, unjammed, unselected):
    """Claim-a witness and every selector level's unselected counts, as `qgt verify` reads them."""
    kappa, cap = level_params(code.k, code.alpha)
    verdicts = [unjammed(code.queries, code.n, code.k, max(1, code.alpha))]
    for group in code.block_groups:
        queries = tuple(code.queries[blk.base] for blk in group)
        for stop_at in (None, 1):
            verdicts.append(unselected(queries, code.n, group[0].level, kappa, cap, stop_at=stop_at))
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
