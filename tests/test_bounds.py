import pytest

from qgt.bounds import (
    counting_bound_holds,
    find_unjammed_violation,
    lower_bound,
    sets_up_to,
    verify_uniqueness,
)
from qgt.ssui import BudgetError

from rs_table import rs_table_code


def test_lower_bound_example():
    report = lower_bound(1024, 32, 4)
    assert report.lb_capped_general == 64
    assert report.lb_info == 80
    assert report.lb_total == 144


def test_lower_bound_alpha_equals_k():
    report = lower_bound(64, 8, 8)
    assert report.lb_capped_general == min(1, 64 / 8)
    assert report.lb_info == pytest.approx(8 * 3 / 3)


def test_lower_bound_k_equals_n():
    assert lower_bound(16, 16, 2).lb_info == 0


def test_lower_bound_alpha_one_uses_binary_feedback():
    report = lower_bound(64, 4, 1)
    assert report.lb_info == 4 * 4  # k * log2(n/k) / 1


def test_lower_bound_rejects_k_above_n():
    with pytest.raises(ValueError):
        lower_bound(8, 9, 2)


def test_ratio():
    report = lower_bound(1024, 32, 4, measured_m=288)
    assert report.ratio == 2.0
    assert lower_bound(1024, 32, 4).ratio is None


def test_sets_up_to():
    assert sets_up_to(4, 2) == 1 + 4 + 6
    assert counting_bound_holds(4, 2, 1, 4)  # 2^4 = 16 >= 11
    assert not counting_bound_holds(4, 2, 1, 3)  # 2^3 = 8 < 11


def test_round_robin_never_jammed():
    singles = tuple(frozenset({v}) for v in range(1, 9))
    assert find_unjammed_violation(singles, 8, 3, 1) is None


def test_one_full_query_jams():
    full = (frozenset(range(1, 9)),)
    witness = find_unjammed_violation(full, 8, 5, 2)  # k = alpha + 3
    assert witness is not None
    k_set, x = witness
    assert x in k_set
    assert len(k_set) == 2 + 2  # first violating size is alpha + 2


def test_built_code_is_unjammed():
    code = rs_table_code(16, 3)
    assert find_unjammed_violation(code.queries, 16, 3, 2) is None


def test_uniqueness_of_built_code():
    code = rs_table_code(16, 2)
    assert verify_uniqueness(code.queries, 16, 2, 2)


def test_uniqueness_counterexamples():
    full = (frozenset(range(1, 9)),)
    assert not verify_uniqueness(full, 8, 2, 1)  # every nonempty set reads <1>
    assert not verify_uniqueness((), 8, 1, 1)


def test_uniqueness_budget_guard():
    with pytest.raises(BudgetError):
        verify_uniqueness((), 64, 32, 2, budget=100)


def test_uniqueness_implies_no_jam_witness():
    # solvability requires the jamming condition; check the implication on a grid
    for n, k, alpha in [(8, 2, 2), (16, 2, 2), (16, 3, 2)]:
        code = rs_table_code(n, k, alpha)
        if verify_uniqueness(code.queries, n, k, alpha):
            assert find_unjammed_violation(code.queries, n, k, alpha) is None


def test_counting_bound_on_correct_code():
    code = rs_table_code(16, 2)
    assert verify_uniqueness(code.queries, 16, 2, 2)
    assert counting_bound_holds(16, 2, 2, len(code.queries))
