import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qgt.balanced import id_bits
from qgt.code import build_code, build_code_large, build_code_multiset
from qgt.model import (
    active_elements,
    as_multiset,
    capped_feedback,
    check_cap,
    check_capacity,
    check_epsilon,
    check_universe,
    distinguishes,
    feedback_vector,
    multiset_total,
    next_power_of_two,
    walk_subsets,
)
from qgt.disperser import DisperserParams
from qgt.ssui import build_ssui
from qgt.sui import build_sui, build_sui_rr


def test_capped_feedback_examples():
    assert capped_feedback(frozenset({1, 2, 3}), {2: 1, 3: 1, 5: 1}, 2) == 2
    assert capped_feedback(frozenset({1, 2}), {}, 5) == 0
    assert capped_feedback(frozenset({4}), {4: 3}, 2) == 2
    assert capped_feedback(frozenset({4}), {4: 3}, 5) == 3


def test_feedback_vector_examples():
    assert feedback_vector([frozenset({1}), frozenset({2})], {1: 1}, 1) == (1, 0)
    assert feedback_vector([frozenset({1, 2})], {1: 1, 2: 1}, 1) == (1,)
    code = [frozenset({1, 2}), frozenset({3}), frozenset()]
    assert feedback_vector(code, {}, 3) == (0, 0, 0)


def test_distinguishes_examples():
    singletons = [frozenset({v}) for v in range(1, 5)]
    assert distinguishes(singletons, {1: 1}, {2: 1}, 1)
    assert not distinguishes([frozenset({1, 2})], {1: 1}, {2: 1}, 1)
    with pytest.raises(ValueError, match="identical"):
        distinguishes(singletons, {1: 1}, [1], 1)


def test_as_multiset_normalization():
    assert as_multiset([3, 1, 3]) == {3: 2, 1: 1}
    assert as_multiset({2: 4}) == {2: 4}
    assert multiset_total({2: 4, 7: 1}) == 5
    with pytest.raises(ValueError):
        as_multiset({2: 0})
    with pytest.raises(ValueError):
        as_multiset([9], n=8)
    # integers are taken as they are, never truncated
    assert as_multiset({True: 2, 3: True}) == {1: 2, 3: 1}
    for bad in ([2.5], ["2"], {2.5: 1}, {"2": 1}, {2: 1.7}, {2: "1"}, {2: 1.0}):
        with pytest.raises(TypeError):
            as_multiset(bad)
    code = build_code_multiset(8, 2)
    for bad in ({2.5: 1}, {2: 1.7}, [2.0]):
        with pytest.raises(TypeError):
            code.feedback(bad)


def test_check_universe():
    for n in (2, 8, 16, 1024):
        check_universe(n)
    for n in (12, 1, 0, -4):
        with pytest.raises(ValueError, match="power of two >= 2"):
            check_universe(n)


def test_check_capacity():
    check_capacity(16, 3)
    check_capacity(8, 8)
    with pytest.raises(ValueError, match="capacity"):
        check_capacity(16, 0)
    with pytest.raises(ValueError, match="capacity"):
        check_capacity(16, 17)


def test_check_cap():
    check_cap(2)
    check_cap(9)  # alpha above k: cap never binds, legal at the model level
    with pytest.raises(ValueError, match="feedback cap must be >= 1"):
        check_cap(0)


@pytest.mark.parametrize("epsilon", [0, -0.25, 0.51])
def test_one_epsilon_rule_for_selectors_and_dispersers(epsilon):
    check_epsilon(0.5)
    check_epsilon(0.01)
    for check in (
        lambda: check_epsilon(epsilon),
        lambda: build_sui(8, 2, epsilon, 2, 2),
        lambda: DisperserParams(1, epsilon),
    ):
        with pytest.raises(ValueError, match=r"epsilon must lie in \(0, 1/2\]"):
            check()


@pytest.mark.parametrize(
    "make",
    [
        id_bits,
        lambda n: build_code(n, 2, 2),
        lambda n: build_code_large(n, 8, 2),
        lambda n: build_code_multiset(n, 2),
        lambda n: build_sui(n, 2, 0.5, 2, 1),
        lambda n: build_sui_rr(n, 1, 0.5, 2, 1),
        lambda n: build_ssui(n, 2, 2, 2),
    ],
    ids=[
        "id_bits", "build_code", "build_code_large", "build_code_multiset",
        "build_sui", "build_sui_rr", "build_ssui",
    ],
)
def test_builders_share_the_universe_check(make):
    with pytest.raises(ValueError, match="power of two >= 2"):
        make(12)


def test_next_power_of_two():
    assert [next_power_of_two(x) for x in (1, 2, 3, 5, 8, 9)] == [1, 2, 4, 8, 8, 16]


@st.composite
def _instance(draw):
    n = draw(st.sampled_from([4, 8, 16]))
    query = frozenset(draw(st.sets(st.integers(1, n), max_size=n)))
    hidden = draw(
        st.dictionaries(st.integers(1, n), st.integers(1, 3), max_size=5)
    )
    alpha = draw(st.integers(1, 6))
    return query, hidden, alpha


@given(_instance())
def test_capped_feedback_bounds(case):
    query, hidden, alpha = case
    value = capped_feedback(query, hidden, alpha)
    assert 0 <= value <= alpha
    true_count = sum(m for v, m in hidden.items() if v in query)
    if true_count < alpha:
        assert value == true_count


@given(_instance(), st.integers(1, 16))
def test_feedback_monotone_in_hidden(case, extra):
    query, hidden, alpha = case
    before = capped_feedback(query, hidden, alpha)
    grown = dict(hidden)
    grown[extra] = grown.get(extra, 0) + 1
    assert capped_feedback(query, grown, alpha) >= before


@given(_instance())
def test_feedback_vector_deterministic(case):
    query, hidden, alpha = case
    queries = [query, frozenset({1}), frozenset()]
    assert feedback_vector(queries, hidden, alpha) == feedback_vector(queries, hidden, alpha)


def test_one_budget_rule_behind_every_oracle():
    import qgt
    import qgt.bounds
    import qgt.ssui
    from qgt.model import BudgetError, check_budget, sets_up_to

    assert qgt.BudgetError is qgt.ssui.BudgetError is BudgetError
    assert qgt.sets_up_to is qgt.bounds.sets_up_to is sets_up_to
    assert sets_up_to(5, 2) == 1 + 5 + 10
    check_budget(16, 16)
    with pytest.raises(BudgetError, match="instance too large for exhaustive oracle"):
        check_budget(17, 16)


def _walk_order(elements, max_size):
    """Every set ``walk_subsets`` visits, in order, read off its push/pop trail and last element."""
    current, visited = [], []
    walk_subsets(elements, max_size, current.append, lambda e: current.pop(),
                 lambda e: visited.append((*current, e)))
    return visited


@given(st.sets(st.integers(1, 12), max_size=7), st.integers(0, 9))
def test_walk_subsets_follows_combinations_size_by_size(elements, max_size):
    elements = sorted(elements)
    expected = [
        combo
        for size in range(1, min(max_size, len(elements)) + 1)
        for combo in itertools.combinations(elements, size)
    ]
    assert _walk_order(elements, max_size) == expected


def test_walk_subsets_over_no_elements_visits_nothing():
    assert _walk_order([], 3) == []
    assert _walk_order(range(1, 5), 0) == []


def test_walk_subsets_stops_at_the_number_of_elements():
    assert _walk_order([2, 5], 4) == [(2,), (5,), (2, 5)]
    assert _walk_order(range(1, 4), 9)[-1] == (1, 2, 3)


def test_active_elements_drops_only_inert_elements():
    queries = [frozenset({1}), frozenset({1}), frozenset({2}), frozenset({2, 3}),
               frozenset(), frozenset({5})]
    # 1 and 5: only their own singletons (1 twice); 2 also shares {2, 3}; 4: no query
    assert active_elements(queries, 6) == [2, 3, 4, 6]
    assert active_elements([], 4) == [1, 2, 3, 4]
    assert active_elements([frozenset({v}) for v in range(1, 9)], 8) == []


@pytest.mark.parametrize("x", [0, -4])
def test_next_power_of_two_refuses_a_non_positive_input(x):
    with pytest.raises(ValueError, match=f"^expected a positive integer, got {x}$"):
        next_power_of_two(x)
