"""Core model: problem instances, capped count feedback, and feedback vectors.

A problem instance is a universe [1..n] (n a power of two), a hidden
multiset over that universe, and a fixed ordered sequence of queries.
Each query is a set of element indices.  The only channel from the
hidden multiset to a decoder is the feedback vector: for every query,
the multiplicity-weighted intersection count capped at ``alpha``.
Plain hidden sets are multisets with every multiplicity equal to one.

All values here are immutable; every operation is a pure function.

The facts every selector family and oracle shares live here, once:

* ``check_universe``, ``check_capacity``, ``check_cap``, ``check_epsilon``:
  the parameter rules for n (a power of two, at least 2), k (1 <= k <=
  n), alpha (at least 1) and epsilon (in (0, 1/2]);
* ``singletons``: the n singleton queries, a selector for every width;
* ``query_mask``: a query as an int with bit v-1 set for element v;
* ``incidence``: element -> indices of the queries containing it;
* ``sets_up_to``, ``check_budget``, ``BudgetError``: the size of an
  exhaustive search over candidate sets, and the one refusal an oracle
  raises when a search would exceed its budget;
* ``walk_subsets``: the push/pop walk over those candidate sets that
  the selector, jamming, uniqueness and random-code claim oracles keep
  their per-set counts on.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from math import comb
from typing import TypeVar

Query = frozenset[int]
Multiset = dict[int, int]
FeedbackVector = tuple[int, ...]
T = TypeVar("T")


def is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def next_power_of_two(x: int) -> int:
    if x < 1:
        raise ValueError(f"expected a positive integer, got {x}")
    return 1 << (x - 1).bit_length()


def check_universe(n: int) -> None:
    """ValueError unless the universe size n is a power of two, at least 2."""
    if n < 2 or not is_power_of_two(n):
        raise ValueError(f"universe size must be a power of two >= 2, got {n}")


def check_capacity(n: int, k: int) -> None:
    """ValueError unless the capacity k satisfies 1 <= k <= n."""
    if not 1 <= k <= n:
        raise ValueError(f"capacity k must satisfy 1 <= k <= n, got k={k}, n={n}")


def check_cap(alpha: int) -> None:
    """ValueError unless the feedback cap alpha is at least 1.

    alpha > k is legal: the cap then never binds (full count feedback).
    """
    if alpha < 1:
        raise ValueError(f"feedback cap must be >= 1, got {alpha}")


def check_epsilon(epsilon: float) -> None:
    """ValueError unless the selector/disperser slack epsilon lies in (0, 1/2]."""
    if not 0 < epsilon <= 0.5:
        raise ValueError(f"epsilon must lie in (0, 1/2], got {epsilon}")


def singletons(n: int) -> tuple[Query, ...]:
    """The n singleton queries {1}, ..., {n}, in element order."""
    return tuple(frozenset((v,)) for v in range(1, n + 1))


def query_mask(elements: Iterable[int]) -> int:
    """Bitmask of a set of elements: bit v-1 is set for element v."""
    return sum(1 << (v - 1) for v in elements)


def incidence(queries: Iterable[Query]) -> dict[int, tuple[int, ...]]:
    """element -> indices of the queries containing it, ascending.

    Elements in no query are absent; read it with ``.get(v, ())``.
    """
    lists: dict[int, list[int]] = {}
    for idx, s in enumerate(queries):
        for v in s:
            lists.setdefault(v, []).append(idx)
    return {v: tuple(ix) for v, ix in lists.items()}


class BudgetError(ValueError):
    """An exhaustive verification would exceed its configured enumeration budget."""


def sets_up_to(n: int, k: int) -> int:
    """Number of hidden-set candidates: all subsets of [1..n] with at most k elements."""
    return sum(comb(n, j) for j in range(k + 1))


def check_budget(count: int, budget: int) -> None:
    """BudgetError if an exhaustive oracle would enumerate more than ``budget`` cases."""
    if count > budget:
        raise BudgetError("instance too large for exhaustive oracle")


def walk_subsets(
    n: int,
    max_size: int,
    push: Callable[[int], None],
    pop: Callable[[int], None],
    leaf: Callable[[], T | None],
) -> T | None:
    """Depth-first walk over the nonempty subsets of [1..n] of at most max_size elements.

    Sets are visited size by size, each size in lexicographic order: the
    order of ``itertools.combinations(range(1, n + 1), size)`` for size =
    1, 2, ...  ``push(e)`` runs as e joins the current set and ``pop(e)``
    as it leaves, so a caller keeps its per-set counts up to date instead
    of rebuilding them; ``leaf()`` runs at each set of the current size.
    Returns the first ``leaf()`` result that is not None, else None.
    """

    def descend(start: int, left: int) -> T | None:
        for e in range(start, n - left + 2):
            push(e)
            found = leaf() if left == 1 else descend(e + 1, left - 1)
            pop(e)
            if found is not None:
                return found
        return None

    for size in range(1, max_size + 1):
        found = descend(1, size)
        if found is not None:
            return found
    return None


def as_multiset(hidden: Iterable[int] | Mapping[int, int], n: int | None = None) -> Multiset:
    """Normalize a hidden set description into an element -> multiplicity dict.

    Accepts an iterable of elements (multiplicity one each, duplicates
    accumulate) or a mapping with positive multiplicities.  With ``n``
    given, indices are range-checked against [1..n].
    """
    counts: Multiset = {}
    if isinstance(hidden, Mapping):
        for v, m in hidden.items():
            if m < 1:
                raise ValueError(f"multiplicity of element {v} must be >= 1, got {m}")
            counts[int(v)] = counts.get(int(v), 0) + int(m)
    else:
        for v in hidden:
            counts[int(v)] = counts.get(int(v), 0) + 1
    if n is not None:
        for v in counts:
            if not 1 <= v <= n:
                raise ValueError(f"element {v} outside universe [1..{n}]")
    return counts


def multiset_total(hidden: Mapping[int, int]) -> int:
    """Sum of multiplicities (the total weight of the hidden multiset)."""
    return sum(hidden.values())


def capped_feedback(query: Query, hidden: Iterable[int] | Mapping[int, int], alpha: int) -> int:
    """min(weighted |query ∩ hidden|, alpha) -- the single-query feedback value."""
    check_cap(alpha)
    counts = as_multiset(hidden)
    weight = sum(m for v, m in counts.items() if v in query)
    return min(weight, alpha)


def feedback_vector(
    queries: Iterable[Query], hidden: Iterable[int] | Mapping[int, int], alpha: int
) -> FeedbackVector:
    """Feedback values of every query against one hidden multiset, in order."""
    check_cap(alpha)
    counts = as_multiset(hidden)
    out = []
    for q in queries:
        weight = sum(m for v, m in counts.items() if v in q)
        out.append(min(weight, alpha))
    return tuple(out)


def distinguishes(
    queries: Iterable[Query],
    k1: Iterable[int] | Mapping[int, int],
    k2: Iterable[int] | Mapping[int, int],
    alpha: int,
) -> bool:
    """True iff the two hidden multisets produce different feedback vectors."""
    c1 = as_multiset(k1)
    c2 = as_multiset(k2)
    if c1 == c2:
        raise ValueError("identical sets")
    qs = tuple(queries)
    return feedback_vector(qs, c1, alpha) != feedback_vector(qs, c2, alpha)
