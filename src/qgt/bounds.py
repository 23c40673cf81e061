"""Query-count lower bound and adversarial consistency checks.

The closed-form lower bound for capacity k and cap alpha has two parts:
min((k/alpha)^2, n/alpha) holds for *any* feedback capped at alpha, and
k*log2(n/k)/log2(alpha) is the information-theoretic term for the
counting feedback itself; at alpha = 1 the feedback is binary
(two values per position) and the denominator is taken as 1.
Constants hidden by the asymptotics are not reproduced; the bound is
evaluated directly and callers compare measured lengths against it.

`find_unjammed_violation` is the executable form of the jamming
argument: a solvable query system must give every element x of every
candidate set K at least one query containing x whose intersection with
K has at most alpha+1 elements; otherwise K and K \\ {x} produce
identical feedback under some cap-alpha function.  `verify_uniqueness`
is the definition of solvability itself, checked exhaustively.

`find_unjammed_violation` walks the candidate sets with
`model.walk_subsets`, keeping each query's count in K and each
element's number of queries that are not over-full on push and pop; it
returns the same first witness as the full enumeration.
`verify_uniqueness` still rebuilds each set's profile from scratch.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import log2

from .model import Query, check_budget, check_cap, check_capacity, incidence, query_mask
from .model import sets_up_to, walk_subsets


@dataclass(frozen=True)
class BoundReport:
    n: int
    k: int
    alpha: int
    lb_capped_general: float
    lb_info: float
    lb_total: float
    measured_m: int | None = None

    @property
    def ratio(self) -> float | None:
        if self.measured_m is None or self.lb_total == 0:
            return None
        return self.measured_m / self.lb_total


def lower_bound(n: int, k: int, alpha: int, measured_m: int | None = None) -> BoundReport:
    """Evaluate the lower-bound expression, optionally against a measured length."""
    check_capacity(n, k)
    check_cap(alpha)
    general = min((k / alpha) ** 2, n / alpha)
    denom = log2(alpha) if alpha >= 2 else 1.0
    info = k * log2(n / k) / denom
    return BoundReport(n, k, alpha, general, info, general + info, measured_m)


def counting_bound_holds(n: int, k: int, alpha: int, m: int) -> bool:
    """Feedback positions carry alpha+1 values, so solvability needs (alpha+1)^m >= #sets."""
    return (alpha + 1) ** m >= sets_up_to(n, k)


def find_unjammed_violation(
    queries: tuple[Query, ...],
    n: int,
    k: int,
    alpha: int,
    budget: int = 10_000_000,
) -> tuple[frozenset[int], int] | None:
    """First (K, x) with every query containing x over-full on K, or None.

    A returned witness means K and K \\ {x} are indistinguishable under
    some feedback capped at alpha, so the query system cannot be
    solvable.  None over all |K| <= k is the necessary condition the
    jamming argument demands of every correct code.

    Sets are visited in the order of ``model.walk_subsets`` (size by
    size, each size lexicographic) and x is the smallest violating
    element, so the witness is the first one a full enumeration finds.
    """
    check_budget(sets_up_to(n, k), budget)
    masks = [query_mask(s) for s in queries]
    inc = incidence(queries)
    queries_of = [inc.get(v, ()) for v in range(n + 1)]
    full = alpha + 1  # a query holding more elements of K than this is over-full
    hits = [0] * len(queries)  # |Q ∩ K|
    roomy = [0] * (n + 1)  # queries containing v that are not over-full
    chosen: list[int] = []
    jammed = 0  # elements of K whose every query is over-full

    def crowd(j: int, step: int) -> None:
        # query j crossed the over-full line: the other elements of K in it gain or lose it
        nonlocal jammed
        m = masks[j]
        for v in chosen:
            if m >> (v - 1) & 1:
                if roomy[v] == 0:
                    jammed -= 1
                roomy[v] += step
                if roomy[v] == 0:
                    jammed += 1

    def push(e: int) -> None:
        nonlocal jammed
        room = 0
        for j in queries_of[e]:
            h = hits[j] + 1
            hits[j] = h
            if h <= full:
                room += 1
            elif h == full + 1:
                crowd(j, -1)
        roomy[e] = room
        if room == 0:
            jammed += 1
        chosen.append(e)

    def pop(e: int) -> None:
        nonlocal jammed
        chosen.pop()
        if roomy[e] == 0:
            jammed -= 1
        for j in queries_of[e]:
            h = hits[j]
            hits[j] = h - 1
            if h == full + 1:
                crowd(j, 1)

    def leaf() -> tuple[frozenset[int], int] | None:
        if not jammed:
            return None
        return frozenset(chosen), next(x for x in chosen if roomy[x] == 0)

    return walk_subsets(n, k, push, pop, leaf)


def verify_uniqueness(
    queries: tuple[Query, ...],
    n: int,
    k: int,
    alpha: int,
    budget: int = 10_000_000,
) -> bool:
    """True iff the feedback vectors of all sets with |K| <= k are pairwise distinct."""
    check_budget(sets_up_to(n, k), budget)
    inc = incidence(queries)
    # Nonzero positions characterize a vector (all others read 0), so sets are
    # compared through their sparse capped profiles instead of full m-tuples.
    seen: set[tuple[tuple[int, int], ...]] = set()
    counts = [0] * len(queries)
    for size in range(k + 1):
        for combo in itertools.combinations(range(1, n + 1), size):
            touched: list[int] = []
            for v in combo:
                for idx in inc.get(v, ()):
                    if counts[idx] == 0:
                        touched.append(idx)
                    counts[idx] += 1
            touched.sort()
            profile = tuple((idx, min(counts[idx], alpha)) for idx in touched)
            for idx in touched:
                counts[idx] = 0
            if profile in seen:
                return False
            seen.add(profile)
    return True
