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
`verify_uniqueness` walks them too, keeping each query's count and an
additive fingerprint of the set's capped profile (a seeded random step
per query and capped level, in the manner of Zobrist hashing); only a
repeated fingerprint costs a comparison of full profiles.
"""

from __future__ import annotations

import random
from collections.abc import Iterable
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


FINGERPRINT_SEED = 0x7167_7431  # fixed, so every run draws the same fingerprint steps


def _fingerprint_steps(m: int, levels: int) -> list[list[int]]:
    """Row j holds query j's seeded 62-bit steps for capped levels 1..levels."""
    rng = random.Random(FINGERPRINT_SEED)
    return [[rng.getrandbits(62) for _ in range(levels)] for _ in range(m)]


def verify_uniqueness(
    queries: tuple[Query, ...],
    n: int,
    k: int,
    alpha: int,
    budget: int = 10_000_000,
) -> bool:
    """True iff the feedback vectors of all sets with |K| <= k are pairwise distinct.

    Sets are walked with ``model.walk_subsets``; the empty set, with
    fingerprint 0, is entered before the walk starts.  A set's
    fingerprint is the sum, over queries, of the steps for capped
    levels 1..min(|Q ∩ K|, alpha); push and pop add or remove a query's
    step whenever its count changes at or below the cap.  Equal vectors
    give equal fingerprints, so only a repeated fingerprint can mean a
    repeated vector, and it is confirmed by comparing the two sets' full
    capped profiles.
    """
    check_budget(sets_up_to(n, k), budget)
    inc = incidence(queries)
    queries_of = [inc.get(v, ()) for v in range(n + 1)]
    cap = min(alpha, k)  # no count in a set of at most k elements exceeds k
    steps = _fingerprint_steps(len(queries), cap)
    counts = [0] * len(queries)
    chosen: list[int] = []
    fingerprint = 0
    first: dict[int, tuple[int, ...]] = {0: ()}  # fingerprint -> first set that had it
    # fingerprint -> the distinct profiles of every set that had it, once two sets share it
    shared: dict[int, set[tuple[tuple[int, int], ...]]] = {}

    def profile(members: Iterable[int]) -> tuple[tuple[int, int], ...]:
        # Nonzero positions characterize a vector (all others read 0), so sets
        # are compared through their sparse capped profiles, not full m-tuples.
        hits: dict[int, int] = {}
        for v in members:
            for j in queries_of[v]:
                hits[j] = hits.get(j, 0) + 1
        return tuple(sorted((j, min(c, alpha)) for j, c in hits.items()))

    def push(e: int) -> None:
        nonlocal fingerprint
        for j in queries_of[e]:
            c = counts[j] + 1
            counts[j] = c
            if c <= cap:
                fingerprint += steps[j][c - 1]
        chosen.append(e)

    def pop(e: int) -> None:
        nonlocal fingerprint
        chosen.pop()
        for j in queries_of[e]:
            c = counts[j]
            counts[j] = c - 1
            if c <= cap:
                fingerprint -= steps[j][c - 1]

    def leaf() -> bool | None:
        earlier = first.get(fingerprint)
        if earlier is None:
            first[fingerprint] = tuple(chosen)
            return None
        profiles = shared.get(fingerprint)
        if profiles is None:
            profiles = shared[fingerprint] = {profile(earlier)}
        here = profile(chosen)
        if here in profiles:
            return True  # two sets with one feedback vector
        profiles.add(here)
        return None

    return walk_subsets(n, k, push, pop, leaf) is None
