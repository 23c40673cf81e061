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

For k <= alpha + 1 claim A has a closed form.  A query is over-full on
K when it holds more than alpha + 1 elements of K, which no query can
do when |K| <= k <= alpha + 1.  Then x is jammed in K exactly when x
lies in no query (all of its queries are over-full only when it has
none), and then {x} alone is jammed too.  Sets of one element come
first in walk order, so the first witness is ({x}, x) for the smallest
element x in no query (such an x is never inert), and there is none
when every element lies in some query or k = 0;
`find_unjammed_violation` returns it without a walk.  For larger k
`find_unjammed_violation` walks the candidate sets with
`model.walk_subsets`, keeping each query's count in K and each
element's number of queries that are not over-full on push and pop; it
returns the same first witness as the full enumeration.  At the walk's
last level it settles K plus e from the counts of K, which the walk
has already found unjammed: unless one of e's queries crosses the
over-full line, only e can be jammed, and K plus e is pushed only
when one does.  `verify_uniqueness` walks them too, keeping each
query's count and an additive fingerprint of the set's capped profile
(a seeded random step per query and capped level, in the manner of
Zobrist hashing, drawn once per (m, levels)); at the last level the
fingerprint of K plus e is the current one plus e's steps, and only a
repeated fingerprint costs a comparison of full profiles.  It keeps
only the fingerprints, each with the rank in walk order of the first
set that had it, and rebuilds that set (`model.subset_at`) only when
the fingerprint repeats.  Both walk only the active elements: by the
inert-element lemma in `model`, the sets they skip can neither hold
the first witness nor collide where their active parts do not.  Both
build a `model.OracleIndex` and read its active elements first: with
none, as on the n singletons, the verdict is immediate and nothing
else is built.  On a built family over its own universe the index
reads the family's own incidence, so neither lays out a query.  Both
refuse a negative cap with a ValueError; cap 0 stays legal.

For k <= 1 uniqueness has a closed form too.  At k = 0 the empty set
stands alone.  At k = 1 and alpha >= 1 the set {v} reads exactly 1 on
v's queries and 0 elsewhere, so the n + 1 vectors are distinct iff every
element's row of queries is nonempty (else {v} reads as the empty set)
and no two rows are equal.  An inert element's row holds only its own
singleton queries, which no other element's row holds, so only the
active elements' rows are compared, each against the others, with one
``set`` of them; nothing is walked or fingerprinted.  The checks before
it (width, cap, budget, cap 0, no active element) stay where they are,
so every BudgetError point is the walk's.  Warm, in process on a 2-vCPU
Xeon, it takes 3.9 ms on the (2^14, 1, 2) table (31 ms walked) and
85 ms on the (2^18, 1, 2) table (405 ms walked); the first call, which
fills the table's incidence, stays at about 2.4 s there.

`verify_decoding` checks the decoder where the others check the code:
every hidden input within capacity, encoded by ``Code.feedback`` and
handed to ``decode``, must come back as itself.  The code's mode decides
the inputs: every multiset of total at most k on a multiset code, which
stores cap 0 and so is read uncapped, and every set of at most k
elements, read at the code's alpha, on any other.  It is the plain loop
on purpose, with no count kept on push and pop and no inert-element
shortcut: decoding takes most of its time, and the inert lemma is about
distinguishability, not decoding.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache
from math import comb, log2

from .code import MODE_MULTISET, Code
from .decode import DecodeError, decode
from .model import Multiset, OracleIndex, Query, as_multiset, check_budget, check_cap, check_capacity, check_width
from .model import pushed_leaf, sets_up_to, subset_at, walk_subsets


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
    element, so the witness is the first one a full enumeration finds:
    that witness holds no inert element, so walking the active elements
    alone still reaches it first.  For k <= alpha + 1 nothing is walked:
    the witness, if any, is {x} for the smallest x in no query.
    """
    check_width("k", k)
    check_cap(alpha, least=0)
    check_budget(sets_up_to(n, k), budget)
    index = OracleIndex(queries, n)
    if not index.active:
        return None
    queries_of = index.queries_of
    full = alpha + 1  # a query holding more elements of K than this is over-full
    if k <= full:
        # no query holds more than |K| <= k elements of K, so none is over-full and x is
        # jammed only when it lies in no query: the first witness is {x}, x the smallest such
        x = next((v for v in index.active if not queries_of[v]), None)
        return None if x is None or k < 1 else (frozenset((x,)), x)
    masks = index.masks
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

    pushed = pushed_leaf(push, pop, leaf)

    def last(e: int) -> tuple[frozenset[int], int] | None:
        # The walk reached this prefix as a set of its own, unjammed.  Unless one of e's
        # queries crosses the over-full line here, adding e jams no element of the prefix,
        # so only e can be jammed: when no query of e stays within the line.
        room = False
        for j in queries_of[e]:
            h = hits[j]
            if h == full:
                return pushed(e)
            if h < full:
                room = True
        return None if room else (frozenset([*chosen, e]), e)

    return walk_subsets(index.active, k, push, pop, last)


FINGERPRINT_SEED = 0x7167_7431  # fixed, so every run draws the same fingerprint steps


@lru_cache(maxsize=8)
def _fingerprint_steps(m: int, levels: int) -> tuple[tuple[int, ...], ...]:
    """Row j holds query j's seeded 62-bit steps for capped levels 1..levels, drawn once per (m, levels)."""
    rng = random.Random(FINGERPRINT_SEED)
    return tuple(tuple(rng.getrandbits(62) for _ in range(levels)) for _ in range(m))


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
    step whenever its count changes at or below the cap, and a set at
    the walk's last level, the current one plus e, takes the current
    fingerprint plus the steps of e's queries still below the cap, with
    e not pushed.  Equal vectors give equal fingerprints, so only a
    repeated fingerprint can mean a repeated vector, and it is confirmed
    by comparing the two sets' full capped profiles.  A fingerprint is
    kept with the rank of the first set that had it, which is rebuilt
    from that rank only on a repeat, so memory grows by one fingerprint
    and one rank per new fingerprint.
    Only sets of active elements are walked: any two colliding sets
    leave two colliding sets of active elements once their shared inert
    elements are dropped.  At cap 0 every capped vector is all zero, so
    only k = 0 (the empty set alone) passes, and nothing is walked.  For
    k <= 1 nothing is walked either: the verdict is read off the active
    elements' rows of queries (module docstring).
    """
    check_width("k", k)
    check_cap(alpha, least=0)
    check_budget(sets_up_to(n, k), budget)
    if alpha == 0:
        return sets_up_to(n, k) <= 1  # every capped vector is all zero
    index = OracleIndex(queries, n)
    active = index.active
    if not active:
        return True
    if k == 0:
        return True  # the empty set alone
    queries_of = index.queries_of
    if k == 1:
        # {v} reads 1 exactly on v's queries, the empty set 0 everywhere
        rows = [queries_of[v] for v in active]
        return all(rows) and len(set(rows)) == len(rows)
    cap = min(alpha, k)  # no count in a set of at most k elements exceeds k
    steps = _fingerprint_steps(len(queries), cap)
    counts = [0] * len(queries)
    chosen: list[int] = []
    fingerprint = 0
    rank = 0  # of the current set in walk order; the empty set is 0
    first = {0: 0}  # fingerprint -> rank of the first set that had it
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

    def last(e: int) -> bool | None:
        nonlocal rank
        rank += 1
        here = fingerprint  # of the current set plus e, from the counts e would raise
        for j in queries_of[e]:
            c = counts[j]
            if c < cap:
                here += steps[j][c]
        earlier = first.setdefault(here, rank)
        if earlier == rank:
            return None
        profiles = shared.get(here)
        if profiles is None:
            profiles = shared[here] = {profile(subset_at(active, earlier))}
        mine = profile([*chosen, e])
        if mine in profiles:
            return True  # two sets with one feedback vector
        profiles.add(mine)
        return None

    return walk_subsets(active, k, push, pop, last) is None


def verify_decoding(code: Code, budget: int = 10_000_000) -> tuple[Multiset, Multiset | DecodeError] | None:
    """First hidden input within capacity that does not decode to itself, with its outcome, or None.

    A multiset code (cap 0) is walked over every multiset of total at
    most k, read uncapped; any other code over every set of at most k
    elements, read at its own alpha.  Inputs go size by size, each size
    lexicographic, so the witness is the first one a full scan meets.
    The outcome is the ``DecodeError`` raised or the wrong multiset
    returned.
    """
    n, k = code.n, code.k
    if code.mode == MODE_MULTISET:
        check_budget(comb(n + k, k), budget)
        draw = itertools.combinations_with_replacement
    else:
        check_budget(sets_up_to(n, k), budget)
        draw = itertools.combinations
    for size in range(k + 1):
        for elements in draw(range(1, n + 1), size):
            hidden = as_multiset(elements)
            try:
                got = decode(code, code.feedback(hidden))
            except DecodeError as error:
                return hidden, error
            if got != hidden:
                return hidden, got
    return None
