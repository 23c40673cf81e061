"""Strong selectors under interference, built from Reed-Solomon evaluation tables.

An (n, ell, kappa, alpha) strong selector under interference is a query
family in which, for every K1 of at most ell elements and K2 of at most
kappa elements, *every* v in K1 appears alone from K1 in some query
whose interference from K2 (counted without v itself) stays below alpha.

Construction (``rs_table``): element i is the polynomial over F_q, q
prime, whose coefficients are the base-q digits of i-1, of degree at
most d; for each argument x it joins query number x*q + P_i(x) + 1.
Two distinct polynomials agree on at most d arguments, which bounds
both pairwise co-occurrence and, by a counting argument, the number of
arguments an adversary can jam.  ``build_ssui`` takes all q arguments,
with d = ceil(log_ell n) and q raised until the counting argument has
slack, kappa*d/alpha < q - (ell-1)*d (``rs_size``): q^2 queries, each
element in q of them.

Isolation alone (kappa = 0) needs only the first L = (w-1)*d + 1
arguments for width w: the w-1 others share at most (w-1)*d of them
with v.  ``rs_trunc_size`` picks d and the smallest prime q >= L with
q^(d+1) >= n to minimise L*q; ``truncated_table`` drops that table's
empty queries.  The code builder and ``strong_selector`` take it where
it is short enough, else the n singletons.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

from .model import BudgetError as BudgetError  # re-exported: qgt.ssui.BudgetError
from .model import OracleIndex, Query, check_budget, check_cap, check_universe, check_width, query_mask
from .model import pushed_leaf, sets_up_to, singletons, walk_subsets


def check_selector_params(n: int, ell: int, kappa: int, alpha: int) -> None:
    """ValueError unless (n, ell, kappa, alpha) are valid selector parameters."""
    check_universe(n)
    if ell < 1:
        raise ValueError(f"selection width ell must be >= 1, got {ell}")
    if kappa < 0:
        raise ValueError(f"interference budget kappa must be >= 0, got {kappa}")
    if alpha < 1:
        raise ValueError(f"interference cap alpha must be >= 1, got {alpha}")


def is_prime(q: int) -> bool:
    if q < 2:
        return False
    if q < 4:
        return True
    if q % 2 == 0:
        return False
    f = 3
    while f * f <= q:
        if q % f == 0:
            return False
        f += 2
    return True


def smallest_admissible_prime(ell: int, d: int, c: int, n: int) -> int:
    """Smallest prime q with q >= c*ell*d and q^(d+1) >= n."""
    return _prime_at_least(c * ell * d, d, n)


def _prime_at_least(lo: int, d: int, n: int) -> int:
    """Smallest prime q with q >= lo and q^(d+1) >= n."""
    q = max(2, lo, round(n ** (1 / (d + 1))) - 1)  # at most the exact root
    while not (q ** (d + 1) >= n and is_prime(q)):
        q += 1
    return q


def rs_size(n: int, ell: int, kappa: int, alpha: int) -> tuple[int, int]:
    """(q, d) of the (n, ell, kappa, alpha) table; with kappa = 0, q is admissible as is."""
    d = 1
    while max(2, ell) ** d < n:
        d += 1
    # every table has q >= 2*ell*d; then kappa*d/alpha < q - (ell-1)*d, in integers
    return _prime_at_least(max(2 * ell * d, (ell - 1) * d + kappa * d // alpha + 1), d, n), d


def rs_trunc_size(n: int, width: int) -> tuple[int, int, int]:
    """(q, d, L) of the truncated width-`width` table (module docstring).

    L = (width-1)*d + 1, q is the smallest prime >= L with q^(d+1) >= n,
    and d is the smallest degree minimising L*q.
    """
    sizes = []
    for d in range(1, n.bit_length() + 1):
        points = (width - 1) * d + 1
        sizes.append((_prime_at_least(points, d, n), d, points))
        if sizes[-1][0] == 2 or points ** (d + 1) >= n:
            break  # q is the smallest prime >= L from here on: a larger d is longer
    return min(sizes, key=lambda size: size[0] * size[2])


def rs_table(n: int, q: int, points: int) -> tuple[Query, ...]:
    """The table at arguments 0 .. points-1, x-major, empty queries kept.

    With v = c + q*w (c the lowest digit), P_{v+1}(x) = c + x * P_{w+1}(x).
    """
    members: list[list[int]] = [[] for _ in range(points * q)]
    for x in range(points):
        values = [0] * n  # values[v]: P_{v+1}(x)
        for v in range(n):
            values[v] = y = (v % q + x * values[v // q]) % q
            members[x * q + y].append(v + 1)
    return tuple(frozenset(m) for m in members)


def truncated_table(n: int, q: int, points: int) -> tuple[Query, ...]:
    """The nonempty queries of the table at the first `points` arguments."""
    return tuple(s for s in rs_table(n, q, points) if s)


@dataclass(frozen=True)
class SSuIFamily:
    queries: tuple[Query, ...]
    n: int
    ell: int
    kappa: int
    alpha: int
    q: int
    d: int

    @property
    def analytic_slack(self) -> float:
        """Slack of the jamming bound kappa*d/alpha < q - (ell-1)*d."""
        return (self.q - (self.ell - 1) * self.d) - self.kappa * self.d / self.alpha


def build_ssui(n: int, ell: int, kappa: int, alpha: int) -> SSuIFamily:
    """Build the full q^2-query strong selector family for the given parameters.

    The prime is the smallest one that is admissible *and* leaves the
    jamming bound strictly satisfied, so the analytic guarantee holds by
    construction; verify_ssui remains available as an independent check.
    """
    check_selector_params(n, ell, kappa, alpha)
    q, d = rs_size(n, ell, kappa, alpha)
    return SSuIFamily(rs_table(n, q, q), n, ell, kappa, alpha, q, d)


def strong_selector(n: int, width: int) -> tuple[Query, ...]:
    """An (n, width) strong selector: every element of every width-subset is isolated.

    The truncated table when its L*q queries are fewer than n, else the n
    singletons, a strong selector for every width.
    """
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    q, _, points = rs_trunc_size(n, width)
    if points * q < n:
        return truncated_table(n, q, points)
    return singletons(n)


def max_unselected_count(
    queries: tuple[Query, ...],
    n: int,
    ell: int,
    kappa: int,
    alpha: int,
    budget: int = 10_000_000,
    stop_at: int | None = None,
) -> int:
    """Worst-case number of K1 elements no query selects, over all (K1, K2).

    Exact adversarial maximum: for every K1 of size <= ell, an element v
    is unselected either because no query isolates it from K1, or because
    some K2 of size <= kappa pushes every isolating query's interference
    (counted without v) to alpha or above.  Only elements of isolating
    queries can contribute interference, so the K2 search space collapses
    to those elements, and jamming is monotone in K2, so only maximal
    subsets need scanning.  The result equals the one a full enumeration
    of all (K1, K2) pairs would produce.

    K1 is walked with ``walk_subsets``.  On each push and pop the walk
    keeps, per query, how many K1 elements it holds and their sum (which
    names the element when there is one), and per element how many
    queries isolate it and how many of those are thin: a query of at
    most alpha elements, or any query when kappa < alpha, can never be
    jammed.  The number of K1 elements never isolated and the number
    that can be jammed (isolated only by queries that are not thin) are
    kept too, so a K1 with nothing to jam costs O(1); the collapsed K2
    scan, unchanged, runs only at the others.

    The index is a ``model.OracleIndex``, and its active elements are
    read first.  With none, every query holds at most one element, so at
    alpha >= 1 every query is thin and every element is isolated: the
    result is 0 at once, with no index, mask or per-query table built
    (the n singletons).  When every query is thin, no K2 scan runs and
    K1 is walked over the active elements only: by the inert-element
    lemma in ``model``, a K1 counts as many unselected elements as its
    active part, which the walk reaches no later, so the maximum and
    the ``stop_at`` result are unchanged.  Otherwise the walk covers
    [1..n], since each K2 scan is charged once per visited K1.

    ``stop_at`` allows early exit once the count reaches a threshold.
    The enumeration, including the collapsed K2 scans, is charged against
    ``budget``.  A negative ell, kappa or alpha is refused with a
    ValueError; 0 is legal for each.
    """
    check_width("ell", ell)
    check_width("kappa", kappa)
    check_cap(alpha, least=0)
    spent = sets_up_to(n, ell)
    check_budget(spent, budget)
    index = OracleIndex(queries, n)
    if not index.active and alpha >= 1:
        return 0
    masks, queries_of = index.masks, index.queries_of
    thin = [len(s) <= alpha or kappa < alpha for s in queries]
    hits = [0] * len(queries)  # |Q ∩ K1|
    owner = [0] * len(queries)  # sum of Q ∩ K1: its one element when hits == 1
    isolated_by = [0] * (n + 1)  # queries isolating v from K1
    thin_isolated_by = [0] * (n + 1)  # of those, thin ones
    k1: list[int] = []
    never = 0  # elements of K1 no query isolates
    jammable = 0  # elements of K1 isolated only by queries that are not thin
    worst = 0

    def gain(v: int, is_thin: bool) -> None:
        nonlocal never, jammable
        if isolated_by[v] == 0:
            never -= 1
            if not is_thin:
                jammable += 1
        elif is_thin and thin_isolated_by[v] == 0:
            jammable -= 1
        isolated_by[v] += 1
        if is_thin:
            thin_isolated_by[v] += 1

    def lose(v: int, is_thin: bool) -> None:
        nonlocal never, jammable
        isolated_by[v] -= 1
        if is_thin:
            thin_isolated_by[v] -= 1
        if isolated_by[v] == 0:
            never += 1
            if not is_thin:
                jammable -= 1
        elif is_thin and thin_isolated_by[v] == 0:
            jammable += 1

    def push(e: int) -> None:
        nonlocal never
        k1.append(e)
        never += 1
        for j in queries_of[e]:
            h = hits[j]
            if h == 0:
                gain(e, thin[j])
            elif h == 1:
                lose(owner[j], thin[j])
            hits[j] = h + 1
            owner[j] += e

    def pop(e: int) -> None:
        nonlocal never
        for j in queries_of[e]:
            h = hits[j] - 1
            hits[j] = h
            owner[j] -= e
            if h == 0:
                lose(e, thin[j])
            elif h == 1:
                gain(owner[j], thin[j])
        k1.pop()
        never -= 1

    def leaf() -> int | None:
        nonlocal spent, worst
        count = never
        if jammable:
            jam = [v for v in k1 if isolated_by[v] and not thin_isolated_by[v]]
            bit_of = {v: 1 << (v - 1) for v in jam}
            isolating = {v: [masks[j] for j in queries_of[v] if hits[j] == 1] for v in jam}
            relevant = 0
            for v in jam:
                for m in isolating[v]:
                    relevant |= m
            pool = [i + 1 for i in range(n) if relevant >> i & 1]
            take = min(kappa, len(pool))
            spent += comb(len(pool), take)
            check_budget(spent, budget)
            best_jammed = 0
            for k2_combo in itertools.combinations(pool, take):
                k2_mask = query_mask(k2_combo)
                jammed = 0
                for v in jam:
                    keep = k2_mask & ~bit_of[v]
                    if all((m & keep).bit_count() >= alpha for m in isolating[v]):
                        jammed += 1
                best_jammed = max(best_jammed, jammed)
            count += best_jammed
        if count > worst:
            worst = count
            if stop_at is not None and worst >= stop_at:
                return worst
        return None

    universe = index.active if all(thin) else range(1, n + 1)
    walk_subsets(universe, ell, push, pop, pushed_leaf(push, pop, leaf))
    return worst


def check_ssui_budget(n: int, ell: int, kappa: int, budget: int) -> None:
    """BudgetError if ``verify_ssui`` at (n, ell, kappa) would enumerate more than ``budget`` cases."""
    check_budget(sets_up_to(n, ell) * sets_up_to(n, kappa), budget)


def verify_ssui(
    queries: tuple[Query, ...],
    n: int,
    ell: int,
    kappa: int,
    alpha: int,
    budget: int = 10_000_000,
) -> bool:
    """Exhaustively check the strong-selection property (no unselected element ever)."""
    check_ssui_budget(n, ell, kappa, budget)
    return max_unselected_count(queries, n, ell, kappa, alpha, budget, stop_at=1) == 0


def cooccurrence_bound_holds(family: SSuIFamily) -> bool:
    """Direct all-pairs check: no two elements share more than d queries."""
    pair_counts: dict[tuple[int, int], int] = {}
    for s in family.queries:
        members = sorted(s)
        for a_idx in range(len(members)):
            for b_idx in range(a_idx + 1, len(members)):
                key = (members[a_idx], members[b_idx])
                pair_counts[key] = pair_counts.get(key, 0) + 1
    return all(count <= family.d for count in pair_counts.values())


def occurrence_counts(queries: tuple[Query, ...], n: int) -> list[int]:
    """How many queries contain each element (index 0 unused)."""
    counts = [0] * (n + 1)
    for s in queries:
        for v in s:
            counts[v] += 1
    return counts
