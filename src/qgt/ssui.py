"""Strong selectors under interference, built from Reed-Solomon evaluation tables.

An (n, ell, kappa, alpha) strong selector under interference is a query
family in which, for every K1 of at most ell elements and K2 of at most
kappa elements, *every* v in K1 appears alone from K1 in some query
whose interference from K2 (counted without v itself) stays below alpha.

Construction: associate element i with the polynomial over F_q whose
coefficients are the base-q digits of i-1, with q prime, degree bound
d = ceil(log_ell n).  For each argument x in [0..q-1] the element joins
query number x*q + P_i(x) + 1.  Two distinct polynomials of degree at
most d agree on at most d arguments, which bounds both pairwise
co-occurrence and, by a counting argument, the number of arguments an
adversary can jam.  The prime q is raised until the counting argument
has slack: kappa*d/alpha < q - (ell-1)*d.

The family has exactly q^2 queries and every element occurs in exactly
q of them.  ``rs_size`` is the one home of the sizing (d, the smallest
admissible prime and the jamming loop), so a family's length is known
before it is built: ``build_ssui`` and ``strong_selector`` both read it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

from .model import BudgetError as BudgetError  # re-exported: qgt.ssui.BudgetError
from .model import Query, check_budget, check_universe, incidence, query_mask, sets_up_to
from .model import singletons, walk_subsets


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
    q = max(2, c * ell * d)
    while not (is_prime(q) and q ** (d + 1) >= n):
        q += 1
    return q


def nth_polynomial(i: int, q: int, d: int) -> tuple[int, ...]:
    """Coefficient vector of the i-th polynomial, lexicographic by base-q digits.

    Index j of the result is the coefficient of x^j; the digits are those
    of i-1, so i=1 is the zero polynomial and i=q+1 is x.
    """
    if not 1 <= i <= q ** (d + 1):
        raise ValueError(f"polynomial index {i} outside [1..q^(d+1)]")
    value = i - 1
    coeffs = []
    for _ in range(d + 1):
        coeffs.append(value % q)
        value //= q
    return tuple(coeffs)


def poly_eval(coeffs: tuple[int, ...], x: int, q: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % q
    return acc


def rs_size(n: int, ell: int, kappa: int, alpha: int) -> tuple[int, int]:
    """(q, d) of the (n, ell, kappa, alpha) table; with kappa = 0, q is admissible as is."""
    d = 1
    while max(2, ell) ** d < n:
        d += 1
    q = smallest_admissible_prime(ell, d, 2, n)  # every table has q >= 2*ell*d
    # integer form of kappa*d/alpha < q - (ell-1)*d
    while not kappa * d < alpha * (q - (ell - 1) * d):
        q += 1
        while not is_prime(q):
            q += 1
    return q, d


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
    members: list[list[int]] = [[] for _ in range(q * q)]
    for i in range(1, n + 1):
        coeffs = nth_polynomial(i, q, d)
        for x in range(q):
            members[x * q + poly_eval(coeffs, x, q)].append(i)
    queries = tuple(frozenset(m) for m in members)
    return SSuIFamily(queries, n, ell, kappa, alpha, q, d)


def strong_selector(n: int, width: int) -> tuple[Query, ...]:
    """An (n, width) strong selector: every element of every width-subset is isolated.

    Uses the interference-free polynomial family, except when the n
    singleton queries are at least as short -- a singleton family is a
    strong selector for every width.
    """
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    if width < n and rs_size(n, width, 0, 1)[0] ** 2 < n:
        return build_ssui(n, width, 0, 1).queries
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

    ``stop_at`` allows early exit once the count reaches a threshold.
    The enumeration, including the collapsed K2 scans, is charged against
    ``budget``.
    """
    spent = sets_up_to(n, ell)
    check_budget(spent, budget)
    masks = [query_mask(s) for s in queries]
    inc = incidence(queries)
    queries_of = [inc.get(v, ()) for v in range(n + 1)]
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

    walk_subsets(n, ell, push, pop, leaf)
    return worst


def verify_ssui(
    queries: tuple[Query, ...],
    n: int,
    ell: int,
    kappa: int,
    alpha: int,
    budget: int = 10_000_000,
) -> bool:
    """Exhaustively check the strong-selection property (no unselected element ever)."""
    check_budget(sets_up_to(n, ell) * sets_up_to(n, kappa), budget)
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
