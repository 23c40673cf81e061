"""Reference scans for the selector, jamming, uniqueness and claim oracles.

These are the plain enumerations the library's push/pop walks replace:
every candidate set is rebuilt from scratch (as a bitmask, a capped
profile or a count dict) and tested against every query.  They are kept
only as the reference the differential tests in test_oracle_walk.py
compare the walks against: value, ``stop_at`` result, verdict, first
witness and ``BudgetError`` points must all agree.
"""

import itertools
from math import comb

from qgt.model import check_budget, incidence, query_mask, sets_up_to
from qgt.random_code import ClaimReport


def reference_max_unselected_count(
    queries, n, ell, kappa, alpha, budget=10_000_000, stop_at=None
):
    universe = range(1, n + 1)
    spent = sets_up_to(n, ell)
    check_budget(spent, budget)
    masks = [query_mask(s) for s in queries]
    worst = 0
    jam_possible = kappa >= alpha
    for size in range(1, ell + 1):
        for combo in itertools.combinations(universe, size):
            k1_mask = query_mask(combo)
            bit_of = {v: 1 << (v - 1) for v in combo}
            isolating = {v: [] for v in combo}
            for m in masks:
                hit = m & k1_mask
                if hit and hit & (hit - 1) == 0:
                    isolating[hit.bit_length()].append(m)
            never = [v for v in combo if not isolating[v]]
            jammable = []
            if jam_possible:
                for v in combo:
                    iso = isolating[v]
                    if iso and all((m & ~bit_of[v]).bit_count() >= alpha for m in iso):
                        jammable.append(v)
            if not jammable:
                count = len(never)
            else:
                relevant = 0
                for v in jammable:
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
                    for v in jammable:
                        keep = k2_mask & ~bit_of[v]
                        if all((m & keep).bit_count() >= alpha for m in isolating[v]):
                            jammed += 1
                    best_jammed = max(best_jammed, jammed)
                count = len(never) + best_jammed
            if count > worst:
                worst = count
                if stop_at is not None and worst >= stop_at:
                    return worst
    return worst


def reference_find_unjammed_violation(queries, n, k, alpha, budget=10_000_000):
    check_budget(sets_up_to(n, k), budget)
    masks = [query_mask(s) for s in queries]
    inc = incidence(queries)
    for size in range(1, k + 1):
        for combo in itertools.combinations(range(1, n + 1), size):
            k_mask = query_mask(combo)
            for x in combo:
                if not any(
                    (masks[idx] & k_mask).bit_count() <= alpha + 1 for idx in inc.get(x, ())
                ):
                    return frozenset(combo), x
    return None


def reference_verify_uniqueness(queries, n, k, alpha, budget=10_000_000):
    check_budget(sets_up_to(n, k), budget)
    inc = incidence(queries)
    # Nonzero positions characterize a vector (all others read 0), so sets are
    # compared through their sparse capped profiles instead of full m-tuples.
    seen = set()
    counts = [0] * len(queries)
    for size in range(k + 1):
        for combo in itertools.combinations(range(1, n + 1), size):
            touched = []
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


def _reference_hit_exactly_once(lo, hi, inc, combo):
    counts = {}
    for v in combo:
        for idx in inc.get(v, ()):
            counts[idx] = counts.get(idx, 0) + 1
    return any(c == 1 and lo <= idx < hi for idx, c in counts.items())


def reference_verify_claims(code, budget=10_000_000):
    """The exhaustive mode of ``verify_claims`` as a scan over itertools.combinations."""
    n, k, alpha = code.n, code.k, code.alpha
    check_budget(sets_up_to(n, k) - 1, budget)
    universe = range(1, n + 1)
    candidates = (
        combo for size in range(1, k + 1) for combo in itertools.combinations(universe, size)
    )
    witness1 = next((s for s in code.queries if len(s) > alpha), None)
    inc = incidence(code.queries)
    if code.fallback:
        part1 = (0, len(code.queries))
        part2 = part1
    else:
        part1 = (0, code.t1)
        part2 = (code.t1, code.t1 + code.t2)
    small_limit = min(k, n // alpha)
    witness2 = witness3 = None
    for combo in candidates:
        small = len(combo) <= small_limit
        lo, hi = part1 if small else part2
        if not _reference_hit_exactly_once(lo, hi, inc, combo):
            if small:
                witness2 = frozenset(combo)
            else:
                witness3 = frozenset(combo)
            break
    return ClaimReport(
        witness1 is None, witness2 is None, witness3 is None, witness1, witness2, witness3
    )
