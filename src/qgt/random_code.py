"""Seeded random query systems certifying distinguishability, with claim checks.

The construction draws t1 queries with per-element inclusion probability
alpha/(6n) and t2 more with probability min(1/(6k), alpha/(6n)), where

    t1 = ceil((8n/alpha) * (ln(n*e) + 4))
    t2 = ceil(k * (ln(n*e) + 4))

When t1 + t2 >= n the n singleton queries are shorter and are used
instead (each claim below then holds outright), so the output length is
always min(t1 + t2, n).

Three claims certify a draw: (1) every query has at most alpha
elements, (2) every nonempty K with |K| <= min(k, n/alpha) meets some
first-part query in exactly one element, (3) every K with
n/alpha < |K| <= k meets some second-part query in exactly one element.
A verified code distinguishes any two multisets of at most k elements
via their symmetric difference.  At small n the union bounds backing
the claims are loose, so verification is the source of truth and
callers retry seeds until it passes.  The exhaustive check walks the
candidate sets with ``model.walk_subsets``, keeping each query's count
and each part's number of queries hit exactly once on push and pop;
the sampled check counts each seeded draw from scratch.

The natural logarithm in t1/t2 is evaluated in floating point and then
rounded up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import ceil, e, log

from .model import Query, check_budget, check_cap, check_capacity, incidence, sets_up_to
from .model import singletons, walk_subsets


@dataclass(frozen=True)
class RandomCodeParams:
    n: int
    k: int
    alpha: int
    seed: int

    @property
    def t1(self) -> int:
        return ceil((8 * self.n / self.alpha) * (log(self.n * e) + 4))

    @property
    def t2(self) -> int:
        return ceil(self.k * (log(self.n * e) + 4))

    @property
    def p1(self) -> float:
        return self.alpha / (6 * self.n)

    @property
    def p2(self) -> float:
        return min(1 / (6 * self.k), self.alpha / (6 * self.n))

    @property
    def fallback(self) -> bool:
        return self.t1 + self.t2 >= self.n


@dataclass(frozen=True)
class RandomCode:
    queries: tuple[Query, ...]
    n: int
    k: int
    alpha: int
    seed: int
    t1: int  # length of the first part (equals len(queries) on fallback)
    t2: int
    fallback: bool


def build_random_code(n: int, k: int, alpha: int, seed: int = 0) -> RandomCode:
    if n < 2:
        raise ValueError(f"universe size must be >= 2, got {n}")
    check_capacity(n, k)
    check_cap(alpha)
    params = RandomCodeParams(n, k, alpha, seed)
    if params.fallback:
        return RandomCode(singletons(n), n, k, alpha, seed, n, 0, True)
    rng = random.Random(seed)
    queries_list: list[Query] = []
    for probability, count in ((params.p1, params.t1), (params.p2, params.t2)):
        for _ in range(count):
            queries_list.append(
                frozenset(v for v in range(1, n + 1) if rng.random() < probability)
            )
    return RandomCode(tuple(queries_list), n, k, alpha, seed, params.t1, params.t2, False)


@dataclass(frozen=True)
class ClaimReport:
    claim1: bool
    claim2: bool
    claim3: bool
    witness1: Query | None = None
    witness2: frozenset[int] | None = None
    witness3: frozenset[int] | None = None

    @property
    def passed(self) -> bool:
        return self.claim1 and self.claim2 and self.claim3

    def lines(self) -> list[str]:
        out = []
        for name, ok, witness in (
            ("claim1 (all queries have <= alpha elements)", self.claim1, self.witness1),
            ("claim2 (small sets hit exactly once by part 1)", self.claim2, self.witness2),
            ("claim3 (large sets hit exactly once by part 2)", self.claim3, self.witness3),
        ):
            line = f"{name}: {'pass' if ok else 'FAIL'}"
            if witness is not None:
                line += f"  witness={sorted(witness)}"
            out.append(line)
        return out


def _hit_exactly_once(
    lo: int, hi: int, inc: dict[int, tuple[int, ...]], combo: tuple[int, ...]
) -> bool:
    """Does some query with index in [lo, hi) meet the set in exactly one element?"""
    counts: dict[int, int] = {}
    for v in combo:
        for idx in inc.get(v, ()):
            counts[idx] = counts.get(idx, 0) + 1
    return any(c == 1 and lo <= idx < hi for idx, c in counts.items())


def _first_missed_set(
    code: RandomCode,
    inc: dict[int, tuple[int, ...]],
    part1: tuple[int, int],
    part2: tuple[int, int],
    small_limit: int,
) -> frozenset[int] | None:
    """First set, in walk order, that no query of its part meets exactly once.

    Sets of at most ``small_limit`` elements read part 1, larger ones part
    2.  Each query's count in K and, per part, the number of its queries
    that meet K exactly once are kept up to date on push and pop.
    """
    m = len(code.queries)
    in1 = [int(part1[0] <= j < part1[1]) for j in range(m)]
    in2 = [int(part2[0] <= j < part2[1]) for j in range(m)]
    # a query in neither part never counts, so the walk skips it
    queries_of = [
        tuple(j for j in inc.get(v, ()) if in1[j] or in2[j]) for v in range(code.n + 1)
    ]
    hits = [0] * m
    chosen: list[int] = []
    once1 = once2 = 0  # part-1 and part-2 queries meeting K exactly once

    def push(e: int) -> None:
        nonlocal once1, once2
        for j in queries_of[e]:
            h = hits[j] + 1
            hits[j] = h
            if h == 1:
                once1 += in1[j]
                once2 += in2[j]
            elif h == 2:
                once1 -= in1[j]
                once2 -= in2[j]
        chosen.append(e)

    def pop(e: int) -> None:
        nonlocal once1, once2
        chosen.pop()
        for j in queries_of[e]:
            h = hits[j] - 1
            hits[j] = h
            if h == 1:
                once1 += in1[j]
                once2 += in2[j]
            elif h == 0:
                once1 -= in1[j]
                once2 -= in2[j]

    def leaf() -> frozenset[int] | None:
        once = once1 if len(chosen) <= small_limit else once2
        return None if once else frozenset(chosen)

    return walk_subsets(code.n, code.k, push, pop, leaf)


def verify_claims(
    code: RandomCode,
    mode: str = "exhaustive",
    budget: int = 10_000_000,
    trials: int = 1000,
    seed: int = 0,
) -> ClaimReport:
    """Check the three claims; exhaustive over all candidate sets or over sampled ones.

    The exhaustive witness is the first one a full enumeration of the
    candidate sets finds, size by size.  On the singleton fallback the
    two parts coincide with the whole code, matching the fact that
    singletons hit every set exactly once.
    """
    n, k, alpha = code.n, code.k, code.alpha
    if mode == "exhaustive":
        check_budget(sets_up_to(n, k) - 1, budget)
    elif mode != "sampled":
        raise ValueError(f"unknown verification mode {mode!r}")
    witness1 = next((s for s in code.queries if len(s) > alpha), None)
    inc = incidence(code.queries)
    if code.fallback:
        part1 = (0, len(code.queries))
        part2 = part1
    else:
        part1 = (0, code.t1)
        part2 = (code.t1, code.t1 + code.t2)
    small_limit = min(k, n // alpha)
    if mode == "exhaustive":
        missed = _first_missed_set(code, inc, part1, part2, small_limit)
    else:
        rng = random.Random(seed)
        population = list(range(1, n + 1))
        missed = None
        for _ in range(trials):
            combo = tuple(rng.sample(population, rng.randint(1, k)))
            lo, hi = part1 if len(combo) <= small_limit else part2
            if not _hit_exactly_once(lo, hi, inc, combo):
                missed = frozenset(combo)
                break
    small = missed is not None and len(missed) <= small_limit
    witness2 = missed if small else None
    witness3 = None if small else missed
    return ClaimReport(
        witness1 is None, witness2 is None, witness3 is None, witness1, witness2, witness3
    )


def find_verified_code(
    n: int,
    k: int,
    alpha: int,
    start_seed: int = 0,
    max_tries: int = 50,
    mode: str = "exhaustive",
    budget: int = 10_000_000,
    trials: int = 1000,
) -> tuple[RandomCode, ClaimReport, int]:
    """Retry seeds until the claims verify; returns (code, report, attempts used)."""
    for attempt in range(max_tries):
        code = build_random_code(n, k, alpha, start_seed + attempt)
        report = verify_claims(code, mode=mode, budget=budget, trials=trials, seed=start_seed)
        if report.passed:
            return code, report, attempt + 1
    raise ValueError(f"no seed in [{start_seed}, {start_seed + max_tries}) passed the claims")
