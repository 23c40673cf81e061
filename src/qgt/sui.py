"""Selectors under interference: disperser-composed families and the chunked variant.

An (n, ell, epsilon, kappa, alpha) selector under interference
guarantees that for every K1 of at most ell elements and every K2 of at
most kappa, fewer than epsilon*ell elements of K1 miss out on a query
that contains them alone from K1 with interference from K2 (not
counting the element itself) below alpha.

Two routes build one:

* If the n singleton queries are no longer than the composed family,
  use them; they select everything with zero interference.
* Otherwise `compose` intersects each query of a width-2*delta strong
  selector with each right-node neighborhood of a verified disperser
  (right-node major order, selector order within).  Empty intersections
  are kept so family length is a predictable function of the parts.

At the default sizing (degree ceil(log2(n)^2), delta ceil(log2(n)^3))
the strong selector of width 2*delta is the n singletons at every
n = 2^8 .. 2^20, so the composed length m*|W| is never below n and
`build_sui` returns singletons at every n this package can build.  No
other sizing helps below n = 2^12 either: the shortest even-width
Reed-Solomon table is not below n up to n = 2^11.  At n = 2^12 a
composition beats n only with |W| = 1, which is the bare width-2 strong
selector (2,809 queries) rather than a disperser composition; at
n = 2^13 .. 2^16 the width-2 table leaves room for |W| <= 2, 4, 8, 14,
and its delta = 1 caps ell_star*degree at |W|.  The composed branch is
kept for the paper's asymptotic regime; tests reach it through
`compose` directly.

The chunked variant covers the regime ell <= kappa/alpha: build the
selector for width kappa/alpha, then split every query into
consecutive chunks of at most alpha elements.  A chunk of a selecting
query still selects (subsets only shrink interference), and every chunk
is small enough that its feedback can never be capped away.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

from . import ssui as _ssui
from .disperser import (
    BipartiteGraph,
    DisperserParams,
    build_disperser,
    default_degree,
    default_delta,
    right_size,
)
from .model import Query, singletons
from .ssui import check_selector_params, max_unselected_count


@dataclass(frozen=True)
class SuIFamily:
    queries: tuple[Query, ...]
    n: int
    ell: int
    epsilon: float
    kappa: int
    alpha: int
    provenance: str  # "singleton" | "disperser-composed" | "alpha-chunked"
    disperser_attempts: int = 0


@dataclass(frozen=True)
class SuIReport:
    max_unselected: int
    threshold: float

    @property
    def passed(self) -> bool:
        return self.max_unselected < self.threshold


def _check_params(n: int, ell: int, epsilon: float, kappa: int, alpha: int) -> None:
    check_selector_params(n, ell, kappa, alpha)
    if not 0 < epsilon <= 0.5:
        raise ValueError(f"epsilon must lie in (0, 1/2], got {epsilon}")


def compose(strong: tuple[Query, ...], graph: BipartiteGraph) -> tuple[Query, ...]:
    """The paper's composition of a strong selector with a disperser.

    Each strong-selector query is intersected with each right-node
    neighborhood of ``graph``: right-node major, selector order within
    each node.  Empty intersections are kept, so the family has exactly
    len(strong) * graph.n_right queries.
    """
    return tuple(t & hood for hood in graph.right_neighborhoods() for t in strong)


def build_sui(
    n: int, ell: int, epsilon: float, kappa: int, alpha: int, *, seed: int = 0
) -> SuIFamily:
    """Build a selector under interference.

    Admissibility requires alpha*ell >= kappa (the boundary case is
    what the chunked builder composes through).  The disperser has the
    default sizing (default_degree(n), default_delta(n)) and is drawn
    from ``seed``; the n singletons are returned whenever they are no
    longer than the composed family.
    """
    _check_params(n, ell, epsilon, kappa, alpha)
    if alpha * ell < kappa:
        raise ValueError(
            f"inadmissible selector parameters: alpha*ell = {alpha * ell} < kappa = {kappa}"
        )
    params = DisperserParams(ell_star=max(1, ceil(epsilon * ell)), epsilon=epsilon, seed=seed)
    delta = default_delta(n)
    strong = _ssui.strong_selector(n, 2 * delta)
    if n <= len(strong) * right_size(params.ell_star, default_degree(n), delta):
        # The composed family would have m*|W| queries; n singletons are no
        # longer than that and select everything with zero interference.
        # A strong selector of length n is the singletons themselves: a
        # Reed-Solomon table has q^2 queries, q an odd prime, never a power of two.
        queries = strong if len(strong) == n else singletons(n)
        return SuIFamily(queries, n, ell, epsilon, kappa, alpha, "singleton", 0)
    graph = build_disperser(n, params)
    queries = compose(strong, graph)
    return SuIFamily(queries, n, ell, epsilon, kappa, alpha, "disperser-composed", graph.attempts)


def chunk_query(s: Query, size: int) -> list[Query]:
    """Split a query into ceil(|s|/size) consecutive chunks of at most `size` elements."""
    if size < 1:
        raise ValueError(f"chunk size must be >= 1, got {size}")
    ordered = sorted(s)
    return [frozenset(ordered[i : i + size]) for i in range(0, len(ordered), size)]


def build_sui_rr(
    n: int, ell: int, epsilon: float, kappa: int, alpha: int, *, seed: int = 0
) -> SuIFamily:
    """Chunked selector for the ell <= kappa/alpha regime; all queries have <= alpha elements."""
    _check_params(n, ell, epsilon, kappa, alpha)
    if alpha * ell > kappa:
        raise ValueError(
            f"chunked builder covers alpha*ell <= kappa; got alpha*ell = {alpha * ell}, "
            f"kappa = {kappa} (use build_sui)"
        )
    inner_ell = max(1, -(-kappa // alpha))
    base = build_sui(n, inner_ell, epsilon, kappa, alpha, seed=seed)
    chunked: list[Query] = []
    for s in base.queries:
        chunked.extend(chunk_query(s, alpha))
    return SuIFamily(
        tuple(chunked), n, ell, epsilon, kappa, alpha, "alpha-chunked", base.disperser_attempts
    )


def verify_sui(
    queries: tuple[Query, ...],
    n: int,
    ell: int,
    epsilon: float,
    kappa: int,
    alpha: int,
    budget: int = 10_000_000,
) -> SuIReport:
    """Exhaustive worst-case unselected count; passes iff strictly below epsilon*ell."""
    worst = max_unselected_count(queries, n, ell, kappa, alpha, budget)
    return SuIReport(max_unselected=worst, threshold=epsilon * ell)


def occurrence_total(queries: tuple[Query, ...]) -> int:
    """Total element occurrences; invariant under chunking."""
    return sum(len(s) for s in queries)
