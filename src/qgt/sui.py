"""Selectors under interference: disperser-composed families and the chunked variant.

An (n, ell, epsilon, kappa, alpha) selector under interference
guarantees that for every K1 of at most ell elements and every K2 of at
most kappa, fewer than epsilon*ell elements of K1 miss out on a query
that contains them alone from K1 with interference from K2 (not
counting the element itself) below alpha.

Two routes build one:

* If the n singleton queries are no longer than the composed family,
  use them; they select everything with zero interference.
* Otherwise intersect each strong-selector query with each right-node
  neighborhood of a verified disperser (right-node major order, selector
  order within).  Empty intersections are kept so family length is a
  predictable function of the parts.

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
from .disperser import DisperserParams, build_disperser, default_degree, default_delta, right_size
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


def build_sui(
    n: int,
    ell: int,
    epsilon: float,
    kappa: int,
    alpha: int,
    *,
    strong_queries: tuple[Query, ...] | None = None,
    disperser_params: DisperserParams | None = None,
    seed: int = 0,
    force_composed: bool = False,
) -> SuIFamily:
    """Build a selector under interference.

    Admissibility requires alpha*ell >= kappa (the boundary case is
    what the chunked builder composes through).  ``strong_queries``
    injects a prebuilt strong selector, ``disperser_params`` overrides
    the disperser sizing, and ``force_composed`` skips the
    singleton-is-shorter shortcut; all three exist so the composed route
    can be exercised and verified at small scales where singletons win.
    """
    _check_params(n, ell, epsilon, kappa, alpha)
    if alpha * ell < kappa:
        raise ValueError(
            f"inadmissible selector parameters: alpha*ell = {alpha * ell} < kappa = {kappa}"
        )
    if disperser_params is None:
        disperser_params = DisperserParams(
            ell_star=max(1, ceil(epsilon * ell)), epsilon=epsilon, seed=seed
        )
    degree = disperser_params.degree if disperser_params.degree is not None else default_degree(n)
    delta = disperser_params.delta if disperser_params.delta is not None else default_delta(n)
    strong = strong_queries if strong_queries is not None else _ssui.strong_selector(n, 2 * delta)
    m = len(strong)
    n_right = right_size(disperser_params.ell_star, degree, delta)
    if not force_composed and n <= m * n_right:
        # The composed family would have m*|W| queries; n singletons are no
        # longer than that and select everything with zero interference.
        return SuIFamily(singletons(n), n, ell, epsilon, kappa, alpha, "singleton", 0)
    graph = build_disperser(n, disperser_params)
    attempts = graph.attempts
    neighborhoods = graph.right_neighborhoods()
    composed = []
    for hood in neighborhoods:
        for t in strong:
            composed.append(t & hood)
    return SuIFamily(
        tuple(composed), n, ell, epsilon, kappa, alpha, "disperser-composed", attempts
    )


def chunk_query(s: Query, size: int) -> list[Query]:
    """Split a query into ceil(|s|/size) consecutive chunks of at most `size` elements."""
    if size < 1:
        raise ValueError(f"chunk size must be >= 1, got {size}")
    ordered = sorted(s)
    return [frozenset(ordered[i : i + size]) for i in range(0, len(ordered), size)]


def build_sui_rr(
    n: int,
    ell: int,
    epsilon: float,
    kappa: int,
    alpha: int,
    *,
    strong_queries: tuple[Query, ...] | None = None,
    disperser_params: DisperserParams | None = None,
    seed: int = 0,
    force_composed: bool = False,
) -> SuIFamily:
    """Chunked selector for the ell <= kappa/alpha regime; all queries have <= alpha elements."""
    _check_params(n, ell, epsilon, kappa, alpha)
    if alpha * ell > kappa:
        raise ValueError(
            f"chunked builder covers alpha*ell <= kappa; got alpha*ell = {alpha * ell}, "
            f"kappa = {kappa} (use build_sui)"
        )
    inner_ell = max(1, -(-kappa // alpha))
    base = build_sui(
        n,
        inner_ell,
        epsilon,
        kappa,
        alpha,
        strong_queries=strong_queries,
        disperser_params=disperser_params,
        seed=seed,
        force_composed=force_composed,
    )
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
