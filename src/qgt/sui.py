"""Selectors under interference: the singleton family, the composition and the chunked variant.

An (n, ell, epsilon, kappa, alpha) selector under interference
guarantees that for every K1 of at most ell elements and every K2 of at
most kappa, fewer than epsilon*ell elements of K1 miss out on a query
that contains them alone from K1 with interference from K2 (not
counting the element itself) below alpha.

The paper builds one with `compose`: each query of a width-2*delta
strong selector intersected with each right-node neighborhood of a
verified disperser (right-node major order, selector order within).
Empty intersections are kept, so the family has m*|W| queries for a
strong selector of m queries and |W| >= 1 right nodes.

`build_sui` returns the n singletons instead; they select everything
with zero interference.  At the default sizing (delta ceil(log2(n)^3))
the width-2*delta `ssui.strong_selector` is first shorter than n at
n = 2^33, where it has L*q = 71,874 * 92,683 = 6,661,497,942 queries;
at every n = 2^1 .. 2^32 it, and so any composition with it, has at
least n queries.  No universe a code is built for comes near 2^33, so
the composition is not on the build path.  `compose`,
`disperser.build_disperser` and `disperser.verify_dispersion` stay as
library constructions, checked at tiny n.

The chunked variant covers the regime ell <= kappa/alpha: build the
selector for width kappa/alpha, then split every query into
consecutive chunks of at most alpha elements (``chunk_query``).  A chunk
of a selecting query still selects (subsets only shrink interference),
and every chunk is small enough that its feedback can never be capped
away.  That selector is the n singletons, whose one-element queries
chunk to themselves, so ``build_sui_rr`` returns the singletons too.
"""

from __future__ import annotations

from dataclasses import dataclass

# build_disperser is not called here; perfbench/tracer.py wraps it as qgt.sui.build_disperser.
from .disperser import BipartiteGraph
from .disperser import build_disperser as build_disperser
from .model import Query, check_epsilon, singletons
from .ssui import check_selector_params, max_unselected_count


@dataclass(frozen=True)
class SuIFamily:
    queries: tuple[Query, ...]
    n: int
    ell: int
    epsilon: float
    kappa: int
    alpha: int
    provenance: str  # "singleton" | "alpha-chunked"


@dataclass(frozen=True)
class SuIReport:
    max_unselected: int
    threshold: float

    @property
    def passed(self) -> bool:
        return self.max_unselected < self.threshold


def _check_params(n: int, ell: int, epsilon: float, kappa: int, alpha: int) -> None:
    check_selector_params(n, ell, kappa, alpha)
    check_epsilon(epsilon)


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
    """Build a selector under interference: the n singletons (module docstring).

    Admissibility requires alpha*ell >= kappa (the boundary case is
    what the chunked builder composes through).  ``seed`` changes no
    byte of the family.
    """
    _check_params(n, ell, epsilon, kappa, alpha)
    if alpha * ell < kappa:
        raise ValueError(
            f"inadmissible selector parameters: alpha*ell = {alpha * ell} < kappa = {kappa}"
        )
    return SuIFamily(singletons(n), n, ell, epsilon, kappa, alpha, "singleton")


def chunk_query(s: Query, size: int) -> list[Query]:
    """Split a query into ceil(|s|/size) consecutive chunks of at most `size` elements."""
    if size < 1:
        raise ValueError(f"chunk size must be >= 1, got {size}")
    ordered = sorted(s)
    return [frozenset(ordered[i : i + size]) for i in range(0, len(ordered), size)]


def build_sui_rr(n: int, ell: int, epsilon: float, kappa: int, alpha: int) -> SuIFamily:
    """Chunked selector for the ell <= kappa/alpha regime: the n singletons (module docstring)."""
    _check_params(n, ell, epsilon, kappa, alpha)
    if alpha * ell > kappa:
        raise ValueError(
            f"chunked builder covers alpha*ell <= kappa; got alpha*ell = {alpha * ell}, "
            f"kappa = {kappa} (use build_sui)"
        )
    return SuIFamily(singletons(n), n, ell, epsilon, kappa, alpha, "alpha-chunked")


def verify_sui(
    queries: tuple[Query, ...],
    n: int,
    ell: int,
    epsilon: float,
    kappa: int,
    alpha: int,
    budget: int = 10_000_000,
) -> SuIReport:
    """Exhaustive worst-case unselected count; passes iff strictly below epsilon*ell.

    Refuses an epsilon outside (0, 1/2], as ``build_sui`` does.
    """
    check_epsilon(epsilon)
    worst = max_unselected_count(queries, n, ell, kappa, alpha, budget)
    return SuIReport(max_unselected=worst, threshold=epsilon * ell)


def occurrence_total(queries: tuple[Query, ...]) -> int:
    """Total element occurrences; invariant under chunking."""
    return sum(len(s) for s in queries)
