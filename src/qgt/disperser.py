"""Left-regular bipartite dispersers, built by seeded sampling and verified.

The selector composition needs a bipartite graph G = (V, W, E) with
|V| = n, left degree ``degree``, and the dispersion property: every
left subset of size ``ell_star`` sees at least (1 - epsilon)|W| right
nodes.  Neighborhood size is monotone in the subset, so checking
subsets of size exactly ell_star is enough.

The graph is drawn uniformly from a seeded generator and then verified;
on failure the builder reseeds (seed+1, seed+2, ...) up to a retry cap
and raises rather than silently returning an unverified graph.  The
construction is pluggable: anything exposing the same adjacency shape
can be swapped in.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from math import ceil, comb, log2

from .model import check_budget, check_epsilon

# build_disperser verifies exhaustively up to this many ell_star-subsets,
# by sampling beyond it.
_EXHAUSTIVE_BUDGET = 200_000


def default_degree(n: int) -> int:
    return ceil(log2(n) ** 2)


def default_delta(n: int) -> int:
    """Default entropy-loss target, cubic in log2(n)."""
    return ceil(log2(n) ** 3)


@dataclass(frozen=True)
class DisperserParams:
    ell_star: int
    epsilon: float
    degree: int | None = None
    delta: int | None = None
    seed: int = 0
    max_retries: int = 64

    def __post_init__(self) -> None:
        if self.ell_star < 1:
            raise ValueError(f"ell_star must be >= 1, got {self.ell_star}")
        check_epsilon(self.epsilon)


@dataclass(frozen=True)
class BipartiteGraph:
    n_left: int
    n_right: int
    degree: int
    adjacency: tuple[tuple[int, ...], ...]
    seed: int = 0
    attempts: int = field(default=1, compare=False)

    def __post_init__(self) -> None:
        if len(self.adjacency) != self.n_left:
            raise ValueError("adjacency must list every left node")
        for nbrs in self.adjacency:
            if len(nbrs) != self.degree:
                raise ValueError("every left node must record exactly `degree` edges")
            for w in nbrs:
                if not 1 <= w <= self.n_right:
                    raise ValueError(f"right index {w} outside [1..{self.n_right}]")

    def left_masks(self) -> list[int]:
        """Per left node, the set of right neighbors as a bitmask (duplicates collapse)."""
        out = []
        for nbrs in self.adjacency:
            m = 0
            for w in nbrs:
                m |= 1 << (w - 1)
            out.append(m)
        return out

    def right_neighborhoods(self) -> list[frozenset[int]]:
        """For each right node (1-based), the set of left nodes adjacent to it."""
        sets: list[set[int]] = [set() for _ in range(self.n_right)]
        for v, nbrs in enumerate(self.adjacency, start=1):
            for w in nbrs:
                sets[w - 1].add(v)
        return [frozenset(s) for s in sets]

    @property
    def total_edges(self) -> int:
        return self.n_left * self.degree


def right_size(ell_star: int, degree: int, delta: int) -> int:
    return max(1, ceil(ell_star * degree / delta))


def _draw(n: int, n_right: int, degree: int, seed: int) -> BipartiteGraph:
    rng = random.Random(seed)
    adjacency = tuple(
        tuple(rng.randrange(1, n_right + 1) for _ in range(degree)) for _ in range(n)
    )
    return BipartiteGraph(n, n_right, degree, adjacency, seed=seed)


def verify_dispersion(
    graph: BipartiteGraph,
    ell_star: int,
    epsilon: float,
    mode: str = "exhaustive",
    budget: int = 1_000_000,
    trials: int = 1000,
    seed: int = 0,
) -> bool:
    """Check that every (or, sampled, each tried) ell_star-subset sees enough of W.

    Exhaustive mode refuses instances where C(n_left, ell_star) exceeds
    the budget; sampled mode draws ``trials`` random subsets instead.
    """
    # |N(L)| >= (1-eps)|W|  <=>  missing right nodes <= eps*|W|
    allowed_missing = epsilon * graph.n_right
    masks = graph.left_masks()
    ell_star = min(ell_star, graph.n_left)
    if mode == "exhaustive":
        check_budget(comb(graph.n_left, ell_star), budget)
        candidates = itertools.combinations(range(graph.n_left), ell_star)
    elif mode == "sampled":
        rng = random.Random(seed)
        candidates = (rng.sample(range(graph.n_left), ell_star) for _ in range(trials))
    else:
        raise ValueError(f"unknown verification mode {mode!r}")
    for combo in candidates:
        seen = 0
        for v in combo:
            seen |= masks[v]
        if graph.n_right - seen.bit_count() > allowed_missing:
            return False
    return True


def build_disperser(n: int, params: DisperserParams) -> BipartiteGraph:
    """Seeded construction with verification; reseeds until dispersion holds.

    Verification is exhaustive whenever C(n, ell_star) fits the budget,
    sampled otherwise.  Exceeding the retry cap is a hard error; a graph
    is never returned unverified.
    """
    degree = params.degree if params.degree is not None else default_degree(n)
    delta = params.delta if params.delta is not None else default_delta(n)
    n_right = right_size(params.ell_star, degree, delta)
    exhaustive = comb(n, min(params.ell_star, n)) <= _EXHAUSTIVE_BUDGET
    for attempt in range(params.max_retries):
        seed = params.seed + attempt
        graph = _draw(n, n_right, degree, seed)
        ok = verify_dispersion(
            graph,
            params.ell_star,
            params.epsilon,
            mode="exhaustive" if exhaustive else "sampled",
            budget=_EXHAUSTIVE_BUDGET,
            seed=seed,
        )
        if ok:
            return BipartiteGraph(
                graph.n_left, graph.n_right, graph.degree, graph.adjacency,
                seed=seed, attempts=attempt + 1,
            )
    raise ValueError(
        f"no dispersing graph found in {params.max_retries} attempts "
        f"(n={n}, ell_star={params.ell_star}, epsilon={params.epsilon}, |W|={n_right})"
    )


def dump_graph(graph: BipartiteGraph) -> str:
    """One line per left node: its right neighbors, space separated."""
    return "\n".join(" ".join(str(w) for w in nbrs) for nbrs in graph.adjacency) + "\n"
