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

Costs.  A draw with |W| = 1, which the default degree and delta give
whenever ell_star <= log2 n, is the closed form: every edge goes to the
one right node, so all n rows are one shared tuple, O(n) in all.  A
draw with |W| > 1 makes one seeded ``randrange`` per edge.  Each attempt
builds its graph once, with its final seed and attempt count, and a
verified attempt returns that same object.  Construction checks the
rows' lengths and the set of their entries at C speed, scanning entry
by entry only to name the first bad one.  The left masks are computed
once per graph, from each row's distinct entries, and kept on the
graph, so the builder's own verify and every later
``verify_dispersion`` of the returned graph share them.  A verify then
costs one OR per member of each subset it checks: C(n, ell_star)
subsets exhaustively, ``trials`` sampled.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from functools import cached_property
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
        if self.degree is not None and self.degree < 0:
            raise ValueError(f"degree must be >= 0, got {self.degree}")
        if self.delta is not None and self.delta < 1:
            raise ValueError(f"delta must be >= 1, got {self.delta}")


@dataclass(frozen=True)
class BipartiteGraph:
    n_left: int
    n_right: int
    degree: int
    adjacency: tuple[tuple[int, ...], ...]
    seed: int = 0
    attempts: int = field(default=1, compare=False)

    def __post_init__(self) -> None:
        rows = self.adjacency
        if len(rows) != self.n_left:
            raise ValueError("adjacency must list every left node")
        if rows and not _rows_fit(rows, self.degree, self.n_right):
            _refuse_rows(rows, self.degree, self.n_right)

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """Per left node, its right neighbors as a bitmask: computed on first use and kept."""
        return _masks_of(self)

    def left_masks(self) -> list[int]:
        """Per left node, the set of right neighbors as a bitmask (duplicates collapse)."""
        return list(self.masks)

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


def _rows_fit(rows, degree: int, n_right: int) -> bool:
    """Whether every row is `degree` entries in [1..n_right], read off their lengths and distinct entries.

    False, never an error, on entries that do not hash or compare: the
    scan in `_refuse_rows` then raises as it reaches them.
    """
    try:
        return set(map(len, rows)) == {degree} and all(1 <= w <= n_right for w in set().union(*rows))
    except TypeError:
        return False


def _refuse_rows(rows, degree: int, n_right: int) -> None:
    """Raise for the first row, in order, that is not `degree` entries in [1..n_right]."""
    for nbrs in rows:
        if len(nbrs) != degree:
            raise ValueError("every left node must record exactly `degree` edges")
        for w in nbrs:
            if not 1 <= w <= n_right:
                raise ValueError(f"right index {w} outside [1..{n_right}]")


def _masks_of(graph: BipartiteGraph) -> tuple[int, ...]:
    """Each row's distinct right neighbors as a bitmask; bit w-1 stands for node w."""
    masks = []
    for nbrs in graph.adjacency:
        m = 0
        for w in set(nbrs):
            m |= 1 << (w - 1)
        masks.append(m)
    return tuple(masks)


def right_size(ell_star: int, degree: int, delta: int) -> int:
    return max(1, ceil(ell_star * degree / delta))


def _draw(n: int, n_right: int, degree: int, seed: int, attempts: int) -> BipartiteGraph:
    if n_right == 1:  # randrange(1, 2) can only return 1
        adjacency = ((1,) * degree,) * n
    else:
        rng = random.Random(seed)
        adjacency = tuple(
            tuple(rng.randrange(1, n_right + 1) for _ in range(degree)) for _ in range(n)
        )
    return BipartiteGraph(n, n_right, degree, adjacency, seed=seed, attempts=attempts)


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
    the budget; sampled mode draws ``trials`` random subsets instead,
    and refuses ``trials < 1``, which would check no subset.  An
    epsilon outside (0, 1/2] is refused too: at 1 or above every graph
    would pass.
    """
    check_epsilon(epsilon)
    # |N(L)| >= (1-eps)|W|  <=>  missing right nodes <= eps*|W|
    allowed_missing = epsilon * graph.n_right
    masks = graph.masks
    ell_star = min(ell_star, graph.n_left)
    if mode == "exhaustive":
        check_budget(comb(graph.n_left, ell_star), budget)
        candidates = itertools.combinations(range(graph.n_left), ell_star)
    elif mode == "sampled":
        if trials < 1:
            raise ValueError(f"sampled verification needs trials >= 1, got {trials}")
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
        graph = _draw(n, n_right, degree, seed, attempt + 1)
        ok = verify_dispersion(
            graph,
            params.ell_star,
            params.epsilon,
            mode="exhaustive" if exhaustive else "sampled",
            budget=_EXHAUSTIVE_BUDGET,
            seed=seed,
        )
        if ok:
            return graph
    raise ValueError(
        f"no dispersing graph found in {params.max_retries} attempts "
        f"(n={n}, ell_star={params.ell_star}, epsilon={params.epsilon}, |W|={n_right})"
    )


def dump_graph(graph: BipartiteGraph) -> str:
    """One line per left node: its right neighbors, space separated."""
    return "\n".join(" ".join(str(w) for w in nbrs) for nbrs in graph.adjacency) + "\n"
