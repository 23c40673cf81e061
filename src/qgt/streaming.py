"""Streaming multiset maintenance and dynamic graph reconstruction.

A stream sketch keeps one exact (uncapped) counter per query of a
multiset-mode code.  Inserting or deleting an element touches exactly
the counters of the queries containing it, so update cost equals the
element's occurrence count in the code.  The counters are the
readout: reconstruction refuses a live total multiplicity above the
code capacity or the readout cap, so no counter can exceed the cap, and
hands the counters to the decoder as they are.

Counters are exact rather than capped because deletions are impossible
under capped counters; the cap belongs to the readout, not the state.
A sketch requires a code holding every element alone in some query
(every multiset code this package builds is the n singletons), so
deleting an absent element would drive that query's counter negative;
such deletes are rejected and leave the sketch untouched.  No shadow
copy of the multiset is kept.

The graph maintainer reuses the sketch over the edge universe of an
nu-node graph, with edges numbered row-major: (1,2), (1,3), ...,
(1,nu), (2,3), ...  The edge universe is rounded up to the next power
of two to meet the code's universe restriction; indices past the last
real edge are simply never touched.
"""

from __future__ import annotations

from .code import MODE_MULTISET, Code, build_code_multiset
from .decode import decode
from .model import Multiset, check_cap, next_power_of_two


class StreamSketch:
    """Exact per-query counters over a multiset-mode code.

    Updates are read-modify-write on the counter vector and need
    exclusive access; reconstruction reads a snapshot of the counters,
    so concurrent reconstructions from the same quiesced sketch are
    safe.
    """

    def __init__(self, code: Code, alpha: int | None = None) -> None:
        if code.mode != MODE_MULTISET:
            raise ValueError("stream sketches require a multiset-mode code")
        if len({v for s in code.queries if len(s) == 1 for v in s}) < code.n:
            raise ValueError("stream sketches require a singleton query for every element")
        self.code = code
        self.alpha = alpha if alpha is not None else code.k
        check_cap(self.alpha)
        self.counters = [0] * len(code.queries)
        self.total_multiplicity = 0

    def insert(self, v: int) -> int:
        """Add one unit of v; returns the number of counters touched."""
        indices = self._indices(v)
        for idx in indices:
            self.counters[idx] += 1
        self.total_multiplicity += 1
        return len(indices)

    def delete(self, v: int) -> int:
        """Remove one unit of v; rejects deletes that would corrupt the counters."""
        indices = self._indices(v)
        if any(self.counters[idx] == 0 for idx in indices):
            raise ValueError(f"delete of absent element {v}")
        for idx in indices:
            self.counters[idx] -= 1
        self.total_multiplicity -= 1
        return len(indices)

    def apply(self, op: str, v: int) -> int:
        if op == "I":
            return self.insert(v)
        if op == "D":
            return self.delete(v)
        raise ValueError(f"unknown operation {op!r} (expected 'I' or 'D')")

    def reconstruct(self) -> Multiset:
        """Decode the current multiset from the counters.

        Exactness is promised only while the live total multiplicity is
        within both the code capacity and the readout cap; past that the
        readouts can alias, so the request is refused outright.  Within
        it no counter exceeds the cap, so the counters are the readout.
        """
        limit = min(self.alpha, self.code.k)
        if self.total_multiplicity > limit:
            raise ValueError(
                f"capacity exceeded: {self.total_multiplicity} units held, "
                f"reconstruction supports at most {limit}"
            )
        return decode(self.code, tuple(self.counters))

    def _indices(self, v: int) -> tuple[int, ...]:
        if not 1 <= v <= self.code.n:
            raise ValueError(f"element {v} outside universe [1..{self.code.n}]")
        return self.code.incidence.get(v, ())


def edge_index(u: int, v: int, nu: int) -> int:
    """Row-major triangular numbering of the edge {u, v} in a nu-node graph."""
    if not 1 <= u < v <= nu:
        raise ValueError(f"edge endpoints must satisfy 1 <= u < v <= nu, got ({u}, {v})")
    return (u - 1) * (2 * nu - u) // 2 + (v - u)


def edge_endpoints(index: int, nu: int) -> tuple[int, int]:
    """Inverse of edge_index."""
    total = nu * (nu - 1) // 2
    if not 1 <= index <= total:
        raise ValueError(f"edge index {index} outside [1..{total}]")
    u = 1
    remaining = index
    while remaining > nu - u:
        remaining -= nu - u
        u += 1
    return u, u + remaining


class GraphSketch:
    """Dynamic edge set of a bounded-degree graph, reconstructable on demand.

    The reconstruction supports k*nu/2 live edges, the most a
    max-degree-k graph can hold (at least 1, at most every edge).
    Callers maintain the degree bound; the sketch only sees edge
    updates.  ``seed`` changes no byte of the sketch's code.
    """

    def __init__(self, nodes: int, k: int, seed: int = 0) -> None:
        if nodes < 2:
            raise ValueError(f"graph sketches need at least 2 nodes, got {nodes}")
        self.nodes = nodes
        self.k = k
        self.edge_universe = nodes * (nodes - 1) // 2
        self.capacity = min(max(1, k * nodes // 2), self.edge_universe)
        code_n = next_power_of_two(max(2, self.edge_universe))
        code = build_code_multiset(code_n, self.capacity)
        self.sketch = StreamSketch(code)

    def add_edge(self, u: int, v: int) -> int:
        return self.sketch.insert(self._index(u, v))

    def remove_edge(self, u: int, v: int) -> int:
        return self.sketch.delete(self._index(u, v))

    def apply(self, op: str, u: int, v: int) -> int:
        if op == "I":
            return self.add_edge(u, v)
        if op == "D":
            return self.remove_edge(u, v)
        raise ValueError(f"unknown operation {op!r} (expected 'I' or 'D')")

    def reconstruct(self) -> list[tuple[int, int]]:
        found = self.sketch.reconstruct()
        edges = []
        for idx, mult in sorted(found.items()):
            if mult != 1:
                raise ValueError(f"edge multiplicity {mult} at index {idx}; graph edges must be 0/1")
            edges.append(edge_endpoints(idx, self.nodes))
        return edges

    def _index(self, u: int, v: int) -> int:
        if u > v:
            u, v = v, u
        return edge_index(u, v, self.nodes)


def parse_ops(lines: list[str]) -> list[tuple[str, tuple[int, ...]]]:
    """Parse an op log: one 'I v' / 'D v' (or 'I u v' / 'D u v') per line."""
    out = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] not in ("I", "D") or len(parts) not in (2, 3):
            raise ValueError(f"line {lineno}: malformed operation {raw!r}")
        try:
            args = tuple(int(p) for p in parts[1:])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: malformed operation {raw!r}") from exc
        out.append((parts[0], args))
    return out
