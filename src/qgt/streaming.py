"""Streaming multiset maintenance and dynamic graph reconstruction.

A stream sketch keeps one exact (uncapped) counter per query of a
multiset-mode code, and stores only the nonzero ones: ``counters`` maps
a position to its count, the form ``Feedback.entries`` has, so the
sketch's state is O(live support) -- the positions the live elements
touch -- never O(m).  Inserting or deleting an element touches exactly
the counters of the queries containing it.  The sketch chooses how it
finds them once, from the code's family: on the n singletons
(``code.Singletons``, every multiset code this package builds) query
v-1 holds v alone, so an update is that one counter, in closed form,
and no index is read or filled; on any other family (a list file's
``Listed``) an update reads the element's positions from the code's
``incidence`` index, at a cost of its occurrence count in the code.
The counters are the readout: reconstruction refuses a live total
multiplicity above the code capacity or the readout cap, so no counter
can exceed the cap, and it hands the decoder a copy of the map.  On
the singletons the family reads that vector in closed form: a live
counter is its element's multiplicity.

Counters are exact rather than capped because deletions are impossible
under capped counters; the cap belongs to the readout, not the state.
A sketch requires a code holding every element alone in some query
(its family's ``alone``; every multiset code built is the singletons), so
deleting an absent element would drive that query's counter negative;
such deletes are rejected and leave the sketch untouched.  No shadow
copy of the multiset is kept.

The graph maintainer reuses the sketch over the edge universe of an
nu-node graph, with edges numbered row-major: (1,2), (1,3), ...,
(1,nu), (2,3), ...  The edge universe is rounded up to the next power
of two to meet the code's universe restriction; indices past the last
real edge are simply never touched.  An edge update checks and orders
its endpoints and updates the edge's index; its errors name the edge,
never its index.  A reconstruction lists the edges in index order, as
the decoder returns them, and turns each index into its endpoints once:
the sketch keeps the endpoints of every edge it has reconstructed, never
a table over the whole edge universe.
"""

from __future__ import annotations

import operator
from math import isqrt

from .code import MODE_MULTISET, Code, Singletons, build_code_multiset
from .decode import decode
from .model import Feedback, Multiset, _Filled, check_cap, next_power_of_two
from .serialize import FormatError, parse_int, read_records


class StreamSketch:
    """Exact per-query counters over a multiset-mode code.

    ``counters`` maps each position whose count is nonzero to that
    count; a position at 0 is not stored.  On the singletons an update
    writes the one counter of its element, at position v-1, in closed
    form; on any other family it writes the element's occurrences,
    read from the code's index.  A reconstruction costs O(live
    support), reading only the live positions and those the decoded
    elements touch.
    """

    def __init__(self, code: Code, alpha: int | None = None) -> None:
        if code.mode != MODE_MULTISET:
            raise ValueError("stream sketches require a multiset-mode code")
        if not code.family.alone(code.n):
            raise ValueError("stream sketches require a singleton query for every element")
        self.code = code
        self.alpha = alpha if alpha is not None else code.k
        check_cap(self.alpha)
        self.counters: dict[int, int] = {}
        self.total_multiplicity = 0
        # None on the singletons, where v's one counter is at v-1; else the code's index, which
        # holds every element: each is alone in some query
        self._incidence = None if isinstance(code.family, Singletons) else code.incidence
        self._n = code.n

    def insert(self, v: int) -> int:
        """Add one unit of v; returns the number of counters touched."""
        if not (type(v) is int and 1 <= v <= self._n):
            v = self._element(v)
        counters = self.counters
        if self._incidence is None:
            counters[v - 1] = counters.get(v - 1, 0) + 1
            self.total_multiplicity += 1
            return 1
        indices = self._incidence[v]
        get = counters.get
        for idx in indices:
            counters[idx] = get(idx, 0) + 1
        self.total_multiplicity += 1
        return len(indices)

    def delete(self, v: int) -> int:
        """Remove one unit of v; rejects deletes that would corrupt the counters."""
        if not (type(v) is int and 1 <= v <= self._n):
            v = self._element(v)
        counters = self.counters
        if self._incidence is None:
            count = counters.pop(v - 1, 0)
            if not count:
                raise ValueError(f"delete of absent element {v}")
            if count > 1:
                counters[v - 1] = count - 1
            self.total_multiplicity -= 1
            return 1
        indices = self._incidence[v]
        for idx in indices:
            if idx not in counters:
                raise ValueError(f"delete of absent element {v}")
        for idx in indices:
            count = counters[idx] - 1
            if count:
                counters[idx] = count
            else:
                del counters[idx]
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
        it no counter exceeds the cap, so the counters are the readout:
        a copy of them goes to the decoder as the vector's entries.
        """
        limit = min(self.alpha, self.code.k)
        if self.total_multiplicity > limit:
            raise ValueError(
                f"capacity exceeded: {self.total_multiplicity} units held, "
                f"reconstruction supports at most {limit}"
            )
        return decode(self.code, Feedback._built(len(self.code), dict(self.counters)))

    def _element(self, v) -> int:
        """v as an element of [1..n], for a v that is not already an int there; else raises.

        Refused before any lookup: 2.0 hashes like 2, so the counter at 2.0 - 1 or a
        cached index entry would take it for 2.
        """
        if type(v) is not int:
            try:
                v = operator.index(v)
            except TypeError:
                raise TypeError(f"element must be an int, got {v!r}") from None
        if not 1 <= v <= self._n:
            raise ValueError(f"element {v} outside universe [1..{self._n}]")
        return v


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
    # Rows 1 .. t hold t*(2*nu - 1 - t)/2 edges; the row before u is the
    # largest t with fewer than `index`: the smaller root of
    # t^2 - (2*nu - 1)*t + 2*(index - 1) = 0, rounded down.  isqrt rounds
    # the discriminant's root down, so t can come out one too large.
    b = 2 * nu - 1
    t = (b - isqrt(b * b - 8 * (index - 1))) // 2
    if t * (b - t) // 2 >= index:
        t -= 1
    return t + 1, t + 1 + index - t * (b - t) // 2


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
        if k < 0:
            raise ValueError(f"graph sketch degree bound k must be >= 0, got {k}")
        self.nodes = nodes
        self.k = k
        self.edge_universe = nodes * (nodes - 1) // 2
        self.capacity = min(max(1, k * nodes // 2), self.edge_universe)
        code_n = next_power_of_two(max(2, self.edge_universe))
        code = build_code_multiset(code_n, self.capacity)
        self.sketch = StreamSketch(code)
        # edge index -> endpoints, each filled on its first reconstruction
        self._endpoints = _Filled(lambda i: edge_endpoints(i, nodes))

    def add_edge(self, u: int, v: int) -> int:
        return self.apply("I", u, v)

    def remove_edge(self, u: int, v: int) -> int:
        return self.apply("D", u, v)

    def apply(self, op: str, u: int, v: int) -> int:
        """Insert ("I") or delete ("D") the edge {u, v}; returns the number of counters touched."""
        if op != "I" and op != "D":
            raise ValueError(f"unknown operation {op!r} (expected 'I' or 'D')")
        if type(u) is not int or type(v) is not int:
            try:
                u, v = operator.index(u), operator.index(v)
            except TypeError:
                raise TypeError(f"edge endpoints must be ints, got ({u!r}, {v!r})") from None
        if u > v:
            u, v = v, u
        index = edge_index(u, v, self.nodes)
        if op == "I":
            return self.sketch.insert(index)
        try:
            return self.sketch.delete(index)
        except ValueError:  # the index is in range, so the delete's only refusal: an absent edge
            raise ValueError(f"delete of absent edge ({u}, {v})") from None

    def reconstruct(self) -> list[tuple[int, int]]:
        """The live edges in index order (decode returns its elements sorted)."""
        found = self.sketch.reconstruct()
        if found and max(found.values()) > 1:  # every decoded multiplicity is >= 1
            idx, mult = next((idx, mult) for idx, mult in found.items() if mult != 1)
            raise ValueError(f"edge multiplicity {mult} at index {idx}; graph edges must be 0/1")
        return list(map(self._endpoints.__getitem__, found))


# What an op of each arity takes, as a refusal words it: a stream op names an element, a graph op an edge.
_OPERANDS = {1: "stream operations take one element", 2: "graph operations take two endpoints"}


def parse_ops(text: str, arity: int) -> list[tuple[str, tuple[int, ...]]]:
    """The ops of a log: records (``serialize.read_records``) of 'I' or 'D' and ``arity`` integers.

    An arity of 1 reads a stream log ('I v' / 'D v'), 2 a graph log
    ('I u v' / 'D u v').  Any other record is refused, naming its line
    and quoting it: an unknown op or a non-integer as malformed, a
    wrong count of integers by what the op takes.
    """
    ops = []
    for lineno, fields in read_records(text):
        try:
            if fields[0] not in ("I", "D"):
                raise ValueError(f"unknown operation {fields[0]!r}")
            params = tuple(map(parse_int, fields[1:]))
        except ValueError as exc:
            raise FormatError(f"line {lineno}: malformed operation {' '.join(fields)!r}") from exc
        if len(params) != arity:
            raise FormatError(f"line {lineno}: {_OPERANDS[arity]}, got {' '.join(fields)!r}")
        ops.append((fields[0], params))
    return ops
