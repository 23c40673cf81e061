"""Core model: problem instances, capped count feedback, and feedback vectors.

A problem instance is a universe [1..n] (n a power of two), a hidden
multiset over that universe, and a fixed ordered sequence of queries.
Each query is a set of element indices.  The only channel from the
hidden multiset to a decoder is the feedback vector: for every query,
the multiplicity-weighted intersection count capped at ``alpha``.
Plain hidden sets are multisets with every multiplicity equal to one.

All values here are immutable; every operation is a pure function.

The facts every selector family and oracle shares live here, once:

* ``check_universe``, ``check_capacity``, ``check_cap``, ``check_width``,
  ``check_epsilon``: the parameter rules for n (a power of two, at least
  2), k (1 <= k <= n), alpha (at least 1; at least 0 in the walking
  oracles), a walking oracle's set widths (at least 0) and epsilon (in
  (0, 1/2]);
* ``singletons``: the n singleton queries, a selector for every width;
* ``query_mask``: a query as an int with bit v-1 set for element v;
* ``incidence``: element -> indices of the queries containing it;
* ``sets_up_to``, ``check_budget``, ``BudgetError``: the size of an
  exhaustive search over candidate sets, and the one refusal an oracle
  raises when a search would exceed its budget;
* ``walk_subsets``: the push/pop walk over those candidate sets that
  the selector, jamming, uniqueness and random-code claim oracles keep
  their per-set counts on; at its final level it asks ``last(e)`` for
  the verdict of the current set plus e before e is pushed, which the
  jamming and uniqueness oracles mostly settle from their counts, and
  ``pushed_leaf`` answers by push, leaf and pop;
* ``active_elements``: the elements an oracle's walk must visit, named
  by a built family (a built code's queries, ``code.Singletons`` or
  ``code.SlicedTable``) from its rule over its own universe, with no
  query laid out;
* ``OracleIndex``: the one prelude the four walking oracles share
  (active elements, each element's queries, query masks), each part a
  plain slot built on its first read within one oracle call, with no
  lock taken; on a built family over its own universe the active
  elements come from the family's rule and each element's queries
  from one ``map`` over its own ``incidence``, filled on use and
  shared by every oracle call on that family, so no query is laid out;
* ``subset_at``: the set at a given rank in ``walk_subsets``'s order;
* ``Feedback``: a feedback vector kept as a plain dict of its nonzero
  entries, the form ``Code.feedback`` returns and the decoder reads in
  O(support), while ``feedback_vector``, the reference oracle, returns a
  plain tuple; its constructor holds the one rule for an entry, and
  ``Feedback.of`` turns any other sequence into one for the decoder,
  reading a value equal to 0 as 0.

Inert elements.  An element v is *inert* in a query family when it lies
in at least one query and every query holding it is exactly {v}.  The
lemma the oracles share: an inert element never changes another
element's count.  Adding v to a set K changes |Q ∩ K| only for the
queries {v}, which hold no other element; and each of them counts v
alone, 0 or 1, within every cap alpha >= 1, so v is read exactly for
every K.  Hence a set's verdict follows from the set without its
inert elements, and each oracle walks only ``active_elements``:

* a jammed set minus its inert elements is still jammed, with the same
  jammed element, and smaller, so the first jamming witness in size
  order holds no inert element;
* two sets with one feedback vector agree on every inert element (its
  singleton reads it), so dropping the shared inert part leaves two
  distinct colliding sets of active elements;
* an inert element is always isolated and isolates as before without
  it, so a set's unselected count, when no K2 can jam a query, equals
  that of its active part, which the walk reaches no later;
* a set holding an element inert in the part a random-code claim reads
  is met exactly once there, by that element's singleton.

With no active element, every verdict follows at once: every element
is inert and every nonempty query is a singleton, so no set is jammed,
no two sets collide, no query can be jammed and no element goes
unselected, and every set is met exactly once.  Each oracle therefore
reads ``OracleIndex.active`` right after its budget check and returns
there on the n singletons, building nothing else (the selector check
only at alpha >= 1).  The rest of the index costs an (n+1)-entry list,
read from a built family's incidence or else from one pass over the
queries; a mask is built only for a query an oracle asks for, which no
walk does for a query of one element, so the index never holds the
m*n bits of every query's mask.

The lemma needs alpha >= 0: at alpha = -1 even an inert element's own
singleton is over-full on every set that holds it.  So the jamming,
uniqueness and selector oracles refuse a negative cap
(``check_cap(alpha, least=0)``) before anything else.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Callable, Iterable, Mapping, Sequence
from math import comb
from typing import TypeVar

Query = frozenset[int]
Multiset = dict[int, int]
FeedbackVector = tuple[int, ...]
T = TypeVar("T")


class Feedback(Sequence):
    """A read-only feedback vector of ``length`` values, kept as its nonzero entries.

    ``entries`` is a plain dict mapping each nonzero position to its
    value, so the support is exactly its keys; it is not to be
    modified.  The constructor copies a position -> value mapping and
    holds the one rule for an entry: a position is an int in [0,
    length) and a value a positive int.

    It is equal to, and hashes like, the tuple of its values.  ``len``,
    indexing by a position in range and comparing two ``Feedback``s
    cost O(1) or O(support); iteration builds one list of the values,
    comparing with a tuple counts its zeros and reads it on the support
    (building nothing), and slices, negative indices and the hash build
    the tuple (``dense``) on each call.
    """

    __slots__ = ("entries", "_len")

    def __init__(self, length: int, entries: Mapping[int, int]) -> None:
        if type(length) is not int or length < 0:
            raise ValueError(f"feedback length must be an int >= 0, got {length!r}")
        entries = dict(entries)
        for position, value in entries.items():
            if type(position) is not int:
                raise TypeError(f"feedback position must be an int, got {position!r}")
            if not 0 <= position < length:
                raise ValueError(f"feedback position {position} outside [0, {length})")
            if type(value) is not int:
                raise TypeError(f"feedback value at position {position} must be an int, got {value!r}")
            if value < 1:
                raise ValueError(f"feedback value at position {position} must be positive, got {value}")
        self.entries = entries
        self._len = length

    @classmethod
    def of(cls, values: Sequence[int]) -> Feedback:
        """``values`` as a ``Feedback``: a ``Feedback`` as it is, any other sequence after one scan.

        A value equal to 0 (``0``, ``0.0``, ``False``) reads as 0; every
        other value must be a positive int.  The scan keeps the truthy
        positions, and counts the zeros only to catch a falsy value not
        equal to 0 (``None``, ``''``), which is then kept too and refused.
        The kept values are accepted in one step when each is an int and
        the least is positive; otherwise the constructor refuses the
        first offender, as it words it.
        """
        if type(values) is cls:
            return values
        positions = list(itertools.compress(range(len(values)), values))
        if len(values) - len(positions) != values.count(0):
            positions = [p for p, x in enumerate(values) if x != 0]
        entries = dict(zip(positions, map(values.__getitem__, positions)))
        kept = entries.values()
        if set(map(type, kept)) <= {int} and min(kept, default=1) >= 1:
            return cls._built(len(values), entries)
        return cls(len(values), entries)

    @classmethod
    def _built(cls, length: int, entries: dict[int, int]) -> Feedback:
        """A vector over entries made to the constructor's rule (``Code.feedback``, a sketch, ``of`` after its check)."""
        fv = cls.__new__(cls)
        fv.entries = entries
        fv._len = length
        return fv

    def _values(self) -> list[int]:
        buf = [0] * self._len
        for position, value in self.entries.items():
            buf[position] = value
        return buf

    def dense(self) -> tuple[int, ...]:
        """Every value in order, built on each call."""
        return tuple(self._values())

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, index):
        if type(index) is int and 0 <= index < self._len:
            return self.entries.get(index, 0)
        return self.dense()[index]

    def __iter__(self):
        return iter(self._values())

    def __eq__(self, other: object) -> bool:
        if type(other) is Feedback:
            return self._len == other._len and self.entries == other.entries
        if isinstance(other, tuple):
            # ``dense() == other``: the tuple reads 0 exactly off the support (no
            # positive value equals 0) and each value on it
            entries = self.entries
            return (
                self._len == len(other)
                and other.count(0) == self._len - len(entries)
                and all(other[p] == value for p, value in entries.items())
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.dense())

    def __repr__(self) -> str:
        return f"Feedback({self._len}, {dict(sorted(self.entries.items()))})"


def is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def next_power_of_two(x: int) -> int:
    if x < 1:
        raise ValueError(f"expected a positive integer, got {x}")
    return 1 << (x - 1).bit_length()


def check_universe(n: int) -> None:
    """ValueError unless the universe size n is a power of two, at least 2."""
    if n < 2 or not is_power_of_two(n):
        raise ValueError(f"universe size must be a power of two >= 2, got {n}")


def check_capacity(n: int, k: int) -> None:
    """ValueError unless the capacity k satisfies 1 <= k <= n."""
    if not 1 <= k <= n:
        raise ValueError(f"capacity k must satisfy 1 <= k <= n, got k={k}, n={n}")


def check_cap(alpha: int, least: int = 1) -> None:
    """ValueError unless the feedback cap alpha is at least ``least``.

    alpha > k is legal: the cap then never binds (full count feedback).
    The walking oracles pass ``least=0``: at cap 0 every reading is 0,
    and their verdicts stay exact.
    """
    if alpha < least:
        raise ValueError(f"feedback cap must be >= {least}, got {alpha}")


def check_width(name: str, width: int) -> None:
    """ValueError unless a walking oracle's set width (k, ell or kappa) is at least 0.

    A negative width walks no set, so a verdict over it would be vacuous;
    width 0 walks the empty set alone.
    """
    if width < 0:
        raise ValueError(f"{name} must be >= 0, got {width}")


def check_epsilon(epsilon: float) -> None:
    """ValueError unless the selector/disperser slack epsilon lies in (0, 1/2]."""
    if not 0 < epsilon <= 0.5:
        raise ValueError(f"epsilon must lie in (0, 1/2], got {epsilon}")


def singletons(n: int) -> tuple[Query, ...]:
    """The n singleton queries {1}, ..., {n}, in element order."""
    return tuple(frozenset((v,)) for v in range(1, n + 1))


def query_mask(elements: Iterable[int]) -> int:
    """Bitmask of a set of elements: bit v-1 is set for element v."""
    return sum(1 << (v - 1) for v in elements)


def incidence(queries: Iterable[Query]) -> dict[int, tuple[int, ...]]:
    """element -> indices of the queries containing it, ascending.

    Elements in no query are absent; read it with ``.get(v, ())``.
    """
    lists: dict[int, list[int]] = {}
    for idx, s in enumerate(queries):
        for v in s:
            lists.setdefault(v, []).append(idx)
    return {v: tuple(ix) for v, ix in lists.items()}


class BudgetError(ValueError):
    """An exhaustive verification would exceed its configured enumeration budget."""


def sets_up_to(n: int, k: int) -> int:
    """Number of hidden-set candidates: all subsets of [1..n] with at most k elements."""
    return sum(map(comb, itertools.repeat(n, k + 1), range(k + 1)))


def check_budget(count: int, budget: int) -> None:
    """BudgetError if an exhaustive oracle would enumerate more than ``budget`` cases."""
    if count > budget:
        raise BudgetError("instance too large for exhaustive oracle")


def walk_subsets(
    elements: Sequence[int],
    max_size: int,
    push: Callable[[int], None],
    pop: Callable[[int], None],
    last: Callable[[int], T | None],
) -> T | None:
    """Depth-first walk over the nonempty subsets of ``elements`` of at most max_size elements.

    ``elements`` is sorted.  Sets are visited size by size, each size in
    lexicographic order: the order of ``itertools.combinations(elements,
    size)`` for size = 1 .. min(max_size, len(elements)).  Below the
    final level, ``push(e)`` runs as e joins the current set and
    ``pop(e)`` as it leaves, so a caller keeps its per-set counts up to
    date instead of rebuilding them.  At the final level each set is the
    current one plus one element e, and ``last(e)`` returns its verdict
    with e not pushed, so a caller that can settle it from the counts of
    the current set pays no push and pop (``pushed_leaf`` answers it by
    push, leaf, pop).  Returns the first ``last`` result that is not
    None, else None.
    """
    count = len(elements)

    def descend(start: int, left: int) -> T | None:
        if left == 1:
            for e in elements[start:]:
                found = last(e)
                if found is not None:
                    return found
            return None
        for i in range(start, count - left + 1):
            e = elements[i]
            push(e)
            found = descend(i + 1, left - 1)
            pop(e)
            if found is not None:
                return found
        return None

    for size in range(1, min(max_size, count) + 1):
        found = descend(0, size)
        if found is not None:
            return found
    return None


def pushed_leaf(
    push: Callable[[int], None], pop: Callable[[int], None], leaf: Callable[[], T | None]
) -> Callable[[int], T | None]:
    """``walk_subsets``'s ``last`` for a caller that reads a set once it is pushed: push e, leaf(), pop e."""

    def last(e: int) -> T | None:
        push(e)
        found = leaf()
        pop(e)
        return found

    return last


def subset_at(elements: Sequence[int], rank: int) -> list[int]:
    """The set of sorted ``elements`` at ``rank`` in ``walk_subsets``'s order; rank 0 is the empty set."""
    count = len(elements)
    rank -= 1
    size = 0
    while rank >= 0:
        size += 1
        rank -= comb(count, size)
    rank += comb(count, size)  # the rank among the sets of `size` elements, lexicographic
    chosen: list[int] = []
    start = 0
    for left in range(size, 0, -1):
        # the sets whose next element is elements[start] come before those with a later one
        while rank >= (block := comb(count - start - 1, left - 1)):
            rank -= block
            start += 1
        chosen.append(elements[start])
        start += 1
    return chosen


class _Filled(dict):
    """key -> fill(key), each computed on its first lookup and kept, then read at dict speed.

    ``get`` fills as ``[]`` does, and returns its default only where
    ``fill`` raises KeyError.
    """

    def __init__(self, fill: Callable[[int], object]) -> None:
        super().__init__()
        self.fill = fill

    def __missing__(self, key: int) -> object:
        value = self[key] = self.fill(key)
        return value

    def get(self, key: int, default: object = None) -> object:
        try:
            return self[key]
        except KeyError:
            return default


def active_elements(queries: Iterable[Query], n: int) -> list[int]:
    """[1..n] without its inert elements (module docstring), ascending.

    A built family's queries (``code.Singletons``, ``code.SlicedTable``)
    name them through their ``active`` method, from the rule over their
    own universe; any other sequence takes one pass over the queries.
    """
    active = getattr(queries, "active", None)
    if active is not None:
        return active(n)
    inert = set()
    shared = set()  # elements of some query of two or more elements
    for s in queries:
        if len(s) == 1:
            inert |= s
        else:
            shared |= s
    return [v for v in range(1, n + 1) if v not in inert or v in shared]


class OracleIndex:
    """What the walking oracles read of one query family over [1..n], each part built on first use.

    * ``active``: ``active_elements(queries, n)``;
    * ``queries_of[v]``: the indices of the queries holding v, ascending,
      for v in [0..n] (``()`` for 0 and for an element in no query),
      read from the family's own ``incidence`` where the sequence has
      one (``code.Singletons``, ``code.SlicedTable``), else from one
      pass of ``incidence`` over the queries;
    * ``masks[j]``: ``query_mask`` of query j, built on its first lookup.

    Each part is kept in a plain slot, empty until its first read, so an
    oracle call pays no per-instance lock for it.  Each oracle call
    builds its own index; a built family's ``incidence`` is filled once
    and read by every call.  Over the family's own universe it has an
    entry for every element of [1..n], so ``queries_of`` is one ``map``
    over them.
    """

    __slots__ = ("queries", "n", "_active", "_queries_of", "_masks")

    def __init__(self, queries: Sequence[Query], n: int) -> None:
        self.queries = queries
        self.n = n
        self._active = self._queries_of = self._masks = None

    @property
    def active(self) -> list[int]:
        if self._active is None:
            self._active = active_elements(self.queries, self.n)
        return self._active

    @property
    def queries_of(self) -> list[tuple[int, ...]]:
        if self._queries_of is None:
            queries, n = self.queries, self.n
            inc = getattr(queries, "incidence", None)
            if inc is None:
                inc = incidence(queries)
            if getattr(queries, "n", None) == n:  # a built family over its own universe
                self._queries_of = [(), *map(inc.__getitem__, range(1, n + 1))]
            else:
                self._queries_of = [inc.get(v, ()) for v in range(n + 1)]
        return self._queries_of

    @property
    def masks(self) -> Mapping[int, int]:
        if self._masks is None:
            queries = self.queries
            self._masks = _Filled(lambda j: query_mask(queries[j]))
        return self._masks


def as_multiset(hidden: Iterable[int] | Mapping[int, int], n: int | None = None) -> Multiset:
    """Normalize a hidden set description into an element -> multiplicity dict.

    Accepts an iterable of elements (multiplicity one each, duplicates
    accumulate) or a mapping with positive multiplicities.  Elements and
    multiplicities are integers (``operator.index``): a float or a str
    raises TypeError rather than being truncated.  With ``n`` given,
    indices are range-checked against [1..n].
    """
    counts: Multiset = {}
    index = operator.index
    if isinstance(hidden, (dict, Mapping)):  # a dict before the slower ABC check
        for v, m in hidden.items():
            v, m = index(v), index(m)
            if m < 1:
                raise ValueError(f"multiplicity of element {v} must be >= 1, got {m}")
            counts[v] = counts.get(v, 0) + m
    else:
        for v in hidden:
            v = index(v)
            counts[v] = counts.get(v, 0) + 1
    if n is not None and counts and not (min(counts) >= 1 and max(counts) <= n):
        v = next(v for v in counts if not 1 <= v <= n)  # the first offender in insertion order
        raise ValueError(f"element {v} outside universe [1..{n}]")
    return counts


def multiset_total(hidden: Mapping[int, int]) -> int:
    """Sum of multiplicities (the total weight of the hidden multiset)."""
    return sum(hidden.values())


def capped_feedback(query: Query, hidden: Iterable[int] | Mapping[int, int], alpha: int) -> int:
    """min(weighted |query ∩ hidden|, alpha) -- the single-query feedback value."""
    check_cap(alpha)
    counts = as_multiset(hidden)
    weight = sum(m for v, m in counts.items() if v in query)
    return min(weight, alpha)


def feedback_vector(
    queries: Iterable[Query], hidden: Iterable[int] | Mapping[int, int], alpha: int
) -> FeedbackVector:
    """Feedback values of every query against one hidden multiset, in order."""
    check_cap(alpha)
    counts = as_multiset(hidden)
    out = []
    for q in queries:
        weight = sum(m for v, m in counts.items() if v in q)
        out.append(min(weight, alpha))
    return tuple(out)


def distinguishes(
    queries: Iterable[Query],
    k1: Iterable[int] | Mapping[int, int],
    k2: Iterable[int] | Mapping[int, int],
    alpha: int,
) -> bool:
    """True iff the two hidden multisets produce different feedback vectors."""
    c1 = as_multiset(k1)
    c2 = as_multiset(k2)
    if c1 == c2:
        raise ValueError("identical sets")
    qs = tuple(queries)
    return feedback_vector(qs, c1, alpha) != feedback_vector(qs, c2, alpha)
