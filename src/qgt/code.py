"""Group-testing code assembly: one strong selector with balanced-ID slices.

A code is one query family under a header (n, k, alpha, mode).  The
family's queries come in blocks: one selector query S followed by its
2*log2(n) bit slices R_1(S) .. R_2b(S), except that a base of at most
one element carries no slices: a one-element base already names its
element, and an empty one names none.  A block records its kind, the
selector level it came from, where its base query sits and its slice
count (0 or 2*log2(n)).  The decoder needs the blocks; the feedback
model does not.

A base holding one element of the hidden set is trusted in every mode:
its value is below any cap alpha >= 2, and exact in a multiset readout.
So one width-k strong selector (every element of every set of at most k
elements alone in some query) decodes every mode, and ``build`` decides
it from (n, k, mode) before it builds anything: each class in
``FAMILIES`` gives ``at(n, k, mode)``, its family there or None where it
is not admissible, and the shortest admissible family is built, a tie
going to the earlier class.  The n singletons are admissible everywhere.
With (q, d, L) = ``ssui.rs_trunc_size(n, k)``, the truncated
Reed-Solomon table (first L evaluation points, empty queries dropped) is
admissible where L*q*(1 + 2*log2(n)) < n, except in multiset mode: a
stream sketch needs every element alone in some query (``streaming``).
Every block is kind "ssui" at level k.  No code is longer than n, and
its length does not depend on alpha: large mode is the plain rule under
its own header.  The table first wins at n = 2^5, 2^9, 2^11 and 2^12
for k = 1, 2, 3 and 4-5.

Three families, one interface.  ``Singletons(n)`` is the n singletons,
query p the 0-slice block of element p+1.  ``SlicedTable(n, q, d, L)``
is the truncated table, each base followed by its slices.
``Listed(queries, blocks)`` holds any other code's queries and blocks
as given: hand-laid tables, list files and random codes.  Each family
gives its length ``m``; ``incidence``, element -> positions of the
queries holding it (on a built family filled on use, with KeyError
outside [1..n]), and ``block_at``, position -> the slice count of the
block based there or None, filled on use; its queries, and its blocks
at a level; its ``line`` in a family file (None for ``Listed``);
``alone(n)``, whether every element of [1..n] is alone in some query;
``encode(counts, cap)``, a multiset's capped vector as its nonzero
entries: a closed form on the singletons, one pass over the hidden
elements' incidence on the other two; and ``decode(entries, n, k,
cap)``, a proposal read from a vector's nonzero entries alone, handed
over with its uncapped counts: a closed form on the singletons, the
block sweep (``decode.sweep``) on the other two.  A family refuses no
vector and reads a multiplicity only at a value below the cap;
``decode.decode_detailed`` accepts or refuses what it proposes.
``Code`` holds one family and delegates to it.

A built code stays its rule: the two built families are read-only
sequences of their queries, and no set or block is made when a code is
built, written or loaded (``serialize``).  They also give ``active(n)``,
the elements an oracle walks (``model.active_elements``), from the rule
over their own n; a listed code's queries are a plain tuple, which the
oracles scan.  Every table the rule takes has q < n/3, so each of its
L*q bases holds at least two elements and carries all its slices:
incidence and the block at a position have closed forms, and decoding
reads only those.  The queries are laid out once, on the first access to
an item, and the blocks on the first read of ``Code.blocks``.

The paper's selectors under interference are the n singletons at every
n a code can be built for (``sui`` module), so none is built.  Blocks of
kind "sui" and "rr" appear only in files from earlier builders; they
still load and decode, and ``qgt verify --sui`` checks them.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property

from .balanced import bit_slices, encode_balanced, id_bits
from .decode import NO_LAYOUT, DecodeError, DecodeStats, Proposal, sweep
from .model import Feedback, Query, active_elements, as_multiset, check_cap, check_capacity
from .model import _Filled, check_universe, next_power_of_two, singletons
from .model import incidence as _incidence
from .ssui import rs_trunc_size, truncated_table

# build_ssui, build_sui and build_sui_rr are not called here; perfbench/tracer.py wraps them
# as qgt.code globals.
from .ssui import build_ssui as build_ssui
from .sui import build_sui as build_sui, build_sui_rr as build_sui_rr

# The modes a code's header names.
MODE_PLAIN = "plain"
MODE_LARGE = "large"
MODE_MULTISET = "multiset"
MODE_RANDOM = "random"
# The least alpha a mode's decoder reads: it trusts a value below alpha,
# and every value of a multiset code, which stores alpha 0.
MIN_ALPHA = {MODE_PLAIN: 2, MODE_LARGE: 2, MODE_MULTISET: 0, MODE_RANDOM: 1}

KIND_SUI = "sui"
KIND_RR = "rr"
KIND_SSUI = "ssui"


@dataclass(frozen=True)
class Block:
    """One selector query: base at `base`, slices at base+1 .. base+slices.

    `slices` is 2*log2(n), or 0 on a base of at most one element (built
    codes give every such base 0).
    """

    kind: str
    level: int
    base: int  # 0-based index into the query list
    slices: int


def _grouped(blocks: Sequence[Block]) -> tuple[tuple[Block, ...], ...]:
    """Blocks grouped into consecutive runs of equal (kind, level)."""
    return tuple(tuple(run) for _, run in itertools.groupby(blocks, key=lambda blk: (blk.kind, blk.level)))


class _Family:
    """What ``Code`` reads of a query family (module docstring), answered here from its queries.

    Each family overrides what its rule answers without laying them out.
    """

    line: str | None = None  # its line in a family file; None: written as a list
    m: int
    queries: Sequence[Query]

    def __len__(self) -> int:
        return self.m

    def alone(self, n: int) -> bool:
        """Whether every element of [1..n] is alone in some query: one pass over the queries."""
        return len({v for s in self.queries if len(s) == 1 for v in s}) >= n

    def encode(self, counts: Mapping[int, int], cap: int) -> dict[int, int]:
        """The nonzero entries of the vector ``counts`` reads, each capped at ``cap`` (0: uncapped).

        One pass over the incidence of the hidden elements: O(support).
        ``counts`` maps elements of [1..n] to positive multiplicities; an
        element in no query (of a list code) reads nowhere.  Positions
        come from the index, so every entry is an in-range position
        holding a positive int.
        """
        entries: dict[int, int] = {}
        get = entries.get
        inc = self.incidence
        for v, mult in counts.items():
            try:
                indices = inc[v]
            except KeyError:  # in no query of a list code
                continue
            for idx in indices:
                entries[idx] = get(idx, 0) + mult
        if cap:
            for idx, value in entries.items():
                if value > cap:
                    entries[idx] = cap
        return entries

    decode = sweep  # the block sweep, reading the family's block_at and incidence


class _Built(_Family, Sequence):
    """A family the build rule lays out, kept as its rule over [1..n]: ``Singletons``, ``SlicedTable``.

    A read-only sequence of its queries, laid out once on the first
    access to an item (``_make``).  It is equal to a tuple with the same
    items, and hashed like it; two families with one line over one n
    compare equal without laying anything out.  Its blocks are
    ``block_count`` "ssui" blocks of ``stride`` queries each: a base and
    its ``stride - 1`` slices.  Incidence is read off ``_positions(v)``:
    the positions of the queries holding v in [1..n], ascending.
    """

    def __init__(self, n: int, stride: int, block_count: int) -> None:
        self.n = n
        self.stride = stride
        self.block_count = block_count
        self.m = stride * block_count

    @cached_property
    def _items(self) -> tuple[Query, ...]:
        return self._make()

    @property
    def queries(self) -> Sequence[Query]:
        return self

    def __getitem__(self, index):
        return self._items[index]

    def __iter__(self):
        return iter(self._items)

    def __eq__(self, other: object) -> bool:
        if type(other) is type(self) and (self.n, self.line) == (other.n, other.line):
            return True
        if not isinstance(other, (tuple, _Built)):
            return NotImplemented
        return len(self) == len(other) and self._items == tuple(other)

    def __hash__(self) -> int:
        return hash(self._items)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.n}, {self.line!r})"

    @cached_property
    def incidence(self) -> Mapping[int, tuple[int, ...]]:
        """element -> ``_positions(v)``, filled on use; KeyError outside [1..n]."""
        n, positions = self.n, self._positions

        def fill(v: int) -> tuple[int, ...]:
            if not (isinstance(v, int) and 1 <= v <= n):
                raise KeyError(v)
            return positions(v)

        return _Filled(fill)

    @cached_property
    def block_at(self) -> Mapping[int, int | None]:
        """position -> the slice count of the block based there, or None (filled on use)."""
        stride, m = self.stride, self.m
        return _Filled(lambda p: stride - 1 if not p % stride and 0 <= p < m else None)

    def blocks(self, level: int) -> tuple[Block, ...]:
        """Every block laid out, each "ssui" at `level`."""
        stride = self.stride
        return tuple(Block(KIND_SSUI, level, b * stride, stride - 1) for b in range(self.block_count))

    def group_keys(self, level: int) -> tuple[tuple[str, int], ...]:
        """(kind, level) of each block group, in order: one "ssui" group, named without laying out a block."""
        return ((KIND_SSUI, level),)

    def active(self, n: int) -> list[int]:
        """Over a universe other than its own: one pass over the laid-out queries."""
        return active_elements(self._items, n)


class Singletons(_Built):
    """The n singleton queries: query p is {p+1}, a block with no slices."""

    line = "family singletons"
    occurrence_max = 1

    def __init__(self, n: int) -> None:
        super().__init__(n, 1, n)

    @classmethod
    def at(cls, n: int, k: int, mode: str) -> Singletons:
        """The singletons, a selector of every width k, admissible in every mode."""
        return cls(n)

    def _make(self) -> tuple[Query, ...]:
        return singletons(self.n)

    def _positions(self, v: int) -> tuple[int, ...]:
        return (v - 1,)

    def active(self, n: int) -> list[int]:
        # every element is inert: its one query holds it alone
        return [] if n == self.n else super().active(n)

    def alone(self, n: int) -> bool:
        return n <= self.n  # element v is alone in query v-1

    def group_bases(self, index: int) -> Sequence[Query]:
        """The base queries of block group `index`: the queries, kept as the rule."""
        return self

    def encode(self, counts: Mapping[int, int], cap: int) -> dict[int, int]:
        """Query v-1 reads v's multiplicity alone, capped at a nonzero ``cap``: no incidence is read."""
        if cap:
            return {v - 1: mult if mult < cap else cap for v, mult in counts.items()}
        return {v - 1: mult for v, mult in counts.items()}

    def decode(self, entries: Mapping[int, int], n: int, k: int, cap: int) -> Proposal:
        """The closed-form proposal: query p holds element p+1 alone.

        A value below a nonzero ``cap`` is that element's multiplicity; a
        value at the cap is read as nothing.  The counts are the trusted
        entries: the entries themselves when none sits at the cap.
        """
        if cap:
            found = {p + 1: value for p in sorted(entries) if (value := entries[p]) < cap}
            counts = entries if len(found) == len(entries) else {v - 1: mult for v, mult in found.items()}
        else:
            found = {p + 1: entries[p] for p in sorted(entries)}
            counts = entries
        count = len(found)
        return found, counts, DecodeStats(1 if count else 0, count, 0, count)


class SlicedTable(_Built):
    """The truncated width-k Reed-Solomon table (q, d, L), each base followed by its slices.

    Block b = x*q + y starts at b*(1 + 2*log2 n); its base holds the v
    with P_v(x) = y, P_v the polynomial whose coefficients are the
    base-q digits of v-1 (``ssui.rs_table``), and its slice j keeps
    those whose balanced-identifier bit j is one
    (``balanced.slice_table``).
    """

    def __init__(self, n: int, q: int, d: int, points: int) -> None:
        if n < 2 * q:
            raise ValueError(f"a table layout needs n >= 2q, got n={n}, q={q}")
        self.q, self.points = q, points
        self.line = f"family rs {q} {d} {points}"
        bits = id_bits(n) // 2
        # queries per element: each of the L bases holding it and log2(n) of their slices
        self.occurrence_max = points * (1 + bits)
        super().__init__(n, 1 + 2 * bits, q * points)

    @classmethod
    def at(cls, n: int, k: int, mode: str) -> SlicedTable | None:
        """The table at (n, k) where it is shorter than n, outside multiset mode; else None.

        A table is never shorter than k*k bases (q >= L >= k), so where k*k
        bases with their slices already reach n no search is made.
        """
        if mode == MODE_MULTISET or k < 1:
            return None
        stride = 1 + id_bits(n)  # a base and its slices
        if k * k * stride >= n:
            return None
        q, d, points = rs_trunc_size(n, k)
        return cls(n, q, d, points) if points * q * stride < n else None

    def _value(self, v: int, x: int) -> int:
        """P_v(x) over F_q, by Horner's rule on P_v's coefficients, the base-q digits of v-1."""
        q, u, digits = self.q, v - 1, []
        while u:
            u, c = divmod(u, q)
            digits.append(c)
        y = 0
        for c in reversed(digits):
            y = (y * x + c) % q
        return y

    def _positions(self, v: int) -> tuple[int, ...]:
        q, stride = self.q, self.stride
        # v's base, then slice j where v's balanced-identifier bit j is one (word[-j])
        offsets = [0, *[j for j, bit in enumerate(encode_balanced(v, self.n)[::-1], 1) if bit]]
        out: list[int] = []
        for x in range(self.points):
            start = (x * q + self._value(v, x)) * stride
            out.extend([start + o for o in offsets])
        return tuple(out)

    def _make(self) -> tuple[Query, ...]:
        """Every query: the table's bases and their slices (``enhance``)."""
        return tuple(s for base in truncated_table(self.n, self.q, self.points) for s in enhance(base, self.n))

    def group_bases(self, index: int) -> tuple[Query, ...]:
        """The bases of the one block group, laid out (``ssui.truncated_table``)."""
        return truncated_table(self.n, self.q, self.points)

    def active(self, n: int) -> list[int]:
        # A base at x holds, in each run of q consecutive elements, exactly one v per value
        # y of P_v(x) (the lowest digit runs over F_q); n >= 2q gives every base two runs,
        # so no element is inert.
        return list(range(1, n + 1)) if n == self.n else super().active(n)


class Listed(_Family):
    """Any other code's queries and blocks, as given: hand-laid tables, list files and random codes."""

    def __init__(self, queries: Sequence[Query], blocks: Sequence[Block]) -> None:
        self.queries = queries
        self._blocks = blocks
        self.m = len(queries)

    def blocks(self, level: int) -> Sequence[Block]:
        """The blocks as given, whatever `level`."""
        return self._blocks

    @cached_property
    def incidence(self) -> dict[int, tuple[int, ...]]:
        """``model.incidence``: an element in no query has no entry."""
        return _incidence(self.queries)

    @cached_property
    def block_at(self) -> Mapping[int, int | None]:
        return _Filled({blk.base: blk.slices for blk in self._blocks}.get)

    @property
    def occurrence_max(self) -> int:
        return max((len(ix) for ix in self.incidence.values()), default=0)

    def group_keys(self, level: int) -> tuple[tuple[str, int], ...]:
        return tuple((group[0].kind, group[0].level) for group in _grouped(self._blocks))

    def decode(self, entries: Mapping[int, int], n: int, k: int, cap: int) -> Proposal:
        """The block sweep; a code without blocks (a random code's queries) is refused."""
        if not self._blocks:
            raise DecodeError(NO_LAYOUT)
        return sweep(self, entries, n, k, cap)

    def group_bases(self, index: int) -> tuple[Query, ...]:
        return tuple(self.queries[blk.base] for blk in _grouped(self._blocks)[index])


# The family classes the build rule chooses from and a family file can name,
# each admitted by ``at(n, k, mode)``; a tie in length goes to the earlier class.
FAMILIES = (Singletons, SlicedTable)


@dataclass(frozen=True, eq=False)
class Code:
    """A query family under its header; every method reads the family.

    Two codes are equal when their headers are and they lay out the same
    queries and blocks; two codes of one built family compare equal
    without laying anything out.  A hash reads only the header and the
    length.
    """

    family: _Family
    n: int
    k: int
    alpha: int  # 0: no value is capped (multiset codes; the cap is chosen at encode time)
    mode: str

    def __len__(self) -> int:
        return self.family.m

    @property
    def queries(self) -> Sequence[Query]:
        """A tuple, or the built family itself, laid out on the first access to an item."""
        return self.family.queries

    @cached_property
    def blocks(self) -> Sequence[Block]:
        return self.family.blocks(self.k)

    @cached_property
    def incidence(self) -> Mapping[int, tuple[int, ...]]:
        """element -> indices of the queries containing it (the family's, filled on use on a built code)."""
        return self.family.incidence

    @cached_property
    def block_groups(self) -> tuple[tuple[Block, ...], ...]:
        """Blocks grouped into consecutive runs of equal (kind, level)."""
        return _grouped(self.blocks)

    @cached_property
    def group_keys(self) -> tuple[tuple[str, int], ...]:
        """(kind, level) of each block group, in order (the family's, at level k)."""
        return self.family.group_keys(self.k)

    @property
    def occurrence_max(self) -> int:
        return self.family.occurrence_max

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Code):
            return NotImplemented
        if (self.n, self.k, self.alpha, self.mode) != (other.n, other.k, other.alpha, other.mode):
            return False
        line = self.family.line
        if line is not None and line == other.family.line:
            return True  # one built family over one n
        return self.queries == other.queries and self.blocks == other.blocks

    def __hash__(self) -> int:
        return hash((self.n, self.k, self.alpha, self.mode, len(self)))

    def feedback(self, hidden, alpha: int | None = None) -> Feedback:
        """Feedback vector by the family's encode, kept as its nonzero entries.

        Costs O(support): the queries the hidden elements lie in, never
        the whole code (on the singletons, one entry per element).
        ``alpha`` defaults to the code's own cap; a code storing alpha 0
        (every multiset code) gives uncapped counts, equivalent to any
        admissible cap at or above the total multiplicity.
        """
        counts = as_multiset(hidden, self.n)
        if alpha is None:
            alpha = self.alpha or None
        if alpha is not None:
            check_cap(alpha)
        return Feedback._built(self.family.m, self.family.encode(counts, alpha or 0))


def enhance(s: Query, n: int) -> list[Query]:
    """The base query followed by its 2*log2(n) balanced-ID slices.

    Slices come from the per-n slice table (see balanced.bit_slices).
    They are frozensets even for a plain-set base.  A slice that keeps
    every element is the frozenset base object itself, and one that keeps
    none is a shared empty frozenset.
    """
    return [s, *bit_slices(s, n)]


def level_params(k: int, alpha: int) -> tuple[int, int]:
    """(kappa, cap) of a "sui" or "rr" group's check; below alpha = 2 the cap never binds."""
    kappa = next_power_of_two(k)
    return kappa, (alpha - 1 if alpha >= 2 else kappa + 1)


def build(n: int, k: int, alpha: int, mode: str = MODE_PLAIN) -> Code:
    """The build rule's code (module docstring): the shortest family ``FAMILIES`` admits.

    Checks the mode, the universe, the capacity and the mode's alpha
    floor (``MIN_ALPHA``), in that order.  A multiset code stores alpha
    0: decoding assumes the readout cap is at least the total
    multiplicity, which makes every feedback value exact.
    """
    if mode not in (MODE_PLAIN, MODE_LARGE, MODE_MULTISET):
        raise ValueError(f"unknown build mode {mode!r}")
    check_universe(n)
    check_capacity(n, k)
    if mode == MODE_MULTISET:
        alpha = 0
    if alpha < MIN_ALPHA[mode]:
        raise ValueError(f"cap too small for quantitative decoding (alpha must be >= {MIN_ALPHA[mode]})")
    admissible = [family for cls in FAMILIES if (family := cls.at(n, k, mode)) is not None]
    return Code(min(admissible, key=len), n, k, alpha, mode)


def build_code(n: int, k: int, alpha: int, seed: int = 0) -> Code:
    """Plain-mode code (``build``); ``seed`` changes no byte, as no built family draws at random."""
    return build(n, k, alpha, MODE_PLAIN)


def build_code_large(n: int, k: int, alpha: int, seed: int = 0) -> Code:
    """The plain rule under the ``large`` header, kept for the files and callers that name it."""
    return build(n, k, alpha, MODE_LARGE)


def build_code_multiset(n: int, k: int, seed: int = 0) -> Code:
    """Multiset-mode code, stored with alpha 0 (``build``)."""
    return build(n, k, 0, MODE_MULTISET)
