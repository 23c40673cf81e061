"""Group-testing code assembly: one strong selector with balanced-ID slices.

A code is a flat sequence of queries plus a block layout.  Every block
is one selector query S followed by its 2*log2(n) bit slices R_1(S) ..
R_2b(S), except that a base of at most one element carries no slices: a
one-element base already names its element, and an empty one names
none.  The layout records block kind, the selector level it came from,
where its base query sits and its slice count (0 or 2*log2(n)).  The
decoder needs the layout; the feedback model does not.

A base holding one element of the hidden set is trusted in every mode:
its value is below any cap alpha >= 2, and exact in a multiset readout.
So one width-k strong selector (every element of every set of at most k
elements alone in some query) decodes every mode, and ``_assemble``
builds it by one rule that builds nothing before it decides: with
(q, d, L) = ``ssui.rs_trunc_size(n, k)``, the truncated Reed-Solomon
table (first L evaluation points, empty queries dropped) when
L*q*(1 + 2*log2(n)) < n, else the n singletons.  Every block is kind
"ssui" at level k.  No code is longer than n, and its length does not
depend on alpha: large mode is the plain rule under its own header.
The table first wins at n = 2^5, 2^9, 2^11 and 2^12 for k = 1, 2, 3
and 4-5.  Multiset codes stay the n singletons (``build_code_multiset``).

A built code stays its rule: its ``queries`` and ``blocks`` are
read-only sequences over a ``Layout`` (the family, n and k), and no set
or block is made when it is built, written or loaded (``serialize``).
Every layout is uniform (a table the rule takes has q < n/3, so each of
its L*q bases holds at least two elements and carries all its slices),
so the incidence of an element, the block at a position and base
membership have closed forms, and decoding reads only those.  The sets
and blocks are laid out once, on the first access that needs them all.
Codes from anywhere else (random codes, hand-laid tables, list files)
hold plain tuples.

The paper's selectors under interference are the n singletons at every
n a code can be built for (``sui`` module), so none is built.  Blocks of
kind "sui" and "rr" appear only in files from earlier builders; they
still load and decode, and ``qgt verify --sui`` checks them.
"""

from __future__ import annotations

from collections.abc import ItemsView, KeysView, Mapping, Sequence, ValuesView
from dataclasses import dataclass
from functools import cached_property

from .balanced import bit_slices, id_bits
from .model import Feedback, Query, as_multiset, check_cap, check_capacity, check_universe, next_power_of_two
from .model import RuleQueries, _Filled, _Sparse
from .model import incidence as _incidence
from .model import singletons
from .ssui import rs_trunc_size, truncated_table

# build_ssui, build_sui and build_sui_rr are not called here; perfbench/tracer.py wraps them
# as qgt.code globals.
from .ssui import build_ssui as build_ssui
from .sui import build_sui as build_sui, build_sui_rr as build_sui_rr

KIND_SUI = "sui"
KIND_RR = "rr"
KIND_SSUI = "ssui"

MODE_PLAIN = "plain"
MODE_LARGE = "large"
MODE_MULTISET = "multiset"
MODE_RANDOM = "random"


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


@dataclass(frozen=True)
class Layout:
    """One built family laid out as "ssui" blocks at level k, kept as its rule.

    ``family`` is None for the n singletons (position p is the 0-slice
    block of element p+1) or the (q, d, L) of the truncated width-k
    table.  Table block b = x*q + y starts at b*(1 + 2*log2 n); its base
    holds the v with P_v(x) = y, P_v the polynomial whose coefficients
    are the base-q digits of v-1 (``ssui.rs_table``), and its slice j
    keeps those whose balanced-identifier bit j is one
    (``balanced.slice_table``).
    """

    family: tuple[int, int, int] | None
    n: int
    k: int

    def __post_init__(self) -> None:
        if self.family is not None and self.n < 2 * self.family[0]:
            raise ValueError(f"a table layout needs n >= 2q, got n={self.n}, q={self.family[0]}")

    @cached_property
    def bits(self) -> int:
        return id_bits(self.n) // 2

    @cached_property
    def stride(self) -> int:
        """Queries per block: 1, or a base and its 2*log2(n) slices."""
        return 1 if self.family is None else 1 + 2 * self.bits

    @cached_property
    def block_count(self) -> int:
        return self.n if self.family is None else self.family[0] * self.family[2]

    def __len__(self) -> int:
        return self.block_count * self.stride

    @property
    def occurrence_max(self) -> int:
        """Queries per element: each of the L bases holding it and log2(n) of their slices."""
        return 1 if self.family is None else self.family[2] * (1 + self.bits)

    def block_at(self, position: int) -> Block | None:
        """The block based at `position`, or None."""
        index, offset = divmod(position, self.stride)
        if offset or not 0 <= index < self.block_count:
            return None
        return Block(KIND_SSUI, self.k, position, self.stride - 1)

    def _digits(self, v: int) -> list[int]:
        """Base-q digits of v-1, highest first: P_v's coefficients in Horner order."""
        q = self.family[0]
        u, digits = v - 1, []
        while u:
            u, c = divmod(u, q)
            digits.append(c)
        return digits[::-1]

    def _value(self, digits: list[int], x: int) -> int:
        """P_v(x) over F_q, by Horner's rule on v's digits (``_digits``)."""
        q = self.family[0]
        y = 0
        for c in digits:
            y = (y * x + c) % q
        return y

    def _bit_set(self, v: int, j: int) -> bool:
        """Whether balanced-identifier bit j+1 of v is one (slice table entry j)."""
        b = self.bits
        return not (v - 1) >> j & 1 if j < b else bool((v - 1) >> (j - b) & 1)

    def holds(self, position: int, v: int) -> bool:
        """Whether the query at `position` holds element v."""
        if not (1 <= v <= self.n and 0 <= position < len(self)):
            return False
        if self.family is None:
            return position == v - 1
        index, offset = divmod(position, self.stride)
        x, y = divmod(index, self.family[0])
        on_base = self._value(self._digits(v), x) == y
        return on_base and (offset == 0 or self._bit_set(v, offset - 1))

    def incidence(self, v: int) -> tuple[int, ...]:
        """Indices of the queries holding v, ascending; KeyError outside [1..n]."""
        if not (isinstance(v, int) and 1 <= v <= self.n):
            raise KeyError(v)
        if self.family is None:
            return (v - 1,)
        q, _, points = self.family
        offsets = [0, *(1 + j for j in range(2 * self.bits) if self._bit_set(v, j))]
        digits = self._digits(v)
        stride = self.stride
        out: list[int] = []
        for x in range(points):
            start = (x * q + self._value(digits, x)) * stride
            out.extend([start + o for o in offsets])
        return tuple(out)

    def all_queries(self) -> tuple[Query, ...]:
        """Every query, laid out: the family's sets and their slices (``enhance``)."""
        if self.family is None:
            return singletons(self.n)
        q, _, points = self.family
        bases = truncated_table(self.n, q, points)
        return tuple(s for base in bases for s in enhance(base, self.n))

    def all_blocks(self) -> tuple[Block, ...]:
        stride, k = self.stride, self.k
        return tuple(Block(KIND_SSUI, k, b * stride, stride - 1) for b in range(self.block_count))


class _LayoutSequence(Sequence):
    """A read-only sequence over a layout, laid out once on the first access to its items.

    Equal to a tuple with the same items (and hashed like it); two views
    with the same key compare equal without laying anything out.
    """

    __slots__ = ("layout", "_len", "_items")

    def __init__(self, layout: Layout) -> None:
        self.layout = layout
        self._len = self._length()
        self._items: tuple | None = None

    def _length(self) -> int:
        raise NotImplementedError

    def _key(self) -> object:
        raise NotImplementedError

    def _make(self) -> tuple:
        raise NotImplementedError

    def _all(self) -> tuple:
        if self._items is None:
            self._items = self._make()
        return self._items

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, index):
        return self._all()[index]

    def __iter__(self):
        return iter(self._all())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _LayoutSequence):
            if type(other) is type(self) and self._key() == other._key():
                return True
            if self._len != other._len:
                return False
            other = other._all()
        elif not isinstance(other, tuple):
            return NotImplemented
        return self._len == len(other) and self._all() == other

    def __hash__(self) -> int:
        return hash(self._all())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.layout!r})"


class LayoutQueries(_LayoutSequence, RuleQueries):
    """The queries of a layout: they depend on the family and n, not on k.

    Over its own n it names its active elements from the rule.
    """

    __slots__ = ()

    def rule_active(self, n: int) -> list[int] | None:
        if n != self.layout.n:
            return None
        # On the singletons every element is inert.  A table's base at x holds, in each
        # run of q consecutive elements, exactly one v per value y of P_v(x) (the lowest
        # digit runs over F_q); n >= 2q gives every base two runs, so no element is inert.
        return [] if self.layout.family is None else list(range(1, n + 1))

    def _length(self) -> int:
        return len(self.layout)

    def _key(self) -> object:
        return self.layout.family, self.layout.n

    def _make(self) -> tuple[Query, ...]:
        return self.layout.all_queries()


class LayoutBlocks(_LayoutSequence):
    """The blocks of a layout, at level k."""

    __slots__ = ()

    def _length(self) -> int:
        return self.layout.block_count

    def _key(self) -> object:
        return self.layout

    def _make(self) -> tuple[Block, ...]:
        return self.layout.all_blocks()


class _LayoutIncidence(_Filled):
    """element -> indices of the layout queries holding it, each filled on its first lookup.

    A full mapping over [1..n] (every element of a layout is in some
    query): ``len``, iteration, ``in``, ``get``, the views and ``==``
    cover every element.  ``dict.get`` would skip ``__missing__``, so
    ``get`` is redefined.
    """

    def __init__(self, layout: Layout) -> None:
        super().__init__(layout.incidence)
        self.layout = layout

    def __len__(self) -> int:
        return self.layout.n

    def __iter__(self):
        return iter(range(1, self.layout.n + 1))

    def __contains__(self, v: object) -> bool:
        return isinstance(v, int) and 1 <= v <= self.layout.n

    def get(self, v, default=None):
        return self[v] if v in self else default

    def keys(self):
        return KeysView(self)

    def items(self):
        return ItemsView(self)

    def values(self):
        return ValuesView(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mapping):
            return NotImplemented
        return dict(self.items()) == dict(other.items())

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.layout!r})"


def _layout_of(queries: Sequence[Query]) -> Layout | None:
    return queries.layout if type(queries) is LayoutQueries else None


@dataclass(frozen=True)
class Code:
    queries: Sequence[Query]  # a tuple, or LayoutQueries on a built code
    blocks: Sequence[Block]  # a tuple, or LayoutBlocks on a built code
    n: int
    k: int
    alpha: int  # 0: no value is capped (multiset codes; the cap is chosen at encode time)
    mode: str

    def __len__(self) -> int:
        return len(self.queries)

    @cached_property
    def incidence(self) -> Mapping[int, tuple[int, ...]]:
        """element -> indices of the queries containing it (see model.incidence).

        On a layout every element has an entry, computed on its first lookup.
        """
        layout = _layout_of(self.queries)
        return _incidence(self.queries) if layout is None else _LayoutIncidence(layout)

    @cached_property
    def block_groups(self) -> tuple[tuple[Block, ...], ...]:
        """Blocks grouped into consecutive runs of equal (kind, level)."""
        groups: list[list[Block]] = []
        key: tuple[str, int] | None = None
        for blk in self.blocks:
            blk_key = (blk.kind, blk.level)
            if blk_key != key:
                groups.append([])
                key = blk_key
            groups[-1].append(blk)
        return tuple(tuple(g) for g in groups)

    @cached_property
    def group_keys(self) -> tuple[tuple[str, int], ...]:
        """(kind, level) of each block group, in order.

        A layout's blocks are one "ssui" group at level k, read off the
        layout without laying out a block.
        """
        blocks = self.blocks
        if type(blocks) is LayoutBlocks:
            return ((KIND_SSUI, blocks.layout.k),)
        return tuple((group[0].kind, group[0].level) for group in self.block_groups)

    def group_bases(self, index: int) -> Sequence[Query]:
        """The base queries of block group `index`; the singletons' one group is their queries, kept as the rule."""
        if self.is_singletons:
            return self.queries
        return tuple(self.queries[blk.base] for blk in self.block_groups[index])

    @cached_property
    def block_at(self) -> Mapping[int, Block | None]:
        """position -> the block whose base sits there, None elsewhere (filled on use)."""
        blocks = self.blocks
        if type(blocks) is LayoutBlocks:
            return _Filled(blocks.layout.block_at)
        return _Filled({blk.base: blk for blk in blocks}.get)

    def query_holds(self, position: int, v: int) -> bool:
        """Whether the query at `position` holds v (in closed form on a layout)."""
        layout = _layout_of(self.queries)
        return v in self.queries[position] if layout is None else layout.holds(position, v)

    @cached_property
    def is_singletons(self) -> bool:
        """Whether the code is the n singletons kept as their rule: query p is {p+1}, a 0-slice block.

        Read off the queries' and blocks' layout, so a list of singletons
        (a hand-laid or ``qgtc 1`` code) reads False and takes the
        general paths.
        """
        layout = _layout_of(self.queries)
        blocks = self.blocks
        return (
            layout is not None
            and layout.family is None
            and type(blocks) is LayoutBlocks
            and blocks.layout == layout
        )

    @cached_property
    def sole_elements(self) -> Mapping[int, int | None]:
        """position -> the one element of the query there, or None (filled on use)."""
        queries = self.queries
        if self.is_singletons:
            return _Filled(lambda position: position + 1)
        return _Filled(lambda p: min(queries[p]) if len(queries[p]) == 1 else None)

    @property
    def occurrence_max(self) -> int:
        layout = _layout_of(self.queries)
        if layout is not None:
            return layout.occurrence_max
        return max((len(ix) for ix in self.incidence.values()), default=0)

    def feedback(self, hidden, alpha: int | None = None) -> Feedback:
        """Feedback vector via the incidence index, kept as its nonzero entries.

        Costs O(support): the queries the hidden elements lie in, never
        the whole code.  ``alpha`` defaults to the code's own cap; a code
        storing alpha 0 (every multiset code) gives uncapped counts,
        equivalent to any admissible cap at or above the total
        multiplicity.
        """
        counts = as_multiset(hidden, self.n)
        if alpha is None:
            alpha = self.alpha or None
        if alpha is not None:
            check_cap(alpha)
        # positions come from the index and multiplicities are >= 1, so every
        # entry is an in-range position holding a positive int
        entries = _Sparse()
        get = entries.get
        inc = self.incidence
        for v, mult in counts.items():
            try:
                indices = inc[v]
            except KeyError:  # in no query of a list code
                continue
            for idx in indices:
                entries[idx] = get(idx, 0) + mult
        if alpha is not None:
            for idx, value in entries.items():
                if value > alpha:
                    entries[idx] = alpha
        return Feedback._built(len(self.queries), entries)


def enhance(s: Query, n: int) -> list[Query]:
    """The base query followed by its 2*log2(n) balanced-ID slices.

    Slices come from the per-n slice table (see balanced.bit_slices).
    They are frozensets even for a plain-set base.  A slice that keeps
    every element is the frozenset base object itself, and one that keeps
    none is a shared empty frozenset.
    """
    return [s, *bit_slices(s, n)]


def _check_build_params(n: int, k: int, alpha: int | None = None) -> None:
    """Universe and capacity checks; with ``alpha``, also the decoder's alpha >= 2."""
    check_universe(n)
    check_capacity(n, k)
    if alpha is not None and alpha < 2:
        raise ValueError("cap too small for quantitative decoding (alpha must be >= 2)")


def level_params(k: int, alpha: int) -> tuple[int, int]:
    """(kappa, cap) of a "sui" or "rr" group's check; below alpha = 2 the cap never binds."""
    kappa = next_power_of_two(k)
    return kappa, (alpha - 1 if alpha >= 2 else kappa + 1)


def table_params(n: int, k: int) -> tuple[int, int, int] | None:
    """(q, d, L) of the truncated width-k table where the build rule takes it, else None."""
    q, d, points = rs_trunc_size(n, k)
    return (q, d, points) if points * q * (1 + id_bits(n)) < n else None


def _assemble(n: int, k: int, alpha: int, mode: str) -> Code:
    """The one selector family of a code, as blocks (module docstring)."""
    return _layout(table_params(n, k), n, k, alpha, mode)


def _layout(family: tuple[int, int, int] | None, n: int, k: int, alpha: int, mode: str) -> Code:
    """The code of one family (None: the n singletons; else the table's (q, d, L)) as its rule."""
    layout = Layout(family, n, k)
    return Code(LayoutQueries(layout), LayoutBlocks(layout), n, k, alpha, mode)


def build_code(n: int, k: int, alpha: int, seed: int = 0) -> Code:
    """Plain-mode code: the truncated width-k table where shorter than n, else the n singletons.

    ``seed`` changes no byte of the code: no family a code is built from
    draws anything at random.
    """
    _check_build_params(n, k, alpha)
    return _assemble(n, k, alpha, MODE_PLAIN)


def build_code_large(n: int, k: int, alpha: int, seed: int = 0) -> Code:
    """Large-k code: the plain family and layout under the ``large`` header.

    Large mode stays for the files and callers that name it.  ``seed``
    changes no byte of the code.
    """
    _check_build_params(n, k, alpha)
    return _assemble(n, k, alpha, MODE_LARGE)


def build_code_multiset(n: int, k: int, seed: int = 0) -> Code:
    """Multiset code: the n singletons, stored with alpha 0.

    Decoding assumes the readout cap is at least the total multiplicity,
    which makes every feedback value exact.  The truncated table would
    decode it too, but a stream sketch rejects deletes of absent elements
    only on a code holding every element alone (``streaming``).
    ``seed`` changes no byte of the code.
    """
    _check_build_params(n, k)
    return _layout(None, n, k, 0, MODE_MULTISET)


def build(n: int, k: int, alpha: int, mode: str = MODE_PLAIN) -> Code:
    if mode == MODE_PLAIN:
        return build_code(n, k, alpha)
    if mode == MODE_LARGE:
        return build_code_large(n, k, alpha)
    if mode == MODE_MULTISET:
        return build_code_multiset(n, k)
    raise ValueError(f"unknown build mode {mode!r}")
