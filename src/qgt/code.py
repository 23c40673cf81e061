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

The paper's selectors under interference are the n singletons at every
n a code can be built for (``sui`` module), so none is built.  Blocks of
kind "sui" and "rr" appear only in files from earlier builders; they
still load and decode, and ``qgt verify --sui`` checks them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .balanced import bit_slices, id_bits
from .model import Query, as_multiset, check_cap, check_capacity, check_universe, next_power_of_two
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
class Code:
    queries: tuple[Query, ...]
    blocks: tuple[Block, ...]
    n: int
    k: int
    alpha: int  # 0: no value is capped (multiset codes; the cap is chosen at encode time)
    mode: str

    def __len__(self) -> int:
        return len(self.queries)

    @cached_property
    def incidence(self) -> dict[int, tuple[int, ...]]:
        """element -> indices of the queries containing it (see model.incidence)."""
        return _incidence(self.queries)

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
    def base_block(self) -> dict[int, Block]:
        """base query index -> its block."""
        return {blk.base: blk for blk in self.blocks}

    @property
    def occurrence_max(self) -> int:
        inc = self.incidence
        return max((len(ix) for ix in inc.values()), default=0)

    def feedback(self, hidden, alpha: int | None = None) -> tuple[int, ...]:
        """Feedback vector via the incidence index (fast path).

        ``alpha`` defaults to the code's own cap; a code storing alpha 0
        (every multiset code) gives uncapped counts, equivalent to any
        admissible cap at or above the total multiplicity.
        """
        counts = as_multiset(hidden, self.n)
        if alpha is None:
            alpha = self.alpha or None
        if alpha is not None:
            check_cap(alpha)
        buf = [0] * len(self.queries)
        inc = self.incidence
        touched: list[int] = []
        for v, mult in counts.items():
            for idx in inc.get(v, ()):
                if buf[idx] == 0:
                    touched.append(idx)
                buf[idx] += mult
        if alpha is not None:
            for idx in touched:
                if buf[idx] > alpha:
                    buf[idx] = alpha
        return tuple(buf)


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


def _assemble(n: int, k: int, alpha: int, mode: str) -> Code:
    """The one selector family of a code, as blocks (module docstring)."""
    q, _, points = rs_trunc_size(n, k)
    if points * q * (1 + id_bits(n)) < n:
        return _layout(truncated_table(n, q, points), n, k, alpha, mode)
    return _layout(singletons(n), n, k, alpha, mode)


def _layout(family: tuple[Query, ...], n: int, k: int, alpha: int, mode: str) -> Code:
    """One "ssui" block at level k per query; bases of two or more elements carry slices."""
    width = id_bits(n)
    queries: list[Query] = []
    blocks: list[Block] = []
    for s in family:
        if len(s) > 1:
            blocks.append(Block(KIND_SSUI, k, len(queries), width))
            queries.extend(enhance(s, n))
        else:
            blocks.append(Block(KIND_SSUI, k, len(queries), 0))
            queries.append(s)
    return Code(tuple(queries), tuple(blocks), n, k, alpha, mode)


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
    return _layout(singletons(n), n, k, 0, MODE_MULTISET)


def build(n: int, k: int, alpha: int, mode: str = MODE_PLAIN) -> Code:
    if mode == MODE_PLAIN:
        return build_code(n, k, alpha)
    if mode == MODE_LARGE:
        return build_code_large(n, k, alpha)
    if mode == MODE_MULTISET:
        return build_code_multiset(n, k)
    raise ValueError(f"unknown build mode {mode!r}")
