"""Group-testing code assembly: layered selector families with balanced-ID slices.

A code is a flat sequence of queries plus a block layout.  Every block
is one selector query S followed by its 2*log2(n) bit slices R_1(S) ..
R_2b(S), except that a base of at most one element carries no slices: a
one-element base already names its element, and an empty one names
none.  The layout records block kind ("sui", "rr" or "ssui"), the
selector level it came from, where its base query sits and its slice
count (0 or 2*log2(n)).  The decoder needs the layout; the feedback
model does not.

Every mode is built by one level loop, ``_assemble``.  With kappa the
next power of two of k and cap the interference cap (``level_params``),
selector levels run at ell = kappa, kappa/2, ... while ell >= 1 and
ell*cap > kappa, each an (n, ell, 1/2, kappa, cap) selector under
interference.  The modes differ only in what follows:

* plain adds one Reed-Solomon strong selector at level max(1, ell),
  sized to where the loop stopped;
* large adds chunked selector levels for the remaining ell down to 1;
* multiset adds nothing: its cap kappa + 1 never binds, so the loop
  itself already ran down to ell = 1.

Large mode needs no separate switch level.  Every ell is a power of
two, so ell*cap > kappa holds exactly above the largest power of two at
most kappa/cap, which is where chunked levels begin; when cap > kappa no
such power exists and every level is a plain selector level.  Selector
and chunked levels are seeded seed*1009 + index, counted across both.

Assembly stops after the first family in which every element has a
query of its own (at every n this package builds, the first selector
level is the n singletons).  That family isolates every element with
zero interference, so no later level, strong selector or chunked level
could decode anything more; plain alpha >= 3, large and multiset codes
are then exactly n queries.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from math import log2

from .balanced import bit_slices, id_bits
from .model import Query, as_multiset, check_cap, check_capacity, check_universe, next_power_of_two
from .model import incidence as _incidence
from .ssui import SSuIFamily, build_ssui
from .sui import SuIFamily, build_sui, build_sui_rr

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
    alpha: int  # 0 for multiset codes: the cap is chosen at encode time
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
    def base_to_group(self) -> dict[int, tuple[int, Block]]:
        """base query index -> (group index, block)."""
        out: dict[int, tuple[int, Block]] = {}
        for gi, group in enumerate(self.block_groups):
            for blk in group:
                out[blk.base] = (gi, blk)
        return out

    @property
    def occurrence_max(self) -> int:
        inc = self.incidence
        return max((len(ix) for ix in inc.values()), default=0)

    def feedback(self, hidden, alpha: int | None = None) -> tuple[int, ...]:
        """Feedback vector via the incidence index (fast path).

        ``alpha`` defaults to the code's own cap; pass None explicitly on
        multiset codes for uncapped counts (equivalent to any admissible
        cap at or above the total multiplicity).
        """
        counts = as_multiset(hidden, self.n)
        if alpha is None and self.mode != MODE_MULTISET:
            alpha = self.alpha
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
    """(kappa, cap) of a code's selector levels.

    kappa = next_power_of_two(k).  The interference cap is alpha - 1;
    below alpha = 2 (multiset codes store alpha 0) it is kappa + 1, a cap
    that can never bind.
    """
    kappa = next_power_of_two(k)
    return kappa, (alpha - 1 if alpha >= 2 else kappa + 1)


def _assemble(n: int, k: int, alpha: int, mode: str, seed: int) -> Code:
    """The level loop every mode shares, then the mode's tail (module docstring)."""
    kappa, cap = level_params(k, alpha)
    width = id_bits(n)
    queries: list[Query] = []
    blocks: list[Block] = []

    def emit(kind: str, level: int, family: SSuIFamily | SuIFamily) -> bool:
        """Append the family's blocks; True once every element has a query of its own."""
        alone: set[int] = set()
        for s in family.queries:
            if len(s) > 1:
                blocks.append(Block(kind, level, len(queries), width))
                queries.extend(enhance(s, n))
            else:
                blocks.append(Block(kind, level, len(queries), 0))
                queries.append(s)
                alone.update(s)
        return len(alone) == n

    ell, index = kappa, 0
    while ell >= 1 and ell * cap > kappa:  # ell > kappa/cap, exactly
        if emit(KIND_SUI, ell, build_sui(n, ell, 0.5, kappa, cap, seed=seed * 1009 + index)):
            return Code(tuple(queries), tuple(blocks), n, k, alpha, mode)
        ell, index = ell // 2, index + 1
    if mode == MODE_PLAIN:
        emit(KIND_SSUI, max(1, ell), build_ssui(n, max(1, ell), kappa, cap))
    elif mode == MODE_LARGE:
        while ell >= 1:
            if emit(KIND_RR, ell, build_sui_rr(n, ell, 0.5, kappa, cap, seed=seed * 1009 + index)):
                break
            ell, index = ell // 2, index + 1
    return Code(tuple(queries), tuple(blocks), n, k, alpha, mode)


def build_code(n: int, k: int, alpha: int, seed: int = 0) -> Code:
    """Plain-mode code: selector levels plus a terminal strong selector."""
    _check_build_params(n, k, alpha)
    return _assemble(n, k, alpha, MODE_PLAIN, seed)


def build_code_large(n: int, k: int, alpha: int, seed: int = 0) -> Code:
    """Large-k code: selector levels, then chunked selector levels down to 1.

    Intended for (k/alpha)^2 > n/alpha; outside that regime the plain
    construction is usually shorter, so a warning is emitted (the build
    still proceeds).
    """
    _check_build_params(n, k, alpha)
    if (k / alpha) ** 2 <= n / alpha:
        warnings.warn(
            f"large-k mode outside its intended regime: (k/alpha)^2 = {(k / alpha) ** 2:.3g} "
            f"<= n/alpha = {n / alpha:.3g}",
            stacklevel=2,
        )
    return _assemble(n, k, alpha, MODE_LARGE, seed)


def build_code_multiset(n: int, k: int, seed: int = 0) -> Code:
    """Multiset code: selector levels down to 1 (or to a full singleton level), no tail.

    Decoding assumes the readout cap is at least the total multiplicity,
    which makes every feedback value exact; the selectors therefore only
    need isolation, so they are built with an interference cap that can
    never bind (alpha 0, see level_params).
    """
    _check_build_params(n, k)
    return _assemble(n, k, 0, MODE_MULTISET, seed)


def choose_mode(n: int, k: int, alpha: int) -> str:
    """Pick plain vs large-k assembly by comparing their dominant length terms."""
    plain_proxy = (k / alpha) ** 2 * log2(n) ** 3
    large_proxy = (n / alpha) * log2(n) ** 4
    return MODE_PLAIN if plain_proxy <= large_proxy else MODE_LARGE


def build(n: int, k: int, alpha: int, mode: str = "auto") -> Code:
    if mode == "auto":
        mode = choose_mode(n, k, alpha)
    if mode == MODE_PLAIN:
        return build_code(n, k, alpha)
    if mode == MODE_LARGE:
        return build_code_large(n, k, alpha)
    if mode == MODE_MULTISET:
        return build_code_multiset(n, k)
    raise ValueError(f"unknown build mode {mode!r}")
