"""Group-testing code assembly: layered selector families with balanced-ID slices.

A code is a flat sequence of queries plus a block layout.  Every block
is one selector query S followed by its 2*log2(n) bit slices R_1(S) ..
R_2b(S); the layout records block kind ("sui", "rr" or "ssui"), the
selector level it came from, and where its base query sits.  The
decoder needs the layout; the feedback model does not.

Assembly for a capacity-k, cap-alpha code (plain mode): selector levels
for ell = k, k/2, ... while ell > k/(alpha-1), each an
(n, ell, 1/2, k, alpha-1) selector under interference, then a terminal
strong selector sized to the level where the loop stopped.  The large-k
mode replaces the terminal strong selector with chunked selector levels
down to ell = 1, and the multiset mode runs plain selector levels all
the way down to 1 with an interference cap that never binds.

Levels whose query family repeats the previous level verbatim are
emitted once: re-running an identical family under fixed-point decoding
can never decode anything new, and at small n many levels collapse to
the same singleton family.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from math import log2

from .balanced import bit_slices, id_bits
from .model import Query, as_multiset, check_cap, check_capacity, check_universe, next_power_of_two
from .model import incidence as _incidence
from .ssui import build_ssui
from .sui import build_sui, build_sui_rr

KIND_SUI = "sui"
KIND_RR = "rr"
KIND_SSUI = "ssui"

MODE_PLAIN = "plain"
MODE_LARGE = "large"
MODE_MULTISET = "multiset"
MODE_RANDOM = "random"


@dataclass(frozen=True)
class Block:
    """One enhanced selector query: base at `base`, slices at base+1 .. base+slices."""

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


class _Assembler:
    def __init__(self, n: int) -> None:
        self.n = n
        self.width = id_bits(n)
        self.queries: list[Query] = []
        self.blocks: list[Block] = []
        self._previous: tuple[Query, ...] | None = None

    def add_level(self, kind: str, level: int, family: tuple[Query, ...]) -> None:
        if self._previous is not None and family == self._previous:
            return  # identical family: a repeat decodes nothing new
        self._previous = family
        for s in family:
            base = len(self.queries)
            self.queries.extend(enhance(s, self.n))
            self.blocks.append(Block(kind, level, base, self.width))

    def finish(self, n: int, k: int, alpha: int, mode: str) -> Code:
        return Code(tuple(self.queries), tuple(self.blocks), n, k, alpha, mode)


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


def _level_seed(seed: int, index: int) -> int:
    return seed * 1009 + index


def build_code(n: int, k: int, alpha: int, seed: int = 0) -> Code:
    """Plain-mode code: interference-selector levels plus a terminal strong selector."""
    _check_build_params(n, k, alpha)
    k_pow, cap = level_params(k, alpha)
    asm = _Assembler(n)
    ell = k_pow
    index = 0
    while ell * cap > k_pow:  # ell > k_pow/cap, exactly
        fam = build_sui(n, ell, 0.5, k_pow, cap, seed=_level_seed(seed, index))
        asm.add_level(KIND_SUI, ell, fam.queries)
        ell //= 2
        index += 1
    terminal = max(1, ell)
    fam = build_ssui(n, terminal, k_pow, cap)
    asm.add_level(KIND_SSUI, terminal, fam.queries)
    return asm.finish(n, k, alpha, MODE_PLAIN)


def build_code_large(n: int, k: int, alpha: int, seed: int = 0) -> Code:
    """Large-k code: selector levels all the way down, chunked below the switch level.

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
    k_pow, cap = level_params(k, alpha)
    # switch = largest power of two at most k_pow/cap (0 when none exists);
    # interference-selector levels above it, chunked levels at or below
    if cap > k_pow:
        switch = 0
    else:
        switch = 1
        while switch * 2 * cap <= k_pow:
            switch *= 2
    asm = _Assembler(n)
    ell = k_pow
    index = 0
    while ell >= 1:
        if ell > switch:
            fam = build_sui(n, ell, 0.5, k_pow, cap, seed=_level_seed(seed, index))
            asm.add_level(KIND_SUI, ell, fam.queries)
        else:
            fam = build_sui_rr(n, ell, 0.5, k_pow, cap, seed=_level_seed(seed, index))
            asm.add_level(KIND_RR, ell, fam.queries)
        ell //= 2
        index += 1
    return asm.finish(n, k, alpha, MODE_LARGE)


def build_code_multiset(n: int, k: int, seed: int = 0) -> Code:
    """Multiset code: selector levels down to 1, no terminal strong selector.

    Decoding assumes the readout cap is at least the total multiplicity,
    which makes every feedback value exact; the selectors therefore only
    need isolation, so they are built with an interference cap that can
    never bind.
    """
    _check_build_params(n, k)
    k_pow, no_cap = level_params(k, 0)
    asm = _Assembler(n)
    ell = k_pow
    index = 0
    while ell >= 1:
        fam = build_sui(n, ell, 0.5, k_pow, no_cap, seed=_level_seed(seed, index))
        asm.add_level(KIND_SUI, ell, fam.queries)
        ell //= 2
        index += 1
    return asm.finish(n, k, 0, MODE_MULTISET)


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
