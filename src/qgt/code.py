"""Group-testing code assembly: one selector family with balanced-ID slices.

A code is a flat sequence of queries plus a block layout.  Every block
is one selector query S followed by its 2*log2(n) bit slices R_1(S) ..
R_2b(S), except that a base of at most one element carries no slices: a
one-element base already names its element, and an empty one names
none.  The layout records block kind ("sui", "rr" or "ssui"), the
selector level it came from, where its base query sits and its slice
count (0 or 2*log2(n)).  The decoder needs the layout; the feedback
model does not.

Every mode is built by ``_assemble`` as one selector family at level
kappa, the next power of two of k, with the interference cap from
``level_params``:

* cap > 1 (plain and large with alpha >= 3, and every multiset code,
  whose cap kappa + 1 never binds): the (n, kappa, 1/2, kappa, cap)
  selector under interference, kind "sui";
* cap = 1 in plain mode: the Reed-Solomon strong selector
  (n, kappa, kappa, 1), kind "ssui", when its laid-out length
  q^2 * (1 + 2*log2(n)) is below n, else the n singletons, still kind
  "ssui": they are a strong selector for every width;
* cap = 1 in large mode: the chunked selector (n, kappa, 1/2, kappa, 1),
  kind "rr".

The plain rule is exact and builds nothing (``ssui.rs_size`` gives q):
if n >= 2q every table base holds two or more elements, so the table is
q^2 * (1 + 2*log2(n)) queries; if n < 2q it has q^2 > n^2/4 >= n.  The
table first wins at n = 2^15, 2^18, 2^18, 2^19, 2^21 and 2^23 for
kappa = 1, 2, 4, 8, 16 and 32.

The paper stacks levels ell = k, k/2, ... and ends with a strong
selector or chunked levels.  Here the first level already is the n
singletons whenever it is a selector under interference (see the
``sui`` module for why, at every n a code can be built for), and a
family in which every element has a query of its own isolates every
element with zero interference, so no later level could decode
anything more.  No code is longer than n: plain alpha >= 3, large and
multiset codes are exactly n queries, and a plain alpha = 2 code is the
n singletons or a shorter table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .balanced import bit_slices, id_bits
from .model import Query, as_multiset, check_cap, check_capacity, check_universe, next_power_of_two
from .model import incidence as _incidence
from .model import singletons
from .ssui import build_ssui, rs_size
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
    def base_block(self) -> dict[int, Block]:
        """base query index -> its block."""
        return {blk.base: blk for blk in self.blocks}

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


def _table_wins(n: int, kappa: int) -> bool:
    """Whether the laid-out (n, kappa, kappa, 1) Reed-Solomon table is shorter than n."""
    return rs_size(n, kappa, kappa, 1)[0] ** 2 * (1 + id_bits(n)) < n


def _assemble(n: int, k: int, alpha: int, mode: str) -> Code:
    """The one selector family of a code, as blocks (module docstring)."""
    kappa, cap = level_params(k, alpha)
    if cap > 1:
        kind, family = KIND_SUI, build_sui(n, kappa, 0.5, kappa, cap).queries
    elif mode == MODE_LARGE:
        kind, family = KIND_RR, build_sui_rr(n, kappa, 0.5, kappa, 1).queries
    elif _table_wins(n, kappa):
        kind, family = KIND_SSUI, build_ssui(n, kappa, kappa, 1).queries
    else:
        kind, family = KIND_SSUI, singletons(n)
    return _layout(family, kind, kappa, n, k, alpha, mode)


def _layout(
    family: tuple[Query, ...], kind: str, level: int, n: int, k: int, alpha: int, mode: str
) -> Code:
    """One block per query of `family`; bases of two or more elements carry slices."""
    width = id_bits(n)
    queries: list[Query] = []
    blocks: list[Block] = []
    for s in family:
        if len(s) > 1:
            blocks.append(Block(kind, level, len(queries), width))
            queries.extend(enhance(s, n))
        else:
            blocks.append(Block(kind, level, len(queries), 0))
            queries.append(s)
    return Code(tuple(queries), tuple(blocks), n, k, alpha, mode)


def build_code(n: int, k: int, alpha: int, seed: int = 0) -> Code:
    """Plain-mode code: the n singletons, or a shorter strong selector at alpha = 2.

    ``seed`` changes no byte of the code: no family a code is built from
    draws anything at random.
    """
    _check_build_params(n, k, alpha)
    return _assemble(n, k, alpha, MODE_PLAIN)


def build_code_large(n: int, k: int, alpha: int, seed: int = 0) -> Code:
    """Large-k code: the n singletons, as a selector or chunked selector level.

    ``build_code`` is never longer; large mode stays for the files and
    callers that name it.  ``seed`` changes no byte of the code.
    """
    _check_build_params(n, k, alpha)
    return _assemble(n, k, alpha, MODE_LARGE)


def build_code_multiset(n: int, k: int, seed: int = 0) -> Code:
    """Multiset code: one selector level, the n singletons.

    Decoding assumes the readout cap is at least the total multiplicity,
    which makes every feedback value exact; the selector therefore only
    needs isolation, so it is built with an interference cap that can
    never bind (alpha 0, see level_params).  ``seed`` changes no byte of
    the code.
    """
    _check_build_params(n, k)
    return _assemble(n, k, 0, MODE_MULTISET)


def build(n: int, k: int, alpha: int, mode: str = MODE_PLAIN) -> Code:
    if mode == MODE_PLAIN:
        return build_code(n, k, alpha)
    if mode == MODE_LARGE:
        return build_code_large(n, k, alpha)
    if mode == MODE_MULTISET:
        return build_code_multiset(n, k)
    raise ValueError(f"unknown build mode {mode!r}")
