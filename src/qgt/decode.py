"""Reconstruction of the hidden multiset from a feedback vector.

The decoder sweeps every block whose base feedback is nonzero, in
code order, until a sweep yields no new element (a fixed point); a
counted loop would presume the hidden set is full-size.  There is no
walk level by level: a block fires only when its base holds exactly one
unknown element, so every firing is correct whatever fired before it,
and one fixed point over all blocks decodes everything a fixed point per
level would, and possibly more.

A block is *good* when its base feedback is trusted and accounts for
exactly one unit beyond the already-decoded elements inside it.  In
plain mode "trusted" means strictly below the cap (a capped value could
hide anything) and the unexplained residue must be exactly 1.  In
multiset mode the readout cap is required to be at least the total
multiplicity, which makes every value exact, so the residue r may be
any positive count: the slice residues of a good block are then r times
the balanced identifier of a single new element, recovered with its
full multiplicity at once.  Slice residues outside {0, r}, bad identifier
weight, an element outside the base query, or an element already decoded
all invalidate the block for this sweep; it is skipped, not fatal.  A
block with no slices has a base of at most one element, so a good one
yields that element directly (an empty base never has a residue).

At the fixed point the decoder re-encodes its answer and compares
against the input; any mismatch raises, so an unexplained feedback
vector fails loudly rather than returning a wrong multiset.

Only blocks whose base feedback is nonzero can ever fire, so each
sweep visits the (few) touched blocks rather than the whole code.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .balanced import decode_balanced
from .code import MODE_MULTISET, MODE_RANDOM, Block, Code
from .model import Multiset


class DecodeError(ValueError):
    pass


@dataclass
class DecodeStats:
    sweeps: int = 0
    good_checks: int = 0
    slice_reads: int = 0
    decoded: int = 0

    @property
    def operations(self) -> int:
        return self.good_checks + self.slice_reads


def decode(code: Code, fv: tuple[int, ...] | list[int]) -> Multiset:
    result, _ = decode_detailed(code, fv)
    return result


def decode_detailed(code: Code, fv: tuple[int, ...] | list[int]) -> tuple[Multiset, DecodeStats]:
    if code.mode == MODE_RANDOM or not code.blocks:
        raise DecodeError("code has no block layout; only constructed codes are decodable")
    if len(fv) != len(code.queries):
        raise DecodeError(f"feedback vector length {len(fv)} != code length {len(code.queries)}")
    multiset_mode = code.mode == MODE_MULTISET
    alpha = code.alpha
    stats = DecodeStats()
    acc: Multiset = {}
    acc_w: dict[int, int] = {}
    inc = code.incidence
    nonzero = list(itertools.compress(range(len(fv)), fv))
    base_block = code.base_block
    candidates = [base_block[idx] for idx in nonzero if idx in base_block]
    progress = True
    while progress and candidates:
        progress = False
        stats.sweeps += 1
        for blk in candidates:
            stats.good_checks += 1
            base_fv = fv[blk.base]
            if not multiset_mode and base_fv >= alpha:
                continue  # at the cap: the true count may be anything above it
            residue = base_fv - acc_w.get(blk.base, 0)
            if residue < 0:
                # below the cap the value is exact, so decoded weight can
                # never legitimately exceed it
                raise DecodeError("inconsistent feedback: over-explained query")
            if residue == 0:
                continue
            if not multiset_mode and residue != 1:
                continue
            v = _read_block(code, blk, fv, acc_w, residue, stats)
            if v is None or v in acc:
                continue
            if not multiset_mode and len(acc) >= code.k:
                raise DecodeError(f"decoded more than k={code.k} elements")
            acc[v] = residue
            for idx in inc[v]:
                acc_w[idx] = acc_w.get(idx, 0) + residue
            stats.decoded += 1
            progress = True
    _check_consistency(code, fv, acc, acc_w, nonzero)
    return dict(sorted(acc.items())), stats


def _read_block(
    code: Code,
    blk: Block,
    fv: tuple[int, ...] | list[int],
    acc_w: dict[int, int],
    residue: int,
    stats: DecodeStats,
) -> int | None:
    """Recover the single new element a good block isolates, or None to skip."""
    if not blk.slices:
        base = code.queries[blk.base]
        return next(iter(base)) if len(base) == 1 else None
    bits_lsb_first = []
    for j in range(1, blk.slices + 1):
        idx = blk.base + j
        stats.slice_reads += 1
        raw = fv[idx] - acc_w.get(idx, 0)
        if raw < 0:
            raise DecodeError("inconsistent feedback: over-explained slice")
        if raw == 0:
            bits_lsb_first.append(0)
        elif raw == residue:
            bits_lsb_first.append(1)
        else:
            return None  # superposition of several unknown elements
    word = tuple(reversed(bits_lsb_first))
    v = decode_balanced(word, code.n)
    if v is None:
        return None
    if v not in code.queries[blk.base]:
        return None
    return v


def _check_consistency(
    code: Code,
    fv: tuple[int, ...] | list[int],
    acc: Multiset,
    acc_w: dict[int, int],
    nonzero: list[int],
) -> None:
    """The decoded multiset must reproduce the observed vector exactly.

    acc_w already holds the uncapped counts of the decoded multiset at
    every query it touches; everything else must read zero.  Positions
    are checked sparsely: the observed nonzero positions, plus every
    position the decoded multiset touches.
    """
    capped = code.mode != MODE_MULTISET
    alpha = code.alpha
    for idx in nonzero:
        expected = acc_w.get(idx, 0)
        if capped and expected > alpha:
            expected = alpha
        if expected != fv[idx]:
            raise DecodeError("inconsistent feedback: residual counts unexplained by decoded set")
    for idx, w in acc_w.items():
        if w > 0 and fv[idx] == 0:
            raise DecodeError("inconsistent feedback: residual counts unexplained by decoded set")
