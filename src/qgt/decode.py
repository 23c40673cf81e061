"""Reconstruction of the hidden multiset from a feedback vector.

The decoder sweeps every block whose base feedback is nonzero, in code
order, until a sweep yields no new element (a fixed point; a counted
loop would presume the hidden set is full-size).  A block fires only
when its base holds exactly one unknown element, so every firing is
correct whatever fired before it, and one fixed point over all blocks
decodes everything a walk level by level would, and more.

One rule decodes every mode.  A block is *good* when its base value is
trusted (below ``code.alpha``, or any value when alpha is 0, as on
multiset codes), its residue r beyond the decoded weight inside the
base is positive, and every slice residue is 0 or r.  The slices then
spell r times the balanced identifier of one new element, decoded with
multiplicity r; a block with no slices has a base of at most one
element, which names that element directly.  On a set input a trusted
base holding r >= 2 unknown elements never fires: two of them differ in
some identifier bit, so some slice residue lies strictly between 0 and
r.  Bad identifier weight, an element outside the base or one already
decoded skip the block for this sweep.  A (k+1)-th distinct element
raises.

At the fixed point the decoder re-encodes its answer, capped at a
nonzero ``code.alpha``, and raises on any mismatch with the input: it
returns at most k distinct elements that reproduce the vector exactly,
or raises.  Only blocks with a nonzero base value can fire, so each
sweep visits the few touched blocks, not the whole code.

The decoder reads the vector only at its nonzero positions and at the
positions the decoded elements touch.  On a dense vector the scan for
the nonzero positions is the one O(m) step; a caller that already
tracks them (a stream sketch) passes them as ``nonzero`` and skips it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .balanced import decode_balanced
from .code import MODE_RANDOM, Block, Code
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


def decode(code: Code, fv: tuple[int, ...] | list[int], *, nonzero: list[int] | None = None) -> Multiset:
    result, _ = decode_detailed(code, fv, nonzero=nonzero)
    return result


def decode_detailed(
    code: Code, fv: tuple[int, ...] | list[int], *, nonzero: list[int] | None = None
) -> tuple[Multiset, DecodeStats]:
    """Decode ``fv``; ``nonzero``, when given, lists its nonzero positions ascending.

    Positions left out of ``nonzero`` are read as zero, so the caller
    vouches that it names every nonzero entry; each listed position is
    checked (in range, ascending, reads nonzero) in O(len(nonzero)).
    Without it the decoder scans all of ``fv`` for them.
    """
    if code.mode == MODE_RANDOM or not code.blocks:
        raise DecodeError("code has no block layout; only constructed codes are decodable")
    if len(fv) != len(code.queries):
        raise DecodeError(f"feedback vector length {len(fv)} != code length {len(code.queries)}")
    alpha = code.alpha  # 0: no value is capped
    stats = DecodeStats()
    acc: Multiset = {}
    acc_w: dict[int, int] = {}
    inc = code.incidence
    if nonzero is None:
        nonzero = list(itertools.compress(range(len(fv)), fv))
    else:
        _check_nonzero(fv, nonzero)
    block_at, sole_elements = code.block_at, code.sole_elements
    candidates = [blk for idx in nonzero if (blk := block_at[idx]) is not None]
    progress = True
    while progress and candidates:
        progress = False
        stats.sweeps += 1
        for blk in candidates:
            stats.good_checks += 1
            base_fv = fv[blk.base]
            if alpha and base_fv >= alpha:
                continue  # at the cap: the true count may be anything above it
            residue = base_fv - acc_w.get(blk.base, 0)
            if residue < 0:
                # below the cap the value is exact, so decoded weight can
                # never legitimately exceed it
                raise DecodeError("inconsistent feedback: over-explained query")
            if residue == 0:
                continue
            if blk.slices:
                v = _read_slices(code, blk, fv, acc_w, residue, stats)
            else:  # a base of at most one element names it
                v = sole_elements[blk.base]
            if v is None or v in acc:
                continue
            if len(acc) >= code.k:
                raise DecodeError(f"decoded more than k={code.k} elements")
            acc[v] = residue
            for idx in inc[v]:
                acc_w[idx] = acc_w.get(idx, 0) + residue
            stats.decoded += 1
            progress = True
    _check_consistency(fv, acc_w, nonzero, alpha)
    return dict(sorted(acc.items())), stats


def _read_slices(
    code: Code,
    blk: Block,
    fv: tuple[int, ...] | list[int],
    acc_w: dict[int, int],
    residue: int,
    stats: DecodeStats,
) -> int | None:
    """Recover the single new element a good sliced block isolates, or None to skip."""
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
    if not code.query_holds(blk.base, v):
        return None
    return v


def _check_nonzero(fv: tuple[int, ...] | list[int], nonzero: list[int]) -> None:
    """A caller's nonzero positions must be ascending, in range and read nonzero."""
    prev = -1
    for idx in nonzero:
        if not prev < idx < len(fv) or not fv[idx]:
            raise DecodeError(
                f"nonzero positions must ascend within [0, {len(fv)}) and read nonzero; got {idx}"
            )
        prev = idx


def _check_consistency(
    fv: tuple[int, ...] | list[int], acc_w: dict[int, int], nonzero: list[int], alpha: int
) -> None:
    """The decoded multiset must reproduce the observed vector exactly.

    acc_w already holds the uncapped counts of the decoded multiset at
    every query it touches, each positive; everything else must read
    zero.  Only the nonzero positions are read: once each reads its
    decoded count, each is a touched position, and the multiset touches
    no other exactly when it touches as many positions as there are.
    """
    for idx in nonzero:
        expected = acc_w.get(idx, 0)
        if alpha and expected > alpha:
            expected = alpha
        if expected != fv[idx]:
            raise DecodeError("inconsistent feedback: residual counts unexplained by decoded set")
    if len(acc_w) != len(nonzero):
        raise DecodeError("inconsistent feedback: residual counts unexplained by decoded set")
