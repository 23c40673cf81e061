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
positions the decoded elements touch.  A ``Feedback`` (what
``Code.feedback``, ``fv_from_text`` and a stream sketch hand over)
lists those positions itself, so its decode costs O(support), not
O(m).  Any other sequence is scanned once for them, the one O(m) step,
and refused as ``Feedback`` refuses it: a value that is not an int, or
is negative (``Feedback.read``).

Each query family decodes itself (``code``): ``decode_detailed`` checks
the vector's length and hands its values and nonzero positions to the
code's family.  The sweep above, ``sweep``, is the decode of the sliced
table and of listed codes; it reads the family's ``block_at``,
``holds`` and ``incidence``.  The n singletons read a vector in closed
form (``Singletons.decode``).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .balanced import decode_balanced
from .model import MODE_RANDOM, Feedback, Multiset

if TYPE_CHECKING:  # code imports this module for the families' decodes
    from .code import Code, Listed, SlicedTable


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


def decode(code: Code, fv: Sequence[int]) -> Multiset:
    return decode_detailed(code, fv)[0]


def decode_detailed(code: Code, fv: Sequence[int]) -> tuple[Multiset, DecodeStats]:
    """Decode ``fv`` by the code's family: a ``Feedback`` in O(support), another sequence after an O(m) scan."""
    if code.mode == MODE_RANDOM or not code.group_keys:
        raise DecodeError("code has no block layout; only constructed codes are decodable")
    if len(fv) != code.family.m:
        raise DecodeError(f"feedback vector length {len(fv)} != code length {code.family.m}")
    values, nonzero = Feedback.read(fv)
    return code.family.decode(code, values, nonzero)


def sweep(
    family: SlicedTable | Listed, code: Code, values: Sequence[int] | Mapping[int, int], nonzero: list[int]
) -> tuple[Multiset, DecodeStats]:
    """The block sweep to a fixed point (module docstring) over the blocks of ``code``'s family.

    ``values`` reads the value at each position, and ``nonzero`` lists
    the positions where it is not 0, ascending (``Feedback.read``).
    """
    k, alpha = code.k, code.alpha  # alpha 0: no value is capped
    stats = DecodeStats()
    acc: Multiset = {}
    acc_w: dict[int, int] = {}
    inc, block_at = family.incidence, family.block_at
    candidates = [(base, slices) for base in nonzero if (slices := block_at[base]) is not None]
    progress = True
    while progress and candidates:
        progress = False
        stats.sweeps += 1
        stats.good_checks += len(candidates)  # a sweep checks every candidate, or raises
        for base, slices in candidates:
            base_fv = values[base]
            if alpha and base_fv >= alpha:
                continue  # at the cap: the true count may be anything above it
            residue = base_fv - acc_w.get(base, 0)
            if residue < 0:
                # below the cap the value is exact, so decoded weight can
                # never legitimately exceed it
                raise DecodeError(
                    f"inconsistent feedback: over-explained query at position {base}: "
                    f"reads {base_fv}, decoded count {acc_w.get(base, 0)}"
                )
            if residue == 0:
                continue
            if slices:
                v = _read_slices(code, base, slices, values, acc_w, residue, stats)
            else:  # a base of at most one element names it
                s = family.queries[base]
                v = min(s) if len(s) == 1 else None
            if v is None or v in acc:
                continue
            if len(acc) >= k:
                raise DecodeError(f"decoded more than k={k} elements")
            acc[v] = residue
            for idx in inc[v]:
                acc_w[idx] = acc_w.get(idx, 0) + residue
            stats.decoded += 1
            progress = True
    _check_consistency(values, acc_w, nonzero, alpha)
    return dict(sorted(acc.items())), stats


def _read_slices(
    code: Code,
    base: int,
    slices: int,
    values: Sequence[int] | Mapping[int, int],
    acc_w: dict[int, int],
    residue: int,
    stats: DecodeStats,
) -> int | None:
    """Recover the single new element a good sliced block isolates, or None to skip."""
    bits_lsb_first = []
    for j in range(1, slices + 1):
        idx = base + j
        stats.slice_reads += 1
        raw = values[idx] - acc_w.get(idx, 0)
        if raw < 0:
            raise DecodeError(
                f"inconsistent feedback: over-explained slice at position {idx}: "
                f"reads {values[idx]}, decoded count {acc_w.get(idx, 0)}"
            )
        if raw == 0:
            bits_lsb_first.append(0)
        elif raw == residue:
            bits_lsb_first.append(1)
        else:
            return None  # superposition of several unknown elements
    word = tuple(reversed(bits_lsb_first))
    v = decode_balanced(word, code.n)
    return v if v is not None and code.family.holds(base, v) else None


def _check_consistency(
    values: Sequence[int] | Mapping[int, int], acc_w: dict[int, int], nonzero: list[int], alpha: int
) -> None:
    """The decoded multiset must reproduce the observed vector exactly.

    acc_w already holds the uncapped counts of the decoded multiset at
    every query it touches, each positive; everything else must read
    zero.  Only the nonzero positions are read: once each reads its
    decoded count, each is a touched position, and the multiset touches
    no other exactly when it touches as many positions as there are.
    Uncapped (alpha 0), a ``Feedback``'s entries must equal acc_w, which
    one dict comparison checks.  Only a failure looks further, for the
    first position that disagrees.
    """
    if not alpha and values == acc_w:
        return
    for idx in nonzero:
        expected = acc_w.get(idx, 0)
        if alpha and expected > alpha:
            expected = alpha
        if expected != values[idx]:
            break
    else:
        if len(acc_w) == len(nonzero):
            return

    def decoded(position: int) -> int:
        count = acc_w.get(position, 0)
        return min(count, alpha) if alpha else count

    first = min(p for p in {*nonzero, *acc_w} if decoded(p) != values[p])
    raise unexplained(first, values[first], decoded(first))


def unexplained(position: int, reads: int, decoded: int) -> DecodeError:
    return DecodeError(
        "inconsistent feedback: residual counts unexplained by decoded set: "
        f"position {position} reads {reads}, decoded count {decoded}"
    )
