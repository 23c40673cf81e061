"""Reconstruction of the hidden multiset from a feedback vector.

The decoder sweeps every block whose base feedback is nonzero, in code
order, until a sweep yields no new element (a fixed point; a counted
loop would presume the hidden set is full-size).  A block fires only
when its base holds exactly one unknown element, so every firing is
correct whatever fired before it, and one fixed point over all blocks
decodes everything a walk level by level would, and more.

One rule decodes every mode.  A block is *good* when its base value is
trusted (below the cap, the code's alpha, or any value when alpha is 0,
as on multiset codes), its residue r beyond the decoded weight inside
the base is positive, and every slice residue is 0 or r.  The slices
then spell r times the balanced identifier of one new element, decoded
with multiplicity r; a block with no slices has a base of at most one
element, which names that element directly.  On a set input a trusted
base holding r >= 2 unknown elements never fires: two of them differ in
some identifier bit, so some slice residue lies strictly between 0 and
r.  Bad identifier weight, an element outside the base or one already
decoded skip the block for this sweep.  A (k+1)-th distinct element
raises.

At the fixed point the decoder re-encodes its answer, capped at a
nonzero cap, and raises on any mismatch with the input: it returns at
most k distinct elements that reproduce the vector exactly, or raises.
Only blocks with a nonzero base value can fire, so each sweep visits
the few touched blocks, not the whole code.

The decoder reads the vector only at its nonzero positions and at the
positions the decoded elements touch.  A ``Feedback`` (what
``Code.feedback``, ``fv_from_text`` and a stream sketch hand over)
lists those positions itself, so its decode costs O(support), not
O(m).  Any other sequence is scanned once for them, the one O(m) step,
and decoded as the ``Feedback`` of its nonzero entries (``Feedback.of``):
a value equal to 0 reads as 0, and any other value that is not a
positive int is refused as ``Feedback`` refuses it, by its position.

Each query family decodes itself (``code``): ``decode_detailed`` checks
the vector's length and hands the family its entries, the code's n, k
and cap, ``family.decode(entries, n, k, cap)``; no family reads the
``Code``, the decoder reads no mode, and this is the one decoder line
that reads the cap.  The sweep above, ``sweep``, is the decode of the
sliced table and of listed codes; it reads the family's ``block_at``,
``holds`` and ``incidence``, and a listed code without blocks (every
random code) refuses first.  The n singletons read a vector in closed
form (``Singletons.decode``).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .balanced import decode_balanced
from .model import Feedback, Multiset

if TYPE_CHECKING:  # code imports this module for the families' decodes
    from .code import Code, Listed, SlicedTable


class DecodeError(ValueError):
    pass


NO_LAYOUT = "code has no block layout; only constructed codes are decodable"


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
    if len(fv) != code.family.m:
        raise DecodeError(f"feedback vector length {len(fv)} != code length {code.family.m}")
    return code.family.decode(Feedback.of(fv).entries, code.n, code.k, code.alpha)


def sweep(
    family: SlicedTable | Listed, entries: Mapping[int, int], n: int, k: int, cap: int
) -> tuple[Multiset, DecodeStats]:
    """The block sweep to a fixed point (module docstring) over the blocks of ``family``.

    ``entries`` maps each nonzero position of the vector to its value
    (``Feedback.entries``); ``cap`` 0 caps no value.
    """
    stats = DecodeStats()
    acc: Multiset = {}
    acc_w: dict[int, int] = {}
    inc, block_at = family.incidence, family.block_at
    candidates = sorted(
        (base, base_fv, slices) for base, base_fv in entries.items() if (slices := block_at[base]) is not None
    )
    progress = True
    while progress and candidates:
        progress = False
        stats.sweeps += 1
        stats.good_checks += len(candidates)  # a sweep checks every candidate, or raises
        for base, base_fv, slices in candidates:
            if cap and base_fv >= cap:
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
                v = _read_slices(family, n, base, slices, entries, acc_w, residue, stats)
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
    _check_consistency(entries, acc_w, cap)
    return dict(sorted(acc.items())), stats


def _read_slices(
    family: SlicedTable | Listed,
    n: int,
    base: int,
    slices: int,
    entries: Mapping[int, int],
    acc_w: dict[int, int],
    residue: int,
    stats: DecodeStats,
) -> int | None:
    """Recover the single new element a good sliced block isolates, or None to skip."""
    bits_lsb_first = []
    for j in range(1, slices + 1):
        idx = base + j
        stats.slice_reads += 1
        raw = entries.get(idx, 0) - acc_w.get(idx, 0)
        if raw < 0:
            raise DecodeError(
                f"inconsistent feedback: over-explained slice at position {idx}: "
                f"reads {entries.get(idx, 0)}, decoded count {acc_w.get(idx, 0)}"
            )
        if raw == 0:
            bits_lsb_first.append(0)
        elif raw == residue:
            bits_lsb_first.append(1)
        else:
            return None  # superposition of several unknown elements
    word = tuple(reversed(bits_lsb_first))
    v = decode_balanced(word, n)
    return v if v is not None and family.holds(base, v) else None


def _check_consistency(entries: Mapping[int, int], acc_w: dict[int, int], cap: int) -> None:
    """The decoded multiset must reproduce the observed vector exactly.

    acc_w already holds the uncapped counts of the decoded multiset at
    every query it touches, each positive; everything else must read
    zero.  Only the nonzero positions are read: once each reads its
    decoded count, each is a touched position, and the multiset touches
    no other exactly when it touches as many positions as there are.
    Where no decoded count exceeds the cap (every count, at cap 0), the
    entries must equal acc_w, which one dict comparison checks.  Only a
    failure looks further, for the first position that disagrees.
    """
    if entries == acc_w and (not cap or max(acc_w.values(), default=0) <= cap):
        return
    for idx, value in entries.items():
        expected = acc_w.get(idx, 0)
        if cap and expected > cap:
            expected = cap
        if expected != value:
            break
    else:
        if len(acc_w) == len(entries):
            return

    def decoded(position: int) -> int:
        count = acc_w.get(position, 0)
        return min(count, cap) if cap else count

    first = min(p for p in {*entries, *acc_w} if decoded(p) != entries.get(p, 0))
    raise unexplained(first, entries.get(first, 0), decoded(first))


def unexplained(position: int, reads: int, decoded: int) -> DecodeError:
    return DecodeError(
        "inconsistent feedback: residual counts unexplained by decoded set: "
        f"position {position} reads {reads}, decoded count {decoded}"
    )
