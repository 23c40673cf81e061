"""Reconstruction of the hidden multiset from a feedback vector.

The decoder sweeps every block whose base feedback is nonzero, in code
order, until a sweep yields no new element (a fixed point; a counted
loop would presume the hidden set is full-size).  A block fires only
when its base holds exactly one unknown element, so every firing is
correct whatever fired before it, and one fixed point over all blocks
decodes everything a walk level by level would, and more.  Only blocks
with a nonzero base value can fire, so each sweep visits the few
touched blocks, not the whole code.

One rule decodes every mode.  A block is *good* when its base value is
trusted (below the cap, the code's alpha, or any value when alpha is 0,
as on multiset codes), its residue r beyond the decoded weight inside
the base is positive, and each of its last log2(n) slices, which hold
the plain bits of v-1 (``balanced``), has residue 0 or r.  Those slices
then spell r times the bits of v-1 for one new element v, decoded with
multiplicity r when the base lies in v's incidence; a block with no
slices has a base of at most one element, which names that element
directly.  A trusted base holding two or more unknown elements never
fires: two of them differ in some bit of v-1, so that bit's slice
residue lies strictly between 0 and r.  The complement slices say
nothing more (each reads r minus its plain bit's slice), so they are
not read.  A negative residue, an element outside the base or one
already decoded skip the block for this sweep, and a block with fewer
than log2(n) slices (only a hand-built listed code has one) is never
read.  A (k+1)-th distinct element ends the sweep.

Families propose; ``decode_detailed`` refuses.  A family's decode
raises nothing about the vector.  It returns its proposal, the proposal's
uncapped counts at every position it touches (the sweep's running
weights; on the singletons, the trusted entries) and its stats.
``decode_detailed`` is the one place a vector is refused; it checks, in
this order, that
1. its length is the code's;
2. the proposal has at most k elements;
3. the proposal's counts, capped at a nonzero cap, equal the entries
   (one dict comparison, as both hold only positive values; a refusal
   names the first position that disagrees).
So the decoder returns at most k distinct elements that reproduce the
vector exactly, or raises.  A negative residue, at a base or at a slice,
comes only from a value below the cap that the proposal over-explains
(a slice's elements lie in its base, which reads below the cap), and
the counts only grow, so check 3 refuses every such vector.

Why this leaves no wrong answer.  The paper counts a code correct when
its capped vectors tell apart any two different sets of at most k
elements, which the oracles (``bounds``) check.  On such a code a set of
at most k elements that reproduces the vector is the hidden set, so
checks 2 and 3 refuse every wrong set.  A wrong multiplicity is the one
way past them: at the cap a count may be anything at or above it, and a
smaller one re-encodes to the same capped vector.  So each family keeps
one duty that no check here sees: it reads a multiplicity only where the
value is below the cap, where it is exact.  Both families keep it (the
sweep skips a base at the cap; the singletons read nothing there), and
``tests/test_decode_properties.py`` and, on two built tables,
``tests/test_decode.py::test_a_base_at_the_cap_is_never_read`` pin it;
a check at run time would need each element's positions, which the
singletons never keep.
``bounds.verify_decoding`` checks that every valid input decodes to
itself but cannot pin this duty: a decoder that reads at the cap still
passes it, since on a valid set the plain bits keep a capped base of
two or more unknown elements from firing, so only arbitrary vectors
show such a read.
Multisets need one more condition: the readout cap must reach the
decoder.  A multiset code stores cap 0 and so trusts every value, and a
count read at a smaller readout cap is taken as exact (the strict xfail
``test_an_at_cap_multiset_count_is_refused``).

The decoder reads the vector only at its nonzero positions and at the
positions the decoded elements touch.  A ``Feedback`` (what
``Code.feedback``, ``fv_from_text`` and a stream sketch hand over)
lists those positions itself, so its decode costs O(support), not
O(m).  Any other sequence is scanned once for them, the one O(m) step,
and decoded as the ``Feedback`` of its nonzero entries (``Feedback.of``):
a value equal to 0 reads as 0, and any other value that is not a
positive int is refused as ``Feedback`` refuses it, by its position.

Each query family proposes for itself (``code``): ``decode_detailed``
hands the family the vector's entries and the code's n, k and cap,
``family.decode(entries, n, k, cap)``; no family reads the ``Code``,
the decoder reads no mode, and only ``decode_detailed`` reads the cap
off the code.  The sweep above, ``sweep``, is the proposal of the
sliced table and of listed codes; it reads the family's ``block_at``
and ``incidence``, and the base query only at a block with no slices.
A listed code without blocks (every random code) is refused first, a
refusal of the code, not of a vector.  The n singletons propose in
closed form (``Singletons.decode``).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

# decode_balanced is not called here; perfbench/tracer.py wraps it as a qgt.decode global.
from .balanced import decode_balanced as decode_balanced
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


# What a family's decode returns: the proposal, its uncapped counts at every position it touches, the stats.
Proposal = tuple[Multiset, Mapping[int, int], DecodeStats]


def decode(code: Code, fv: Sequence[int]) -> Multiset:
    return decode_detailed(code, fv)[0]


def decode_detailed(code: Code, fv: Sequence[int]) -> tuple[Multiset, DecodeStats]:
    """Decode ``fv`` by the code's family: a ``Feedback`` in O(support), another sequence after an O(m) scan.

    The one place a vector is refused (module docstring): its length,
    then the family's proposal, by its size and by what it re-encodes to.
    """
    if len(fv) != code.family.m:
        raise DecodeError(f"feedback vector length {len(fv)} != code length {code.family.m}")
    entries = Feedback.of(fv).entries
    found, counts, stats = code.family.decode(entries, code.n, code.k, code.alpha)
    if len(found) > code.k:
        raise DecodeError(f"decoded more than k={code.k} elements")
    cap = code.alpha
    if cap and counts and max(counts.values()) > cap:
        counts = {idx: min(count, cap) for idx, count in counts.items()}
    # Both maps hold only positive values, so they are equal exactly when every position agrees.
    if counts is not entries and counts != entries:
        first = min(p for p in {*entries, *counts} if counts.get(p, 0) != entries.get(p, 0))
        raise DecodeError(
            "inconsistent feedback: residual counts unexplained by decoded set: "
            f"position {first} reads {entries.get(first, 0)}, decoded count {counts.get(first, 0)}"
        )
    return found, stats


def sweep(family: SlicedTable | Listed, entries: Mapping[int, int], n: int, k: int, cap: int) -> Proposal:
    """The block sweep to a fixed point (module docstring) over the blocks of ``family``.

    ``entries`` maps each nonzero position of the vector to its value
    (``Feedback.entries``); ``cap`` 0 caps no value.  It stops at a
    (k+1)-th element.
    """
    stats = DecodeStats()
    acc: Multiset = {}
    acc_w: dict[int, int] = {}
    inc, block_at = family.incidence, family.block_at
    bits = n.bit_length() - 1
    candidates = sorted(
        (base, base_fv, slices) for base, base_fv in entries.items() if (slices := block_at[base]) is not None
    )
    progress = True
    while progress and candidates:
        progress = False
        stats.sweeps += 1
        stats.good_checks += len(candidates)  # a sweep checks every candidate, or stops at a (k+1)-th element
        for base, base_fv, slices in candidates:
            if cap and base_fv >= cap:
                continue  # at the cap: the true count may be anything above it
            residue = base_fv - acc_w.get(base, 0)
            if residue <= 0:
                continue  # explained, or over-explained, which the consistency check refuses
            if slices >= bits:  # the last log2(n) slices hold the plain bits of v-1
                v = _read_plain_bits(base + slices - bits + 1, bits, entries, acc_w, residue, stats)
            elif slices:
                continue  # too few slices to name an element
            else:  # a base of at most one element names it
                s = family.queries[base]
                v = min(s) if len(s) == 1 else None
            if v is None or v in acc or base not in (positions := inc.get(v, ())):
                continue
            acc[v] = residue
            for idx in positions:
                acc_w[idx] = acc_w.get(idx, 0) + residue
            stats.decoded += 1
            if len(acc) > k:
                return acc, acc_w, stats
            progress = True
    return dict(sorted(acc.items())), acc_w, stats


def _read_plain_bits(
    first: int, bits: int, entries: Mapping[int, int], acc_w: dict[int, int], residue: int, stats: DecodeStats
) -> int | None:
    """The new element v whose bits of v-1 the ``bits`` slices from ``first`` spell, lowest first; else None."""
    u = 0
    for j in range(bits):
        idx = first + j
        stats.slice_reads += 1
        raw = entries.get(idx, 0) - acc_w.get(idx, 0)
        if raw == residue:
            u |= 1 << j
        elif raw:
            return None  # several unknown elements, or an over-explained slice
    return u + 1
