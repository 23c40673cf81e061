"""Balanced element identifiers and bit-slice sub-queries.

Every element v in [1..n] (n a power of two, b = log2 n) gets a 2b-bit
word with exactly b ones: the b-bit binary form of v-1 followed by its
bitwise complement.  The decoder does not rely on the fixed weight; it
reads the plain bits alone (``decode``).  In a query whose count is
exact, two or more distinct unknown elements differ in some bit of v-1,
so that bit's slice reads strictly between nothing and all of them, and
a complement slice, the count minus its plain bit's slice, says nothing
more.  The complement slices stay in the layout that code files fix;
``decode_balanced`` still checks a whole word, weight and complement.

Words are stored most-significant-bit first (the order a human would
write them); "bit i" with i counted from 1 at the least significant
position is word[2b - i].  Slices partition a query by these bits:
slice i of S keeps the elements of S whose bit i is one.

Slices are cut from a per-n slice table: entry i-1 is the set of all
elements of [1..n] whose bit i is one, so slice i of S is S & table[i-1].
The table holds n * log2(n) references to one shared tuple of ints and is
kept for the few most recent n.  A slice equal to its base is the base
object itself and every empty slice is one shared empty frozenset, so a
singleton query's slices add no new set objects.
"""

from __future__ import annotations

from functools import lru_cache

from .model import Query, check_universe

INVALID = None

_EMPTY: Query = frozenset()
_TABLES_KEPT = 8


def id_bits(n: int) -> int:
    """Identifier width in bits: 2 * log2(n)."""
    check_universe(n)
    return 2 * (n.bit_length() - 1)


def encode_balanced(v: int, n: int) -> tuple[int, ...]:
    """Balanced identifier of element v, most significant bit first."""
    width = id_bits(n)
    b = width // 2
    if not 1 <= v <= n:
        raise ValueError(f"element {v} outside universe [1..{n}]")
    high = [(v - 1) >> (b - 1 - j) & 1 for j in range(b)]
    low = [1 - bit for bit in high]
    return tuple(high + low)


def decode_balanced(bitvals: tuple[int, ...] | list[int], n: int) -> int | None:
    """Inverse of encode_balanced; INVALID (None) when the word is not one identifier.

    A word fails when any entry is outside {0,1}, the weight is not
    exactly log2(n), or the low half is not the complement of the high
    half.  INVALID is a value, not an error: it signals that a feedback
    difference vector is not a single new element.
    """
    width = id_bits(n)
    b = width // 2
    if len(bitvals) != width:
        raise ValueError(f"expected {width} bit values, got {len(bitvals)}")
    if any(bit not in (0, 1) for bit in bitvals):
        return INVALID
    if sum(bitvals) != b:
        return INVALID
    high = bitvals[:b]
    low = bitvals[b:]
    if any(lo != 1 - hi for hi, lo in zip(high, low)):
        return INVALID
    value = 0
    for bit in high:
        value = (value << 1) | bit
    return value + 1


@lru_cache(maxsize=_TABLES_KEPT)
def slice_table(n: int) -> tuple[Query, ...]:
    """Entry i-1: the elements of [1..n] whose balanced-identifier bit i is one."""
    b = id_bits(n) // 2
    universe = tuple(range(1, n + 1))
    low = [frozenset(v for v in universe if not (v - 1) >> j & 1) for j in range(b)]
    high = [frozenset(v for v in universe if (v - 1) >> j & 1) for j in range(b)]
    return (*low, *high)


def _checked_base(s: Query, n: int) -> Query:
    """s as a frozenset; ValueError if an element lies outside [1..n]."""
    if s:
        lo, hi = min(s), max(s)
        if lo < 1 or hi > n:
            raise ValueError(f"element {lo if lo < 1 else hi} outside universe [1..{n}]")
    return frozenset(s)


def _cut(mask: Query, base: Query) -> Query:
    part = mask & base
    if not part:
        return _EMPTY
    return base if len(part) == len(base) else part


def slice_query(s: Query, i: int, n: int) -> Query:
    """Elements of s whose balanced-identifier bit i is one (bit 1 = least significant).

    Cut from the slice table as s & table[i-1]; the result is always a
    frozenset, the base itself when every element qualifies and a shared
    empty frozenset when none does.
    """
    table = slice_table(n)
    if not 1 <= i <= len(table):
        raise ValueError(f"bit position {i} outside [1..{len(table)}]")
    return _cut(table[i - 1], _checked_base(s, n))


def bit_slices(s: Query, n: int) -> list[Query]:
    """All 2*log2(n) slices of s, bit 1 first, shared as in slice_query."""
    table = slice_table(n)
    base = _checked_base(s, n)
    return [_cut(mask, base) for mask in table]
