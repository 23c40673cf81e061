"""Bit-exact text serialization for codes and feedback vectors.

Code file layout (LF line endings):

    qgtc 1
    n <int>
    k <int>
    alpha <int>
    mode <plain|large|multiset|random>
    blocks <count>
    <kind> <level> <base-offset> <slice-count>     (one line per block)
    <query>                                        (one line per query)

Built codes write every block as kind "ssui" at level k; "sui" and "rr"
blocks appear only in files from earlier builders, and still load.
Block base offsets are 1-based into the query list; each block owns its
base query and the `slice-count` queries after it, and together the
blocks must tile [1..m] exactly (random-mode codes carry no blocks).
A slice count is 2*log2(n), or 0 on a base of at most one element,
which names its element without slices; files whose one-element bases
carry full slices also load.
Queries are space-separated strictly increasing element indices; an
empty line is the empty query.  Multiset codes store alpha 0: their cap
is chosen at encode/readout time, and the decoder trusts every value.
Plain and large codes need alpha >= 2, random codes alpha >= 1.

Parsing is strict: version, header shape, a power-of-two n (any n >= 2
in random mode), offsets, slice counts and index order are all checked,
and errors name the offending line.  parse(serialize(c)) reproduces the
code exactly; equal query lines parse to one shared set.
"""

from __future__ import annotations

from .balanced import id_bits
from .code import KIND_RR, KIND_SSUI, KIND_SUI, MODE_LARGE, MODE_MULTISET, MODE_PLAIN, MODE_RANDOM
from .code import Block, Code
from .model import Query, check_capacity, check_universe

FORMAT_NAME = "qgtc"
FORMAT_VERSION = 1

_MODES = (MODE_PLAIN, MODE_LARGE, MODE_MULTISET, MODE_RANDOM)
_KINDS = (KIND_SUI, KIND_RR, KIND_SSUI)
# The decoder trusts a value below alpha, and every value when alpha is 0.
_MIN_ALPHA = {MODE_PLAIN: 2, MODE_LARGE: 2, MODE_RANDOM: 1}


class FormatError(ValueError):
    pass


def code_to_text(code: Code) -> str:
    lines = [
        f"{FORMAT_NAME} {FORMAT_VERSION}",
        f"n {code.n}",
        f"k {code.k}",
        f"alpha {code.alpha}",
        f"mode {code.mode}",
        f"blocks {len(code.blocks)}",
    ]
    for blk in code.blocks:
        lines.append(f"{blk.kind} {blk.level} {blk.base + 1} {blk.slices}")
    for s in code.queries:
        lines.append(" ".join(str(v) for v in sorted(s)))
    return "\n".join(lines) + "\n"


def _header_int(lines: list[str], lineno: int, key: str) -> int:
    if lineno >= len(lines):
        raise FormatError(f"line {lineno + 1}: missing header line '{key}'")
    parts = lines[lineno].split()
    if len(parts) != 2 or parts[0] != key:
        raise FormatError(f"line {lineno + 1}: expected '{key} <value>', got {lines[lineno]!r}")
    try:
        return int(parts[1])
    except ValueError as exc:
        raise FormatError(f"line {lineno + 1}: non-integer value for '{key}'") from exc


def code_from_text(text: str) -> Code:
    lines = text.splitlines()
    if not lines:
        raise FormatError("line 1: empty input")
    magic = lines[0].split()
    if magic != [FORMAT_NAME, str(FORMAT_VERSION)]:
        raise FormatError(f"line 1: unsupported format header {lines[0]!r}")
    n = _header_int(lines, 1, "n")
    k = _header_int(lines, 2, "k")
    alpha = _header_int(lines, 3, "alpha")
    if len(lines) < 5 or not lines[4].startswith("mode "):
        raise FormatError("line 5: expected 'mode <plain|large|multiset|random>'")
    mode = lines[4][5:].strip()
    if mode not in _MODES:
        raise FormatError(f"line 5: unknown mode {mode!r}")
    block_count = _header_int(lines, 5, "blocks")
    if mode == MODE_RANDOM and block_count:
        raise FormatError("line 6: random-mode codes carry no blocks")
    if n < 2:
        raise FormatError(f"line 2: universe size must be >= 2, got {n}")
    if mode != MODE_RANDOM:
        try:
            check_universe(n)
        except ValueError as exc:
            raise FormatError(f"line 2: {exc}") from exc
    try:
        check_capacity(n, k)
    except ValueError as exc:
        raise FormatError(f"line 3: {exc}") from exc
    if alpha < 0:
        raise FormatError(f"line 4: alpha must be >= 0, got {alpha}")
    if mode == MODE_MULTISET and alpha:
        raise FormatError(f"line 4: multiset codes store alpha 0, got {alpha}")
    if mode != MODE_MULTISET and alpha < _MIN_ALPHA[mode]:
        raise FormatError(f"line 4: {mode} codes need alpha >= {_MIN_ALPHA[mode]}, got {alpha}")
    header_len = 6
    blocks: list[Block] = []
    for i in range(block_count):
        lineno = header_len + i
        if lineno >= len(lines):
            raise FormatError(f"line {lineno + 1}: missing block line")
        parts = lines[lineno].split()
        if len(parts) != 4:
            raise FormatError(f"line {lineno + 1}: expected '<kind> <level> <base> <slices>'")
        kind = parts[0]
        if kind not in _KINDS:
            raise FormatError(f"line {lineno + 1}: unknown block kind {kind!r}")
        try:
            level, base, slices = int(parts[1]), int(parts[2]), int(parts[3])
        except ValueError as exc:
            raise FormatError(f"line {lineno + 1}: non-integer block field") from exc
        blocks.append(Block(kind, level, base - 1, slices))
    body_start = header_len + block_count
    queries: list[Query] = []
    # A repeated line reuses the first one's set, as a built code shares
    # a slice equal to its base and every empty slice.
    parsed: dict[str, Query] = {}
    for i, raw in enumerate(lines[body_start:]):
        lineno = body_start + i
        if raw in parsed:
            queries.append(parsed[raw])
            continue
        elements = []
        prev = 0
        for token in raw.split():
            try:
                v = int(token)
            except ValueError as exc:
                raise FormatError(f"line {lineno + 1}: non-integer element {token!r}") from exc
            if v <= prev:
                raise FormatError(f"line {lineno + 1}: indices must be strictly increasing")
            if not 1 <= v <= n:
                raise FormatError(f"line {lineno + 1}: element {v} outside universe [1..{n}]")
            prev = v
            elements.append(v)
        parsed[raw] = frozenset(elements)
        queries.append(parsed[raw])
    m = len(queries)
    width = id_bits(n) if blocks else 0
    expected_next = 0
    for i, blk in enumerate(blocks):
        lineno = header_len + i
        if blk.base != expected_next:
            raise FormatError(
                f"line {lineno + 1}: block base {blk.base + 1} does not tile the query list"
            )
        if blk.slices < 0 or blk.base + blk.slices + 1 > m:
            raise FormatError(f"line {lineno + 1}: block extends past the last query")
        if blk.slices not in (0, width):
            raise FormatError(
                f"line {lineno + 1}: block has {blk.slices} slices, "
                f"expected 0 or {width} (2*log2 n)"
            )
        if not blk.slices and len(queries[blk.base]) > 1:
            raise FormatError(
                f"line {lineno + 1}: a 0-slice block's base has more than one element"
            )
        expected_next = blk.base + blk.slices + 1
    if blocks and expected_next != m:
        raise FormatError(
            f"block layout covers {expected_next} queries but the body has {m}"
        )
    return Code(tuple(queries), tuple(blocks), n, k, alpha, mode)


def fv_to_text(fv: tuple[int, ...] | list[int]) -> str:
    return " ".join(str(x) for x in fv) + "\n"


def fv_from_text(text: str) -> tuple[int, ...]:
    tokens = text.split()
    try:
        values = tuple(int(t) for t in tokens)
    except ValueError as exc:
        raise FormatError(f"malformed feedback vector: {exc}") from exc
    if any(v < 0 for v in values):
        raise FormatError("malformed feedback vector: negative value")
    return values


def multiset_to_text(counts: dict[int, int]) -> str:
    """One 'element multiplicity' line per element, sorted by element."""
    return "".join(f"{v} {m}\n" for v, m in sorted(counts.items()))


def parse_set_spec(spec: str) -> dict[int, int]:
    """Parse 'v[:mult],v[:mult],...' into a multiset; an empty spec is the empty set."""
    counts: dict[int, int] = {}
    if not spec.strip():
        return counts
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" in part:
            v_str, m_str = part.split(":", 1)
        else:
            v_str, m_str = part, "1"
        try:
            v, m = int(v_str), int(m_str)
        except ValueError as exc:
            raise FormatError(f"malformed set entry {part!r}") from exc
        if m < 1:
            raise FormatError(f"multiplicity must be >= 1 in entry {part!r}")
        counts[v] = counts.get(v, 0) + m
    return counts
