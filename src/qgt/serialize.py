"""Bit-exact text serialization for codes and feedback vectors.

A code the builder lays out is written as its rule (LF line endings):

    qgtc 2
    n <int>
    k <int>
    alpha <int>
    mode <plain|large|multiset>
    family singletons | family rs <q> <d> <L>

and loading returns that rule, a ``code.Singletons`` or
``code.SlicedTable``: no set or block is made, so reading, writing and
loading a built code cost O(1) plus the (q, d, L) search.  The parser
matches the line against the family each class in ``code.FAMILIES``
admits at (n, k, mode) (``at``, the build rule's own test):
``family singletons`` is the n singleton queries; ``family rs`` is the
truncated width-k Reed-Solomon table, accepted only with the (q, d, L)
of ``ssui.rs_trunc_size(n, k)`` and only where the build rule takes it,
never in multiset mode, so a six-line file cannot name a table the
builder would not build.  Nothing follows the family line, and a family
file needs n <= 2^18 (``FAMILY_MAX_N``).  The writer picks this form
from the code's content alone: a code with n <= 2^18 equal to a family
admitted at its own header is written this way, so equal codes always
give equal bytes.  A built family's code reads its own line, and
compares with that family without laying anything out.

Every other code (random codes, hand-laid tables, files from earlier
builders) is written as a list:

    qgtc 1
    n <int>
    k <int>
    alpha <int>
    mode <plain|large|multiset|random>
    blocks <count>
    <kind> <level> <base-offset> <slice-count>     (one line per block)
    <query>                                        (one line per query)

Built codes label every block kind "ssui" at level k; "sui" and "rr"
blocks appear only in files from earlier builders, and still load.
The block count is at least 0 and every block's level at least 1.
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

Parsing is strict: line breaks (a line ends with "\\n" alone; a "\\r",
a form feed, "\\x1c" or any other break ``str.splitlines`` would take is
refused, naming its line), version, header shape, every integer (ASCII
digits after an optional '-', ``parse_int``: no '+', underscore, space
or other digit), a power-of-two n (any n >= 2 in random mode), the family line,
offsets, slice counts, index order and every slice (it must be its base
cut by ``balanced.slice_table``) are all checked, and errors name the
offending line.
parse(serialize(c)) reproduces the code exactly; in a list, equal query
lines parse to one shared set.
"""

from __future__ import annotations

from collections.abc import Sequence

from .balanced import id_bits, slice_table
from .code import KIND_RR, KIND_SSUI, KIND_SUI, MODE_MULTISET, MODE_RANDOM
from .code import FAMILIES, MIN_ALPHA, Block, Code, Listed
from .model import Feedback, Query, check_capacity, check_universe, is_power_of_two

FORMAT_NAME = "qgtc"
LIST_VERSION = 1
FAMILY_VERSION = 2

_KINDS = (KIND_SUI, KIND_RR, KIND_SSUI)
# A family file needs n at most the largest universe on the ROADMAP grid.
# The parser checks it before ``SlicedTable.at``, whose prime search grows
# with n, and a larger built code is written as a list.
FAMILY_MAX_N = 1 << 18
# Every line break ``str.splitlines`` takes but "\n": a file's lines end with "\n" alone.
_STRAY_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


class FormatError(ValueError):
    pass


def _family_line(code: Code) -> str | None:
    """The `family` line of a code equal to a built family with n <= FAMILY_MAX_N; else None."""
    n, k = code.n, code.k
    if code.mode == MODE_RANDOM or not 2 <= n <= FAMILY_MAX_N or not is_power_of_two(n):
        return None  # no family exists (slice widths need a power-of-two n), or n is too large
    for cls in FAMILIES:
        family = cls.at(n, k, code.mode)
        if family is not None and Code(family, n, k, code.alpha, code.mode) == code:
            return family.line
    return None


def code_to_text(code: Code) -> str:
    header = [f"n {code.n}", f"k {code.k}", f"alpha {code.alpha}", f"mode {code.mode}"]
    family = _family_line(code)
    if family is not None:
        return "\n".join([f"{FORMAT_NAME} {FAMILY_VERSION}", *header, family]) + "\n"
    lines = [f"{FORMAT_NAME} {LIST_VERSION}", *header, f"blocks {len(code.blocks)}"]
    for blk in code.blocks:
        lines.append(f"{blk.kind} {blk.level} {blk.base + 1} {blk.slices}")
    for s in code.queries:
        lines.append(" ".join(str(v) for v in sorted(s)))
    return "\n".join(lines) + "\n"


def parse_int(token: str) -> int:
    """``int(token)`` for ASCII digits after an optional '-'; else ``int``'s ValueError, as ``int`` words it."""
    digits = token[1:] if token[:1] == "-" else token
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid literal for int() with base 10: {token!r}")
    return int(token)


def _header_int(lines: list[str], lineno: int, key: str) -> int:
    if lineno >= len(lines):
        raise FormatError(f"line {lineno + 1}: missing header line '{key}'")
    parts = lines[lineno].split()
    if len(parts) != 2 or parts[0] != key:
        raise FormatError(f"line {lineno + 1}: expected '{key} <value>', got {lines[lineno]!r}")
    try:
        return parse_int(parts[1])
    except ValueError as exc:
        raise FormatError(f"line {lineno + 1}: non-integer value for '{key}'") from exc


def _header(lines: list[str]) -> tuple[int, int, int, str]:
    """(n, k, alpha, mode) from lines 2-5, checked against the mode's rules."""
    n = _header_int(lines, 1, "n")
    k = _header_int(lines, 2, "k")
    alpha = _header_int(lines, 3, "alpha")
    if len(lines) < 5 or not lines[4].startswith("mode "):
        raise FormatError("line 5: expected 'mode <plain|large|multiset|random>'")
    mode = lines[4][5:].strip()
    if mode not in MIN_ALPHA:  # every mode a header can name
        raise FormatError(f"line 5: unknown mode {mode!r}")
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
    if alpha < MIN_ALPHA[mode]:
        raise FormatError(f"line 4: {mode} codes need alpha >= {MIN_ALPHA[mode]}, got {alpha}")
    return n, k, alpha, mode


def code_from_text(text: str) -> Code:
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()  # the newline that ends the last line, or an empty input
    if text.splitlines() != lines:  # they differ only where a line holds another break
        lineno, brk = next((i, c) for i, line in enumerate(lines, 1) for c in line if c in _STRAY_BREAKS)
        raise FormatError(f"line {lineno}: line break {brk!r}; lines end with '\\n' alone")
    if not lines:
        raise FormatError("line 1: empty input")
    magic = lines[0].split()
    if magic not in ([FORMAT_NAME, str(LIST_VERSION)], [FORMAT_NAME, str(FAMILY_VERSION)]):
        raise FormatError(f"line 1: unsupported format header {lines[0]!r}")
    n, k, alpha, mode = _header(lines)
    if magic[1] == str(FAMILY_VERSION):
        return _family_from_lines(lines, n, k, alpha, mode)
    return _list_from_lines(lines, n, k, alpha, mode)


def _family_from_lines(lines: list[str], n: int, k: int, alpha: int, mode: str) -> Code:
    if len(lines) < 6:
        raise FormatError("line 6: missing 'family' line")
    if mode == MODE_RANDOM:
        raise FormatError("line 6: random-mode codes carry no family")
    if n > FAMILY_MAX_N:  # checked before SlicedTable.at, whose prime search grows with n and k
        raise FormatError(f"line 2: a family file needs n <= {FAMILY_MAX_N}, got {n}")
    words = lines[5].split()
    line = " ".join(words)
    for cls in FAMILIES:
        family = cls.at(n, k, mode)
        if family is not None and family.line == line:
            break
    else:
        if words[:2] == ["family", "rs"]:
            raise FormatError(
                f"line 6: {lines[5]!r} is not the table the build rule takes at n = {n}, k = {k}"
                f" in {mode} mode"
            )
        if words[:1] == ["family"]:
            raise FormatError(f"line 6: unknown family {' '.join(words[1:])!r}")
        raise FormatError(
            f"line 6: expected 'family singletons' or 'family rs <q> <d> <L>', got {lines[5]!r}"
        )
    if len(lines) > 6:
        raise FormatError(f"line 7: nothing may follow the family line, got {lines[6]!r}")
    return Code(family, n, k, alpha, mode)


def _list_from_lines(lines: list[str], n: int, k: int, alpha: int, mode: str) -> Code:
    block_count = _header_int(lines, 5, "blocks")
    if block_count < 0:
        raise FormatError(f"line 6: block count must be >= 0, got {block_count}")
    if mode == MODE_RANDOM and block_count:
        raise FormatError("line 6: random-mode codes carry no blocks")
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
            level, base, slices = parse_int(parts[1]), parse_int(parts[2]), parse_int(parts[3])
        except ValueError as exc:
            raise FormatError(f"line {lineno + 1}: non-integer block field") from exc
        if level < 1:
            raise FormatError(f"line {lineno + 1}: block level must be >= 1, got {level}")
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
                v = parse_int(token)
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
    _check_slices(queries, blocks, n, body_start)
    return Code(Listed(tuple(queries), tuple(blocks)), n, k, alpha, mode)


def _check_slices(queries: list[Query], blocks: list[Block], n: int, body_start: int) -> None:
    """Every slice must be its base cut by the slice table, or a decode could misread it."""
    table = slice_table(n) if any(blk.slices for blk in blocks) else ()
    for blk in blocks:
        base = queries[blk.base]
        for j in range(1, blk.slices + 1):
            if queries[blk.base + j] != base & table[j - 1]:
                raise FormatError(
                    f"line {body_start + blk.base + j + 1}: slice {j} of the base on line "
                    f"{body_start + blk.base + 1} is not its bit slice"
                )


def fv_to_text(fv: Sequence[int]) -> str:
    """The dense line: every value, zeros included, space-separated."""
    return " ".join(str(x) for x in fv) + "\n"


def fv_from_text(text: str) -> Feedback:
    """Parse a dense line into a ``Feedback``, so decoding it costs O(support).

    A token that is not an integer is malformed, named by its position,
    and so is a negative value, named by its position as ``Feedback``
    names it.
    """
    values = []
    for position, token in enumerate(text.split()):
        try:
            values.append(parse_int(token))
        except ValueError as exc:
            raise FormatError(f"malformed feedback vector: position {position}: {exc}") from exc
    try:
        return Feedback.of(values)
    except ValueError as exc:
        raise FormatError(f"malformed feedback vector: {exc}") from exc


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
            v, m = parse_int(v_str.strip()), parse_int(m_str.strip())
        except ValueError as exc:
            raise FormatError(f"malformed set entry {part!r}") from exc
        if m < 1:
            raise FormatError(f"multiplicity must be >= 1 in entry {part!r}")
        counts[v] = counts.get(v, 0) + m
    return counts
