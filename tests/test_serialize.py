import dataclasses
import re

import pytest

from qgt.bounds import verify_decoding
from qgt.code import KIND_SUI, Block, Code, Listed, build_code, build_code_large, build_code_multiset
from qgt.decode import decode
from qgt import serialize
from qgt.random_code import build_random_code
from qgt.serialize import (
    FormatError,
    code_from_text,
    code_to_text,
    fv_from_text,
    fv_to_text,
    multiset_to_text,
    parse_set_spec,
)

from list_form import list_text
from rs_table import rs_table_code, trunc_table_code


@pytest.mark.parametrize(
    "code",
    [
        rs_table_code(16, 2),
        build_code(32, 3, 3),
        build_code_multiset(16, 4),
    ],
    ids=["plain", "plain-levels", "multiset"],
)
def test_roundtrip_identity(code):
    text = code_to_text(code)
    parsed = code_from_text(text)
    assert parsed.queries == code.queries
    assert parsed.blocks == code.blocks
    assert (parsed.n, parsed.k, parsed.alpha, parsed.mode) == (
        code.n, code.k, code.alpha, code.mode,
    )
    assert code_to_text(parsed) == text


def test_large_roundtrip():
    code = build_code_large(32, 8, 2)
    assert code_from_text(code_to_text(code)).queries == code.queries


def test_header_shape():
    text = code_to_text(build_code(16, 2, 2))
    assert text == "qgtc 2\nn 16\nk 2\nalpha 2\nmode plain\nfamily singletons\n"
    text = code_to_text(trunc_table_code(16, 2))  # a table the build rule does not take
    lines = text.splitlines()
    assert lines[:5] == ["qgtc 1", "n 16", "k 2", "alpha 2", "mode plain"]
    assert lines[5].startswith("blocks ")
    assert text.endswith("\n")


def test_empty_query_line_parses_to_empty_set():
    code = Code(Listed((frozenset(), frozenset({1})), ()), 8, 1, 1, "random")
    parsed = code_from_text(code_to_text(code))
    assert parsed.queries == (frozenset(), frozenset({1}))


def test_parsed_code_shares_equal_queries():
    code = trunc_table_code(32, 2)
    assert len(set(code.queries)) < len(code.queries)
    parsed = code_from_text(code_to_text(code))
    assert parsed == code
    assert len({id(s) for s in parsed.queries}) == len(set(parsed.queries))


@pytest.mark.parametrize("mode", ["plain", "large", "multiset"])
def test_non_power_of_two_universe_names_line_2(mode):
    text = f"qgtc 1\nn 12\nk 1\nalpha 2\nmode {mode}\nblocks 0\n1\n"
    with pytest.raises(FormatError, match="line 2: .*power of two >= 2"):
        code_from_text(text)


@pytest.mark.parametrize(
    "mode, alpha, message",
    [
        ("plain", 1, "plain codes need alpha >= 2, got 1"),
        ("large", 1, "large codes need alpha >= 2, got 1"),
        ("multiset", 2, "multiset codes store alpha 0, got 2"),
        ("random", 0, "random codes need alpha >= 1, got 0"),
    ],
)
def test_alpha_outside_the_mode_rule_names_line_4(mode, alpha, message):
    text = f"qgtc 1\nn 8\nk 1\nalpha {alpha}\nmode {mode}\nblocks 0\n1\n"
    with pytest.raises(FormatError, match=f"line 4: {message}"):
        code_from_text(text)


def test_capacity_outside_one_to_n_names_line_3():
    text = "qgtc 1\nn 8\nk 9\nalpha 2\nmode plain\nblocks 0\n1\n"
    with pytest.raises(FormatError, match="line 3: capacity k must satisfy 1 <= k <= n, got k=9"):
        code_from_text(text)


def test_random_mode_accepts_any_universe():
    text = "qgtc 1\nn 12\nk 1\nalpha 2\nmode random\nblocks 0\n1 12\n"
    assert code_from_text(text).queries == (frozenset({1, 12}),)


def test_repeated_malformed_line_names_first_occurrence():
    text = "qgtc 1\nn 8\nk 1\nalpha 1\nmode random\nblocks 0\n1\n3 2\n3 2\n"
    with pytest.raises(FormatError, match="line 8:"):
        code_from_text(text)


def test_version_mismatch():
    with pytest.raises(FormatError, match="unsupported format"):
        code_from_text("qgtc 3\nn 8\nk 1\nalpha 2\nmode plain\nfamily singletons\n")


def test_malformed_header():
    with pytest.raises(FormatError, match="line 2"):
        code_from_text("qgtc 1\nnn 8\nk 1\nalpha 1\nmode plain\nblocks 0\n")
    with pytest.raises(FormatError, match="mode"):
        code_from_text("qgtc 1\nn 8\nk 1\nalpha 1\nmode wild\nblocks 0\n")


def test_unsorted_indices_rejected():
    text = "qgtc 1\nn 8\nk 1\nalpha 1\nmode random\nblocks 0\n2 1\n"
    with pytest.raises(FormatError, match="strictly increasing"):
        code_from_text(text)


def test_out_of_range_index_rejected():
    text = "qgtc 1\nn 8\nk 1\nalpha 1\nmode random\nblocks 0\n7 9\n"
    with pytest.raises(FormatError, match="outside universe"):
        code_from_text(text)


def test_tampered_offset_names_the_line():
    good = list_text(build_code(16, 2, 2))
    lines = good.splitlines()
    first_block_line = 6
    parts = lines[first_block_line].split()
    parts[2] = "5"  # base offset must be 1 for the first block
    lines[first_block_line] = " ".join(parts)
    with pytest.raises(FormatError, match=f"line {first_block_line + 1}"):
        code_from_text("\n".join(lines) + "\n")


def test_block_overrun_rejected():
    text = "qgtc 1\nn 8\nk 1\nalpha 2\nmode plain\nblocks 1\nssui 1 1 9\n1\n\n"
    with pytest.raises(FormatError, match="past the last query"):
        code_from_text(text)


def test_slice_count_other_than_zero_or_width_names_the_line():
    # n = 8: a block carries 0 or 2*log2(8) = 6 slices
    text = "qgtc 1\nn 8\nk 1\nalpha 2\nmode plain\nblocks 2\nssui 1 1 0\nssui 1 2 3\n1\n2\n\n2\n2\n"
    with pytest.raises(FormatError, match="line 8: block has 3 slices, expected 0 or 6"):
        code_from_text(text)


def test_zero_slice_block_on_a_fat_base_names_the_line():
    text = "qgtc 1\nn 8\nk 1\nalpha 2\nmode plain\nblocks 2\nssui 1 1 0\nssui 1 2 0\n1\n2 3\n"
    with pytest.raises(FormatError, match="line 8: a 0-slice block's base has more than one"):
        code_from_text(text)


def test_random_mode_blocks_rejected():
    text = "qgtc 1\nn 12\nk 1\nalpha 2\nmode random\nblocks 1\nsui 1 1 0\n1\n"
    with pytest.raises(FormatError, match="line 6: random-mode codes carry no blocks"):
        code_from_text(text)


# build_code_multiset(4, 2) as written before one-element bases dropped
# their slices: four singleton blocks with 2*log2(4) = 4 slices each.
FULL_SLICE_SINGLETONS = (
    "qgtc 1\nn 4\nk 2\nalpha 0\nmode multiset\nblocks 4\n"
    "sui 2 1 4\nsui 2 6 4\nsui 2 11 4\nsui 2 16 4\n"
    "1\n1\n1\n\n\n2\n\n2\n2\n\n3\n3\n\n\n3\n4\n\n\n4\n4\n"
)


def test_full_slice_singleton_file_still_loads_and_decodes():
    old = code_from_text(FULL_SLICE_SINGLETONS)
    assert len(old) == 20 and all(blk.slices == 4 for blk in old.blocks)
    new = build_code_multiset(4, 2)
    assert len(new) == 4 and all(blk.slices == 0 for blk in new.blocks)
    assert verify_decoding(old) is None and verify_decoding(new) is None


def test_negative_block_count_names_line_6():
    text = "qgtc 1\nn 4\nk 1\nalpha 2\nmode plain\nblocks -2\n1\n2\n"
    with pytest.raises(FormatError, match=r"^line 6: block count must be >= 0, got -2$"):
        code_from_text(text)


@pytest.mark.parametrize(
    "blocks, message",
    [
        ("ssui 0 1 0\nssui 1 2 0\n", "line 7: block level must be >= 1, got 0"),
        ("ssui 1 1 0\nssui -3 2 0\n", "line 8: block level must be >= 1, got -3"),
    ],
    ids=["level-0", "level-negative"],
)
def test_block_level_below_one_names_its_line(blocks, message):
    text = "qgtc 1\nn 4\nk 1\nalpha 2\nmode plain\nblocks 2\n" + blocks + "1\n2\n"
    with pytest.raises(FormatError, match=f"^{message}$"):
        code_from_text(text)


def test_unknown_block_kind_rejected():
    text = "qgtc 1\nn 8\nk 1\nalpha 2\nmode plain\nblocks 1\nxyz 1 1 0\n1\n"
    with pytest.raises(FormatError, match="unknown block kind"):
        code_from_text(text)


def test_fv_roundtrip():
    assert fv_to_text((0, 2, 1)) == "0 2 1\n"
    assert fv_from_text("0 2 1\n") == (0, 2, 1)
    assert fv_from_text("") == ()
    with pytest.raises(FormatError, match=r"^malformed feedback vector: position 1: invalid literal .*'x'$"):
        fv_from_text("1 x 2")
    with pytest.raises(FormatError, match="position 3: invalid literal"):
        fv_from_text("0 0\n1 2.5 1")
    with pytest.raises(FormatError, match="position 1 must be positive"):
        fv_from_text("1 -2 0")


def test_multiset_text():
    assert multiset_to_text({5: 2, 1: 1}) == "1 1\n5 2\n"
    assert multiset_to_text({}) == ""


def test_parse_set_spec():
    assert parse_set_spec("3,5:2,3") == {3: 2, 5: 2}
    assert parse_set_spec("") == {}
    assert parse_set_spec("1,,2") == {1: 1, 2: 1}  # an empty part is skipped
    with pytest.raises(FormatError):
        parse_set_spec("3:0")
    with pytest.raises(FormatError):
        parse_set_spec("x")


# Round trips over the builder sweep: every mode, n = 2^1 .. 2^12, k in
# SWEEP_K and k = n, and each cap in {2, 3, 5, k + 2} up to n = 2^10 (one
# cap above: a cap changes the header only).
SWEEP_K = (1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 32)


@pytest.mark.parametrize("e", range(1, 13))
def test_every_built_code_round_trips_as_its_family_line(e):
    n = 2**e
    for k in sorted({k for k in (*SWEEP_K, n) if k <= n}):
        codes = [build_code_multiset(n, k)]
        for alpha in sorted({2, 3, 5, k + 2}) if n <= 1024 else (2,):
            codes += [build_code(n, k, alpha), build_code_large(n, k, alpha)]
        for code in codes:
            text = code_to_text(code)
            assert len(text.splitlines()) == 6 and text.startswith("qgtc 2\n"), (n, k)
            parsed = code_from_text(text)
            assert parsed == code
            assert code_to_text(parsed) == text


def _random_code(n, k, alpha, seed):
    return Code(Listed(build_random_code(n, k, alpha, seed).queries, ()), n, k, alpha, "random")


@pytest.mark.parametrize(
    "code",
    [
        rs_table_code(16, 2),  # the full table
        trunc_table_code(16, 2),  # a table where the build rule takes the singletons
        trunc_table_code(32, 3, alpha=0, mode="multiset"),
        code_from_text(FULL_SLICE_SINGLETONS),
        *(_random_code(n, k, alpha, seed) for n, k, alpha in [(8, 2, 1), (12, 2, 3), (32, 3, 8)]
          for seed in range(2)),
    ],
)
def test_codes_the_builder_does_not_lay_out_stay_lists(code):
    text = code_to_text(code)
    assert text == list_text(code)
    parsed = code_from_text(text)
    assert parsed == code
    assert code_to_text(parsed) == text


def test_a_code_differing_from_its_family_in_one_field_is_a_list():
    table = build_code(32, 1, 2)
    assert code_to_text(table) == "qgtc 2\nn 32\nk 1\nalpha 2\nmode plain\nfamily rs 2 4 1\n"
    base = table.blocks[1].base
    def listed(code, queries=None, blocks=None):
        queries = tuple(code.queries) if queries is None else queries
        return dataclasses.replace(code, family=Listed(queries, code.blocks if blocks is None else blocks))

    relabelled = listed(table, blocks=(table.blocks[0], Block(KIND_SUI, 1, base, table.blocks[1].slices)))
    slices = list(table.queries)
    slices[base + 2] = frozenset()  # a tampered slice: it held 2, 6, 10, ...
    tampered = listed(table, queries=tuple(slices))
    singles = build_code(16, 2, 2)
    moved = listed(singles, queries=singles.queries[::-1])
    cut = listed(table, queries=table.queries[:11])  # blocks run past the queries
    for code in (relabelled, tampered, moved, cut, dataclasses.replace(table, k=2)):
        assert code_to_text(code) == list_text(code)


def test_multiset_relabelled_table_round_trips():
    # the build rule never takes the table in multiset mode, so the code is written as a list
    code = dataclasses.replace(build_code(32, 1, 2), alpha=0, mode="multiset")
    text = code_to_text(code)
    assert text == list_text(code)
    assert code_from_text(text) == code
    assert decode(code, code.feedback({7: 3})) == {7: 3}
    with pytest.raises(FormatError, match="line 6: .* not the table the build rule takes .* in multiset mode"):
        code_from_text("qgtc 2\nn 32\nk 1\nalpha 0\nmode multiset\nfamily rs 2 4 1\n")


FAMILY_HEADER = "qgtc 2\nn 32\nk 1\nalpha 2\nmode plain\n"


@pytest.mark.parametrize(
    "body, message",
    [
        ("family rs 3 4 1\n", "line 6: 'family rs 3 4 1' is not the table the build rule takes"),
        ("family rs 2 4 2\n", "line 6: 'family rs 2 4 2' is not the table the build rule takes"),
        ("family rs 2 4\n", "line 6: 'family rs 2 4' is not the table the build rule takes"),
        ("family powersum 37 2\n", "line 6: unknown family 'powersum 37 2'"),
        ("family\n", "line 6: unknown family ''"),
        ("blocks 0\n", "line 6: expected 'family singletons' or 'family rs <q> <d> <L>'"),
        ("", "line 6: missing 'family' line"),
        ("family singletons\n1\n", "line 7: nothing may follow the family line"),
        ("family rs 2 4 1\n\n", "line 7: nothing may follow the family line"),
    ],
)
def test_bad_family_file_names_the_line(body, message):
    assert code_from_text(FAMILY_HEADER + "family rs 2 4 1\n") == build_code(32, 1, 2)
    with pytest.raises(FormatError, match=message):
        code_from_text(FAMILY_HEADER + body)


def test_table_family_only_where_the_build_rule_takes_it():
    # rs_trunc_size(16, 2) is (5, 1, 2), but at n = 16 the build rule takes the singletons
    text = "qgtc 2\nn 16\nk 2\nalpha 2\nmode plain\nfamily rs 5 1 2\n"
    with pytest.raises(FormatError, match="line 6: .* not the table the build rule takes"):
        code_from_text(text)


@pytest.mark.parametrize(
    "header, family, message",
    [
        ("n 1152921504606846976\nk 576460752303423488", "singletons", "line 2: .*n <= 262144"),
        ("n 524288\nk 1", "singletons", "line 2: .*n <= 262144"),
    ],
)
def test_family_file_too_large_to_lay_out_names_line_2(header, family, message):
    with pytest.raises(FormatError, match=message):
        code_from_text(f"qgtc 2\n{header}\nalpha 2\nmode plain\nfamily {family}\n")


def test_the_largest_table_family_file_loads_as_its_rule():
    # the table the build rule takes at (2^18, 4): its layout holds about
    # 65 million set entries, and loading makes none of them
    text = "qgtc 2\nn 262144\nk 4\nalpha 2\nmode plain\nfamily rs 13 4 13\n"
    code = code_from_text(text)
    assert len(code) == 13 * 13 * 37 and code.occurrence_max == 13 * 19
    assert code == build_code(262144, 4, 2) and code_to_text(code) == text
    hidden = {1: 1, 99_999: 1, 200_000: 1, 262_144: 1}
    assert decode(code, code.feedback(hidden)) == hidden


def test_built_code_above_the_family_caps_is_a_list(monkeypatch):
    singles, table = build_code_multiset(64, 2), build_code(32, 1, 2)
    monkeypatch.setattr(serialize, "FAMILY_MAX_N", 32)
    text = code_to_text(singles)
    assert text == list_text(singles)
    assert code_from_text(text) == singles
    assert code_to_text(table) == FAMILY_HEADER + "family rs 2 4 1\n"  # n = 32 is within the cap
    with pytest.raises(FormatError, match="line 2: .*n <= 32, got 64"):
        code_from_text("qgtc 2\nn 64\nk 2\nalpha 0\nmode multiset\nfamily singletons\n")


def test_list_file_with_a_tampered_slice_names_its_line():
    table = build_code(32, 1, 2)
    base = table.blocks[1].base
    slices = list(table.queries)
    slices[base + 2] = frozenset()  # it held 2, 6, 10, ...
    text = list_text(dataclasses.replace(table, family=Listed(tuple(slices), table.blocks)))
    # header, blocks line and 2 block lines, then the queries from line 9
    with pytest.raises(FormatError, match=f"line {9 + base + 2}: slice 2 of the base on line {9 + base} "):
        code_from_text(text)
    assert code_from_text(list_text(table)) == table


def test_family_file_header_checks_name_their_lines():
    bad = {
        "n 12": "line 2: .*power of two",
        "k 33": "line 3: capacity",
        "alpha 1": "line 4: plain codes need alpha >= 2",
        "mode random": "line 6: random-mode codes carry no family",
    }
    for line, message in bad.items():
        key = line.split()[0]
        lines = [line if row.startswith(key + " ") else row for row in FAMILY_HEADER.splitlines()]
        with pytest.raises(FormatError, match=message):
            code_from_text("\n".join(lines) + "\nfamily singletons\n")
    with pytest.raises(FormatError, match="line 6: expected 'blocks <value>'"):
        code_from_text(FAMILY_HEADER.replace("qgtc 2", "qgtc 1") + "family singletons\n")


# Tokens int() takes that a file may not hold: an underscore, a '+' and a non-ASCII digit.
LOOSE_INTS = ["1_0", "+1", "١"]


@pytest.mark.parametrize("token", LOOSE_INTS)
def test_parse_int_takes_only_ascii_digits_after_an_optional_minus(token):
    with pytest.raises(ValueError, match=f"^invalid literal for int\\(\\) with base 10: {re.escape(repr(token))}$"):
        serialize.parse_int(token)


def test_parse_int_reads_what_int_reads_on_ascii_digits():
    assert [serialize.parse_int(t) for t in ("0", "7", "-12", "0012", "-0")] == [0, 7, -12, 12, 0]
    for token in ("", "-", "--1", " 1", "1 ", "1.0", "²"):
        with pytest.raises(ValueError, match="invalid literal for int"):
            serialize.parse_int(token)


@pytest.mark.parametrize("token", LOOSE_INTS)
@pytest.mark.parametrize("key, lineno", [("n", 2), ("k", 3), ("alpha", 4)])
def test_a_loose_header_integer_names_its_line(token, key, lineno):
    header = {"n": "8", "k": "1", "alpha": "2"}
    for version, last in (("2", "family singletons"), ("1", "blocks 0")):
        lines = [f"qgtc {version}", *(f"{name} {token if name == key else value}" for name, value in header.items())]
        text = "\n".join([*lines, "mode plain", last]) + "\n"
        with pytest.raises(FormatError, match=f"^line {lineno}: non-integer value for '{key}'$"):
            code_from_text(text)


@pytest.mark.parametrize("token", LOOSE_INTS)
def test_a_loose_block_count_or_field_names_its_line(token):
    with pytest.raises(FormatError, match="^line 6: non-integer value for 'blocks'$"):
        code_from_text(f"qgtc 1\nn 4\nk 1\nalpha 2\nmode plain\nblocks {token}\n")
    for fields in (f"{token} 1 0", f"1 {token} 0", f"1 1 {token}"):
        text = f"qgtc 1\nn 4\nk 1\nalpha 2\nmode plain\nblocks 1\nssui {fields}\n1\n"
        with pytest.raises(FormatError, match="^line 7: non-integer block field$"):
            code_from_text(text)


@pytest.mark.parametrize("token", LOOSE_INTS)
def test_a_loose_query_element_names_its_line(token):
    text = f"qgtc 1\nn 16\nk 1\nalpha 1\nmode random\nblocks 0\n1 2\n3 {token}\n"
    with pytest.raises(FormatError, match=f"^line 8: non-integer element {re.escape(repr(token))}$"):
        code_from_text(text)


@pytest.mark.parametrize("token", LOOSE_INTS)
def test_a_loose_feedback_value_names_its_position(token):
    with pytest.raises(
        FormatError,
        match=f"^malformed feedback vector: position 2: invalid literal for int\\(\\) with base 10: {re.escape(repr(token))}$",
    ):
        fv_from_text(f"0 1 {token} 2")


@pytest.mark.parametrize("token", LOOSE_INTS)
def test_a_loose_set_entry_is_refused(token):
    for entry in (token, f"{token}:2", f"3:{token}"):
        with pytest.raises(FormatError, match=f"^malformed set entry {re.escape(repr(entry))}$"):
            parse_set_spec(f"1,{entry}")
    assert parse_set_spec(" 3 : 2 , 5") == {3: 2, 5: 1}  # each side of ':' is stripped, as int strips it


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "line 1: empty input"),
        ("qgtc 2\nn 8\n", "line 3: missing header line 'k'"),
        ("qgtc 1\nn 8\nk 1\nalpha 2\n", "line 5: expected 'mode <plain|large|multiset|random>'"),
        ("qgtc 1\nn 8\nk 1\nalpha 2\nmode plain\n", "line 6: missing header line 'blocks'"),
        ("qgtc 1\nn 4\nk 1\nalpha 2\nmode plain\nblocks 3\nssui 1 1 0\nssui 1 2 0\n", "line 9: missing block line"),
        ("qgtc 1\nn 1\nk 1\nalpha 1\nmode random\nblocks 0\n1\n", "line 2: universe size must be >= 2, got 1"),
    ],
    ids=["empty", "header-cut", "mode-missing", "blocks-missing", "block-lines-cut", "random-n-1"],
)
def test_a_file_cut_short_or_too_small_names_its_line(text, message):
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        code_from_text(text)


# Every line break str.splitlines() takes besides "\n": a file's lines end with "\n" alone.
STRAY_BREAKS = ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def test_the_stray_breaks_are_every_break_splitlines_takes_but_newline():
    breaks = {c for c in map(chr, range(0x110000)) if len(f"a{c}b".splitlines()) == 2}
    assert breaks - {"\n"} == set(STRAY_BREAKS) == set(serialize._STRAY_BREAKS)


def _stray_break_message(lineno, brk):
    return f"^line {lineno}: line break {re.escape(repr(brk))}; lines end with '\\\\n' alone$"


def test_a_group_separator_does_not_end_a_line():
    # read with splitlines(), "\x1c" ended line 2 and this file loaded as the (16, 1, 2) code
    text = "qgtc 2\nn 16\x1ck 1\nalpha 2\nmode plain\nfamily singletons\n"
    with pytest.raises(FormatError, match=_stray_break_message(2, "\x1c")):
        code_from_text(text)
    assert code_from_text(text.replace("\x1c", "\n")) == build_code(16, 1, 2)


@pytest.mark.parametrize("brk", STRAY_BREAKS, ids=lambda brk: f"U+{ord(brk):04X}")
def test_a_stray_line_break_names_its_line(brk):
    files = (code_to_text(build_code(16, 1, 2)), list_text(rs_table_code(16, 2)))
    for text in files:
        lines = text.split("\n")[:-1]
        for lineno in (1, 3, len(lines)):
            ends = ["\n"] * len(lines)
            for end in (brk, brk + "\n"):  # in place of the line's "\n", or before it
                ends[lineno - 1] = end
                broken = "".join(line + e for line, e in zip(lines, ends))
                with pytest.raises(FormatError, match=_stray_break_message(lineno, brk)):
                    code_from_text(broken)
    with pytest.raises(FormatError, match=_stray_break_message(1, "\r")):
        code_from_text(files[0].replace("\n", "\r\n"))


def test_lines_split_on_newline_alone_as_before():
    text = code_to_text(build_code(16, 1, 2))
    assert code_from_text(text) == code_from_text(text[:-1]) == build_code(16, 1, 2)  # the last "\n" is optional
    with pytest.raises(FormatError, match="^line 7: nothing may follow the family line, got ''$"):
        code_from_text(text + "\n")
    listed = code_to_text(_random_code(32, 2, 4, 0))
    assert code_from_text(listed + "\n").queries == (*code_from_text(listed).queries, frozenset())  # an empty query
    for text in ("", "\n"):
        with pytest.raises(FormatError, match="^line 1: "):
            code_from_text(text)
