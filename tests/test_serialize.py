import itertools

import pytest

from qgt.code import Code, build_code, build_code_large, build_code_multiset
from qgt.decode import decode
from qgt.serialize import (
    FormatError,
    code_from_text,
    code_to_text,
    fv_from_text,
    fv_to_text,
    multiset_to_text,
    parse_set_spec,
)

from rs_table import rs_table_code


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
    lines = text.splitlines()
    assert lines[0] == "qgtc 1"
    assert lines[1] == "n 16"
    assert lines[2] == "k 2"
    assert lines[3] == "alpha 2"
    assert lines[4] == "mode plain"
    assert lines[5].startswith("blocks ")
    assert text.endswith("\n")


def test_empty_query_line_parses_to_empty_set():
    code = Code((frozenset(), frozenset({1})), (), 8, 1, 1, "random")
    parsed = code_from_text(code_to_text(code))
    assert parsed.queries == (frozenset(), frozenset({1}))


def test_parsed_code_shares_equal_queries():
    code = build_code_multiset(64, 4)
    parsed = code_from_text(code_to_text(code))
    assert parsed == code
    assert len({id(s) for s in parsed.queries}) == len(set(parsed.queries))


@pytest.mark.parametrize("mode", ["plain", "large", "multiset"])
def test_non_power_of_two_universe_names_line_2(mode):
    text = f"qgtc 1\nn 12\nk 1\nalpha 2\nmode {mode}\nblocks 0\n1\n"
    with pytest.raises(FormatError, match="line 2: .*power of two >= 2"):
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
        code_from_text("qgtc 2\nn 8\nk 1\nalpha 1\nmode plain\nblocks 0\n")


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
    good = code_to_text(build_code(16, 2, 2))
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
    for total in range(3):
        for combo in itertools.combinations_with_replacement(range(1, 5), total):
            hidden: dict[int, int] = {}
            for v in combo:
                hidden[v] = hidden.get(v, 0) + 1
            assert decode(old, old.feedback(hidden)) == hidden
            assert decode(new, new.feedback(hidden)) == hidden


def test_unknown_block_kind_rejected():
    text = "qgtc 1\nn 8\nk 1\nalpha 2\nmode plain\nblocks 1\nxyz 1 1 0\n1\n"
    with pytest.raises(FormatError, match="unknown block kind"):
        code_from_text(text)


def test_fv_roundtrip():
    assert fv_to_text((0, 2, 1)) == "0 2 1\n"
    assert fv_from_text("0 2 1\n") == (0, 2, 1)
    assert fv_from_text("") == ()
    with pytest.raises(FormatError):
        fv_from_text("1 x 2")
    with pytest.raises(FormatError, match="negative"):
        fv_from_text("1 -2 0")


def test_multiset_text():
    assert multiset_to_text({5: 2, 1: 1}) == "1 1\n5 2\n"
    assert multiset_to_text({}) == ""


def test_parse_set_spec():
    assert parse_set_spec("3,5:2,3") == {3: 2, 5: 2}
    assert parse_set_spec("") == {}
    with pytest.raises(FormatError):
        parse_set_spec("3:0")
    with pytest.raises(FormatError):
        parse_set_spec("x")
