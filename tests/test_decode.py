import itertools

import pytest

from qgt.bounds import verify_decoding, verify_uniqueness
from qgt.cli import main
from qgt.code import Block, Code, Listed, SlicedTable, build_code, build_code_large, build_code_multiset, enhance
from qgt.decode import NO_LAYOUT, DecodeError, decode, decode_detailed
from qgt.disperser import DisperserParams, build_disperser
from qgt.model import BudgetError, sets_up_to
from qgt.serialize import code_from_text, code_to_text
from qgt.sui import compose

from rs_table import rs_table_code


def _synthetic_code(bases, n, k, alpha, mode="plain"):
    """A hand-rolled code from explicit base queries, one block each."""
    queries = []
    blocks = []
    width = 2 * (n.bit_length() - 1)
    for s in bases:
        blocks.append(Block("ssui", k, len(queries), width))
        queries.extend(enhance(frozenset(s), n))
    return Code(Listed(tuple(queries), tuple(blocks)), n, k, alpha, mode)


def test_empty_feedback_decodes_to_empty_set():
    code = build_code(16, 2, 2)
    assert decode(code, (0,) * len(code.queries)) == {}


def test_exhaustive_roundtrip_small():
    code = build_code(16, 2, 2)
    with pytest.raises(BudgetError):
        verify_decoding(code, budget=sets_up_to(16, 2) - 1)
    assert verify_decoding(code, budget=sets_up_to(16, 2)) is None


def test_multiset_roundtrip_examples():
    code = build_code_multiset(16, 4)
    for hidden in ({3: 2, 7: 1}, {5: 3}, {5: 4}, {1: 1, 2: 1, 3: 1, 4: 1}):
        fv = code.feedback(hidden, alpha=4)
        assert decode(code, fv) == hidden


def test_plain_sets_decode_under_multiset_mode():
    # every multiset of total <= 3, read uncapped, holds every set of two elements read at cap 3
    assert verify_decoding(build_code_multiset(16, 3)) is None


def test_capped_base_query_is_ignored_not_misread():
    # single block {1,2,3} with |K| = 3 > alpha = 2: feedback sits at the cap,
    # the guard must refuse it, and the unexplained residue must surface
    code = _synthetic_code([{1, 2, 3}], 8, 3, 2)
    hidden = [1, 2, 3]
    fv = code.feedback(hidden)
    assert fv[0] == 2  # capped
    with pytest.raises(DecodeError, match="inconsistent feedback"):
        decode(code, fv)


def test_superposed_pair_is_skipped():
    # one block holding two hidden elements decodes neither (and says so)
    code = _synthetic_code([{1, 2}], 8, 2, 3)
    fv = code.feedback([1, 2])
    with pytest.raises(DecodeError, match="inconsistent feedback"):
        decode(code, fv)


def test_pair_resolved_by_second_block():
    # {1,2} is ambiguous alone; {2} pins 2 down, then {1,2} yields 1
    code = _synthetic_code([{1, 2}, {2}], 8, 2, 3)
    fv = code.feedback([1, 2])
    assert decode(code, fv) == {1: 1, 2: 1}


def test_decoding_does_not_depend_on_group_order():
    # {1, 2} is ambiguous alone and sits in the first block group; the
    # second group's bare {1} pins 1 down, after which {1, 2} yields 2
    n, k, alpha = 2, 2, 3
    queries = (*enhance(frozenset({1, 2}), n), frozenset({1}))
    blocks = (Block("sui", 2, 0, 2), Block("ssui", 1, 3, 0))
    code = Code(Listed(queries, blocks), n, k, alpha, "plain")
    assert len(code.block_groups) == 2
    assert verify_uniqueness(code.queries, n, k, alpha)
    assert code_from_text(code_to_text(code)) == code
    assert verify_decoding(code) is None


def test_fv_length_mismatch():
    code = build_code(16, 2, 2)
    with pytest.raises(DecodeError, match="length"):
        decode(code, (0,) * 3)


def test_blockless_code_refused():
    code = Code(Listed((frozenset({1}),), ()), 8, 1, 1, "random")
    with pytest.raises(DecodeError, match="layout"):
        decode(code, (0,))


def test_codes_without_a_block_layout_are_refused_by_name(tmp_path):
    out = tmp_path / "r.qgtc"
    assert main(["random", "--n", "32", "--k", "3", "--alpha", "8", "--seed", "1", "--out", str(out)]) == 0
    loaded = code_from_text(out.read_text())
    plain = Code(Listed(tuple(loaded.queries), ()), 32, 3, 2, "plain")
    for code in (loaded, plain):
        for fv in ((0,) * len(code), code.feedback({1, 2})):
            with pytest.raises(DecodeError) as info:
                decode(code, fv)
            assert str(info.value) == "code has no block layout; only constructed codes are decodable"
        hidden, error = verify_decoding(code)
        assert hidden == {} and type(error) is DecodeError and str(error) == NO_LAYOUT


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: the readout cap does not reach a multiset code's decoder, "
    "which trusts the at-cap count 4 of {7: 5} read at cap 4",
)
def test_an_at_cap_multiset_count_is_refused():
    code = build_code_multiset(64, 4)
    fv = code.feedback({7: 5}, alpha=4)
    assert fv.entries == {6: 4}
    with pytest.raises(DecodeError):
        decode(code, fv)


def test_a_base_at_the_cap_is_never_read():
    # {v: 2} reads 2 = alpha at each of v's bases and at its slices; a sweep that read a base at the
    # cap would take 2 as exact and return {v: 2}, which re-encodes to the same vector
    for code in (build_code(512, 2, 2), build_code(2**14, 4, 2)):
        assert type(code.family) is SlicedTable
        for v in (1, 7, 300):
            with pytest.raises(DecodeError, match="^inconsistent feedback: "):
                decode(code, code.feedback({v: 2}))


def test_slices_are_read_over_the_codes_universe():
    # a base with the 4 slices of n = 4 under a larger header: its bits are not read as n = 4's.
    # At n = 16 the 4 slices spell element 4, which is not in the base; at n = 256 they are
    # fewer than log2(n) and name nothing.  Either way element 1 stays unexplained.
    queries = tuple(enhance(frozenset({1, 2}), 4))
    for n in (16, 256):
        code = Code(Listed(queries, (Block("ssui", 1, 0, 4),)), n, 1, 2, "plain")
        fv = code.feedback({1: 1})
        for vector in (fv, list(fv)):
            with pytest.raises(DecodeError, match="position 0 reads 1, decoded count 0$"):
                decode(code, vector)


def test_overfull_hidden_set_fails_loudly():
    code = build_code(16, 2, 2)
    witnessed = False
    for combo in itertools.combinations(range(1, 17), 3):
        fv = code.feedback(combo)
        try:
            got = decode(code, fv)
        except DecodeError:
            witnessed = True
            break
        if got != {v: 1 for v in combo}:
            witnessed = True
            break
    assert witnessed


def test_decode_stats_counts_work():
    code = rs_table_code(16, 2)
    fv = code.feedback([5, 9])
    result, stats = decode_detailed(code, fv)
    assert result == {5: 1, 9: 1}
    assert stats.decoded == 2
    assert stats.good_checks > 0
    assert stats.operations == stats.good_checks + stats.slice_reads


def test_multiset_weighted_subtraction_across_blocks():
    # {1,2} alone is a superposition; {2} resolves 2 with multiplicity 3,
    # after which the fixed-point sweep peels 1 (multiplicity 2) from {1,2}
    code = _synthetic_code([{1, 2}, {2}], 8, 4, 0, mode="multiset")
    fv = code.feedback({1: 2, 2: 3})
    assert decode(code, fv) == {1: 2, 2: 3}


def test_fat_query_roundtrip_sampled():
    # q < n here, so terminal-selector queries hold several elements; read
    # under cap 3, a base holding two hidden elements reads a trusted 2,
    # which the decoder must explain by subtracting decoded elements
    import dataclasses
    import random

    code = dataclasses.replace(rs_table_code(256, 4), alpha=3)
    assert any(len(code.queries[b.base]) > 1 for b in code.family.blocks(code.k))
    rng = random.Random(11)
    trusted_twos = 0
    for _ in range(300):
        combo = rng.sample(range(1, 257), rng.randint(0, 4))
        fv = code.feedback(combo)
        trusted_twos += sum(fv[b.base] == 2 for b in code.family.blocks(code.k))
        assert decode(code, fv) == {v: 1 for v in combo}
    assert trusted_twos > 0


def test_fat_query_roundtrip_alpha_two_sampled():
    import random

    code = rs_table_code(256, 3)
    rng = random.Random(13)
    for _ in range(300):
        combo = rng.sample(range(1, 257), rng.randint(0, 3))
        assert decode(code, code.feedback(combo)) == {v: 1 for v in combo}


def _tiny_composed_level():
    """Pairs of [1..8] composed with a verified degree-4 disperser (|W| = 2)."""
    strong = tuple(frozenset(c) for c in itertools.combinations(range(1, 9), 2))
    params = DisperserParams(ell_star=1, epsilon=0.25, degree=4, delta=2, seed=3)
    return compose(strong, build_disperser(8, params))


def test_composed_level_code_end_to_end():
    # a code whose first level is a genuinely disperser-composed family
    # (fat, overlapping queries) rather than the singleton shortcut
    from qgt.ssui import build_ssui

    n, k, alpha = 8, 2, 3
    level = _tiny_composed_level()
    terminal = build_ssui(n, 2, 2, alpha - 1)
    assert any(len(s) > 1 for s in level)
    queries: list = []
    blocks = []
    width = 2 * (n.bit_length() - 1)
    for kind, family in (("sui", level), ("ssui", terminal.queries)):
        for s in family:
            blocks.append(Block(kind, 2, len(queries), width))
            queries.extend(enhance(s, n))
    code = Code(Listed(tuple(queries), tuple(blocks)), n, k, alpha, "plain")
    assert verify_decoding(code) is None


def test_composed_level_multiset_roundtrip():
    # multiset decoding over fat composed queries: full-multiplicity reads
    # plus weighted subtraction of already-decoded elements
    n = 8
    level = _tiny_composed_level()
    queries: list = []
    blocks = []
    width = 2 * (n.bit_length() - 1)
    for s in level:
        blocks.append(Block("sui", 2, len(queries), width))
        queries.extend(enhance(s, n))
    code = Code(Listed(tuple(queries), tuple(blocks)), n, 2, 0, "multiset")
    assert verify_decoding(code) is None


def test_edge_parameter_grid_roundtrips():
    # minimum universe, full-capacity hidden sets, cap at its floor
    cases = [(4, 2, 2), (4, 4, 2), (4, 4, 3), (8, 8, 2), (8, 8, 3), (16, 4, 4)]
    for n, k, alpha in cases:
        assert verify_decoding(build_code(n, k, alpha)) is None, (n, k, alpha)


def test_large_mode_edge_grid():
    import random

    assert verify_decoding(build_code_large(16, 4, 4)) is None
    # sets_up_to(32, 8) is over the oracle's budget: every pair, then 200 draws
    n, k = 32, 8
    code = build_code_large(n, k, 3)
    for combo in itertools.combinations(range(1, n + 1), 2):
        assert decode(code, code.feedback(combo)) == {v: 1 for v in combo}
    rng = random.Random(1)
    for _ in range(200):
        combo = rng.sample(range(1, n + 1), rng.randint(0, k))
        assert decode(code, code.feedback(combo)) == {v: 1 for v in combo}


def test_multiset_minimum_universe():
    assert verify_decoding(build_code_multiset(4, 4)) is None
