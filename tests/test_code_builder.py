import dataclasses
import itertools
import warnings

import pytest

from qgt.balanced import id_bits, slice_query
from qgt.code import (
    build,
    build_code,
    build_code_large,
    build_code_multiset,
    choose_mode,
    enhance,
)
from qgt.model import singletons
from qgt.serialize import code_to_text


def test_enhance_empty():
    parts = enhance(frozenset(), 8)
    assert len(parts) == 1 + id_bits(8)
    assert all(p == frozenset() for p in parts)


def test_enhance_singleton_slices():
    parts = enhance(frozenset({1}), 8)
    # identifier of 1 is 000111: slices 1..3 hold the element, 4..6 are empty
    assert parts[0] == frozenset({1})
    assert [len(p) for p in parts[1:]] == [1, 1, 1, 0, 0, 0]


def test_enhance_union_of_slices_recovers_query():
    s = frozenset({2, 5, 11, 16})
    parts = enhance(s, 16)
    assert frozenset().union(*parts[1:]) == s


def test_enhance_rejects_elements_outside_universe():
    with pytest.raises(ValueError):
        enhance(frozenset({0}), 8)
    with pytest.raises(ValueError):
        enhance(frozenset({9}), 8)


def test_enhance_plain_set_gives_frozenset_slices():
    s = {2, 5, 11, 16}
    parts = enhance(s, 16)
    assert all(type(p) is frozenset for p in parts[1:])
    assert parts[1:] == enhance(frozenset(s), 16)[1:]


def test_code_is_frozen():
    code = build_code(16, 2, 3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        code.k = 3
    assert code.incidence is code.incidence  # cached_property still caches


def test_block_arity():
    # Reed-Solomon tables: empty and one-element bases at n = 16,
    # one- and two-element bases at n = 32
    sizes = set()
    for n in (16, 32):
        code = build_code(n, 2, 2)
        width = id_bits(n)
        assert len(code.queries) == sum(1 + blk.slices for blk in code.blocks)
        for blk in code.blocks:
            size = len(code.queries[blk.base])
            sizes.add(size)
            assert blk.slices == (0 if size <= 1 else width)
    assert {0, 1, 2} <= sizes


def test_layout_self_consistency():
    code = build_code(16, 2, 3)
    for blk in code.blocks:
        base = code.queries[blk.base]
        for i in range(1, blk.slices + 1):
            assert code.queries[blk.base + i] == slice_query(base, i, code.n)


def test_alpha_two_collapses_to_terminal_selector_only():
    code = build_code(16, 2, 2)
    assert {blk.kind for blk in code.blocks} == {"ssui"}


def test_level_structure_alpha_three():
    # the first selector level is the n singletons, which ends the code:
    # no further level and no strong selector could decode anything more
    code = build_code(32, 3, 3)
    assert {(blk.kind, blk.level) for blk in code.blocks} == {("sui", 4)}
    assert code.queries == singletons(32)
    assert all(blk.slices == 0 for blk in code.blocks)


def test_duplicate_levels_emitted_once():
    # at n=1024 the first selector level is the singleton family
    code = build_code(1024, 4, 4)
    sui_levels = {blk.level for blk in code.blocks if blk.kind == "sui"}
    assert len(sui_levels) == 1


def test_determinism_bit_for_bit():
    a = code_to_text(build_code(32, 3, 3, seed=9))
    b = code_to_text(build_code(32, 3, 3, seed=9))
    assert a == b


@pytest.mark.parametrize(
    "builder, args",
    [(build_code, (64, 4, 3)), (build_code_large, (64, 16, 2)), (build_code_multiset, (64, 4))],
)
def test_seed_changes_no_byte_of_a_built_code(builder, args):
    # every selector level is the singleton family, which reads no seed
    reference = code_to_text(builder(*args, seed=0))
    for seed in range(1, 4):
        assert code_to_text(builder(*args, seed=seed)) == reference, seed


def test_cap_below_two_rejected():
    with pytest.raises(ValueError, match="cap too small"):
        build_code(16, 2, 1)
    with pytest.raises(ValueError):
        build_code(12, 2, 2)


def test_large_mode_rr_queries_are_small():
    with pytest.warns(UserWarning):
        code = build_code_large(32, 8, 2)
    for blk in code.blocks:
        if blk.kind == "rr":
            assert len(code.queries[blk.base]) <= 2
    assert not any(blk.kind == "ssui" for blk in code.blocks)


def test_multiset_code_has_no_terminal_selector():
    code = build_code_multiset(16, 4)
    assert not any(blk.kind == "ssui" for blk in code.blocks)
    assert code.alpha == 0
    assert code.mode == "multiset"


def test_choose_mode_prefers_plain_for_small_k():
    assert choose_mode(1024, 4, 2) == "plain"
    assert choose_mode(16, 16, 2) == "large"
    assert build(32, 2, 2, mode="auto").mode == "plain"


def test_occurrence_accounting():
    code = build_code(16, 2, 2)
    inc = code.incidence
    assert code.occurrence_max == max(len(ix) for ix in inc.values())
    for v, indices in inc.items():
        assert all(v in code.queries[i] for i in indices)
    # every element must appear somewhere, else it could never be decoded
    assert set(inc) == set(range(1, 17))


def test_feedback_fast_path_matches_model_oracle():
    from qgt.model import feedback_vector

    code = build_code(16, 2, 2)
    for combo in itertools.combinations(range(1, 17), 2):
        assert code.feedback(combo) == feedback_vector(code.queries, combo, 2)


def test_built_code_distinguishes_random_pairs():
    import random

    from qgt.model import distinguishes

    code = build_code(16, 2, 2)
    rng = random.Random(0)
    for _ in range(50):
        k1 = frozenset(rng.sample(range(1, 17), 2))
        k2 = frozenset(rng.sample(range(1, 17), 2))
        if k1 != k2:
            assert distinguishes(code.queries, k1, k2, 2)


def test_k_one_builds_and_decodes():
    from qgt.decode import decode

    code = build_code(16, 1, 3)
    assert {blk.kind for blk in code.blocks} == {"sui"}
    assert code.queries == singletons(16)
    for v in range(1, 17):
        assert decode(code, code.feedback([v])) == {v: 1}


def test_full_singleton_level_builds_no_discarded_levels(monkeypatch):
    import qgt.code

    calls = []
    build_sui = qgt.code.build_sui

    def counting_build_sui(*args, **kwargs):
        calls.append(args)
        return build_sui(*args, **kwargs)

    monkeypatch.setattr(qgt.code, "build_sui", counting_build_sui)
    code = build_code_multiset(4096, 16)
    assert len(calls) == 1
    assert code.queries == singletons(4096)


@pytest.mark.parametrize(
    "builder, args",
    [(build_code, (64, 4, 3)), (build_code, (64, 3, 6)), (build_code_large, (64, 16, 2)),
     (build_code_large, (64, 16, 3)), (build_code_multiset, (64, 5))],
)
def test_singleton_level_codes_are_exactly_n(builder, args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # large mode warns outside its regime
        code = builder(*args)
    assert len(code) == args[0]
    assert code.queries == singletons(args[0])


def test_multiset_feedback_uncapped_by_default():
    code = build_code_multiset(8, 2)
    fv = code.feedback({3: 5})
    assert max(fv) == 5
    capped = code.feedback({3: 5}, alpha=2)
    assert max(capped) == 2
