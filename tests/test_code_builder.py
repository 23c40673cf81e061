import dataclasses
import itertools
import warnings

import pytest

from qgt.balanced import id_bits, slice_query
from qgt.code import (
    FAMILIES,
    SlicedTable,
    build,
    build_code,
    build_code_large,
    build_code_multiset,
    enhance,
)
from qgt.model import incidence, singletons
from qgt.serialize import FormatError, code_from_text, code_to_text
from qgt.ssui import is_prime, rs_size, rs_trunc_size

from rs_table import rs_table_code


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
        code = rs_table_code(n, 2)
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
    # one strong selector at level k, here the n singletons: the
    # truncated width-3 table is longer than n below 2^11
    code = build_code(32, 3, 3)
    assert {(blk.kind, blk.level) for blk in code.blocks} == {("ssui", 3)}
    assert code.queries == singletons(32)
    assert all(blk.slices == 0 for blk in code.blocks)


def test_duplicate_levels_emitted_once():
    # at n=1024 the one selector level is the singleton family
    code = build_code(1024, 4, 4)
    assert {(blk.kind, blk.level) for blk in code.blocks} == {("ssui", 4)}


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


@pytest.mark.parametrize("n, k, alpha", [(32, 8, 2), (32, 1, 2), (32, 1, 3), (512, 2, 2)])
def test_large_mode_is_the_plain_rule_under_its_header(n, k, alpha):
    code = build_code_large(n, k, alpha)
    assert code.mode == "large"
    assert dataclasses.replace(code, mode="plain") == build_code(n, k, alpha)
    assert {(blk.kind, blk.level) for blk in code.blocks} == {("ssui", k)}


@pytest.mark.parametrize("n, k", [(16, 4), (32, 1), (512, 2), (2048, 3), (4096, 5)])
def test_multiset_code_is_the_n_singletons_at_alpha_zero(n, k):
    # a stream sketch's delete check needs every element alone in a query
    code = build_code_multiset(n, k)
    assert {(blk.kind, blk.level) for blk in code.blocks} == {("ssui", k)}
    assert code.alpha == 0
    assert code.mode == "multiset"
    assert code.queries == singletons(n)


def test_occurrence_accounting():
    for n, k in ((16, 2), (32, 1), (512, 2)):  # the singletons and two tables
        code = build_code(n, k, 2)
        reference = incidence(tuple(code.queries))
        assert code.occurrence_max == max(len(ix) for ix in reference.values())
        for v in range(1, n + 1):
            assert code.incidence[v] == reference[v]
            assert all(v in code.queries[i] for i in code.incidence[v])
        # every element must appear somewhere, else it could never be decoded
        assert set(reference) == set(range(1, n + 1))
        with pytest.raises(KeyError):
            code.incidence[n + 1]


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
    assert {blk.kind for blk in code.blocks} == {"ssui"}
    assert code.queries == singletons(16)
    for v in range(1, 17):
        assert decode(code, code.feedback([v])) == {v: 1}
    # from n = 2^5 a k = 1 code is the table at one argument: odd and even
    table = build_code(32, 1, 3)
    assert [len(table.queries[blk.base]) for blk in table.blocks] == [16, 16]
    for v in range(1, 33):
        assert decode(table, table.feedback([v])) == {v: 1}


def test_full_singleton_level_builds_no_discarded_levels(monkeypatch):
    import qgt.code

    calls = []
    original = qgt.code.singletons

    def counting_singletons(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(qgt.code, "singletons", counting_singletons)
    code = build_code_multiset(4096, 16)
    assert calls == []  # a built code stays its rule
    assert code.queries == singletons(4096)
    assert code.queries == singletons(4096)
    assert calls == [(4096,)]  # laid out once, on the first full access


@pytest.mark.parametrize(
    "builder, args",
    [(build_code, (64, 4, 3)), (build_code, (64, 3, 6)), (build_code_large, (64, 16, 2)),
     (build_code_large, (64, 16, 3)), (build_code_multiset, (64, 5))],
)
def test_singleton_level_codes_are_exactly_n(builder, args):
    code = builder(*args)
    assert len(code) == args[0]
    assert code.queries == singletons(args[0])


def test_multiset_feedback_uncapped_by_default():
    code = build_code_multiset(8, 2)
    fv = code.feedback({3: 5})
    assert max(fv) == 5
    capped = code.feedback({3: 5}, alpha=2)
    assert max(capped) == 2


def test_large_mode_builds_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        build_code_large(32, 8, 2)


def test_auto_mode_is_gone():
    with pytest.raises(ValueError, match="unknown build mode"):
        build(32, 2, 2, mode="auto")
    assert build(32, 2, 2).mode == "plain"


def _table_wins(n, k):
    q, _, points = rs_trunc_size(n, k)
    return points * q * (1 + id_bits(n)) < n


# Smallest n = 2^e at which the laid-out truncated width-k table is
# shorter than the n singletons, from rs_trunc_size alone (nothing is built).
CROSSOVER = {1: 5, 2: 9, 3: 11, 4: 12, 5: 12, 8: 14, 16: 16, 32: 18}

# The same for the full (n, kappa, kappa, 1) table of build_ssui, from rs_size.
FULL_TABLE_CROSSOVER = {1: 15, 2: 18, 4: 18, 8: 19, 16: 21, 32: 23}


@pytest.mark.parametrize("k, first", sorted(CROSSOVER.items()))
def test_truncated_table_crossover_from_closed_form(k, first):
    wins = [e for e in range(1, 40) if _table_wins(2**e, k)]
    assert wins == list(range(first, 40))  # and it keeps winning
    n = 2**first
    q, d, points = rs_trunc_size(n, k)
    assert points == (k - 1) * d + 1 <= q
    assert is_prime(q) and q ** (d + 1) >= n


@pytest.mark.parametrize("kappa, first", sorted(FULL_TABLE_CROSSOVER.items()))
def test_table_crossover_from_closed_form(kappa, first):
    # the full table's length q^2 * (1 + 2*log2 n) is exact once n >= 2q;
    # where it first beats n the truncated table is far shorter, so the
    # build rule never needs it
    def full_length(n):
        return rs_size(n, kappa, kappa, 1)[0] ** 2 * (1 + id_bits(n))

    wins = [e for e in range(1, 40) if full_length(2**e) < 2**e]
    assert wins[0] == first
    n = 2**first
    assert n >= 2 * rs_size(n, kappa, kappa, 1)[0]
    q, _, points = rs_trunc_size(n, kappa)
    assert 2 * points * q * (1 + id_bits(n)) < full_length(n)


def test_table_params_skips_only_searches_that_cannot_win():
    # SlicedTable.at returns None before the prime search where k*k bases with their
    # slices reach n; the full search must agree at every (n, k)
    skipped = 0
    for e in range(1, 19):
        n = 2**e
        for k in range(1, min(n, 64) + 1):
            full = "family rs %d %d %d" % rs_trunc_size(n, k) if _table_wins(n, k) else None
            table = SlicedTable.at(n, k, "plain")
            assert (table and table.line) == full, (n, k)
            skipped += k * k * (1 + id_bits(n)) >= n
    assert skipped > 0


@pytest.mark.parametrize("e", range(1, 13))
def test_build_takes_the_first_shortest_admissible_family(e):
    # one rule, read by build, the writer and the parser alike: the family built is
    # the first shortest one some class admits, and a family line parses exactly
    # when its family is admissible at the header's (n, k, mode)
    n = 2**e
    for k in range(1, min(n, 64) + 1):
        q, d, points = rs_trunc_size(n, k)
        lines = ("family singletons", f"family rs {q} {d} {points}")
        for mode, alpha in (("plain", 2), ("large", 3), ("multiset", 0)):
            admissible = [f for f in (cls.at(n, k, mode) for cls in FAMILIES) if f is not None]
            shortest = min(len(f) for f in admissible)
            code = build(n, k, alpha, mode)
            assert code.family.line == next(f.line for f in admissible if len(f) == shortest), (n, k, mode)
            assert len(code) <= n
            assert code_to_text(code).splitlines()[5] == code.family.line
            header = f"qgtc 2\nn {n}\nk {k}\nalpha {alpha}\nmode {mode}\n"
            for line in lines:
                try:
                    parsed = code_from_text(f"{header}{line}\n")
                except FormatError:
                    parsed = None
                assert (parsed is not None) == (line in {f.line for f in admissible}), (n, k, mode, line)


def _reference_trunc_size(n, k):
    """Brute force over d and q: the smallest L*q, ties to the smaller d."""
    best = None
    for d in range(1, n.bit_length() + 2):
        points = (k - 1) * d + 1
        q = next(q for q in itertools.count(points) if is_prime(q) and q ** (d + 1) >= n)
        if best is None or points * q < best[0] * best[2]:
            best = (q, d, points)
    return best


@pytest.mark.parametrize("e", range(1, 13))
def test_rs_trunc_size_minimises_the_table_length(e):
    for k in (1, 2, 3, 4, 5, 8, 16, 50):
        assert rs_trunc_size(2**e, k) == _reference_trunc_size(2**e, k), (e, k)


def test_laid_out_table_length_is_its_closed_form():
    code = rs_table_code(1024, 1)
    assert rs_size(1024, 1, 1, 1)[0] == 23
    assert len(code) == 23**2 * 21 == 11_109
    assert all(blk.slices == id_bits(1024) for blk in code.blocks)


def test_k_one_table_at_2_15_is_62_queries():
    # two bases (odd and even elements) with 30 slices each
    assert rs_trunc_size(2**15, 1) == (2, 14, 1)
    assert len(build_code(2**15, 1, 2)) == 62


BUILDERS = {
    "plain": lambda n, k: build_code(n, k, 2),
    "large": lambda n, k: build_code_large(n, k, 3),
    "multiset": build_code_multiset,
}


def _refuse_old_builders(monkeypatch):
    """Make build_sui, build_sui_rr and build_ssui raise wherever they are looked up."""
    import qgt
    import qgt.code
    import qgt.ssui
    import qgt.sui

    def refuse(*args, **kwargs):
        raise AssertionError("a code builder called an old selector builder")

    for module in (qgt, qgt.code, qgt.ssui, qgt.sui):
        for name in ("build_sui", "build_sui_rr", "build_ssui"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)


def test_assemble_takes_the_table_exactly_where_it_wins(monkeypatch):
    import qgt.code

    calls = []

    def spy(name, original):
        def wrapper(*args):
            calls.append(name)
            return original(*args)

        return wrapper

    for name in ("rs_trunc_size", "truncated_table", "singletons"):
        monkeypatch.setattr(qgt.code, name, spy(name, getattr(qgt.code, name)))
    _refuse_old_builders(monkeypatch)
    for mode in ("plain", "large"):
        for k, first in ((1, 5), (2, 9)):
            calls.clear()
            code = BUILDERS[mode](2 ** (first - 1), k)
            assert calls == ["rs_trunc_size"]  # decided, and nothing laid out
            assert code.queries == singletons(2 ** (first - 1))
            assert calls == ["rs_trunc_size", "singletons"]
            calls.clear()
            code = BUILDERS[mode](2**first, k)
            assert len(code) < 2**first
            assert calls == ["rs_trunc_size"]
            assert len(code.queries[0]) > 1
            assert calls == ["rs_trunc_size", "truncated_table"]
    calls.clear()
    assert len(BUILDERS["multiset"](2**5, 1)) == 2**5
    assert calls == []


def test_no_builder_calls_the_old_selector_builders(monkeypatch):
    _refuse_old_builders(monkeypatch)
    for e in range(1, 10):
        for k in (1, 2, 3, 4, 8):
            if k <= 2**e:
                for mode in BUILDERS:
                    build(2**e, k, 2 if mode == "plain" else 3, mode)


def test_plain_is_never_longer_than_n_or_large():
    for e in range(1, 9):
        n = 2**e
        for k in sorted({k for k in (1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 32, n) if k <= n}):
            lengths = set()
            for alpha in range(2, k + 4):
                plain = len(build_code(n, k, alpha))
                assert plain <= min(n, len(build_code_large(n, k, alpha))), (n, k, alpha)
                lengths.add(plain)
            assert len(lengths) == 1, (n, k)  # the length does not depend on alpha
