"""Built codes stay their rule: the lazy layout against the eager reference.

A built family (``code.Singletons``, ``code.SlicedTable``) makes no set
or block; its queries and blocks are laid out on the first access that
needs them, and incidence and the block at a position are read in
closed form.  Over the builder sweep the laid-out code must equal
the eager reference layout of the same family, and every closed form
must agree with what the laid-out sets say.
"""

import pytest

import qgt
import qgt.balanced
import qgt.code
import qgt.model
import qgt.ssui
from qgt.code import KIND_SSUI, Singletons, SlicedTable, build_code, build_code_large
from qgt.code import build_code_multiset
from qgt.decode import decode
from qgt.model import incidence, singletons
from qgt.serialize import code_from_text, code_to_text
from qgt.ssui import truncated_table

from layout_reference import eager_layout
from list_form import list_text

SWEEP_K = (1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 32)


def _sweep(e):
    n = 2**e
    for k in sorted({k for k in (*SWEEP_K, n) if k <= n}):
        yield build_code(n, k, 2)
        yield build_code_large(n, k, 3)
        yield build_code_multiset(n, k)


def _reference(code):
    family = code.family
    sets = singletons(code.n) if type(family) is Singletons else truncated_table(code.n, family.q, family.points)
    return eager_layout(sets, code.n, code.k, code.alpha, code.mode)


def _check_closed_forms(code, ref):
    """Incidence, occurrence_max and the block at each position."""
    n = code.n
    assert code.occurrence_max == ref.occurrence_max
    model_inc = incidence(ref.queries)
    assert all(code.incidence[v] == model_inc[v] for v in range(1, n + 1)), (n, code.k)
    for p, s in enumerate(ref.queries):
        slices = ref.family.block_at[p]
        assert code.family.block_at[p] == slices
        if slices == 0:  # only the singletons lay out 0-slice blocks
            assert type(code.family) is Singletons and s == {p + 1}


@pytest.mark.parametrize("e", range(1, 13))
def test_lazy_layout_matches_the_eager_reference(e):
    checked = set()
    for code in _sweep(e):
        ref = _reference(code)
        keys = [group[:2] for group in code.block_groups]
        assert keys == [group[:2] for group in ref.block_groups] == [(KIND_SSUI, code.k)]
        blocks, ref_blocks = code.family.blocks(code.k), ref.family.blocks(ref.k)
        assert len(code) == len(ref.queries) and len(blocks) == len(ref_blocks)
        if (code.family.line, code.k) not in checked:  # plain and large share their layout
            checked.add((code.family.line, code.k))
            _check_closed_forms(code, ref)
        assert tuple(code.queries) == ref.queries and tuple(blocks) == ref_blocks
        assert code == ref and ref == code and hash(code) == hash(ref)
        assert tuple(code.block_groups[0][2]) == ref.block_groups[0][2]


def test_incidence_is_filled_on_use():
    code = build_code(32, 1, 2)
    inc = code.incidence
    reference = incidence(tuple(code.queries))
    assert len(inc) == 0  # nothing is computed at build
    assert inc.get(5) == reference[5]  # get fills, as [] does
    assert len(inc) == 1
    assert inc[9] == reference[9] and len(inc) == 2
    assert inc.get(0) is None and inc.get(33, ()) == () and len(inc) == 2
    for v in (0, 33, -1, 2.0):
        with pytest.raises(KeyError):
            inc[v]
    assert all(inc[v] == reference[v] for v in range(1, 33)) and len(inc) == 32


def test_equality_and_hash_follow_content():
    four, eight = build_code_multiset(64, 4), build_code_multiset(64, 8)
    assert four.queries == eight.queries  # the singletons do not depend on k
    assert four.family.blocks(four.k) != eight.family.blocks(eight.k) and four != eight
    assert four.queries == singletons(64) and singletons(64) == four.queries
    assert hash(four.queries) == hash(singletons(64))
    assert four.queries != list(singletons(64))  # a tuple never equals a list
    parsed = code_from_text(code_to_text(four))
    assert type(parsed.family) is Singletons
    assert parsed == four and hash(parsed) == hash(four)
    assert {four: 1}[build_code_multiset(64, 4)] == 1
    for code in (four, build_code(512, 2, 2)):  # a family code equals its list twin, and hashes alike
        twin = code_from_text(list_text(code))
        assert type(twin.family) is not type(code.family)
        assert twin == code and code == twin and hash(twin) == hash(code)


def test_a_built_family_reads_as_its_rule_and_no_other_object_equals_its_code(monkeypatch):
    _refuse_layouts(monkeypatch)
    table, singles = build_code(2**18, 4, 3), build_code_multiset(64, 4)
    assert repr(table.family) == "SlicedTable(262144, 'family rs 13 4 13')"
    assert repr(singles.family) == "Singletons(64, 'family singletons')"
    assert table != table.family and singles != singles.queries


def test_a_table_layout_needs_every_base_to_hold_two_elements():
    with pytest.raises(ValueError, match="n >= 2q"):
        SlicedTable(16, 17, 2, 9)
    # every table the build rule takes has q < n / (1 + 2 log2 n)
    for e in range(1, 19):
        for k in (1, 2, 3, 4, 5, 8, 16, 32):
            table = SlicedTable.at(2**e, k, "plain") if k <= 2**e else None
            assert table is None or 2**e >= 2 * table.q


def _refuse_layouts(monkeypatch):
    """Make every maker of sets or slices raise wherever it is looked up."""

    def refuse(*args, **kwargs):
        raise AssertionError("a built code was laid out")

    for module in (qgt, qgt.code, qgt.model, qgt.ssui, qgt.balanced):
        for name in ("singletons", "truncated_table", "rs_table", "bit_slices", "enhance"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)


@pytest.mark.parametrize(
    "n, k", [(1024, 4), (1024, 16), (2048, 3), (4096, 5), (32768, 1), (262144, 4)]
)
def test_building_writing_loading_and_decoding_lay_nothing_out(monkeypatch, n, k):
    _refuse_layouts(monkeypatch)
    hidden = {v: 1 for v in range(n // k // 2, n + 1, n // k)[:k]}
    for code in (build_code(n, k, 2), build_code_large(n, k, 3), build_code_multiset(n, k)):
        parsed = code_from_text(code_to_text(code))
        assert parsed == code and code_to_text(parsed) == code_to_text(code)
        assert decode(parsed, parsed.feedback(hidden)) == hidden
        assert code.occurrence_max == parsed.occurrence_max


def test_hashing_the_2_18_codes_lays_nothing_out(monkeypatch):
    _refuse_layouts(monkeypatch)

    def refuse(*args):
        raise AssertionError("the blocks were laid out")

    for family in (Singletons, SlicedTable):
        monkeypatch.setattr(family, "blocks", refuse)
    for code in (build_code(2**18, 4, 3), build_code_multiset(2**18, 2)):
        parsed = code_from_text(code_to_text(code))
        assert hash(parsed) == hash(code) and {code: 1}[parsed] == 1
