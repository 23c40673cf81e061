"""Differential decode properties over small codes of every decodable mode.

For an arbitrary feedback vector the decoder either raises DecodeError
or returns a multiset of at most k distinct elements whose encoding is
exactly that vector; every set of at most k elements decodes to itself.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgt.code import MODE_MULTISET, build_code, build_code_large, build_code_multiset
from qgt.decode import DecodeError, decode

from rs_table import rs_table_code, trunc_table_code

CODES = (
    build_code(4, 4, 3),
    build_code(8, 2, 2),
    build_code(16, 3, 3),
    build_code(16, 4, 2),
    build_code_large(16, 8, 2),
    build_code_large(16, 4, 4),
    build_code_multiset(8, 2),
    build_code_multiset(16, 3),
    # at kappa = 1 the table has q < n, so its bases hold several elements
    rs_table_code(8, 1),
    rs_table_code(16, 1),
    rs_table_code(16, 2),
    dataclasses.replace(rs_table_code(16, 1), alpha=3),
    dataclasses.replace(rs_table_code(16, 4), alpha=3),
    # the table read exactly: multiplicities spelled out through slices
    dataclasses.replace(rs_table_code(16, 1), alpha=0, mode=MODE_MULTISET),
    # the truncated width-k table, as built from n = 2^5 at k = 1 and laid
    # out below the n where the builder takes it
    build_code(32, 1, 2),
    trunc_table_code(16, 2),
    trunc_table_code(32, 2),
    trunc_table_code(16, 3, alpha=3),
    trunc_table_code(32, 2, alpha=3),
    trunc_table_code(16, 2, alpha=0, mode=MODE_MULTISET),
    trunc_table_code(32, 3, alpha=0, mode=MODE_MULTISET),
)
CODE_IDS = [f"{c.mode}-{c.n}-{c.k}-{c.alpha}-m{len(c)}" for c in CODES]


def test_codes_cover_fat_bases_in_plain_and_multiset_mode():
    fat = [c for c in CODES if any(len(c.queries[b.base]) > 1 for b in c.blocks)]
    assert {c.mode for c in fat} == {"plain", MODE_MULTISET}


@st.composite
def _code_and_vector(draw):
    """An encoding of any multiset (possibly over k, possibly capped), then a few values overwritten."""
    code = draw(st.sampled_from(CODES))
    hidden = draw(
        st.dictionaries(st.integers(1, code.n), st.integers(1, 3), max_size=code.k + 1)
    )
    fv = list(code.feedback(hidden))
    for _ in range(draw(st.integers(0, 3))):
        idx = draw(st.integers(0, len(fv) - 1))
        fv[idx] = draw(st.integers(0, max(code.alpha, 3) + 1))
    return code, tuple(fv)


@given(_code_and_vector())
@settings(max_examples=1500, deadline=None)
def test_arbitrary_vector_raises_or_is_reproduced_exactly(case):
    code, fv = case
    try:
        got = decode(code, fv)
    except DecodeError:
        return
    assert len(got) <= code.k
    assert all(mult >= 1 for mult in got.values())
    assert code.feedback(got) == fv


@pytest.mark.parametrize("code", CODES, ids=CODE_IDS)
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_every_set_within_capacity_decodes_to_itself(code, data):
    hidden = data.draw(st.sets(st.integers(1, code.n), max_size=code.k))
    assert decode(code, code.feedback(hidden)) == {v: 1 for v in hidden}


@pytest.mark.parametrize("code", [c for c in CODES if c.mode == MODE_MULTISET])
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_every_multiset_within_capacity_decodes_to_itself(code, data):
    hidden = data.draw(
        st.dictionaries(st.integers(1, code.n), st.integers(1, 4), max_size=code.k)
    )
    assert decode(code, code.feedback(hidden)) == dict(sorted(hidden.items()))


def test_plain_code_reads_a_multiplicity_below_the_cap():
    # no set produces a 2 at a singleton; the one multiset that does is returned
    code = build_code(16, 3, 3)
    fv = [0] * len(code)
    (idx,) = code.incidence[5]
    fv[idx] = 2
    assert decode(code, tuple(fv)) == {5: 2}


def test_multiset_code_refuses_more_than_k_distinct_elements():
    code = build_code_multiset(16, 3)
    fv = code.feedback({1: 1, 2: 2, 3: 1, 4: 1})
    with pytest.raises(DecodeError, match="more than k=3"):
        decode(code, fv)
