import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qgt.balanced import (
    decode_balanced,
    encode_balanced,
    id_bits,
    slice_query,
    slice_table,
)

SIZES = [4, 8, 16, 32, 64, 128, 256, 512, 1024]


def test_encode_examples():
    assert encode_balanced(1, 8) == (0, 0, 0, 1, 1, 1)
    assert encode_balanced(4, 8) == (0, 1, 1, 1, 0, 0)


def test_weight_is_half():
    for n in SIZES:
        b = id_bits(n) // 2
        for v in range(1, n + 1):
            assert sum(encode_balanced(v, n)) == b


def test_decode_examples():
    assert decode_balanced((0, 0, 0, 1, 1, 1), 8) == 1
    assert decode_balanced((0, 1, 1, 1, 1, 1), 8) is None  # weight 5 != 3
    with pytest.raises(ValueError):
        decode_balanced((0, 1), 8)


@pytest.mark.parametrize("n", SIZES)
def test_roundtrip(n):
    for v in range(1, n + 1):
        assert decode_balanced(encode_balanced(v, n), n) == v


def test_injective():
    for n in SIZES:
        words = {encode_balanced(v, n) for v in range(1, n + 1)}
        assert len(words) == n


def test_pair_superposition_invalid():
    for n in [4, 8, 16]:
        for v, w in itertools.combinations(range(1, n + 1), 2):
            summed = tuple(
                a + b for a, b in zip(encode_balanced(v, n), encode_balanced(w, n))
            )
            assert decode_balanced(summed, n) is None


@given(st.data())
def test_multi_superposition_invalid(data):
    n = data.draw(st.sampled_from(SIZES))
    count = data.draw(st.integers(2, min(5, n)))
    elements = data.draw(
        st.lists(st.integers(1, n), min_size=count, max_size=count, unique=True)
    )
    summed = [0] * id_bits(n)
    for v in elements:
        for i, bit in enumerate(encode_balanced(v, n)):
            summed[i] += bit
    assert decode_balanced(tuple(summed), n) is None


def test_slice_positions():
    # 1's identifier is 000111: one-bits at positions 1, 2, 3 (LSB first)
    hits = [i for i in range(1, 7) if 1 in slice_query(frozenset({1}), i, 8)]
    assert hits == [1, 2, 3]
    assert slice_query(frozenset(), 3, 8) == frozenset()
    with pytest.raises(ValueError):
        slice_query(frozenset({1}), 7, 8)


def test_each_element_in_half_the_slices():
    n = 16
    s = frozenset(range(1, n + 1))
    b = id_bits(n) // 2
    for v in s:
        member = sum(1 for i in range(1, id_bits(n) + 1) if v in slice_query(s, i, n))
        assert member == b


@pytest.mark.parametrize("n", [2**e for e in range(1, 13)])
def test_slice_table_matches_identifiers(n):
    width = id_bits(n)
    table = slice_table(n)
    assert len(table) == width
    for i in range(1, width + 1):
        expected = {v for v in range(1, n + 1) if encode_balanced(v, n)[width - i] == 1}
        assert table[i - 1] == expected


def test_slice_query_rejects_elements_outside_universe():
    with pytest.raises(ValueError):
        slice_query(frozenset({9}), 1, 8)
    with pytest.raises(ValueError):
        slice_query(frozenset({0, 3}), 1, 8)


def test_slices_share_base_and_empty():
    s = frozenset({1})  # identifier 000111
    assert slice_query(s, 1, 8) is s
    assert slice_query(s, 4, 8) is slice_query(frozenset({2, 3}), 6, 8)


def test_slice_of_plain_set_is_frozenset():
    s = {1, 2, 3, 4}  # bit 3 is one for all of them, bit 6 for none
    for i in range(1, 7):
        part = slice_query(s, i, 8)
        assert type(part) is frozenset
        assert part == {v for v in s if encode_balanced(v, 8)[6 - i] == 1}


@pytest.mark.parametrize("v", [0, 9])
def test_encode_refuses_an_element_outside_the_universe(v):
    with pytest.raises(ValueError, match=rf"^element {v} outside universe \[1\.\.8\]$"):
        encode_balanced(v, 8)


def test_a_word_of_the_right_weight_whose_low_half_is_not_the_complement_is_invalid():
    word = (1, 1, 0, 1, 0, 0)  # weight 3 = log2 8; the complement of 110 is 001
    assert sum(word) == 3
    assert decode_balanced(word, 8) is None
