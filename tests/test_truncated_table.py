"""Exhaustive round trips on the truncated width-k Reed-Solomon table.

The builder takes the table only where it is shorter than n (first at
n = 2^5 for k = 1 and 2^9 for k = 2), so these tests lay it out through
the eager reference layout at small n, where every set and multiset within
capacity can be enumerated.  Each set of at most k elements decodes to
itself at caps 2, 3 and 5, and ``verify_uniqueness`` passes; each
multiset of total at most k decodes to itself from an exact readout
(``verify_decoding``).
"""

import pytest

from qgt.bounds import verify_decoding, verify_uniqueness
from qgt.code import MODE_MULTISET
from qgt.ssui import rs_trunc_size

from rs_table import trunc_table_code

CONFIGS = [(16, 2), (16, 3), (32, 1), (32, 2), (32, 3)]


def test_configs_are_shorter_tables_with_fat_bases():
    for n, k in CONFIGS:
        q, _, points = rs_trunc_size(n, k)
        code = trunc_table_code(n, k)
        assert len(code.blocks) <= points * q < n
        assert any(len(code.queries[blk.base]) > 1 for blk in code.blocks)


@pytest.mark.parametrize("alpha", [2, 3, 5])
@pytest.mark.parametrize("n, k", CONFIGS)
def test_every_set_decodes_and_sets_are_separated(n, k, alpha):
    code = trunc_table_code(n, k, alpha)
    assert verify_decoding(code) is None
    assert verify_uniqueness(code.queries, n, k, alpha)


@pytest.mark.parametrize("n, k", CONFIGS)
def test_every_multiset_decodes_from_an_exact_readout(n, k):
    assert verify_decoding(trunc_table_code(n, k, alpha=0, mode=MODE_MULTISET)) is None
