"""Golden outputs: sha256 of code_to_text for fixed builds at the default seed.

Any change to construction, slicing or serialization that alters a
single byte of a built code shows up here.  The hashes were recorded
after one-element bases dropped their slices and assembly began to
stop at the first full singleton level; the three plain alpha = 2 rows
were recorded again when plain mode began to take the n singletons
wherever they are shorter than the Reed-Solomon table.  Every other
row was recorded again when every mode began to label its one family
"ssui" at level k; only the block lines changed, no query.  The output
must not depend on set iteration order, so the hashes hold under any
PYTHONHASHSEED.
"""

import hashlib

import pytest

from qgt.code import build_code, build_code_large, build_code_multiset
from qgt.serialize import code_to_text

BUILDERS = {"plain": build_code, "large": build_code_large, "multiset": build_code_multiset}

GOLDEN = [
    # code._assemble builds one family, labelled "ssui" at level k: the
    # truncated width-k Reed-Solomon table where its laid-out length bound
    # is below n, else the n singletons.
    # The n singletons, in plain mode at alpha = 2 ...
    ("plain", (1024, 4, 2), "1e461d13026c7997d51a3930ce65068452469cbe2102a893fba2dbb677a746ac"),
    ("plain", (16, 2, 2), "01360c6d97a227f47fcb666b79ce09d9ef49c052a705fb0704edfee55e1dac0d"),
    ("plain", (32, 2, 2), "41a7bf7c7fd2469ceeaf56e288c52f1ecd0309cf9f3402e6f06435ef58038d27"),
    # ... in large mode at alpha = 2
    ("large", (1024, 32, 2), "1fb02d789f150e94d10504eda25c966442aaac362c7526f41be0b5baa5795645"),
    ("large", (64, 16, 2), "243939abce8e3af63a3904194eabceb706958344e21c9f270b580759e75e6516"),
    # ... at alpha >= 3
    ("plain", (1024, 16, 4), "ae094e4d56080e3d54c6c0fae43b7e65880b77adb8dfb849fe40a6a7d42b534a"),
    ("plain", (64, 4, 3), "ad9f2304beb70fcb4f13568cedc823677a2aae1a43e71ac97d3c6336ccb5d7f5"),
    # ... with alpha > k
    ("plain", (64, 3, 6), "f00cdfa38096d9d256ac1a7ce64976173eeb56e42bd73fc8dbe6481eaa3f4f2d"),
    # ... with k not a power of two
    ("plain", (64, 5, 3), "19faaadf8d1518665477214a6e05695fe98db20a00ef06e65069b5b9393b15d7"),
    # ... in large mode at alpha >= 3
    ("large", (64, 4, 7), "10ab051af780b9a02aa1ae9ad40e9fb01f65736361bae91a2a50064ffd41e320"),
    ("large", (64, 16, 3), "ae8113da474be834e527927a6442f5b12ac26b99c559d3c29a1f25028ced8581"),
    # ... in multiset mode
    ("multiset", (1024, 8), "7606ddbc4fbb79a7ff05a1842d71e2e6c3f8db854bf97e40da2d7e3ff2147581"),
    ("multiset", (4096, 16), "aa699613e35b8f16589ef292c997411506044256a64598d96bad847d9e24d1b1"),
    ("multiset", (64, 5), "275a201f729eeaddb93cc254c87bfe1f422d4d08582818d30beef7627be58977"),
    # ... where plain and large mode take the table
    ("multiset", (2048, 3), "1ffedb456d04ad7151ebc6724d7877bc00df6c1d0e9093fad22af0332550b55d"),
    # The truncated table: k = 1 from n = 2^5, k = 2 from 2^9, k = 3 from
    # 2^11, k = 5 from 2^12, in plain and large mode
    ("plain", (32, 1, 2), "ef73be155a368d80f006bf1735f70cef0d53e3054ae2cb10868fc10885e0f30d"),
    ("plain", (512, 2, 2), "f4eef4fcd0f59eed3d90cc8ba3fe32b113ef5bb28aacce65cf1365ba3a8a1053"),
    ("large", (2048, 3, 2), "d8bb5456238cbc995c6a9a24680384a44cdd21549f02e8f1f33ce64fa5a5e5af"),
    ("large", (4096, 5, 3), "61cbe8b41d2d3aa0b6e585376d7c7ca2c46018f9b0a765b0ca3abccd24727d2e"),
]


@pytest.mark.parametrize(
    ("mode", "args", "digest"),
    GOLDEN,
    ids=["-".join([m, *map(str, a)]) for m, a, _ in GOLDEN],
)
def test_code_text_hash(mode, args, digest):
    code = BUILDERS[mode](*args)
    assert hashlib.sha256(code_to_text(code).encode()).hexdigest() == digest
