"""Golden outputs: sha256 of code_to_text for fixed builds at the default seed.

Any change to construction, slicing or serialization that alters a
single byte of a built code shows up here.  The hashes were recorded
after one-element bases dropped their slices and assembly began to
stop at the first full singleton level; the three plain alpha = 2 rows
were recorded again when plain mode began to take the n singletons
wherever they are shorter than the Reed-Solomon table.  The output
must not depend on set iteration order, so the hashes hold under any
PYTHONHASHSEED.
"""

import hashlib

import pytest

from qgt.code import build_code, build_code_large, build_code_multiset
from qgt.serialize import code_to_text

BUILDERS = {"plain": build_code, "large": build_code_large, "multiset": build_code_multiset}

GOLDEN = [
    # code._assemble builds one family at level kappa = next_power_of_two(k),
    # chosen by the interference cap of level_params and the mode.
    # cap = 1, plain: the n singletons as a strong selector ("ssui"), since
    # the laid-out Reed-Solomon table is longer below n = 2^15 (kappa = 1)
    ("plain", (1024, 4, 2), "1e461d13026c7997d51a3930ce65068452469cbe2102a893fba2dbb677a746ac"),
    ("plain", (16, 2, 2), "01360c6d97a227f47fcb666b79ce09d9ef49c052a705fb0704edfee55e1dac0d"),
    ("plain", (32, 2, 2), "41a7bf7c7fd2469ceeaf56e288c52f1ecd0309cf9f3402e6f06435ef58038d27"),
    # cap = 1, large: the chunked selector ("rr"), the n singletons
    ("large", (1024, 32, 2), "575a8584321af3cb1132e16a8e2f1918f6c523dfe57d01a5097f6cb8a2548117"),
    ("large", (64, 16, 2), "070e27fb4b7b9aee86032946cab0cc8c4ce8b721846a32e4f4cbb07abf04c68d"),
    # cap > 1: the selector under interference ("sui"), the n singletons
    ("plain", (1024, 16, 4), "fcd3186950b199946ed0c688297cd77d07fb47b372f5edc9ed0128fbe2a6a729"),
    ("plain", (64, 4, 3), "b8c4ade73825d573265104b5b4828b3e9305ab1265ac2193fc418153443d49b7"),
    # ... with cap > kappa
    ("plain", (64, 3, 6), "3135b7346dbc6f073c23c50fadda90c607d1140b23970809a91ae9c5b6ddcc80"),
    # ... with k not a power of two
    ("plain", (64, 5, 3), "4d8bde29f2395436f1f65c495a5ab0ae07b32c1d65d04d247cda39604cdaa0c6"),
    # ... in large mode, with cap > kappa and with 1 < cap < kappa
    ("large", (64, 4, 7), "84d1e6cea7af557952460e205b2b1107039dc49df3ea9b6d7b5f3d7facbd5f55"),
    ("large", (64, 16, 3), "8f625da4b8ce6c5b2a776561bf82a252eafdbd714848c210b08f0daa3b555c2a"),
    # ... in multiset mode, whose cap kappa + 1 never binds
    ("multiset", (1024, 8), "c97262e573f4c6951d3aa11d861b401c12a0927525502a7e18bb72a25319a7de"),
    ("multiset", (4096, 16), "34ed610b057f35b5ac42ca29ee5fd02c4520aa4655b66e87932ad797f75f2963"),
    ("multiset", (64, 5), "2f2710f304847896ccab98d615e356b0fdceaaa351839037cd95c7635bfe0549"),
]


@pytest.mark.parametrize(
    ("mode", "args", "digest"),
    GOLDEN,
    ids=["-".join([m, *map(str, a)]) for m, a, _ in GOLDEN],
)
def test_code_text_hash(mode, args, digest):
    code = BUILDERS[mode](*args)
    assert hashlib.sha256(code_to_text(code).encode()).hexdigest() == digest
