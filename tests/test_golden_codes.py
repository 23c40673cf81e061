"""Golden outputs: sha256 of code_to_text for fixed builds at the default seed.

Any change to construction, slicing or serialization that alters a
single byte of a built code shows up here.  The hashes were recorded
after one-element bases dropped their slices and assembly began to
stop at the first full singleton level; plain (1024, 4, 2), a
Reed-Solomon table with no base of fewer than two elements, kept its
earlier hash.  The output must not depend on set iteration order, so
the hashes hold under any PYTHONHASHSEED.
"""

import hashlib
import warnings

import pytest

from qgt.code import build_code, build_code_large, build_code_multiset
from qgt.serialize import code_to_text

BUILDERS = {"plain": build_code, "large": build_code_large, "multiset": build_code_multiset}

GOLDEN = [
    ("plain", (1024, 4, 2), "575bf14edc709c6e648082919b1ee4503259195802260e106e6b6017652292b9"),
    ("plain", (1024, 16, 4), "fcd3186950b199946ed0c688297cd77d07fb47b372f5edc9ed0128fbe2a6a729"),
    ("multiset", (1024, 8), "c97262e573f4c6951d3aa11d861b401c12a0927525502a7e18bb72a25319a7de"),
    ("large", (1024, 32, 2), "575a8584321af3cb1132e16a8e2f1918f6c523dfe57d01a5097f6cb8a2548117"),
    ("plain", (64, 4, 3), "b8c4ade73825d573265104b5b4828b3e9305ab1265ac2193fc418153443d49b7"),
    ("large", (64, 16, 2), "070e27fb4b7b9aee86032946cab0cc8c4ce8b721846a32e4f4cbb07abf04c68d"),
    ("multiset", (4096, 16), "34ed610b057f35b5ac42ca29ee5fd02c4520aa4655b66e87932ad797f75f2963"),
    # One row per parameter branch of the shared level loop; at n = 64
    # each code ends at its first level, the singletons.
    # cap > kappa: a strong selector would sit at level 1
    ("plain", (64, 3, 6), "3135b7346dbc6f073c23c50fadda90c607d1140b23970809a91ae9c5b6ddcc80"),
    # k not a power of two
    ("plain", (64, 5, 3), "4d8bde29f2395436f1f65c495a5ab0ae07b32c1d65d04d247cda39604cdaa0c6"),
    # cap > kappa: no chunked levels
    ("large", (64, 4, 7), "84d1e6cea7af557952460e205b2b1107039dc49df3ea9b6d7b5f3d7facbd5f55"),
    # selector levels, then chunked levels
    ("large", (64, 16, 3), "8f625da4b8ce6c5b2a776561bf82a252eafdbd714848c210b08f0daa3b555c2a"),
    ("multiset", (64, 5), "2f2710f304847896ccab98d615e356b0fdceaaa351839037cd95c7635bfe0549"),
    # Reed-Solomon tables with bare bases: empty and one-element (n = 16),
    # one-element beside two-element (n = 32)
    ("plain", (16, 2, 2), "8982befe9af2bad86553d659f543d17305d586358a4b75f0eae69c92cc2599fb"),
    ("plain", (32, 2, 2), "92918d5fbb1f4eea48a4f2452a357590f1dcc92f0538a41913daff8f165d26e2"),
]


@pytest.mark.parametrize(
    ("mode", "args", "digest"),
    GOLDEN,
    ids=["-".join([m, *map(str, a)]) for m, a, _ in GOLDEN],
)
def test_code_text_hash(mode, args, digest):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # large mode warns outside its regime
        code = BUILDERS[mode](*args)
    assert hashlib.sha256(code_to_text(code).encode()).hexdigest() == digest
