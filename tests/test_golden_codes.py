"""Golden outputs: sha256 of code_to_text for fixed builds at the default seed.

Any change to construction, slicing or serialization that alters a
single byte of a built code shows up here.  The hashes were recorded
with the per-element slicing that the slice table replaced.
"""

import hashlib
import warnings

import pytest

from qgt.code import build_code, build_code_large, build_code_multiset
from qgt.serialize import code_to_text

BUILDERS = {"plain": build_code, "large": build_code_large, "multiset": build_code_multiset}

GOLDEN = [
    ("plain", (1024, 4, 2), "575bf14edc709c6e648082919b1ee4503259195802260e106e6b6017652292b9"),
    ("plain", (1024, 16, 4), "31e67bd342908e4f32e09d5df039cd742241cb2da6deb89f643fd8cbdad98332"),
    ("multiset", (1024, 8), "9a232825f27ac6d0daed442a0de66f883e8e139cac82e83e8cd228214f0d6d1c"),
    ("large", (1024, 32, 2), "92b174e708786f1a1b8ffd7ee688b5bc2d482d585b2f16b7739e526853fec150"),
    ("plain", (64, 4, 3), "25fe0b5c14a554df4ea8adced195e66f4a4f5286fbe422cd2f184f320ae01e26"),
    ("large", (64, 16, 2), "501358b11900ec98c60aab0a3ff023ce6968d469199406d5d58240e41186cc99"),
    ("multiset", (4096, 16), "73eb482fe18d7277d5b7a4a7cc9609e57c4264d9eb8778cc21726b37ecfdbc5f"),
    # Each branch of the shared level loop; recorded before the three
    # builders became one loop.
    # cap > kappa: the strong selector sits at level 1
    ("plain", (64, 3, 6), "fec83830b2026de833626247e4051963e9b92793e280d8bb5e5b975d91e3b651"),
    # k not a power of two
    ("plain", (64, 5, 3), "057632c957db57775a23b3fa0199d3c793a91360b1044ed18e68a7cd955aca73"),
    # cap > kappa: no chunked levels
    ("large", (64, 4, 7), "1342c48dab5db05dd74d4cfb8cb9f80f8d30367e372cf9e77225ff81cda08dcc"),
    # selector levels, then chunked levels
    ("large", (64, 16, 3), "d1764531e6685eba775e6b722c72c4c61e3f7cd5771a5293623ac71606ae66a6"),
    ("multiset", (64, 5), "94aa85229137ec9cbfba26cea7da55e537a8851108cfcc5728d579eaf897fae4"),
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
