"""Golden outputs for fixed builds at the default seed.

Each row pins two texts of one built code.  The sha256 is of its list
form (``qgtc 1``, rendered by ``list_form.list_text``), so any change to
construction or slicing that alters a single query byte shows up here;
that list must also load back to the built code, as every list file the
earlier writer produced must.  The hashes were recorded after
one-element bases dropped their slices and assembly began to stop at the
first full singleton level; the three plain alpha = 2 rows were recorded
again when plain mode began to take the n singletons wherever they are
shorter than the Reed-Solomon table.  Every other row was recorded again
when every mode began to label its one family "ssui" at level k; only
the block lines changed, no query.  The second text is what
``code_to_text`` writes: the header and one ``family`` line.  The output
must not depend on set iteration order, so both hold under any
PYTHONHASHSEED.
"""

import hashlib

import pytest

from qgt.code import build, build_code, build_code_large, build_code_multiset
from qgt.serialize import code_from_text, code_to_text

from list_form import list_text

BUILDERS = {"plain": build_code, "large": build_code_large, "multiset": build_code_multiset}

GOLDEN = [
    # code.build builds one family, labelled "ssui" at level k: the
    # shortest one admitted at (n, k, mode), the truncated width-k
    # Reed-Solomon table where its laid-out length bound is below n
    # (never in multiset mode), else the n singletons.
    # The n singletons, in plain mode at alpha = 2 ...
    ("plain", (1024, 4, 2), "1e461d13026c7997d51a3930ce65068452469cbe2102a893fba2dbb677a746ac",
     "qgtc 2\nn 1024\nk 4\nalpha 2\nmode plain\nfamily singletons\n"),
    ("plain", (16, 2, 2), "01360c6d97a227f47fcb666b79ce09d9ef49c052a705fb0704edfee55e1dac0d",
     "qgtc 2\nn 16\nk 2\nalpha 2\nmode plain\nfamily singletons\n"),
    ("plain", (32, 2, 2), "41a7bf7c7fd2469ceeaf56e288c52f1ecd0309cf9f3402e6f06435ef58038d27",
     "qgtc 2\nn 32\nk 2\nalpha 2\nmode plain\nfamily singletons\n"),
    # ... in large mode at alpha = 2
    ("large", (1024, 32, 2), "1fb02d789f150e94d10504eda25c966442aaac362c7526f41be0b5baa5795645",
     "qgtc 2\nn 1024\nk 32\nalpha 2\nmode large\nfamily singletons\n"),
    ("large", (64, 16, 2), "243939abce8e3af63a3904194eabceb706958344e21c9f270b580759e75e6516",
     "qgtc 2\nn 64\nk 16\nalpha 2\nmode large\nfamily singletons\n"),
    # ... at alpha >= 3
    ("plain", (1024, 16, 4), "ae094e4d56080e3d54c6c0fae43b7e65880b77adb8dfb849fe40a6a7d42b534a",
     "qgtc 2\nn 1024\nk 16\nalpha 4\nmode plain\nfamily singletons\n"),
    ("plain", (64, 4, 3), "ad9f2304beb70fcb4f13568cedc823677a2aae1a43e71ac97d3c6336ccb5d7f5",
     "qgtc 2\nn 64\nk 4\nalpha 3\nmode plain\nfamily singletons\n"),
    # ... with alpha > k
    ("plain", (64, 3, 6), "f00cdfa38096d9d256ac1a7ce64976173eeb56e42bd73fc8dbe6481eaa3f4f2d",
     "qgtc 2\nn 64\nk 3\nalpha 6\nmode plain\nfamily singletons\n"),
    # ... with k not a power of two
    ("plain", (64, 5, 3), "19faaadf8d1518665477214a6e05695fe98db20a00ef06e65069b5b9393b15d7",
     "qgtc 2\nn 64\nk 5\nalpha 3\nmode plain\nfamily singletons\n"),
    # ... in large mode at alpha >= 3
    ("large", (64, 4, 7), "10ab051af780b9a02aa1ae9ad40e9fb01f65736361bae91a2a50064ffd41e320",
     "qgtc 2\nn 64\nk 4\nalpha 7\nmode large\nfamily singletons\n"),
    ("large", (64, 16, 3), "ae8113da474be834e527927a6442f5b12ac26b99c559d3c29a1f25028ced8581",
     "qgtc 2\nn 64\nk 16\nalpha 3\nmode large\nfamily singletons\n"),
    # ... in multiset mode
    ("multiset", (1024, 8), "7606ddbc4fbb79a7ff05a1842d71e2e6c3f8db854bf97e40da2d7e3ff2147581",
     "qgtc 2\nn 1024\nk 8\nalpha 0\nmode multiset\nfamily singletons\n"),
    ("multiset", (4096, 16), "aa699613e35b8f16589ef292c997411506044256a64598d96bad847d9e24d1b1",
     "qgtc 2\nn 4096\nk 16\nalpha 0\nmode multiset\nfamily singletons\n"),
    ("multiset", (64, 5), "275a201f729eeaddb93cc254c87bfe1f422d4d08582818d30beef7627be58977",
     "qgtc 2\nn 64\nk 5\nalpha 0\nmode multiset\nfamily singletons\n"),
    # ... where plain and large mode take the table
    ("multiset", (2048, 3), "1ffedb456d04ad7151ebc6724d7877bc00df6c1d0e9093fad22af0332550b55d",
     "qgtc 2\nn 2048\nk 3\nalpha 0\nmode multiset\nfamily singletons\n"),
    # The truncated table: k = 1 from n = 2^5, k = 2 from 2^9, k = 3 from
    # 2^11, k = 5 from 2^12, in plain and large mode
    ("plain", (32, 1, 2), "ef73be155a368d80f006bf1735f70cef0d53e3054ae2cb10868fc10885e0f30d",
     "qgtc 2\nn 32\nk 1\nalpha 2\nmode plain\nfamily rs 2 4 1\n"),
    ("plain", (512, 2, 2), "f4eef4fcd0f59eed3d90cc8ba3fe32b113ef5bb28aacce65cf1365ba3a8a1053",
     "qgtc 2\nn 512\nk 2\nalpha 2\nmode plain\nfamily rs 5 3 4\n"),
    ("large", (2048, 3, 2), "d8bb5456238cbc995c6a9a24680384a44cdd21549f02e8f1f33ce64fa5a5e5af",
     "qgtc 2\nn 2048\nk 3\nalpha 2\nmode large\nfamily rs 7 3 7\n"),
    ("large", (4096, 5, 3), "61cbe8b41d2d3aa0b6e585376d7c7ca2c46018f9b0a765b0ca3abccd24727d2e",
     "qgtc 2\nn 4096\nk 5\nalpha 3\nmode large\nfamily rs 17 2 9\n"),
]


IDS = ["-".join([m, *map(str, a)]) for m, a, *_ in GOLDEN]


@pytest.mark.parametrize(("mode", "args", "digest", "family_text"), GOLDEN, ids=IDS)
def test_code_text_hash(mode, args, digest, family_text):
    code = BUILDERS[mode](*args)
    text = list_text(code)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert code_from_text(text) == code


@pytest.mark.parametrize(("mode", "args", "digest", "family_text"), GOLDEN, ids=IDS)
def test_code_is_written_as_its_family_line(mode, args, digest, family_text):
    code = BUILDERS[mode](*args)
    assert code_to_text(code) == family_text
    assert code_from_text(family_text) == code


SWEEP_K = (1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 32, 64)
# Builds the rule refuses, hashed as their error text: n not a power of two,
# k = 0, k > n, alpha below the floor and an unknown mode.
REFUSED = [(12, 2, 2, "plain"), (16, 0, 2, "plain"), (16, 17, 2, "large"), (16, 2, 1, "plain"), (16, 2, 2, "auto")]
# Recorded before every mode's build rule moved into the families' ``at(n, k, mode)``.
SWEEP_DIGEST = "bae2d96cf58d604b254290b8c4c67e93687423b9dd0cafb3a57d94cbdccac3de"


def _sweep_cases():
    for e in range(1, 19):
        n = 2**e
        for k in sorted({k for k in (*SWEEP_K, n) if k <= n}):
            for mode in ("plain", "large", "multiset"):
                for alpha in (2, 3, 5):
                    yield n, k, alpha, mode
    yield from REFUSED


def test_builder_sweep_hash():
    # 1,809 builds over n = 2^1 .. 2^18 in every mode, each written by code_to_text
    # and loaded back, then the refused builds by their error text
    digest = hashlib.sha256()
    refused = 0
    for n, k, alpha, mode in _sweep_cases():
        try:
            code = build(n, k, alpha, mode)
        except ValueError as exc:
            refused += 1
            digest.update(f"{type(exc).__name__}: {exc}\n".encode())
            continue
        text = code_to_text(code)
        assert code_from_text(text) == code, (n, k, alpha, mode)
        digest.update(text.encode())
    assert refused == len(REFUSED)
    assert digest.hexdigest() == SWEEP_DIGEST
