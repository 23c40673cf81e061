import pytest

from qgt.bounds import verify_uniqueness
from qgt.random_code import (
    RandomCode,
    RandomCodeParams,
    build_random_code,
    find_verified_code,
    verify_claims,
)


def test_t1_formula_frozen_value():
    # ceil(64 * (ln(64e) + 4)) with ln 64 = 4.1588...: 64 * 9.1588... = 586.16...
    assert RandomCodeParams(64, 1, 8, 0).t1 == 587


def test_probabilities():
    p = RandomCodeParams(64, 4, 8, 0)
    assert p.p1 == 8 / (6 * 64)
    assert p.p2 == min(1 / 24, 8 / 384)


def test_fallback_threshold():
    p = RandomCodeParams(32, 3, 8, 0)
    assert p.fallback  # t1 + t2 >= 32 at this scale
    code = build_random_code(32, 3, 8)
    assert code.fallback
    assert len(code.queries) == 32
    assert code.queries == tuple(frozenset({v}) for v in range(1, 33))
    assert len(code.queries) == min(p.t1 + p.t2, 32)


def test_fallback_claims_pass_trivially():
    code = build_random_code(32, 3, 8)
    report = verify_claims(code)
    assert report.passed
    assert report.lines()[0].endswith("pass")


def test_injected_oversized_query_fails_claim1():
    base = build_random_code(32, 3, 8)
    tampered = RandomCode(
        base.queries + (frozenset(range(1, 12)),),
        base.n, base.k, base.alpha, base.seed, base.t1 + 1, base.t2, base.fallback,
    )
    report = verify_claims(tampered)
    assert not report.claim1
    assert report.witness1 is not None
    assert not report.passed


def test_determinism():
    assert build_random_code(4096, 40, 128, seed=3) == build_random_code(4096, 40, 128, seed=3)


def test_non_fallback_draw_shapes():
    code = build_random_code(4096, 40, 128, seed=0)
    assert not code.fallback
    p = RandomCodeParams(4096, 40, 128, 0)
    assert len(code.queries) == p.t1 + p.t2
    assert code.t1 == p.t1 and code.t2 == p.t2


def test_non_fallback_sampled_claims():
    code, report, attempts = find_verified_code(
        4096, 40, 128, mode="sampled", trials=150, max_tries=8
    )
    assert report.passed
    assert attempts >= 1
    assert not code.fallback


def test_exhaustive_verified_code_is_unique_small():
    code, report, attempts = find_verified_code(32, 3, 8)
    assert report.passed
    assert verify_uniqueness(code.queries, 32, 3, 8)


def test_verified_claims_imply_pairwise_distinguishability():
    # the symmetric-difference argument, checked directly on a small instance
    import itertools

    from qgt.model import feedback_vector

    code, report, _ = find_verified_code(16, 2, 4)
    assert report.passed
    vectors = {}
    for size in range(3):
        for combo in itertools.combinations(range(1, 17), size):
            fv = feedback_vector(code.queries, combo, 4)
            assert fv not in vectors, (combo, vectors[fv])
            vectors[fv] = combo


def test_mode_validation():
    code = build_random_code(32, 3, 8)
    with pytest.raises(ValueError, match="unknown verification mode"):
        verify_claims(code, mode="guess")
