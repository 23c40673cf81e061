import pytest

from qgt import random_code
from qgt.bounds import verify_uniqueness
from qgt.model import active_elements
from qgt.random_code import (
    ClaimReport,
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


@pytest.mark.parametrize("alpha, scans", [(8, [32]), (16, [32])])
def test_the_fallback_scans_its_one_range_once(monkeypatch, alpha, scans):
    # k = 3 <= 32 // 8 reads part 1 alone; 3 > 32 // 16 reads both parts, one range on the fallback
    calls = []
    monkeypatch.setattr(random_code, "active_elements", lambda q, n: calls.append(len(q)) or active_elements(q, n))
    code = build_random_code(32, 3, alpha, 1)
    assert code.fallback and verify_claims(code).passed
    assert calls == scans


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


@pytest.mark.parametrize("trials", [0, -3])
def test_sampled_claims_with_no_sample_are_refused(trials):
    # checking no set must not report claims 2 and 3 as passed
    with pytest.raises(ValueError, match=rf"^sampled verification needs trials >= 1, got {trials}$"):
        verify_claims(build_random_code(32, 3, 8), mode="sampled", trials=trials)
    with pytest.raises(ValueError, match="trials >= 1"):
        find_verified_code(32, 3, 8, mode="sampled", trials=trials)


def _failing_code(part1_covers_all: bool) -> RandomCode:
    """n = 8, k = 3, alpha = 4: sets of size <= 2 read part 1, size 3 reads part 2.

    Part 1 is the singletons {1} .. {7}, plus {8} when ``part1_covers_all``;
    part 2 is the whole universe, which meets every 3-set three times and
    breaks claim 1 (8 > alpha elements).
    """
    part1 = tuple(frozenset((v,)) for v in range(1, 9 if part1_covers_all else 8))
    return RandomCode(part1 + (frozenset(range(1, 9)),), 8, 3, 4, 0, len(part1), 1, False)


@pytest.mark.parametrize(
    ("part1_covers_all", "mode", "seed", "witness2", "witness3"),
    [
        (False, "exhaustive", 0, {8}, None),
        (False, "sampled", 1, {8}, None),
        (False, "sampled", 0, None, {2, 4, 5}),
        (True, "exhaustive", 0, None, {1, 2, 3}),
        (True, "sampled", 5, None, {3, 5, 6}),
    ],
)
def test_failing_claims_pin_their_witness(part1_covers_all, mode, seed, witness2, witness3):
    # Recorded before the exhaustive and sampled scans became one loop: the
    # sampled witnesses fix the RNG call order (randint, then sample).
    report = verify_claims(_failing_code(part1_covers_all), mode=mode, trials=200, seed=seed)
    assert not report.passed
    assert report.witness1 == frozenset(range(1, 9)) and not report.claim1
    assert report.witness2 == (None if witness2 is None else frozenset(witness2))
    assert report.witness3 == (None if witness3 is None else frozenset(witness3))
    assert report.claim2 == (witness2 is None) and report.claim3 == (witness3 is None)


def test_build_refuses_a_universe_below_two():
    with pytest.raises(ValueError, match="^universe size must be >= 2, got 1$"):
        build_random_code(1, 1, 1)


def test_find_verified_code_names_the_seeds_it_ran_out_of(monkeypatch):
    import qgt.random_code as random_code

    seeds = []

    def failing(code, **kwargs):
        seeds.append(code.seed)
        return ClaimReport(True, False, True, witness2=frozenset({1}))

    monkeypatch.setattr(random_code, "verify_claims", failing)
    with pytest.raises(ValueError, match=r"^no seed in \[5, 8\) passed the claims$"):
        find_verified_code(16, 2, 2, start_seed=5, max_tries=3)
    assert seeds == [5, 6, 7]


def test_claim_report_lines_show_each_witness_sorted():
    report = ClaimReport(False, True, False, frozenset({4, 2}), None, frozenset({9, 3, 5}))
    assert report.lines() == [
        "claim1 (all queries have <= alpha elements): FAIL  witness=[2, 4]",
        "claim2 (small sets hit exactly once by part 1): pass",
        "claim3 (large sets hit exactly once by part 2): FAIL  witness=[3, 5, 9]",
    ]
    assert not report.passed
