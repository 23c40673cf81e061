import hashlib
import itertools

import pytest

from qgt.disperser import (
    BipartiteGraph,
    DisperserParams,
    build_disperser,
    default_degree,
    default_delta,
    dump_graph,
    right_size,
    verify_dispersion,
)
from qgt.ssui import BudgetError


def test_defaults_scale_with_log():
    assert default_degree(32) == 25
    assert default_delta(32) == 125
    assert right_size(2, 25, 125) == 1
    assert right_size(4, 6, 3) == 8


def test_build_is_left_regular_and_deterministic():
    params = DisperserParams(ell_star=2, epsilon=0.25, seed=7)
    g1 = build_disperser(16, params)
    g2 = build_disperser(16, params)
    assert g1.adjacency == g2.adjacency
    assert all(len(nbrs) == g1.degree for nbrs in g1.adjacency)
    assert g1.total_edges == 16 * g1.degree


def test_single_right_node_is_trivially_dispersing():
    params = DisperserParams(ell_star=2, epsilon=0.25, seed=0)
    g = build_disperser(16, params)
    assert g.n_right == 1
    assert verify_dispersion(g, 2, 0.25)


def test_complete_bipartite_always_passes():
    adjacency = tuple(tuple(range(1, 5)) for _ in range(6))
    g = BipartiteGraph(6, 4, 4, adjacency)
    assert verify_dispersion(g, 1, 0.1)
    assert verify_dispersion(g, 2, 0.4, mode="sampled", trials=50)


def test_unreachable_right_nodes_fail():
    # every left node sees only right node 1; 3 of 4 right nodes unreachable
    adjacency = tuple((1, 1) for _ in range(6))
    g = BipartiteGraph(6, 4, 2, adjacency)
    assert not verify_dispersion(g, 2, 0.25)


def test_nontrivial_build_passes_exhaustively():
    params = DisperserParams(ell_star=4, epsilon=0.25, degree=16, delta=8, seed=0)
    g = build_disperser(32, params)
    assert g.n_right == 8
    assert verify_dispersion(g, 4, 0.25)
    # smaller subsets may miss more; the verified size is the binding one
    assert g.attempts >= 1


def test_budget_guard():
    adjacency = tuple((1,) for _ in range(40))
    g = BipartiteGraph(40, 1, 1, adjacency)
    with pytest.raises(BudgetError):
        verify_dispersion(g, 20, 0.25, budget=10)


def test_retry_cap_is_a_hard_error():
    # |W| = 2 with left degree 1: by pigeonhole some pair of left nodes
    # shares its single right neighbor, so no seed can ever disperse
    params = DisperserParams(ell_star=2, epsilon=0.25, degree=1, delta=1, seed=0, max_retries=3)
    with pytest.raises(ValueError, match="no dispersing graph"):
        build_disperser(8, params)


def test_adjacency_validation():
    with pytest.raises(ValueError):
        BipartiteGraph(2, 2, 2, ((1, 2),))
    with pytest.raises(ValueError):
        BipartiteGraph(2, 2, 2, ((1, 2), (1, 3)))


def test_dump_format():
    adjacency = ((1, 2), (2, 2))
    g = BipartiteGraph(2, 2, 2, adjacency)
    assert dump_graph(g) == "1 2\n2 2\n"


# Seven left nodes on four right nodes; only the pair (0, 1) shares its
# neighborhood, so at ell_star = 2, epsilon = 1/4 it is the one failing subset.
ONE_BAD_PAIR = BipartiteGraph(7, 4, 2, ((1, 2), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)))


def test_exhaustive_dispersion_finds_the_one_failing_pair():
    assert verify_dispersion(ONE_BAD_PAIR, 2, 0.25) is False
    assert verify_dispersion(ONE_BAD_PAIR, 2, 0.5) is True


@pytest.mark.parametrize(("seed", "first_failing_draw"), [(0, 61), (1, 51), (2, 22), (3, 30)])
def test_sampled_dispersion_fails_at_a_pinned_draw(seed, first_failing_draw):
    # Recorded before the two modes shared one scan loop: the draw at which
    # the failing pair first comes up fixes the RNG call order.
    def verdict(trials):
        return verify_dispersion(ONE_BAD_PAIR, 2, 0.25, mode="sampled", trials=trials, seed=seed)

    assert verdict(first_failing_draw - 1) is True
    assert verdict(first_failing_draw) is False


def test_unknown_dispersion_mode_raises():
    with pytest.raises(ValueError, match="unknown verification mode"):
        verify_dispersion(ONE_BAD_PAIR, 2, 0.25, mode="guess")


@pytest.mark.parametrize("trials", [0, -5])
def test_sampled_dispersion_with_no_sample_is_refused(trials):
    # every left node reaches only right node 1 of 4: the exhaustive check fails,
    # and a sampled check that drew no subset used to pass it
    graph = BipartiteGraph(4, 4, 1, ((1,),) * 4)
    assert verify_dispersion(graph, 2, 0.25) is False
    with pytest.raises(ValueError, match=f"sampled verification needs trials >= 1, got {trials}"):
        verify_dispersion(graph, 2, 0.25, mode="sampled", trials=trials)
    assert verify_dispersion(graph, 2, 0.25, mode="sampled", trials=1) is False


@pytest.mark.parametrize("epsilon", [1.0, 5.0, 0.0, -0.25])
def test_dispersion_with_epsilon_outside_the_half_interval_is_refused(epsilon):
    # the graph of the test above fails at 0.25 and 0.5; at epsilon >= 1 it
    # used to pass, since no right node then needs to be reached
    graph = BipartiteGraph(4, 4, 1, ((1,),) * 4)
    assert verify_dispersion(graph, 2, 0.5) is False
    for mode in ("exhaustive", "sampled"):
        with pytest.raises(ValueError, match=rf"epsilon must lie in \(0, 1/2\], got {epsilon}"):
            verify_dispersion(graph, 2, epsilon, mode=mode)


# Recorded before the draws took the closed form at |W| = 1 and each graph
# was built once: every seeded graph, |W|, seed, attempt count and error of
# the sweep below, hashed in order.
DRAW_PIN = "6b61f5cc1a172ed517dfebd05a3bda5be8a0055e7b29db66a30a3636a4f86b60"


def test_seeded_draws_are_pinned():
    digest = hashlib.sha256()
    for n, ell, eps, (deg, delta), s in itertools.product(
        (2, 4, 8, 16, 32, 64), (1, 2, 3, 4), (0.25, 0.5), ((None, None), (16, 8), (6, 3), (4, 2)), (0, 1, 7)
    ):
        try:
            g = build_disperser(n, DisperserParams(ell, eps, degree=deg, delta=delta, seed=s))
            out = f"{dump_graph(g)}{g.n_right} {g.seed} {g.attempts}"
        except ValueError as exc:
            out = f"ValueError: {exc}"
        digest.update(f"{(n, ell, eps, deg, delta, s)}\n{out}\n".encode())
    assert digest.hexdigest() == DRAW_PIN


def test_degree_zero_finds_no_dispersing_graph():
    params = DisperserParams(ell_star=1, epsilon=0.25, degree=0, delta=1, max_retries=2)
    with pytest.raises(ValueError) as info:
        build_disperser(8, params)
    assert str(info.value) == "no dispersing graph found in 2 attempts (n=8, ell_star=1, epsilon=0.25, |W|=1)"


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("delta", 0, "delta must be >= 1, got 0"),
        ("delta", -3, "delta must be >= 1, got -3"),
        ("degree", -1, "degree must be >= 0, got -1"),
    ],
)
def test_params_refuse_a_delta_below_one_and_a_negative_degree(field, value, message):
    with pytest.raises(ValueError) as info:
        DisperserParams(ell_star=1, epsilon=0.25, **{field: value})
    assert str(info.value) == message


def test_list_rows_are_accepted():
    g = BipartiteGraph(3, 3, 2, [[1, 3], [2, 2], [3, 1]])
    assert g.masks == (0b101, 0b010, 0b101)
    assert dump_graph(g) == "1 3\n2 2\n3 1\n"
    assert verify_dispersion(g, 2, 0.25) is False  # nodes 1 and 3 both miss node 2
    assert verify_dispersion(g, 2, 0.5) is True


@pytest.mark.parametrize(
    ("rows", "message"),
    [
        (((1, 2), (2, 3), (0, 1)), "right index 3 outside [1..2]"),
        (((1, 2), (0, 1), (2,)), "right index 0 outside [1..2]"),
        (((1, 2), (2,), (0, 1)), "every left node must record exactly `degree` edges"),
        (((1, 1, 1), (1, 2), (1, 2)), "every left node must record exactly `degree` edges"),
        (((2, 3),) * 3, "right index 3 outside [1..2]"),
        ([[1, 2], [1, 2], [2, 0]], "right index 0 outside [1..2]"),
        (((1, 2), (1, float("nan")), (1, 2)), "right index nan outside [1..2]"),
        (((1, 2), (0, 1), ("a", 1)), "right index 0 outside [1..2]"),
    ],
)
def test_the_first_bad_row_is_named(rows, message):
    with pytest.raises(ValueError) as info:
        BipartiteGraph(3, 2, 2, rows)
    assert str(info.value) == message


@pytest.mark.parametrize(("n", "params"), [
    (32, DisperserParams(ell_star=1, epsilon=0.25, seed=1)),
    (32, DisperserParams(ell_star=4, epsilon=0.25, degree=16, delta=8, seed=0)),
])
def test_a_returned_graph_keeps_its_masks(monkeypatch, n, params):
    import qgt.disperser

    built = []
    masks_of = qgt.disperser._masks_of
    monkeypatch.setattr(qgt.disperser, "_masks_of", lambda graph: built.append(graph) or masks_of(graph))
    g = build_disperser(n, params)
    assert len(built) == g.attempts and built[-1] is g  # one mask table per attempt, the last one returned
    assert verify_dispersion(g, params.ell_star, params.epsilon)
    assert verify_dispersion(g, params.ell_star, params.epsilon, mode="sampled", trials=20)
    fresh = g.left_masks()
    fresh[0] = -1
    assert g.left_masks() == list(g.masks) != fresh
    assert len(built) == g.attempts


def test_params_refuse_an_ell_star_below_one():
    with pytest.raises(ValueError, match="^ell_star must be >= 1, got 0$"):
        DisperserParams(ell_star=0, epsilon=0.25)


@pytest.mark.parametrize(
    "row, message",
    [
        ((1, "a"), "'<=' not supported between instances of 'int' and 'str'"),
        ((1, [1]), "'<=' not supported between instances of 'int' and 'list'"),
    ],
    ids=["does-not-compare", "does-not-hash"],
)
def test_a_row_entry_that_does_not_compare_or_hash_is_refused_by_the_scan(row, message):
    # _rows_fit answers False on either entry, and _refuse_rows raises as it reaches it
    with pytest.raises(TypeError, match=f"^{message}$"):
        BipartiteGraph(2, 2, 2, ((1, 2), row))
