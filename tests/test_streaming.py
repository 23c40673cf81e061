import dataclasses
import random

import pytest

from qgt.code import MODE_MULTISET, build_code, build_code_multiset
from qgt.streaming import GraphSketch, StreamSketch, edge_endpoints, edge_index, parse_ops


def _sketch(n=16, k=3):
    return StreamSketch(build_code_multiset(n, k))


def test_requires_multiset_code():
    with pytest.raises(ValueError, match="multiset"):
        StreamSketch(build_code(16, 2, 2))


def test_readout_cap_below_one_rejected():
    with pytest.raises(ValueError, match="feedback cap must be >= 1, got 0"):
        StreamSketch(build_code_multiset(16, 3), alpha=0)


def test_insert_delete_cancel_exactly():
    sketch = _sketch()
    before = list(sketch.counters)
    sketch.insert(5)
    sketch.delete(5)
    assert sketch.counters == before


def test_fresh_insert_matches_code_column():
    sketch = _sketch()
    sketch.insert(7)
    expected = [0] * len(sketch.code.queries)
    for idx in sketch.code.incidence[7]:
        expected[idx] = 1
    assert sketch.counters == expected


def test_update_cost_equals_occurrence_count():
    sketch = _sketch()
    touched = sketch.insert(3)
    assert touched == len(sketch.code.incidence[3])
    assert touched <= sketch.code.occurrence_max


def test_delete_absent_element_rejected_and_state_unchanged():
    sketch = _sketch()
    sketch.insert(2)
    snapshot = list(sketch.counters)
    with pytest.raises(ValueError, match="absent"):
        sketch.delete(9)
    assert sketch.counters == snapshot


# The last four are where plain mode takes the truncated table instead.
WITNESS_CODES = {
    "multiset-64-4": (64, 4),
    "multiset-4096-16": (4096, 16),
    "multiset-32-1": (32, 1),
    "multiset-512-2": (512, 2),
    "multiset-2048-3": (2048, 3),
    "multiset-4096-5": (4096, 5),
}


@pytest.mark.parametrize(
    "code",
    [*(build_code_multiset(*args) for args in WITNESS_CODES.values()), GraphSketch(64, 3).sketch.code],
    ids=[*WITNESS_CODES, "graph-64-3"],
)
def test_every_element_witnesses_its_own_delete(code):
    # A delete of an absent element is caught only through a query that
    # holds that element alone; pin that every element has one.
    queries = set(code.queries)
    assert all(frozenset({v}) in queries for v in range(1, code.n + 1))
    sketch = StreamSketch(code)
    for v in range(1, code.n + 1):
        with pytest.raises(ValueError, match="absent"):
            sketch.delete(v)
    assert sketch.counters == [0] * len(code) and sketch.total_multiplicity == 0


def test_delete_covered_by_other_elements_rejected():
    # on the truncated table these counters would cover every query of 3,
    # and deleting 3 would leave the column of 29
    sketch = StreamSketch(build_code_multiset(32, 1))
    sketch.insert(1)
    sketch.insert(31)
    snapshot = list(sketch.counters)
    with pytest.raises(ValueError, match="delete of absent element 3"):
        sketch.delete(3)
    assert sketch.counters == snapshot and sketch.total_multiplicity == 2
    sketch.delete(31)
    assert sketch.reconstruct() == {1: 1}


def test_code_without_a_singleton_per_element_rejected():
    table = dataclasses.replace(build_code(32, 1, 2), alpha=0, mode=MODE_MULTISET)
    with pytest.raises(ValueError, match="singleton query for every element"):
        StreamSketch(table)


def test_reconstruct_empty():
    assert _sketch().reconstruct() == {}


def test_reconstruct_exhaustive_small_multisets():
    import itertools

    sketch_proto = build_code_multiset(16, 3)
    for total in range(1, 4):
        for combo in itertools.combinations_with_replacement(range(1, 17), total):
            sketch = StreamSketch(sketch_proto)
            for v in combo:
                sketch.insert(v)
            want = {}
            for v in combo:
                want[v] = want.get(v, 0) + 1
            assert sketch.reconstruct() == want


def test_order_independence():
    ops = [("I", 3), ("I", 5), ("I", 3), ("D", 3), ("I", 9)]
    rng = random.Random(0)
    reference = None
    for _ in range(6):
        sketch = _sketch()
        # any reordering that keeps deletes after their inserts
        perm = ops[:]
        rng.shuffle(perm)
        inserts = [op for op in perm if op[0] == "I"]
        deletes = [op for op in perm if op[0] == "D"]
        for op, v in inserts + deletes:
            sketch.apply(op, v)
        if reference is None:
            reference = list(sketch.counters)
        assert list(sketch.counters) == reference


def test_random_streams_reconstruct_against_shadow(n=64, k=6, ops=1000):
    sketch = StreamSketch(build_code_multiset(n, k))
    shadow: dict[int, int] = {}
    rng = random.Random(42)
    for _ in range(ops):
        total = sum(shadow.values())
        if shadow and (total >= k or rng.random() < 0.45):
            v = rng.choice(sorted(shadow))
            sketch.delete(v)
            shadow[v] -= 1
            if shadow[v] == 0:
                del shadow[v]
        else:
            v = rng.randint(1, n)
            if total < k:
                sketch.insert(v)
                shadow[v] = shadow.get(v, 0) + 1
    assert sketch.reconstruct() == shadow


def test_overfull_sketch_flagged():
    code = build_code_multiset(16, 2)
    sketch = StreamSketch(code)
    for v in (1, 2, 3):
        sketch.insert(v)
    with pytest.raises(ValueError, match="capacity exceeded"):
        sketch.reconstruct()
    sketch.delete(3)
    assert sketch.reconstruct() == {1: 1, 2: 1}


def test_edge_index_table():
    pairs = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    assert [edge_index(u, v, 4) for u, v in pairs] == [1, 2, 3, 4, 5, 6]
    assert [edge_endpoints(i, 4) for i in range(1, 7)] == pairs


def test_edge_index_bijection_up_to_64():
    for nu in (2, 3, 5, 12, 64):
        for u in range(1, nu + 1):
            for v in range(u + 1, nu + 1):
                assert edge_endpoints(edge_index(u, v, nu), nu) == (u, v)


def test_edge_index_validation():
    with pytest.raises(ValueError):
        edge_index(3, 3, 4)
    with pytest.raises(ValueError):
        edge_index(0, 2, 4)
    with pytest.raises(ValueError):
        edge_endpoints(7, 4)


def test_graph_capacity_is_the_degree_bound_within_the_edge_universe():
    assert GraphSketch(6, 2).capacity == 6  # k*nu/2
    assert GraphSketch(4, 5).capacity == 6  # every edge of K4
    assert GraphSketch(3, 0).capacity == 1  # at least one edge
    with pytest.raises(TypeError):
        GraphSketch(6, 2, capacity=3)


def test_graph_roundtrip_path():
    g = GraphSketch(6, 2)
    path = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]
    for u, v in path:
        g.add_edge(u, v)
    assert g.reconstruct() == path


def test_graph_add_remove_idempotent_against_shadow():
    g = GraphSketch(5, 2)
    for _ in range(3):
        g.add_edge(1, 2)
        g.remove_edge(1, 2)
    assert g.reconstruct() == []
    g.add_edge(2, 5)
    assert g.reconstruct() == [(2, 5)]


def test_random_graphs_reconstruct(nu=12, max_degree=3, rounds=300):
    g = GraphSketch(nu, max_degree)
    shadow: set[tuple[int, int]] = set()
    degree = {v: 0 for v in range(1, nu + 1)}
    rng = random.Random(7)
    for _ in range(rounds):
        u, v = sorted(rng.sample(range(1, nu + 1), 2))
        if (u, v) in shadow:
            g.remove_edge(u, v)
            shadow.remove((u, v))
            degree[u] -= 1
            degree[v] -= 1
        elif degree[u] < max_degree and degree[v] < max_degree:
            g.add_edge(u, v)
            shadow.add((u, v))
            degree[u] += 1
            degree[v] += 1
    assert g.reconstruct() == sorted(shadow)


def test_graph_minimum_nodes():
    g = GraphSketch(2, 1)
    g.add_edge(1, 2)
    assert g.reconstruct() == [(1, 2)]
    g.remove_edge(1, 2)
    assert g.reconstruct() == []


def test_parse_ops():
    lines = ["I 3", "D 3", "# comment", "", "I 1 2"]
    assert parse_ops(lines) == [("I", (3,)), ("D", (3,)), ("I", (1, 2))]
    with pytest.raises(ValueError, match="malformed"):
        parse_ops(["X 1"])
    with pytest.raises(ValueError, match="malformed"):
        parse_ops(["I one"])
