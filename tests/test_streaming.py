import dataclasses
import random
import re
import tracemalloc
from collections import Counter

import pytest

from qgt.code import MODE_MULTISET, Code, Listed, Singletons, build_code, build_code_multiset
from qgt.decode import decode
from qgt.model import Feedback
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
    before = dict(sketch.counters)
    sketch.insert(5)
    sketch.delete(5)
    assert sketch.counters == before


def test_fresh_insert_matches_code_column():
    sketch = _sketch()
    sketch.insert(7)
    assert sketch.counters == {idx: 1 for idx in sketch.code.incidence[7]}


def test_update_cost_equals_occurrence_count():
    sketch = _sketch()
    touched = sketch.insert(3)
    assert touched == len(sketch.code.incidence[3])
    assert touched <= sketch.code.occurrence_max


def test_delete_absent_element_rejected_and_state_unchanged():
    sketch = _sketch()
    sketch.insert(2)
    snapshot = dict(sketch.counters)
    with pytest.raises(ValueError, match="absent"):
        sketch.delete(9)
    assert sketch.counters == snapshot


@pytest.mark.parametrize("cached", [False, True], ids=["float-first", "int-first"])
def test_non_int_element_refused_whatever_the_cache_holds(cached):
    # an element's incidence is cached on its first update, and 2.0 hashes like 2
    sketch = StreamSketch(build_code_multiset(8, 2))
    if cached:
        sketch.insert(2)
    counters = dict(sketch.counters)
    for update in (sketch.insert, sketch.delete):
        with pytest.raises(TypeError, match="element must be an int, got 2.0"):
            update(2.0)
    assert sketch.counters == counters
    if not cached:
        sketch.insert(2)
    assert sketch.reconstruct() == {2: 1}
    sketch.insert(True)  # a bool is an int, as operator.index takes it
    assert sketch.reconstruct() == {1: 1, 2: 1}


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
    assert sketch.counters == {} and sketch.total_multiplicity == 0


def test_delete_covered_by_other_elements_rejected():
    # on the truncated table these counters would cover every query of 3,
    # and deleting 3 would leave the column of 29
    sketch = StreamSketch(build_code_multiset(32, 1))
    sketch.insert(1)
    sketch.insert(31)
    snapshot = dict(sketch.counters)
    with pytest.raises(ValueError, match="delete of absent element 3"):
        sketch.delete(3)
    assert sketch.counters == snapshot and sketch.total_multiplicity == 2
    sketch.delete(31)
    assert sketch.reconstruct() == {1: 1}


def test_code_without_a_singleton_per_element_rejected():
    table = dataclasses.replace(build_code(32, 1, 2), alpha=0, mode=MODE_MULTISET)
    with pytest.raises(ValueError, match="singleton query for every element"):
        StreamSketch(table)


def test_each_family_says_whether_every_element_is_alone(monkeypatch):
    singles = build_code_multiset(16, 2)
    queries, blocks = tuple(singles.queries), tuple(singles.blocks)
    twin = Code(Listed(queries, blocks), 16, 2, 0, MODE_MULTISET)
    assert StreamSketch(twin).reconstruct() == {}
    shared = Code(Listed(queries[:-1] + (frozenset({15, 16}),), blocks), 16, 2, 0, MODE_MULTISET)
    with pytest.raises(ValueError, match="singleton query for every element"):
        StreamSketch(shared)

    def refuse(self):
        raise AssertionError("the singletons were laid out")

    monkeypatch.setattr(Singletons, "_make", refuse)
    assert StreamSketch(build_code_multiset(2**18, 2)).reconstruct() == {}


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
            reference = dict(sketch.counters)
        assert sketch.counters == reference


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


def _outcome(func, *args, **kwargs):
    """A call's result, or the type of what it raised."""
    try:
        return func(*args, **kwargs)
    except ValueError as exc:
        return type(exc)


def _assert_sparse_agrees_with_dense(sketch, held):
    code, counters = sketch.code, sketch.counters
    assert 0 not in counters.values()
    assert counters == code.feedback(Counter(held)).entries
    values = [0] * len(code)
    for idx, count in counters.items():
        values[idx] = count
    dense = _outcome(decode, code, tuple(values))
    assert _outcome(decode, code, Feedback(len(code), counters)) == dense
    if sketch.total_multiplicity > min(sketch.alpha, sketch.code.k):
        with pytest.raises(ValueError, match="capacity exceeded"):
            sketch.reconstruct()
    else:
        assert _outcome(sketch.reconstruct) == dense


def _replay_against_dense(sketch, apply, n, steps, seed):
    """Seeded inserts and deletes hovering just past the reconstruction limit.

    Repeated elements, rejected deletes of absent elements and overfull
    states all occur; after every op the stored counters must be the
    nonzero entries of the held multiset's uncapped vector, and the
    sparse readout must agree with a decode of the dense tuple.
    """
    rng = random.Random(seed)
    limit = min(sketch.alpha, sketch.code.k)
    held: list[int] = []
    rejected = overfull = 0
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.1:
            v = rng.randint(1, n)
            if v in held:
                held.remove(v)
                apply("D", v)
            else:
                counters = dict(sketch.counters)
                with pytest.raises(ValueError, match="absent"):
                    apply("D", v)
                assert sketch.counters == counters
                rejected += 1
        elif held and (len(held) > limit + 1 or roll < 0.4):
            apply("D", held.pop(rng.randrange(len(held))))
        else:
            v = rng.choice(held) if held and roll > 0.85 else rng.randint(1, n)
            held.append(v)
            apply("I", v)
        overfull += len(held) > limit
        _assert_sparse_agrees_with_dense(sketch, held)
    assert rejected and overfull


@pytest.mark.parametrize("n, k, steps", [(64, 4, 300), (4096, 16, 400)])
def test_sparse_readout_agrees_with_dense_decode(n, k, steps):
    sketch = StreamSketch(build_code_multiset(n, k))
    _replay_against_dense(sketch, sketch.apply, n, steps, seed=n + k)


@pytest.mark.parametrize(
    "extra",
    [(), ({1, 2}, {2, 3}, {5, 40}, {17, 64})],
    ids=["listed-twin", "listed-twin-with-pairs"],
)
def test_incidence_path_agrees_with_dense_decode(extra):
    # a list code takes the index path; every element stays alone in its
    # singleton, and with the pairs an update touches 1-3 counters
    singles = build_code_multiset(64, 4)
    family = Listed(tuple(singles.queries) + tuple(map(frozenset, extra)), tuple(singles.blocks))
    code = Code(family, 64, 4, 0, MODE_MULTISET)
    sketch = StreamSketch(code)
    touched = Counter()

    def apply(op, v):
        count = sketch.apply(op, v)
        assert count == len(code.incidence[v])
        touched[count] += 1

    _replay_against_dense(sketch, apply, 64, 300, seed=68)
    assert set(touched) == ({1, 2, 3} if extra else {1})


def test_singletons_sketch_keeps_no_index_entry():
    # an index filled on use would hold one entry per element ever touched: 19,260 here
    code = build_code_multiset(2**18, 16)
    sketch = StreamSketch(code)
    rng = random.Random(18)
    for _ in range(20_000):
        v = rng.randint(1, code.n)
        assert sketch.insert(v) == 1
        assert sketch.delete(v) == 1
    assert len(vars(code.family).get("incidence", ())) == 0
    assert sketch.counters == {} and sketch.total_multiplicity == 0


def test_graph_sparse_readout_agrees_with_dense_decode():
    graph = GraphSketch(64, 3)

    def apply(op, index):
        graph.apply(op, *edge_endpoints(index, graph.nodes))

    _replay_against_dense(graph.sketch, apply, graph.edge_universe, 800, seed=3)


def test_sketch_holds_only_the_live_counters(monkeypatch):
    def refuse(self):
        raise AssertionError("the singletons were laid out")

    monkeypatch.setattr(Singletons, "_make", refuse)
    code = build_code_multiset(2**20, 16)
    sketch = StreamSketch(code)
    held = Counter()
    ops = [("I", 5), ("I", 77), ("I", 77), ("I", 4096), ("I", 2**20), ("D", 77), ("D", 5), ("D", 77), ("I", 5)]
    for op, v in ops:
        sketch.apply(op, v)
        held[v] += 1 if op == "I" else -1
        held = +held
        assert len(sketch.counters) == len({idx for e in held for idx in code.incidence[e]})
        assert sketch.reconstruct() == dict(sorted(held.items()))


def test_graph_sketch_memory_is_its_live_edges():
    # the edge universe of 4,096 nodes is coded by 2^23 counters
    rng = random.Random(4096)
    edges: set[tuple[int, int]] = set()
    tracemalloc.start()
    try:
        graph = GraphSketch(4096, 3)
        for _ in range(200):
            u, v = sorted(rng.sample(range(1, 4097), 2))
            if (u, v) in edges:
                graph.remove_edge(u, v)
                edges.remove((u, v))
            else:
                graph.add_edge(u, v)
                edges.add((u, v))
        assert graph.reconstruct() == sorted(edges)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(graph.sketch.code) == 2**23
    assert peak < 2 * 2**20, peak


def test_edge_index_table():
    pairs = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    assert [edge_index(u, v, 4) for u, v in pairs] == [1, 2, 3, 4, 5, 6]
    assert [edge_endpoints(i, 4) for i in range(1, 7)] == pairs


def test_edge_index_bijection_up_to_64():
    for nu in (2, 3, 5, 12, 64):
        for u in range(1, nu + 1):
            for v in range(u + 1, nu + 1):
                assert edge_endpoints(edge_index(u, v, nu), nu) == (u, v)
    # the closed form at larger graphs: the first and last edge of every row
    for nu in (65, 1000, 4096):
        for u in range(1, nu):
            for v in (u + 1, nu):
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


def test_graph_refuses_a_negative_degree_bound():
    with pytest.raises(ValueError) as info:
        GraphSketch(6, -3)
    assert str(info.value) == "graph sketch degree bound k must be >= 0, got -3"


def test_graph_roundtrip_path():
    g = GraphSketch(6, 2)
    path = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]
    for u, v in path:
        g.add_edge(u, v)
    assert g.reconstruct() == path


def test_graph_reconstruct_names_the_first_edge_held_twice():
    g = GraphSketch(6, 2)
    for u, v, times in ((1, 2, 1), (1, 3, 2), (1, 4, 3)):
        for _ in range(times):
            g.add_edge(u, v)
    with pytest.raises(ValueError) as info:
        g.reconstruct()
    assert str(info.value) == "edge multiplicity 2 at index 2; graph edges must be 0/1"
    g.remove_edge(1, 3)
    with pytest.raises(ValueError, match="edge multiplicity 3 at index 3;"):
        g.reconstruct()
    g.remove_edge(1, 4)
    g.remove_edge(1, 4)
    assert g.reconstruct() == [(1, 2), (1, 3), (1, 4)]


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


@pytest.mark.parametrize("nu", [2, 3, 5, 64])
def test_graph_reconstruct_names_edges_by_their_endpoints_in_index_order(nu):
    g = GraphSketch(nu, 1)
    for index in range(1, g.edge_universe + 1):
        u, v = edge_endpoints(index, nu)
        g.add_edge(u, v)
        assert g.reconstruct() == [(u, v)]
        g.remove_edge(u, v)
    rng = random.Random(nu)
    for _ in range(5):
        edges = {edge_endpoints(i, nu) for i in rng.sample(range(1, g.edge_universe + 1), g.capacity)}
        for u, v in edges:
            g.add_edge(v, u)
        assert g.reconstruct() == sorted(edges)
        for u, v in edges:
            g.remove_edge(u, v)


def test_graph_delete_of_an_absent_edge_names_the_edge():
    g = GraphSketch(8, 2)
    g.add_edge(1, 2)
    counters = dict(g.sketch.counters)
    for u, v in ((3, 4), (4, 3)):
        with pytest.raises(ValueError) as info:
            g.apply("D", u, v)
        assert str(info.value) == "delete of absent edge (3, 4)"
    with pytest.raises(ValueError, match=r"^delete of absent edge \(2, 5\)$"):
        g.remove_edge(5, 2)
    assert g.sketch.counters == counters and g.sketch.total_multiplicity == 1
    assert g.reconstruct() == [(1, 2)]


@pytest.mark.parametrize(
    "u, v, shown",
    [(1.5, 2, "(1.5, 2)"), ("1", 2, "('1', 2)"), (3, 2.0, "(3, 2.0)"), (None, 4, "(None, 4)")],
)
def test_graph_refuses_non_int_endpoints_naming_both(u, v, shown):
    g = GraphSketch(8, 2)
    g.add_edge(1, 2)
    counters = dict(g.sketch.counters)
    for op in ("I", "D"):
        with pytest.raises(TypeError) as info:
            g.apply(op, u, v)
        assert str(info.value) == f"edge endpoints must be ints, got {shown}"
    assert g.sketch.counters == counters


def test_graph_takes_bool_endpoints_as_ints():
    g = GraphSketch(4, 1)
    assert g.apply("I", 2, True) == 1  # operator.index(True) == 1
    assert g.reconstruct() == [(1, 2)]
    g.remove_edge(True, 2)
    assert g.reconstruct() == []
    with pytest.raises(ValueError, match="endpoints must satisfy"):
        g.add_edge(True, True)
    with pytest.raises(ValueError, match="unknown operation"):
        g.apply("X", 1.5, 2)


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


def _listed_twin(n=16, k=3):
    # the singletons as a list code, so an update takes the incidence path
    singles = build_code_multiset(n, k)
    return Code(Listed(tuple(singles.queries), tuple(singles.blocks)), n, k, 0, MODE_MULTISET)


@pytest.mark.parametrize("code", [build_code_multiset(16, 3), _listed_twin()], ids=["singletons", "listed"])
@pytest.mark.parametrize("v", [0, -1, 17])
def test_an_out_of_universe_element_is_refused_and_state_unchanged(code, v):
    # without the range check, insert(0) on the singletons would store position -1
    sketch = StreamSketch(code)
    sketch.insert(5)
    counters = dict(sketch.counters)
    for update in (sketch.insert, sketch.delete):
        with pytest.raises(ValueError, match=rf"^element {v} outside universe \[1\.\.16\]$"):
            update(v)
    assert sketch.counters == counters and sketch.total_multiplicity == 1
    assert sketch.reconstruct() == {5: 1}


def test_apply_refuses_an_unknown_operation():
    sketch = _sketch()
    with pytest.raises(ValueError, match=r"^unknown operation 'X' \(expected 'I' or 'D'\)$"):
        sketch.apply("X", 3)
    assert sketch.counters == {} and sketch.total_multiplicity == 0


def test_graph_sketch_needs_two_nodes():
    with pytest.raises(ValueError, match="^graph sketches need at least 2 nodes, got 1$"):
        GraphSketch(1, 1)


@pytest.mark.parametrize("token", ["1_0", "+1", "١"])
def test_parse_ops_takes_only_ascii_digits(token):
    for line in (f"I {token}", f"D 2 {token}"):
        with pytest.raises(ValueError, match=f"^line 2: malformed operation {re.escape(repr(line))}$"):
            parse_ops(["I 1", line])
    assert parse_ops(["I -1"]) == [("I", (-1,))]  # a '-' is kept; the sketch refuses the element
