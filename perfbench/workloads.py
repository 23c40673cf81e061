"""The benchmark's four workloads: build, query, stream and oracle.

Each workload draws its inputs from the seed in `setup`, then runs a fixed
work list once per `run_pass`; the runner repeats passes for the
measured time with one closed-loop client (the next op starts when the
previous one returns).  Every result is checked against ground truth
drawn with the inputs.  Only the package's public API is called, always
through the `qgt` package attribute, so a traced run can wrap it there.

Why each workload, and which layers it reaches:

* build -- the n = 2^10 grid rebuilt on every pass: plain (1024, 4, 2)
  and (1024, 16, 4), multiset (1024, 8), large (1024, 32, 2).  Each row is
  built, answers one cold encode/decode roundtrip, is serialized and is
  parsed back.  Nearly all of the time is slice enhancement
  (code.enhance -> balanced.slice_query); ssui, sui (singleton route,
  chunked in large mode), incidence and serialize follow.  Decode does
  almost nothing.  The rows cover a pure Reed-Solomon table, selector
  levels plus Reed-Solomon, singleton and chunked layouts.  Rows at
  n = 2^14 .. 2^18 are deferred: one build_code(16384, 4, 2) takes about
  two minutes, longer than a run may last.
* query -- the plain (1024, 4, 2), plain (1024, 16, 4) and multiset
  (1024, 8, read out at cap 8) codes, prebuilt in setup.  Each op encodes
  a seeded hidden set through Code.feedback and decodes it.  A fixed share
  of ops sends a vector with one position perturbed, and a fixed share of
  multiset ops holds more units than the readout cap.  Encode and decode
  do all the work; nothing is built.
* stream -- a multiset code at n = 2^12, k = 16 under a seeded
  insert/delete mix that keeps the total at or below k, reconstructed
  every 50 updates, then a GraphSketch(64, 3) toggling edges the same
  way.  Updates are cheap writes; reconstruct is dominated by the O(m)
  counter readout ahead of the same decoder query uses.
* oracle -- the exhaustive oracles on inputs built in setup:
  verify_uniqueness and find_unjammed_violation over the n in {16, 32},
  k <= 3, alpha in {2, 3} grid, verify_sui at (32, 4, 1/4, 4, 4),
  verify_ssui at (16, 2, 4, 2), build_disperser plus verify_dispersion,
  and find_verified_code(32, 3, 8), each with its known verdict.  No
  other workload reaches bounds or the ssui oracle; nothing is encoded
  or decoded.

Known defect kept in the load: a multiset readout whose true total
exceeds the readout cap can decode to a wrong multiset instead of
raising (an element held cap + r times reads back as cap).  Those results
are counted as failures of the known-defect kind; they do not invalidate
the run.  Any other wrong result does.
"""

from __future__ import annotations

import random
import statistics
import time
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field

import qgt

def _unscaled(start: float, end: float) -> float:
    return end - start


@dataclass
class Tally:
    """Ops attempted and failed, gate failures, and named samples (times in seconds).

    Workloads read time from `clock` and turn an interval into a sample with
    `scale`; the runner swaps in a Speedometer's pair for untraced runs.
    """

    attempted: int = 0
    failed: int = 0  # wrong or unexpected results, the known defect included
    known_defect: int = 0
    unexpected: list[str] = field(default_factory=list)
    fatal: list[str] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)
    updates: int = 0
    clock: Callable[[], float] = time.perf_counter
    scale: Callable[[float, float], float] = _unscaled

    def check(self, ok: bool, what: str, known_defect: bool = False) -> None:
        self.attempted += 1
        if ok:
            return
        self.failed += 1
        if known_defect:
            self.known_defect += 1
        elif len(self.unexpected) < 20:
            self.unexpected.append(what)

    def gate(self, ok: bool, what: str) -> None:
        if not ok and len(self.fatal) < 20:
            self.fatal.append(what)

    def sample(self, name: str, start: float, end: float) -> None:
        self.samples.setdefault(name, []).append(self.scale(start, end))


@dataclass(frozen=True)
class CodeSpec:
    """A code to build: mode, n, k, and alpha (the readout cap for multiset codes)."""

    mode: str
    n: int
    k: int
    alpha: int

    def build(self, seed: int) -> qgt.Code:
        if self.mode == "plain":
            return qgt.build_code(self.n, self.k, self.alpha, seed=seed)
        if self.mode == "large":
            # the grid's large row sits outside the mode's preferred regime on purpose
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                return qgt.build_code_large(self.n, self.k, self.alpha, seed=seed)
        return qgt.build_code_multiset(self.n, self.k, seed=seed)

    @property
    def multiset(self) -> bool:
        return self.mode == "multiset"

    def encode(self, code: qgt.Code, hidden: dict[int, int]) -> tuple[int, ...]:
        return code.feedback(hidden, alpha=self.alpha)

    def lower_bound(self) -> float:
        return qgt.lower_bound(self.n, self.k, self.alpha).lb_total


def _random_set(rng: random.Random, n: int, size: int) -> dict[int, int]:
    return {v: 1 for v in rng.sample(range(1, n + 1), size)}


def _random_multiset(rng: random.Random, n: int, total: int) -> dict[int, int]:
    if total == 0:
        return {}
    elements = rng.sample(range(1, n + 1), rng.randint(1, total))
    hidden = {v: 1 for v in elements}
    for _ in range(total - len(elements)):
        hidden[rng.choice(elements)] += 1
    return hidden


def _hidden(rng: random.Random, spec: CodeSpec) -> dict[int, int]:
    if spec.multiset:
        return _random_multiset(rng, spec.n, rng.randint(0, spec.k))
    return _random_set(rng, spec.n, rng.randint(0, spec.k))


class Workload:
    """A workload's state holds `specs`, the `codes` built from them and their `texts`."""

    name = ""

    def setup(self, seed: int):
        raise NotImplementedError

    def run_pass(self, state, tally: Tally, tracer) -> None:
        raise NotImplementedError

    def extras(self, tally: Tally) -> dict[str, tuple[float, str]]:
        """Workload-specific figures reported beside the shared metrics."""
        return {}


# -- build ---------------------------------------------------------------


@dataclass(frozen=True)
class BuildSpec:
    rows: tuple[CodeSpec, ...]
    warm_rows: tuple[CodeSpec, ...]


BUILD_FULL = BuildSpec(
    rows=(
        CodeSpec("plain", 1024, 4, 2),
        CodeSpec("plain", 1024, 16, 4),
        CodeSpec("multiset", 1024, 8, 8),
        CodeSpec("large", 1024, 32, 2),
    ),
    warm_rows=(
        CodeSpec("plain", 64, 4, 2),
        CodeSpec("plain", 64, 16, 4),
        CodeSpec("multiset", 64, 8, 8),
        CodeSpec("large", 64, 32, 2),
    ),
)

BUILD_TINY = BuildSpec(
    rows=(CodeSpec("plain", 16, 2, 2), CodeSpec("multiset", 16, 2, 2), CodeSpec("large", 16, 8, 2)),
    warm_rows=(CodeSpec("plain", 8, 2, 2),),
)


@dataclass
class BuildState:
    seed: int
    specs: tuple[CodeSpec, ...]
    hidden: list[dict[int, int]]
    codes: list[qgt.Code] = field(default_factory=list)  # built by the latest pass
    texts: list[str] = field(default_factory=list)
    lengths: list[int] = field(default_factory=list)


class BuildWorkload(Workload):
    name = "build"

    def __init__(self, spec: BuildSpec = BUILD_FULL) -> None:
        self.spec = spec

    def setup(self, seed: int) -> BuildState:
        rng = random.Random(seed)
        hidden = []
        for row in self.spec.rows:
            if row.multiset:
                hidden.append(_random_multiset(rng, row.n, row.k))
            else:
                hidden.append(_random_set(rng, row.n, row.k))
        # Warm the build path on the same modes at small n, so the first
        # timed pass pays no first-call cost.
        for row in self.spec.warm_rows:
            code = row.build(seed)
            qgt.decode(code, row.encode(code, {1: 1}))
            qgt.code_from_text(qgt.code_to_text(code))
        return BuildState(seed, self.spec.rows, hidden)

    def run_pass(self, state: BuildState, tally: Tally, tracer) -> None:
        clock = tally.clock
        build_s = 0.0
        state.codes, state.texts = codes, texts = [], []  # drop the previous pass's codes
        for spec, hidden in zip(state.specs, state.hidden):
            with tracer.op("build_row"):
                t0 = clock()
                code = spec.build(state.seed)
                got = qgt.decode(code, spec.encode(code, hidden))
                build_s += tally.scale(t0, clock())
                text = qgt.code_to_text(code)
                parsed = qgt.code_from_text(text)
            tally.check(got == hidden, f"build {spec}: cold roundtrip decoded {got}")
            tally.gate(parsed == code, f"build {spec}: code_from_text(code_to_text(c)) != c")
            codes.append(code)
            texts.append(text)
        lengths = [len(c) for c in codes]
        tally.gate(
            not state.lengths or lengths == state.lengths,
            f"build: code lengths changed between passes {state.lengths} -> {lengths}",
        )
        state.lengths = lengths
        tally.samples.setdefault("build", []).append(build_s)

    def extras(self, tally):
        return {"build_s": (statistics.median(tally.samples["build"]), "s")}


# -- query ---------------------------------------------------------------


@dataclass(frozen=True)
class QuerySpec:
    codes: tuple[CodeSpec, ...]
    pool: int  # ops drawn in setup; passes cycle through them
    pass_ops: int  # a multiple of len(codes) * 20, so every pass has the same mix


QUERY_FULL = QuerySpec(
    codes=(
        CodeSpec("plain", 1024, 4, 2),
        CodeSpec("plain", 1024, 16, 4),
        CodeSpec("multiset", 1024, 8, 8),
    ),
    pool=3000,
    pass_ops=300,
)

QUERY_TINY = QuerySpec(
    codes=(CodeSpec("plain", 16, 2, 2), CodeSpec("multiset", 16, 4, 4)),
    pool=80,
    pass_ops=40,
)

VALID, PERTURBED, ABOVE_CAP = "valid", "perturbed", "above_cap"


@dataclass(frozen=True)
class QueryOp:
    code: int
    kind: str
    hidden: dict[int, int]
    position: int  # the perturbed feedback position; -1 when unused


def _query_kind(spec: CodeSpec, count: int) -> str:
    """Fixed mix per code: every 10th op perturbed; 1 in 10 multiset ops above the cap."""
    if count % 10 == 9:
        return PERTURBED
    if spec.multiset and count % 10 == 4:
        return ABOVE_CAP
    return VALID


def _above_cap(rng: random.Random, spec: CodeSpec, count: int) -> dict[int, int]:
    """More units than the cap: alternately one element held more than cap times,
    or several elements each within the cap."""
    extra = rng.randint(1, 4)
    if count % 20 == 4:
        heavy, *light = rng.sample(range(1, spec.n + 1), rng.randint(1, 3))
        return {heavy: spec.alpha + extra, **dict.fromkeys(light, 1)}
    total = spec.alpha + extra
    parts = rng.randint(2, 4)
    elements = rng.sample(range(1, spec.n + 1), parts)
    return {v: total // parts + (i < total % parts) for i, v in enumerate(elements)}


@dataclass
class QueryState:
    specs: tuple[CodeSpec, ...]
    codes: list[qgt.Code]
    texts: list[str]
    ops: list[QueryOp]
    cursor: int = 0


class QueryWorkload(Workload):
    name = "query"

    def __init__(self, spec: QuerySpec = QUERY_FULL) -> None:
        self.spec = spec

    def setup(self, seed: int) -> QueryState:
        specs = self.spec.codes
        codes = [spec.build(seed) for spec in specs]
        for spec, code in zip(specs, codes):
            qgt.decode(code, spec.encode(code, {1: 1}))  # fill the cached indexes
        texts = [qgt.code_to_text(code) for code in codes]
        rng = random.Random(seed)
        counts = [0] * len(specs)
        ops = []
        for i in range(self.spec.pool):
            c = i % len(specs)
            spec = specs[c]
            kind = _query_kind(spec, counts[c])
            if kind == ABOVE_CAP:
                hidden = _above_cap(rng, spec, counts[c])
            else:
                hidden = _hidden(rng, spec)
            position = rng.randrange(len(codes[c])) if kind == PERTURBED else -1
            ops.append(QueryOp(c, kind, hidden, position))
            counts[c] += 1
        return QueryState(specs, codes, texts, ops)

    def run_pass(self, state: QueryState, tally: Tally, tracer) -> None:
        clock = tally.clock
        ops = state.ops
        for _ in range(self.spec.pass_ops):
            op = ops[state.cursor]
            state.cursor = (state.cursor + 1) % len(ops)
            spec, code = state.specs[op.code], state.codes[op.code]
            with tracer.op("query"):
                t0 = clock()
                fv = spec.encode(code, op.hidden)
                tally.sample("encode", t0, clock())
                if op.kind == PERTURBED:
                    fv = list(fv)
                    fv[op.position] = fv[op.position] - 1 if fv[op.position] else 1
                t1 = clock()
                try:
                    got = qgt.decode(code, fv)
                except qgt.DecodeError:
                    got = None
                tally.sample("decode", t1, clock())
            if op.kind == VALID:
                ok = got == op.hidden
            elif op.kind == PERTURBED:
                # no hidden set produces this vector: raise, or explain it exactly
                ok = got is None or spec.encode(code, got) == tuple(fv)
            else:
                ok = got is None or got == op.hidden
            tally.check(
                ok,
                f"query {spec} {op.kind} {op.hidden}: decoded {got}",
                known_defect=op.kind == ABOVE_CAP,
            )

    def extras(self, tally):
        enc, dec = tally.samples["encode"], tally.samples["decode"]
        return {
            "encode_p50_us": (statistics.median(enc) * 1e6, "us"),
            "encode_p99_us": (quantile(enc, 99) * 1e6, "us"),
            "decode_p50_us": (statistics.median(dec) * 1e6, "us"),
            "decode_p99_us": (quantile(dec, 99) * 1e6, "us"),
            "samples": (len(dec), "count"),
        }


# -- stream --------------------------------------------------------------


@dataclass(frozen=True)
class StreamSpec:
    code: CodeSpec  # multiset code; alpha is the sketch's readout cap
    segments: int
    segment_len: int
    graph_nodes: int
    graph_degree: int
    graph_segments: int


STREAM_FULL = StreamSpec(CodeSpec("multiset", 4096, 16, 16), 40, 50, 64, 3, 10)
STREAM_TINY = StreamSpec(CodeSpec("multiset", 64, 4, 4), 3, 10, 8, 2, 2)


def _sketch_script(rng: random.Random, spec: StreamSpec):
    """Segments of (ops, multiset expected after them); the last drains to empty."""
    n, k = spec.code.n, spec.code.k
    shadow: dict[int, int] = {}
    segments = []
    for _ in range(spec.segments):
        ops = []
        for _ in range(spec.segment_len):
            if shadow and (sum(shadow.values()) >= k or rng.random() < 0.45):
                v = rng.choice(sorted(shadow))
                ops.append(("D", v))
                shadow[v] -= 1
                if not shadow[v]:
                    del shadow[v]
            else:
                v = rng.randint(1, n)
                ops.append(("I", v))
                shadow[v] = shadow.get(v, 0) + 1
        segments.append((tuple(ops), dict(sorted(shadow.items()))))
    drain = tuple(("D", v) for v, mult in sorted(shadow.items()) for _ in range(mult))
    segments.append((drain, {}))
    return segments


def _graph_script(rng: random.Random, spec: StreamSpec):
    """Segments of (edge toggles, edge list expected after them); the last drains."""
    nodes, max_degree = spec.graph_nodes, spec.graph_degree
    edges: set[tuple[int, int]] = set()
    degree = dict.fromkeys(range(1, nodes + 1), 0)
    segments = []
    for _ in range(spec.graph_segments):
        ops = []
        while len(ops) < spec.segment_len:
            u, v = sorted(rng.sample(range(1, nodes + 1), 2))
            if (u, v) in edges:
                ops.append(("D", u, v))
                edges.remove((u, v))
                degree[u] -= 1
                degree[v] -= 1
            elif degree[u] < max_degree and degree[v] < max_degree:
                ops.append(("I", u, v))
                edges.add((u, v))
                degree[u] += 1
                degree[v] += 1
        segments.append((tuple(ops), sorted(edges)))
    segments.append((tuple(("D", u, v) for u, v in sorted(edges)), []))
    return segments


@dataclass
class StreamState:
    specs: tuple[CodeSpec, ...]
    codes: list[qgt.Code]
    texts: list[str]
    sketch: qgt.StreamSketch
    graph: qgt.GraphSketch
    sketch_script: list
    graph_script: list


class StreamWorkload(Workload):
    name = "stream"

    def __init__(self, spec: StreamSpec = STREAM_FULL) -> None:
        self.spec = spec

    def setup(self, seed: int) -> StreamState:
        spec = self.spec
        code = spec.code.build(seed)
        sketch = qgt.StreamSketch(code, alpha=spec.code.alpha)
        graph = qgt.GraphSketch(spec.graph_nodes, spec.graph_degree, seed=seed)
        sketch.reconstruct()  # fill the cached indexes
        graph.reconstruct()
        graph_code = graph.sketch.code
        graph_spec = CodeSpec("multiset", graph_code.n, graph_code.k, graph_code.k)
        rng = random.Random(seed)
        return StreamState(
            (spec.code, graph_spec),
            [code, graph_code],
            [qgt.code_to_text(code), qgt.code_to_text(graph_code)],
            sketch,
            graph,
            _sketch_script(rng, spec),
            _graph_script(rng, spec),
        )

    def run_pass(self, state: StreamState, tally: Tally, tracer) -> None:
        clock = tally.clock
        sketch, graph = state.sketch, state.graph
        for ops, expected in state.sketch_script:
            with tracer.op("stream_segment"):
                t0 = clock()
                for op, v in ops:
                    sketch.apply(op, v)
                t1 = clock()
                tally.sample("update_batch", t0, t1)
                got = sketch.reconstruct()
                tally.sample("reconstruct", t1, clock())
            tally.updates += len(ops)
            tally.attempted += len(ops)
            tally.check(got == expected, f"stream: reconstructed {got}, expected {expected}")
        for ops, expected in state.graph_script:
            with tracer.op("graph_segment"):
                t0 = clock()
                for op, u, v in ops:
                    graph.apply(op, u, v)
                t1 = clock()
                tally.sample("update_batch", t0, t1)
                got = graph.reconstruct()
                tally.sample("graph_reconstruct", t1, clock())
            tally.updates += len(ops)
            tally.attempted += len(ops)
            tally.check(got == expected, f"graph: reconstructed {got}, expected {expected}")

    def extras(self, tally):
        rec = tally.samples["reconstruct"]
        return {
            "stream_updates_per_s": (tally.updates / sum(tally.samples["update_batch"]), "1/s"),
            "reconstruct_p50_us": (statistics.median(rec) * 1e6, "us"),
            "reconstruct_p90_us": (quantile(rec, 90) * 1e6, "us"),
            "samples": (len(rec), "count"),
            "graph_reconstruct_p50_us": (statistics.median(tally.samples["graph_reconstruct"]) * 1e6, "us"),
        }


# -- oracle --------------------------------------------------------------


@dataclass(frozen=True)
class OracleSpec:
    grid: tuple[tuple[int, int, int], ...]  # (n, k, alpha) plain codes
    sui: tuple[int, int, float, int, int]  # (n, ell, epsilon, kappa, alpha)
    ssui: tuple[int, int, int, int]  # (n, ell, kappa, alpha)
    disperser: tuple[int, int, float]  # (n, ell_star, epsilon)
    random_code: tuple[int, int, int]  # (n, k, alpha)


def _criterion6_grid(sizes):
    # alpha = k duplicates a listed cap for k in {2, 3} and is below the
    # decoder's floor of 2 for k = 1
    return tuple((n, k, alpha) for n in sizes for k in (1, 2, 3) for alpha in (2, 3))


ORACLE_FULL = OracleSpec(_criterion6_grid((16, 32)), (32, 4, 0.25, 4, 4), (16, 2, 4, 2), (32, 1, 0.25), (32, 3, 8))
ORACLE_TINY = OracleSpec(((8, 1, 2), (8, 2, 2)), (16, 2, 0.5, 2, 2), (8, 1, 1, 2), (8, 1, 0.5), (8, 2, 4))


@dataclass
class OracleState:
    specs: tuple[CodeSpec, ...]
    codes: list[qgt.Code]
    texts: list[str]
    calls: list  # (label, thunk, verdict check)


class OracleWorkload(Workload):
    name = "oracle"

    def __init__(self, spec: OracleSpec = ORACLE_FULL) -> None:
        self.spec = spec

    def setup(self, seed: int) -> OracleState:
        spec = self.spec
        specs = tuple(CodeSpec("plain", n, k, alpha) for n, k, alpha in spec.grid)
        codes = [s.build(seed) for s in specs]
        calls = []
        for s, code in zip(specs, codes):
            args = (code.queries, s.n, s.k, s.alpha)
            calls.append((f"verify_uniqueness{s.n, s.k, s.alpha}",
                          lambda a=args: qgt.verify_uniqueness(*a), lambda r: r is True))
            calls.append((f"find_unjammed_violation{s.n, s.k, s.alpha}",
                          lambda a=args: qgt.find_unjammed_violation(*a), lambda r: r is None))
        n, ell, eps, kappa, alpha = spec.sui
        sui = qgt.build_sui(n, ell, eps, kappa, alpha, seed=seed)
        calls.append((f"verify_sui{spec.sui}",
                      lambda: qgt.verify_sui(sui.queries, n, ell, eps, kappa, alpha),
                      lambda r: r.passed and r.max_unselected == 0))
        sn, sell, skappa, salpha = spec.ssui
        ssui = qgt.build_ssui(sn, sell, skappa, salpha)
        calls.append((f"verify_ssui{spec.ssui}",
                      lambda: qgt.verify_ssui(ssui.queries, sn, sell, skappa, salpha),
                      lambda r: r is True))
        dn, ell_star, deps = spec.disperser
        params = qgt.DisperserParams(ell_star=ell_star, epsilon=deps, seed=seed)

        def disperser():
            graph = qgt.build_disperser(dn, params)
            return qgt.verify_dispersion(graph, ell_star, deps, mode="exhaustive")

        calls.append((f"disperser{spec.disperser}", disperser, lambda r: r is True))
        rn, rk, ralpha = spec.random_code
        calls.append((f"find_verified_code{spec.random_code}",
                      lambda: qgt.find_verified_code(rn, rk, ralpha, start_seed=seed),
                      lambda r: r[1].passed))
        random.Random(seed).shuffle(calls)
        texts = [qgt.code_to_text(code) for code in codes]
        return OracleState(specs, codes, texts, calls)

    def run_pass(self, state: OracleState, tally: Tally, tracer) -> None:
        for label, call, verdict_ok in state.calls:
            with tracer.op("oracle"):
                result = call()
            tally.check(verdict_ok(result), f"oracle {label}: unexpected verdict {result!r}")


WORKLOADS = {w.name: w for w in (BuildWorkload(), QueryWorkload(), StreamWorkload(), OracleWorkload())}


def tiny_workloads() -> dict[str, Workload]:
    """Every workload at a size that runs in well under a second, for smoke tests."""
    return {
        "build": BuildWorkload(BUILD_TINY),
        "query": QueryWorkload(QUERY_TINY),
        "stream": StreamWorkload(STREAM_TINY),
        "oracle": OracleWorkload(ORACLE_TINY),
    }


def quantile(values: list[float], pct: int) -> float:
    """The pct-th percentile by nearest rank (the minimum, below 100/pct samples)."""
    ordered = sorted(values)
    rank = max(1, -(-pct * len(ordered) // 100))
    return ordered[rank - 1]
