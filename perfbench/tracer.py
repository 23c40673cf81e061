"""Span tracing for the benchmark's traced runs.

The package is never edited for tracing.  Instead, a traced run replaces
selected public functions at the names their callers look them up (a
module global, a package attribute or a class attribute) with wrappers
that record a span per call: name, start, end, parent span and op id.
Spans stay in memory and are written out when the run ends; every span's
self time (its duration minus the time its child spans cover) is summed
per span name and per layer, the layer being the module named before the
first dot.  Wrappers are removed again on uninstall, so untraced runs
execute the package exactly as shipped.

A wrap target that no longer exists is recorded as missing; metrics that
rest only on missing targets are reported as null, never as zero.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter
from math import comb

_now = time.perf_counter_ns

# Spans kept for the trace file; aggregates keep counting past this.
MAX_SPANS = 200_000


def _observe_enhance(tracer, args, result):
    base = result[0]
    useful = sum(1 for sl in result[1:] if sl and sl != base)
    tracer.counts["code.slices"] += len(result) - 1
    tracer.counts["code.useful_slices"] += useful


def _observe_sui(tracer, args, result):
    tracer.counts["sui.families"] += 1
    if result.provenance == "singleton":
        tracer.counts["sui.singleton_families"] += 1


def _observe_disperser(tracer, args, result):
    tracer.counts["disperser.attempts"] += result.attempts


def _observe_text(tracer, args, result):
    text = result if isinstance(result, str) else args[0]
    tracer.counts["serialize.bytes"] += len(text)  # the qgtc format is ASCII


def _observe_decode(tracer, args, result):
    stats = result[1]
    tracer.counts["decode.sweeps"] += stats.sweeps
    tracer.counts["decode.good_checks"] += stats.good_checks
    tracer.counts["decode.slice_reads"] += stats.slice_reads
    tracer.counts["decode.decoded"] += stats.decoded


def _observe_update(tracer, args, result):
    tracer.counts["streaming.counters_touched"] += result


def _observe_uniqueness(tracer, args, result):
    # A True verdict means every set of at most k elements was enumerated.
    if result:
        queries, n, k = args[:3]
        tracer.counts["bounds.sets_enumerated"] += sum(comb(n, j) for j in range(k + 1))


def _observe_unjammed(tracer, args, result):
    # None means every nonempty set of at most k elements was enumerated.
    if result is None:
        queries, n, k = args[:3]
        tracer.counts["bounds.sets_enumerated"] += sum(comb(n, j) for j in range(1, k + 1))


# (where the caller looks the name up, attribute, span name, observer).
# "module:Class" targets a class attribute; a None span name counts calls
# without recording spans, for functions too hot to time one by one.
WRAPS = [
    ("qgt", "build_code", "code.build_code", None),
    ("qgt", "build_code_large", "code.build_code_large", None),
    ("qgt", "build_code_multiset", "code.build_code_multiset", None),
    ("qgt.code", "enhance", "code.enhance", _observe_enhance),
    ("qgt.code", "build_sui", "sui.build_sui", _observe_sui),
    ("qgt.sui", "build_sui", "sui.build_sui", _observe_sui),
    ("qgt.code", "build_sui_rr", "sui.build_sui_rr", None),
    ("qgt.code", "build_ssui", "ssui.build_ssui", None),
    ("qgt.ssui", "build_ssui", "ssui.build_ssui", None),
    ("qgt.ssui", "strong_selector", "ssui.strong_selector", None),
    ("qgt.sui", "build_disperser", "disperser.build_disperser", _observe_disperser),
    ("qgt", "build_disperser", "disperser.build_disperser", _observe_disperser),
    ("qgt.disperser", "verify_dispersion", "disperser.verify_dispersion", None),
    ("qgt", "verify_dispersion", "disperser.verify_dispersion", None),
    ("qgt.code:Code", "incidence", "code.incidence", None),
    ("qgt.code:Code", "block_groups", "code.block_groups", None),
    ("qgt.code:Code", "feedback", "code.feedback", None),
    ("qgt", "code_to_text", "serialize.code_to_text", _observe_text),
    ("qgt", "code_from_text", "serialize.code_from_text", _observe_text),
    ("qgt.decode", "decode_detailed", "decode.decode_detailed", _observe_decode),
    ("qgt.streaming", "decode", "decode.decode", None),
    ("qgt.decode", "decode_balanced", None, None),
    ("qgt.streaming:StreamSketch", "insert", "streaming.update", _observe_update),
    ("qgt.streaming:StreamSketch", "delete", "streaming.update", _observe_update),
    ("qgt.streaming:StreamSketch", "reconstruct", "streaming.readout", None),
    ("qgt", "verify_uniqueness", "bounds.verify_uniqueness", _observe_uniqueness),
    ("qgt", "find_unjammed_violation", "bounds.find_unjammed_violation", _observe_unjammed),
    ("qgt.sui", "max_unselected_count", "ssui.max_unselected", None),
    ("qgt.ssui", "max_unselected_count", "ssui.max_unselected", None),
    ("qgt", "verify_sui", "sui.verify_sui", None),
    ("qgt", "verify_ssui", "ssui.verify_ssui", None),
    ("qgt.random_code", "verify_claims", "random_code.verify_claims", None),
    ("qgt", "find_verified_code", "random_code.find_verified_code", None),
]

COUNTED_CALLS = {"qgt.decode.decode_balanced": "balanced.decode_balanced.calls"}


def _self_s(name):
    return ("s", [name], lambda t: t.self_ns[name] / 1e9)


def _calls(name):
    return ("count", [name], lambda t: t.calls[name])


def _count(key, *names):
    return ("count", list(names), lambda t: t.counts[key])


def _ratio(num, den, *names):
    return ("ratio", list(names), lambda t: t.counts[num] / t.counts[den] if t.counts[den] else 0.0)


# Per-layer metric -> (unit, span names it rests on, value).
METRICS = {
    "code.enhance.s": _self_s("code.enhance"),
    "code.enhance.calls": _calls("code.enhance"),
    "code.useful_slice_ratio": _ratio("code.useful_slices", "code.slices", "code.enhance"),
    "ssui.build_ssui.s": _self_s("ssui.build_ssui"),
    "ssui.strong_selector.s": _self_s("ssui.strong_selector"),
    "sui.build_sui.s": _self_s("sui.build_sui"),
    "sui.singleton_share": _ratio("sui.singleton_families", "sui.families", "sui.build_sui"),
    "disperser.build_disperser.s": _self_s("disperser.build_disperser"),
    "disperser.attempts": _count("disperser.attempts", "disperser.build_disperser"),
    "code.incidence.s": _self_s("code.incidence"),
    "code.block_groups.s": _self_s("code.block_groups"),
    "serialize.code_to_text.s": _self_s("serialize.code_to_text"),
    "serialize.code_from_text.s": _self_s("serialize.code_from_text"),
    "serialize.bytes": _count(
        "serialize.bytes", "serialize.code_to_text", "serialize.code_from_text"
    ),
    "code.feedback.s": _self_s("code.feedback"),
    "code.feedback.calls": _calls("code.feedback"),
    "decode.decode_detailed.s": _self_s("decode.decode_detailed"),
    "decode.sweeps": _count("decode.sweeps", "decode.decode_detailed"),
    "decode.good_checks": _count("decode.good_checks", "decode.decode_detailed"),
    "decode.slice_reads": _count("decode.slice_reads", "decode.decode_detailed"),
    "decode.fired_ratio": _ratio("decode.decoded", "decode.good_checks", "decode.decode_detailed"),
    "decode.rejected": ("count", ["decode.decode_detailed"], lambda t: t.raised["decode.decode_detailed"]),
    "balanced.decode_balanced.calls": _calls("balanced.decode_balanced.calls"),
    "streaming.update.s": _self_s("streaming.update"),
    "streaming.counters_touched": _count("streaming.counters_touched", "streaming.update"),
    "streaming.readout.s": _self_s("streaming.readout"),
    "bounds.verify_uniqueness.s": _self_s("bounds.verify_uniqueness"),
    "bounds.find_unjammed_violation.s": _self_s("bounds.find_unjammed_violation"),
    "bounds.sets_enumerated": _count(
        "bounds.sets_enumerated", "bounds.verify_uniqueness", "bounds.find_unjammed_violation"
    ),
    "ssui.max_unselected.s": _self_s("ssui.max_unselected"),
    "random_code.verify_claims.s": _self_s("random_code.verify_claims"),
    "disperser.verify_dispersion.s": _self_s("disperser.verify_dispersion"),
}


def _resolve(where):
    module_name, _, class_name = where.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class NullTracer:
    """Stands in for a Tracer in untraced runs: op scopes cost one no-op `with`."""

    _scope = contextlib.nullcontext()

    def op(self, name):
        return self._scope


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.dropped = 0
        self.self_ns: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.raised: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.missing: list[str] = []
        self.present: set[str] = set()
        self.op_id = 0
        self._stack: list[list] = []  # [span id, name, start ns, child ns]
        self._next_id = 1
        self._undo: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _push(self, name):
        frame = [self._next_id, name, 0, 0]
        self._next_id += 1
        self._stack.append(frame)
        frame[2] = _now()
        return frame

    def _pop(self, frame):
        end = _now()
        self._stack.pop()
        span_id, name, start, child = frame
        duration = end - start
        self.self_ns[name] += duration - child
        self.calls[name] += 1
        parent = 0
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, parent, self.op_id, name, start, end))
        else:
            self.dropped += 1

    @contextlib.contextmanager
    def op(self, name):
        """A root span for one benchmark op; spans opened inside it share its op id."""
        self.op_id += 1
        frame = self._push("bench." + name)
        try:
            yield
        finally:
            self._pop(frame)

    def _timed(self, name, func, observe):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            frame = tracer._push(name)
            try:
                result = func(*args, **kwargs)
            except Exception:
                tracer.raised[name] += 1
                raise
            finally:
                tracer._pop(frame)
            if observe is not None:
                observe(tracer, args, result)
            return result

        return wrapper

    def _counted(self, name, func):
        calls = self.calls

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)

        return wrapper

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        for where, attr, name, observe in WRAPS:
            target = f"{where}.{attr}"
            try:
                owner = _resolve(where)
                current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                if target not in self.missing:
                    self.missing.append(target)
                continue
            if name is None:
                metric = COUNTED_CALLS[target]
                replacement = self._counted(metric, current)
                self.present.add(metric)
            elif isinstance(current, functools.cached_property):
                replacement = functools.cached_property(self._timed(name, current.func, observe))
                replacement.__set_name__(owner, attr)
                self.present.add(name)
            else:
                replacement = self._timed(name, current, observe)
                self.present.add(name)
            self._undo.append((owner, attr, current))
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- reduction ----------------------------------------------------------

    def metrics(self) -> dict[str, dict]:
        """Every per-layer metric; null where all the spans it rests on are missing."""
        out = {}
        for metric, (unit, names, value) in METRICS.items():
            known = any(n in self.present for n in names)
            out[metric] = {"value": value(self) if known else None, "unit": unit}
        return out

    def layers(self) -> dict[str, float]:
        """Self time in seconds per layer (the span name's module)."""
        totals: Counter[str] = Counter()
        for name, ns in self.self_ns.items():
            totals[name.split(".")[0]] += ns
        return {layer: ns / 1e9 for layer, ns in sorted(totals.items())}

    def dump(self) -> dict:
        return {
            "span_fields": ["id", "parent", "op", "name", "start_ns", "end_ns"],
            "spans": self.spans,
            "spans_dropped": self.dropped,
            "self_s": {n: ns / 1e9 for n, ns in sorted(self.self_ns.items())},
            "calls": dict(sorted(self.calls.items())),
            "raised": dict(sorted(self.raised.items())),
            "counts": dict(sorted(self.counts.items())),
            "layers_self_s": self.layers(),
            "missing": self.missing,
        }
