"""qgt benchmark: four workloads, end-to-end metrics and per-layer traces.

Run from the repository root:

    python3 perfbench/run.py --workload query --seed 1 --seconds 15 --trace 0

`--workload` is build, query, stream, oracle, or all (every workload in
turn, in one process).  Seed 1 is the development seed; seed 2 is held
out for checking a claim on inputs not used while writing it.

One run, single process, one closed-loop client:

1. set-up repeats until it has run SETUP_MIN_REPS times and for
   SETUP_MIN_S seconds; `setup_s` is the median;
2. passes over the workload's fixed work list repeat for `--seconds`;
   between passes, load reps parse every code the workload holds from
   its qgtc text, taking about LOAD_SHARE of the window.

Every timed interval starts from a fully collected heap.  Otherwise a
full collection of the workload's large, long-lived codes lands in an
interval or not depending on what ran before it: that alone moved load
times by a tenth from run to run, where a `qgt` command parsing the same
file in a fresh process pays for no such collection.

End-to-end metrics (every workload, `--trace 0`, nothing wrapped):

    setup_s        median set-up time                           s
    ok_rate        results right / results checked              ratio
    peak_rss_mb    peak resident set of the process             MB
    pass_s         median time of one pass                      s
    load_s         median time to parse every code the
                   workload holds                               s
    m_total        total queries over those codes               count
    m_over_lb_max  largest m / lower_bound(n, k, cap)           ratio

Every time in an untraced run is in seconds at a nominal host speed
(see speed.py): a reference kernel sampled through the run measures how
much neighbours on a shared host are slowing it, and each time is scaled
by that.  The kernel times are kept in the result file.

The workload-specific figures (build_s; encode/decode p50 and p99;
updates per second and reconstruct p50/p90; error_rate, which is
1 - ok_rate) are printed as `extra` lines and kept in the result file.

`--trace 1` runs set-up traced, then half of `--seconds` untraced and
half traced, and reports the per-layer metrics of tracer.py plus the
tracing overhead (traced over untraced pass time, minus one).  Spans
go to the result file under perfbench/results/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 when every
correctness gate held and every wrong result was of the known-defect
kind (see workloads.py), and 1 otherwise.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

sys.path.insert(0, str(SRC))
try:
    import qgt
except ImportError as exc:
    sys.exit(f"perfbench: the qgt package is not importable from {SRC}: {exc}")
if Path(qgt.__file__).resolve().parent.parent != SRC.resolve():
    sys.exit(f"perfbench: qgt was imported from {qgt.__file__}, not from {SRC}")

import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# Set-up repeats until both are reached, so cheap set-ups give more samples.
SETUP_MIN_REPS = 3
SETUP_MIN_S = 4.0
# Share of the measured window spent on load reps, for workloads that hold codes.
LOAD_SHARE = 0.2

END_TO_END_UNITS = {
    "setup_s": "s",
    "ok_rate": "ratio",
    "peak_rss_mb": "MB",
    "pass_s": "s",
    "load_s": "s",
    "m_total": "count",
    "m_over_lb_max": "ratio",
}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    rev = "unknown"
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            rev = out.stdout.strip() or rev
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "git_rev": rev,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
    }


def measure(workload, state, seconds: float, tally, tracer):
    """Passes until `seconds` have elapsed (at least one), with load reps mixed in.

    A load rep (parse the text of every code the workload holds) follows
    any pass that leaves load reps below LOAD_SHARE of the elapsed time, so
    pass and load samples are spread over the same window.  The first load
    rep must reproduce the workload's codes.  Returns (pass times, load times).
    """
    clock, scale = tally.clock, tally.scale
    passes, loads = [], []
    started = clock()
    while True:
        gc.collect()
        t0 = clock()
        workload.run_pass(state, tally, tracer)
        passes.append(scale(t0, clock()))
        if sum(loads) <= LOAD_SHARE * (clock() - started):
            gc.collect()
            with tracer.op("load"):
                t0 = clock()
                parsed = [qgt.code_from_text(text) for text in state.texts]
                loads.append(scale(t0, clock()))
            if len(loads) == 1:
                for got, code in zip(parsed, state.codes):
                    tally.gate(got == code, f"load: code_from_text(code_to_text(c)) != c, n={code.n}")
        if clock() - started >= seconds:
            return passes, loads


def repeat(func, tally):
    """Call func at least SETUP_MIN_REPS times and for SETUP_MIN_S; returns (times, last result)."""
    clock = tally.clock
    times = []
    started = clock()
    while len(times) < SETUP_MIN_REPS or clock() - started < SETUP_MIN_S:
        result = None  # free the previous result before making the next
        gc.collect()
        t0 = clock()
        result = func()
        times.append(tally.scale(t0, clock()))
    return times, result


def _end_to_end(state, tally, setup_times, load_times, passes) -> dict:
    rows = list(zip(state.specs, map(len, state.codes)))
    values = {
        "setup_s": statistics.median(setup_times),
        "ok_rate": 1 - tally.failed / tally.attempted,
        "peak_rss_mb": peak_rss_mb(),
        "pass_s": statistics.median(passes),
        "load_s": statistics.median(load_times),
        "m_total": sum(m for _, m in rows),
        "m_over_lb_max": max(m / spec.lower_bound() for spec, m in rows),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def _run_untraced(workload, seed, seconds, tally, report) -> dict:
    with speed.Speedometer() as meter:
        tally.clock, tally.scale = meter.clock, meter.scale
        setup_times, state = repeat(lambda: workload.setup(seed), tally)
        passes, loads = measure(workload, state, seconds, tally, tracing.NullTracer())
    report["passes"] = passes
    report["reference_kernel_s"] = meter.samples
    return _end_to_end(state, tally, setup_times, loads, passes)


def _run_traced(workload, seed, seconds, tally, report) -> dict:
    tracer = tracing.Tracer()
    with tracer.installed():
        with tracer.op("setup"):
            state = workload.setup(seed)
    untraced, _ = measure(workload, state, seconds / 2, tally, tracing.NullTracer())
    with tracer.installed():
        traced, _ = measure(workload, state, seconds / 2, tally, tracer)
    metrics = tracer.metrics()
    metrics["trace.overhead"] = {
        "value": statistics.median(traced) / statistics.median(untraced) - 1,
        "unit": "ratio",
    }
    metrics["trace.spans"] = {"value": len(tracer.spans) + tracer.dropped, "unit": "count"}
    report["passes"] = {"untraced": untraced, "traced": traced}
    report["layers_self_s"] = tracer.layers()
    report["missing"] = tracer.missing
    report["trace_data"] = tracer.dump()
    return metrics


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload; returns its report, `result` being the JSON summary."""
    tally = workloads.Tally()
    report = {"workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    try:
        runner = _run_traced if trace else _run_untraced
        metrics = runner(workload, seed, seconds, tally, report)
    except Exception:
        tally.gate(False, traceback.format_exc())
        metrics = {}
    extras = {}
    if tally.attempted:
        extras["error_rate"] = (tally.failed / tally.attempted, "ratio")
        extras["known_defect"] = (tally.known_defect, "count")
        if metrics:
            extras.update(workload.extras(tally))
    correct = not tally.fatal and tally.failed == tally.known_defect and bool(metrics)
    report.update(
        peak_rss_mb=peak_rss_mb(),
        extras={k: {"value": v, "unit": u} for k, (v, u) in extras.items()},
        unexpected=tally.unexpected,
        fatal=tally.fatal,
        result={
            "correct": correct,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": metrics,
        },
    )
    return report


def _print_report(report: dict, env: dict) -> None:
    print(
        f"perfbench workload={report['workload']} seed={report['seed']} "
        f"seconds={report['seconds']} trace={report['trace']}"
    )
    print("env " + " ".join(f"{k}={v!r}" for k, v in env.items()) + f" peak_rss_mb={report['peak_rss_mb']:.1f}")
    for name, m in report["result"]["metrics"].items():
        value = "missing" if m["value"] is None else m["value"]
        print(f"metric {name} {value} {m['unit']}")
    for name, m in report["extras"].items():
        print(f"extra {name} {m['value']} {m['unit']}")
    for layer, seconds in report.get("layers_self_s", {}).items():
        print(f"layer {layer} self {seconds:.6f} s")
    for target in report.get("missing", []):
        print(f"missing {target}")
    for what in report["unexpected"]:
        print(f"wrong {what}")
    for what in report["fatal"]:
        print(f"gate-failed {what}")


def _write_report(report: dict, env: dict) -> Path:
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{report['workload']}-seed{report['seed']}-trace{report['trace']}.json"
    path.write_text(json.dumps({"env": env, **report}) + "\n")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    env = environment()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        report = run_workload(workloads.WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        _print_report(report, env)
        print(f"result-file {_write_report(report, env).relative_to(ROOT)}")
        results[name] = report["result"]
    if len(results) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
