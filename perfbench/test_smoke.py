"""Smoke tests for the benchmark itself, with every workload at a tiny size.

Run from the repository root:

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys

import pytest

import run  # puts the checkout's src/ on sys.path, so it comes first
import qgt
import tracer
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
TINY = workloads.tiny_workloads()


def test_benchmark_file_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_untraced_run_reports_every_end_to_end_metric(name):
    report = run.run_workload(TINY[name], seed=1, seconds=0.01, trace=False)
    result = report["result"]
    assert result["correct"], report["unexpected"] + report["fatal"]
    assert result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_reports_every_per_layer_metric(name):
    decode_module = sys.modules["qgt.decode"]
    originals = (qgt.Code.feedback, decode_module.decode_detailed, qgt.verify_uniqueness)
    report = run.run_workload(TINY[name], seed=2, seconds=0.01, trace=True)
    result = report["result"]
    assert result["correct"], report["unexpected"] + report["fatal"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == PER_LAYER
    assert report["missing"] == []
    assert all(m["value"] is not None for m in result["metrics"].values())
    spans = report["trace_data"]["spans"]
    assert spans and all(op >= 1 for _, _, op, *_ in spans)
    assert (qgt.Code.feedback, decode_module.decode_detailed, qgt.verify_uniqueness) == originals


def test_wrong_decode_result_is_counted_in_error_rate(monkeypatch):
    real_decode = qgt.decode

    def wrong_decode(code, fv):
        got = real_decode(code, fv)
        return {**got, 1: got.get(1, 0) + 1}

    monkeypatch.setattr(qgt, "decode", wrong_decode)
    report = run.run_workload(TINY["query"], seed=1, seconds=0.01, trace=False)
    result = report["result"]
    extras = report["extras"]
    assert result["failed"] > extras["known_defect"]["value"]
    assert extras["error_rate"]["value"] == result["failed"] / result["attempted"]
    assert result["metrics"]["ok_rate"]["value"] < 1
    assert not result["correct"]


def test_missing_wrap_target_is_reported_not_zero(monkeypatch):
    monkeypatch.delattr(qgt, "verify_uniqueness")
    t = tracer.Tracer()
    with t.installed():
        pass
    assert "qgt.verify_uniqueness" in t.missing
    assert t.metrics()["bounds.verify_uniqueness.s"]["value"] is None
    assert t.metrics()["bounds.find_unjammed_violation.s"]["value"] == 0


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(
        run.BENCH_DIR,
        tmp_path / run.BENCH_DIR.name,
        ignore=shutil.ignore_patterns("results", "__pycache__", ".pytest_cache"),
    )
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{run.BENCH_DIR.name}/run.py", "--workload", "build",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
