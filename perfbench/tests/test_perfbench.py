"""Tests of the benchmark itself.

Run from the checkout root with ``python3 -m pytest perfbench/tests -q``.
They cover a tiny-size run of every workload in both modes, the result
schema against BENCHMARK.json, the self-time arithmetic of the traced
run, and the refusal to run without the program's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run  # noqa: E402

# Pin BLAS threads as run.py does, before numpy loads.
for _var in run.BLAS_ENV:
    os.environ.setdefault(_var, run.BLAS_THREADS)

import pytest  # noqa: E402

from perfbench import tracing, workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = workloads.Sizes(nodes=400, train_iters=3, setup_iters=2,
                       side_train_iters=2, sweep_iters=2, side_nodes=1000,
                       ingest_nodes=3000, setup_repeats=1, predict_repeats=2)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """One tiny run per (workload, traced) pair, shared by the tests."""
    done = {}
    for workload in workloads.WORKLOADS:
        for traced in (False, True):
            run = workloads.Run(workload, seed=3, seconds=0, traced=traced,
                                workdir=tmp_path_factory.mktemp("work"),
                                nproc=2, sizes=TINY)
            run.execute()
            done[workload, traced] = run
    return done


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_result_matches_benchmark_json(runs, workload, traced):
    result = runs[workload, traced].result()
    json.dumps(result, allow_nan=False)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCH["per_layer" if traced else "end_to_end"]
    assert ({name: m["unit"] for name, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in listed})
    assert all(isinstance(m["value"], float)
               for m in result["metrics"].values())
    if not traced:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_child_self_time_never_exceeds_parent_span(runs, workload):
    tracer = runs[workload, True].tracer
    spans = {s.span_id: s for s in tracer.spans}
    selfs = tracing.self_times(tracer.spans)
    children = [s for s in tracer.spans if s.parent is not None]
    assert children
    for child in children:
        parent = spans[child.parent]
        assert selfs[child.span_id] <= parent.duration
        assert parent.start <= child.start <= child.end <= parent.end
    assert all(v >= -1e-9 for v in selfs.values())


def test_self_time_subtracts_union_of_overlapping_children():
    spans = [tracing.Span(1, None, 1, "p", 0.0, 10.0),
             tracing.Span(2, 1, 1, "a", 1.0, 4.0),
             tracing.Span(3, 1, 1, "b", 3.0, 6.0),
             tracing.Span(4, 1, 1, "c", 8.0, 10.0)]
    assert tracing.self_times(spans) == {1: 3.0, 2: 3.0, 3: 3.0, 4: 2.0}


def test_missing_function_reports_zero(monkeypatch):
    monkeypatch.setattr(tracing, "WRAPPED",
                        tracing.WRAPPED + (("fis", "no_such_function"),))
    values = tracing.layer_metrics(tracing.Tracer(), nproc=2)
    expected = {name for name, _ in tracing.LAYER_METRICS
                if not name.startswith("trace.overhead")}
    assert set(values) == expected
    assert all(v == 0.0 for v in values.values())


def test_run_fails_without_program_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench" / path.name)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-stage5",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_monitor_samples_then_stops(tmp_path):
    from perfbench import speed
    with speed.Monitor(tmp_path / "speed.txt") as monitor:
        t0 = time.perf_counter()
        time.sleep(0.4)
        t1 = time.perf_counter()
        proc = monitor._proc
    assert monitor._proc is None and proc.returncode is not None
    assert len(monitor._secs) >= 3
    # A long interval averages the samples inside it; a short one, the
    # nearest MIN_SAMPLES.
    for a, b in ((t0, t1), (t0, t0 + 1e-6)):
        assert 0.0 < monitor.factor(a, b) < float("inf")
