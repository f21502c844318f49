"""Tests of the benchmark harness itself, on tiny inputs (``run.py --smoke``)."""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import bench_clock
import bench_trace

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, out: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0", "--trace", str(trace), "--smoke", "--out", str(out)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


# what the traced run must show about each workload's layers
ISOLATION = {
    "train": lambda m: m["ddpg.update.calls"] > 0 and m["nets.backward.calls"] > 0,
    "eval": lambda m: (m["nets.backward.calls"] == m["nets.adam_step.calls"] == 0
                       and m["nets.forward_row.calls"] > 0 and m["idm.idm_accel.calls"] > 0),
    "ingest": lambda m: (m["nets.calls"] == m["ddpg.calls"] == m["env.calls"] == 0
                         and m["events.calls"] > 0),
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_is_correct_and_reports_every_metric(tmp_path, workload, trace):
    proc = run_bench(ROOT, tmp_path, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    record = json.loads((tmp_path / f"{workload}-seed5-trace{trace}.json").read_text())
    assert record["record"]["ECOFOLLOW_THREADS"]["measured"] == "unset"
    assert all(len(h) == 64 for h in record["inputs"].values())
    if trace:
        assert ISOLATION[workload]({k: v["value"] for k, v in result["metrics"].items()})


def test_run_outside_a_checkout_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, tmp_path / "out", "ingest", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_wraps_every_binding_and_restores_them():
    from ecofollower import ddpg, env
    original = env.step
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        assert ddpg.step is env.step and env.step is not original

        def one_pass():
            state = env.reset(_constant_event())
            return ddpg.step(state, 0.5, 8.0, 0.1)

        _, stats = tracer.record(one_pass)
    finally:
        tracer.uninstall()
    assert env.step is original and ddpg.step is original
    assert stats.calls[bench_trace.SPAN_NAMES.index("env.step")] == 1
    assert tracer.absent == []


def test_absent_site_is_reported_not_fatal(monkeypatch):
    gone = bench_trace.Site("env.gone", "env", "no_such_function")
    monkeypatch.setattr(bench_trace, "SITES", bench_trace.SITES + (gone,))
    tracer = bench_trace.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["env.gone"]


def test_self_time_subtracts_direct_children():
    tracer = bench_trace.Tracer()
    # parent 0 spans 0-100 ns with children 1 (10-40) and 2 (50-60); 1 has child 3 (20-30)
    spans = np.array([[0, 0, 100, -1], [1, 10, 40, 0], [2, 50, 60, 0], [1, 20, 30, 1]])
    stats = tracer._stats(spans, wall_ns=120)
    assert stats.self_ns[:3].tolist() == [60, 30, 10]
    assert stats.total_ns[:3].tolist() == [100, 40, 10]
    assert stats.covered_ns == 100


def test_host_clock_samples_during_a_call_and_removes_the_samples():
    clock = bench_clock.HostClock()

    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass
        return "done"

    start = time.perf_counter()
    out, timing = clock.measure(busy, 0.3)
    wall = time.perf_counter() - start
    assert out == "done"
    # one sample before, one after, and one per SAMPLE_INTERVAL_S in between
    assert timing.samples >= 2 + 0.3 / bench_clock.SAMPLE_INTERVAL_S - 2
    assert 0.0 < timing.seconds < wall
    assert timing.host_seconds > 0.0


def _constant_event():
    from ecofollower.events import CarFollowingEvent
    t = np.arange(11) * 0.1
    x = 8.0 * t
    return CarFollowingEvent.from_arrays("c", t, x + 12.0, np.full(11, 8.0), x, np.full(11, 8.0))
