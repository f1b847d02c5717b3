"""Checks on the benchmark itself.

Run from the repository root (the file name keeps it out of the tier-1
collection, since the workload runs take about two minutes)::

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import hostspeed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload: str, trace: int, seconds: float = 2.0, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared(kind: str):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


@pytest.mark.parametrize("workload", ["paper", "serve_predict", "serve_result"])
def test_traced_run_reports_every_layer_metric_and_no_fallback(workload):
    out = bench(workload, trace=1)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    metrics = out["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == declared("per_layer")
    assert metrics["backends.scalar_fallbacks"]["value"] == 0
    assert metrics["sim.scalar_points"]["value"] == 0
    assert metrics["error_rate"]["value"] == 0
    if workload == "paper":
        assert metrics["trace.sim_share"]["value"] > 0.5
        assert metrics["trace.predict_share"]["value"] < 0.01


def test_untraced_run_reports_every_end_to_end_metric():
    out = bench("serve_predict", trace=0)
    assert out["correct"] and out["failed"] == 0
    metrics = out["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == declared("end_to_end")
    assert all(v["value"] > 0 for v in metrics.values())


def test_directory_without_source_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_host_speed_counts_only_passes_inside_the_timed_window():
    passes = [(0.0, 0.5, 9.0)] + [(1.0 + i, 1.5 + i, 0.01 * (i + 1))
                                   for i in range(5)] + [(9.0, 9.5, 9.0)]
    assert hostspeed.pass_s((1.0, 6.0), passes) == pytest.approx(0.03)
    with pytest.raises(RuntimeError):
        hostspeed.pass_s((1.0, 5.0), passes)


def test_probed_child_is_scaled_and_left_running_nowhere():
    proc = subprocess.Popen(
        [sys.executable, "-c", "import time; time.sleep(0.5); print('ok')"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    with hostspeed.Pinned():
        out, err, passes = hostspeed.probe_while(proc, timeout=60)
    assert out.strip() == "ok" and proc.returncode == 0
    assert len(passes) >= hostspeed.MIN_PASSES
    assert all(start <= end and cpu > 0 for start, end, cpu in passes)


def test_self_time_excludes_child_spans():
    t = tracing.Tracer()

    def inner():
        time.sleep(0.02)

    wrapped_inner = t.wrap("inner", inner)

    def outer():
        time.sleep(0.01)
        wrapped_inner()

    t.wrap("outer", outer)()
    assert t.calls["outer"] == t.calls["inner"] == 1
    assert t.self_s["outer"] == pytest.approx(
        t.total_s["outer"] - t.total_s["inner"]
    )
    assert t.self_s["inner"] == t.total_s["inner"] >= 0.02


def test_result_mix_is_fixed_per_frame_and_seeded():
    first = workloads.result_specs(5, 200)
    again = workloads.result_specs(5, 200)
    assert [s.spec_hash() for s in first] == [s.spec_hash() for s in again]
    shares = workloads.result_shares(first)
    assert shares["repeat_share"] == pytest.approx(0.05)
    matmul = [s for s in first[:200] if s.algorithm == "matrix_multiplication"]
    assert len(matmul) == 200 // workloads.RESULT_FRAME


@pytest.mark.parametrize("mode", ["predict", "result"])
def test_request_sequences_are_prefix_stable(mode):
    # A replay child regenerates only the first requests of its run.
    short = workloads.make_specs(mode, 5, 60)
    long = workloads.make_specs(mode, 5, 300)
    assert [s.spec_hash() for s in short] == [s.spec_hash() for s in long[:60]]


def test_result_windows_span_the_dense_sweep_in_every_frame():
    grid = workloads._predict_grids()["vector_addition"]
    specs = workloads.result_specs(9, workloads.RESULT_FRAME)
    starts = sorted(grid.index(s.sizes[0]) for s in specs
                    if s.algorithm == "vector_addition")
    # 18 windows, one per stratum (the repeat slot adds one more).
    assert len(starts) == workloads.RESULT_FRAME - 1
    assert workloads.RESULT_VA_FIRST <= starts[0] < len(grid) // 10
    assert starts[-1] > len(grid) * 9 // 10
