"""Benchmark smoke for the vectorized batch sweep engine.

Runs the ``BENCH_sweep.json`` emitter (``benchmarks/bench_sweep.py``) at a
reduced repeat count, prints the per-entry timings, and asserts the
properties the perf lane guards: scalar/batch parity everywhere and a real
speedup on the dense sweep.
"""

from __future__ import annotations

import json

from benchmarks.bench_sweep import (
    bench_entry,
    dense_sizes,
    merge_report,
    run_benchmarks,
)


def test_bench_sweep_report(benchmark, tmp_path):
    """The emitter's full report: parity everywhere, dense sweep wins big."""

    def build():
        return run_benchmarks(repeats=1)

    report = benchmark.pedantic(build, rounds=1, iterations=1)
    out = tmp_path / "BENCH_sweep.json"
    out.write_text(json.dumps(report, indent=2, sort_keys=True))
    print()
    for entry in report["entries"]:
        print(
            f"{entry['name']:<36} {entry['points']:>4} pts  "
            f"scalar {entry['scalar_s'] * 1e3:8.2f} ms  "
            f"batch {entry['batch_s'] * 1e3:7.2f} ms  "
            f"speedup {entry['speedup']:6.1f}x"
        )
    assert report["summary"]["parity"], "scalar and batch paths disagree"
    # Only the dense entry is big enough (tens of ms) for a stable timing
    # assertion; the millisecond-scale entries flake under CI noise.  The
    # threshold sits well under the ≥10× the committed BENCH_sweep.json
    # records on a quiet machine.
    assert report["summary"]["dense_speedup"] > 3.0


def test_dense_entry_parity_is_exact(scale):
    """The headline 256-point entry: allclose with rtol=0, atol=0."""
    from repro.algorithms import VectorAddition

    points = 64 if scale == "small" else 256
    entry = bench_entry(
        f"dense{points}/vector_addition", VectorAddition(),
        dense_sizes(points),
        ("atgpu", "swgpu", "perfect", "agpu", "atgpu-async", "atgpu-multi"),
        repeats=1,
    )
    assert entry["parity"]
    assert entry["max_abs_diff"] == 0.0


def test_rerun_keeps_sections_owned_by_other_writers(tmp_path):
    """Re-emitting replaces this emitter's keys and nothing else."""
    out = tmp_path / "BENCH_sweep.json"
    out.write_text(json.dumps({
        "serving": {"speedup": 6.0, "parity": True},
        "sim_batch": "stale",
    }))
    merge_report(str(out), {"sim_batch": [], "summary": {"parity": True}})
    document = json.loads(out.read_text())
    assert document["serving"] == {"speedup": 6.0, "parity": True}
    assert document["sim_batch"] == []
    assert document["summary"] == {"parity": True}


def test_first_emit_creates_the_report(tmp_path):
    out = tmp_path / "BENCH_sweep.json"
    merge_report(str(out), {"summary": {"parity": True}})
    assert json.loads(out.read_text()) == {"summary": {"parity": True}}
