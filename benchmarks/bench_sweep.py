"""Scalar-vs-vectorized sweep benchmark and ``BENCH_sweep.json`` emitter.

Times ``predict_sweep`` end to end on the paper's Section IV sweeps, a
dense 256-point sweep, and the ``STREAM_CHUNK_SWEEP`` /
``SHARD_COUNT_SWEEP`` backend families, on both evaluation paths:

* ``scalar`` — the original per-size path (one ``analyse_metrics`` plus one
  scalar backend call per size per backend),
* ``batch``  — the vectorized path (one compiled
  :class:`~repro.core.batch.MetricsBatch` built through the algorithm's
  array-native ``metrics_batch`` factory, one array program per backend
  family).

Each entry additionally reports a **factory-time column**: how long the
``MetricsBatch`` takes to compile through the scalar per-size metrics
factory versus the vectorized whole-sweep factory (the metrics factories
used to dominate the batch path at ~80 % of its time).

The ``sim_batch`` section times ``observe_sweep`` the same way, scalar
device loop against the batched simulator: a dense vector-addition sweep,
and reduction and matrix multiplication over their ``default_sizes()``.
Each of its entries also records the batched path's traced allocation
peak (``batch_peak_mb``) from a separate, untimed ``tracemalloc`` call.

Every entry asserts bit-for-bit parity between the two paths
(``np.allclose(..., rtol=0, atol=0)``) before it is recorded, and the
result is written as machine-readable JSON so the performance trajectory is
tracked PR over PR (the CI ``perf-smoke`` lane uploads it as an artifact
and asserts the dense-sweep speedup against the PR 4 baseline).

The emitter replaces only its own sections of an existing report, so the
``serving`` section ``bench_serving.py`` merges into the same file
survives a rerun.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_sweep.py --out BENCH_sweep.json
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import sys
import time
import tracemalloc
from datetime import datetime, timezone
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.algorithms import MatrixMultiplication, Reduction, VectorAddition
from repro.core.batch import MetricsBatch
from repro.core.presets import DEFAULT_PRESET
from repro.core.backends import (
    get_backend,
    make_async_backend,
    make_sharded_backend,
    register_backend,
    unregister_backend,
)
from repro.core.sharding import TopologyCostModel, topology_cost_batch
from repro.core.topology import DeviceSpec, LinkSpec, Topology
from repro.workloads.sweeps import (
    SHARD_COUNT_SWEEP,
    STREAM_CHUNK_SWEEP,
    dense_sweep,
    sweep_for,
)

#: Every built-in backend family, in registration order.
FAMILY_BACKENDS = (
    "atgpu", "swgpu", "perfect", "agpu", "atgpu-async", "atgpu-multi",
)

#: Points in the dense sweep of the headline speedup entry.
DENSE_POINTS = 256


def _ensure_registered(backend, added: Optional[List[str]] = None) -> str:
    """Register a backend variant unless its name is already taken.

    Names this call registers are appended to ``added`` so the caller can
    restore the registry afterwards (other test modules register the same
    variant names and must not collide with benchmark leftovers).
    """
    try:
        get_backend(backend.name)
    except KeyError:
        register_backend(backend)
        if added is not None:
            added.append(backend.name)
    return backend.name


def chunk_sweep_backends(added: Optional[List[str]] = None) -> List[str]:
    """One async backend per ``STREAM_CHUNK_SWEEP`` chunk count."""
    return [
        _ensure_registered(make_async_backend(int(chunks)), added)
        for chunks in STREAM_CHUNK_SWEEP.sizes
    ]


def shard_sweep_backends(added: Optional[List[str]] = None) -> List[str]:
    """One sharded backend per ``SHARD_COUNT_SWEEP`` device count."""
    return [
        _ensure_registered(make_sharded_backend(int(devices)), added)
        for devices in SHARD_COUNT_SWEEP.sizes
    ]


def dense_sizes(points: int = DENSE_POINTS) -> List[int]:
    """A dense vector-addition-style sweep of ``points`` distinct sizes."""
    return list(dense_sweep(points).sizes)


def _time_path(algorithm, sizes, backends, path: str, repeats: int) -> float:
    """Best-of-``repeats`` wall time of one ``predict_sweep`` path."""
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        algorithm.predict_sweep(sizes, backends=backends, path=path)
        best = min(best, time.perf_counter() - start)
    return best


def _time_factory(build, repeats: int) -> float:
    """Best-of-``repeats`` wall time of one batch-compilation path."""
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        build()
        best = min(best, time.perf_counter() - start)
    return best


def bench_entry(
    name: str,
    algorithm,
    sizes: Sequence[int],
    backends: Sequence[str],
    repeats: int = 3,
) -> Dict:
    """Time both paths on one sweep and verify their parity."""
    sizes = list(sizes)
    backends = tuple(backends)
    scalar = algorithm.predict_sweep(sizes, backends=backends, path="scalar")
    batch = algorithm.predict_sweep(sizes, backends=backends, path="batch")
    max_diff = 0.0
    parity = True
    for backend in backends:
        a = scalar.series_for(backend)
        b = batch.series_for(backend)
        max_diff = max(max_diff, float(np.max(np.abs(a - b))))
        parity = parity and bool(np.allclose(a, b, rtol=0, atol=0))
    parity = parity and bool(np.allclose(
        scalar.predicted_transfer_proportions,
        batch.predicted_transfer_proportions,
        rtol=0, atol=0,
    ))
    scalar_s = _time_path(algorithm, sizes, backends, "scalar", repeats)
    batch_s = _time_path(algorithm, sizes, backends, "batch", repeats)
    machine = DEFAULT_PRESET.machine
    factory_scalar_s = _time_factory(
        lambda: MetricsBatch.compile(
            algorithm.name, sizes,
            lambda n: algorithm.metrics(n, machine),
        ),
        repeats,
    )
    factory_batch_s = _time_factory(
        lambda: algorithm.compile_batch(sizes), repeats
    )
    return {
        "name": name,
        "algorithm": algorithm.name,
        "points": len(sizes),
        "backends": list(backends),
        "scalar_s": scalar_s,
        "batch_s": batch_s,
        "speedup": scalar_s / batch_s if batch_s > 0 else float("inf"),
        "factory_scalar_s": factory_scalar_s,
        "factory_batch_s": factory_batch_s,
        "factory_speedup": (
            factory_scalar_s / factory_batch_s
            if factory_batch_s > 0 else float("inf")
        ),
        "max_abs_diff": max_diff,
        "parity": parity,
    }


#: Points in the dense sweep of the batched-simulator section (the ISSUE
#: gate is defined on a 128-point sweep).
SIM_DENSE_POINTS = 128

#: Simulator entries whose batch-over-scalar speedup ``--min-sim-speedup``
#: gates.  Matmul is recorded but not gated: its scalar path also samples
#: grids over 16 blocks, so the two paths do similar work.
SIM_GATED = ("vector_addition", "reduction")


def sim_entry(name: str, algorithm, sizes: Sequence[int], repeats: int) -> Dict:
    """Scalar vs batched **simulator** wall time on one sweep.

    Times ``observe_sweep`` end to end on both paths — the scalar per-size
    device loop against the :mod:`repro.simulator.batch` probe-and-replay
    path — and checks bit-for-bit parity of every reported series.  The
    scalar loop is timed once (it dominates the section's wall time at
    seconds to tens of seconds); the batched path is best-of-``repeats``.
    ``batch_peak_mb`` is the traced allocation peak of one more batched
    call, taken under ``tracemalloc`` apart from the timed calls.
    """
    sizes = list(sizes)
    start = time.perf_counter()
    scalar = algorithm.observe_sweep(sizes, path="scalar")
    scalar_s = time.perf_counter() - start
    batch = algorithm.observe_sweep(sizes, path="batch")
    parity = (
        batch.total_times == scalar.total_times
        and batch.kernel_times == scalar.kernel_times
        and batch.transfer_times == scalar.transfer_times
    )
    batch_s = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        algorithm.observe_sweep(sizes, path="batch")
        batch_s = min(batch_s, time.perf_counter() - start)
    tracemalloc.start()
    try:
        algorithm.observe_sweep(sizes, path="batch")
        batch_peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    return {
        "name": name,
        "algorithm": algorithm.name,
        "points": len(sizes),
        "scalar_s": scalar_s,
        "batch_s": batch_s,
        "speedup": scalar_s / batch_s if batch_s > 0 else float("inf"),
        "batch_peak_mb": batch_peak_mb,
        "gated": algorithm.name in SIM_GATED,
        "parity": parity,
    }


def sim_batch_section(
    repeats: int = 3, points: int = SIM_DENSE_POINTS
) -> List[Dict]:
    """Simulator entries: the dense vector-addition sweep, and reduction
    and matmul over their ``default_sizes()`` (the paper's sweeps)."""
    reduction, matmul = Reduction(), MatrixMultiplication()
    return [
        sim_entry(
            f"sim_dense{points}/vector_addition", VectorAddition(),
            dense_sizes(points), repeats,
        ),
        sim_entry(
            "sim_section4/reduction", reduction, reduction.default_sizes(),
            repeats,
        ),
        sim_entry(
            "sim_section4/matrix_multiplication", matmul,
            matmul.default_sizes(), repeats,
        ),
    ]


#: The two-preset fleet of the heterogeneous-straggler section: one
#: default (gtx650) device and one gtx980 on a shared, moderately
#: contended host link.
HETERO_FLEET = Topology(
    devices=(DeviceSpec(), DeviceSpec(preset="gtx980")),
    links=(LinkSpec(kind="host", socket=0, contention=0.3),),
)


def heterogeneous_fleet_section(repeats: int = 3) -> Dict:
    """Straggler cost of the load-aware planner vs the even-split baseline.

    Evaluates the compute-bound matmul sweep on :data:`HETERO_FLEET` under
    both planners, asserting (a) bit-for-bit scalar/batch parity of the
    topology evaluator and (b) that the load-aware split prices strictly
    below the even split in total — the whole point of weighting shards by
    per-device throughput.
    """
    algorithm = MatrixMultiplication()
    sizes = list(sweep_for(algorithm.name).sizes)
    preset = DEFAULT_PRESET
    batch = algorithm.compile_batch(sizes)
    planners: Dict[str, Dict] = {}
    parity = True
    for planner in ("load-aware", "even"):
        model = TopologyCostModel(
            preset.machine, preset.parameters, preset.occupancy,
            HETERO_FLEET, planner=planner,
        )
        scalar = np.array([
            model.gpu_cost(algorithm.metrics(n, preset.machine))
            for n in sizes
        ])
        vector = topology_cost_batch(
            batch, preset.machine, preset.parameters, preset.occupancy,
            HETERO_FLEET, planner=planner,
        )
        parity = parity and bool(np.allclose(scalar, vector, rtol=0, atol=0))
        batch_s = _time_factory(
            lambda: topology_cost_batch(
                batch, preset.machine, preset.parameters, preset.occupancy,
                HETERO_FLEET, planner=planner,
            ),
            repeats,
        )
        planners[planner] = {
            "costs": [float(c) for c in vector],
            "total": float(vector.sum()),
            "batch_s": batch_s,
        }
    load_aware = planners["load-aware"]["total"]
    even = planners["even"]["total"]
    return {
        "name": "hetero_fleet/matrix_multiplication",
        "algorithm": algorithm.name,
        "sizes": sizes,
        "devices": [d.preset or preset.name for d in HETERO_FLEET.devices],
        "contention": HETERO_FLEET.host_link(0).contention,
        "topology_hash": HETERO_FLEET.topology_hash(),
        "planners": planners,
        "straggler_reduction": 1.0 - load_aware / even,
        "load_aware_beats_even": load_aware < even,
        "parity": parity,
    }


def run_benchmarks(repeats: int = 3, points: int = DENSE_POINTS) -> Dict:
    """Run every benchmark entry and assemble the report dictionary.

    Backend variants registered for the chunk/shard sweeps are unregistered
    again on the way out, so running the harness (e.g. inside a pytest
    session) leaves the global registry exactly as it found it.
    """
    added: List[str] = []
    try:
        chunk_names = chunk_sweep_backends(added)
        shard_names = shard_sweep_backends(added)
        grid = tuple(dict.fromkeys(
            (*FAMILY_BACKENDS, *chunk_names, *shard_names)
        ))
        entries = [
            bench_entry(
                f"section4/{algorithm.name}", algorithm,
                sweep_for(algorithm.name).sizes, FAMILY_BACKENDS, repeats,
            )
            for algorithm in (
                VectorAddition(), Reduction(), MatrixMultiplication(),
            )
        ]
        entries.append(bench_entry(
            f"dense{points}/vector_addition", VectorAddition(),
            dense_sizes(points), grid, repeats,
        ))
        entries.append(bench_entry(
            "stream_chunk_sweep/reduction", Reduction(),
            sweep_for("reduction").sizes, ("atgpu", *chunk_names), repeats,
        ))
        entries.append(bench_entry(
            "shard_count_sweep/vector_addition", VectorAddition(),
            sweep_for("vector_addition").sizes, ("atgpu", *shard_names),
            repeats,
        ))
    finally:
        for name in added:
            unregister_backend(name)
    speedups = [entry["speedup"] for entry in entries]
    factory_speedups = [entry["factory_speedup"] for entry in entries]
    dense = next(e for e in entries if e["name"].startswith("dense"))
    hetero = heterogeneous_fleet_section(repeats)
    sim_batch = sim_batch_section(repeats)
    return {
        "benchmark": "vectorized-batch-sweep",
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "repeats": repeats,
        "entries": entries,
        "heterogeneous_fleet": hetero,
        "sim_batch": sim_batch,
        "summary": {
            "parity": (
                all(entry["parity"] for entry in entries)
                and hetero["parity"]
                and all(entry["parity"] for entry in sim_batch)
            ),
            "hetero_straggler_reduction": hetero["straggler_reduction"],
            "hetero_load_aware_beats_even": hetero["load_aware_beats_even"],
            "min_speedup": min(speedups),
            "max_speedup": max(speedups),
            "geomean_speedup": float(np.exp(np.mean(np.log(speedups)))),
            "geomean_factory_speedup": float(
                np.exp(np.mean(np.log(factory_speedups)))
            ),
            "dense_points": dense["points"],
            "dense_speedup": dense["speedup"],
            "dense_factory_speedup": dense["factory_speedup"],
            "sim_dense_points": sim_batch[0]["points"],
            "sim_speedup": sim_batch[0]["speedup"],
            "sim_min_gated_speedup": min(
                entry["speedup"] for entry in sim_batch if entry["gated"]
            ),
        },
    }


def merge_report(path: str, report: Dict) -> None:
    """Write ``report``'s sections into the JSON document at ``path``.

    Other writers own other sections of the same file (``bench_serving.py``
    owns ``serving``), so the document is read, only this emitter's keys
    are replaced, and it is written back; a missing or unreadable file
    starts empty.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, ValueError):
        document = {}
    document.update(report)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default="BENCH_sweep.json",
        help="path of the JSON report (default: %(default)s)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="timing repetitions per entry, best-of (default: %(default)s)",
    )
    parser.add_argument(
        "--points", type=int, default=DENSE_POINTS,
        help="dense-sweep point count (default: %(default)s)",
    )
    parser.add_argument(
        "--min-dense-speedup", type=float, default=None,
        help="fail unless the dense-sweep speedup reaches this factor",
    )
    parser.add_argument(
        "--min-sim-speedup", type=float, default=None,
        help="fail unless every gated batched-simulator speedup (vector "
             "addition, reduction) reaches this factor",
    )
    args = parser.parse_args(argv)
    report = run_benchmarks(repeats=args.repeats, points=args.points)
    merge_report(args.out, report)
    width = max(
        len(entry["name"])
        for entry in report["entries"] + report["sim_batch"]
    )
    for entry in report["entries"]:
        flag = "ok" if entry["parity"] else "PARITY MISMATCH"
        print(
            f"{entry['name']:<{width}}  {entry['points']:>4} pts  "
            f"scalar {entry['scalar_s'] * 1e3:8.2f} ms  "
            f"batch {entry['batch_s'] * 1e3:7.2f} ms  "
            f"speedup {entry['speedup']:6.1f}x  "
            f"factory {entry['factory_scalar_s'] * 1e3:7.2f}/"
            f"{entry['factory_batch_s'] * 1e3:5.2f} ms "
            f"({entry['factory_speedup']:5.1f}x)  {flag}"
        )
    hetero = report["heterogeneous_fleet"]
    print(
        f"{hetero['name']:<{width}}  {len(hetero['sizes']):>4} pts  "
        f"load-aware {hetero['planners']['load-aware']['total'] * 1e3:.2f} ms "
        f"vs even {hetero['planners']['even']['total'] * 1e3:.2f} ms  "
        f"straggler -{hetero['straggler_reduction'] * 100:.1f}%  "
        f"{'ok' if hetero['parity'] else 'PARITY MISMATCH'}"
    )
    for sim in report["sim_batch"]:
        print(
            f"{sim['name']:<{width}}  {sim['points']:>4} pts  "
            f"scalar {sim['scalar_s']:8.2f} s   "
            f"batch {sim['batch_s'] * 1e3:7.2f} ms  "
            f"speedup {sim['speedup']:6.1f}x  "
            f"peak {sim['batch_peak_mb']:6.2f} MB  "
            f"{'ok' if sim['parity'] else 'PARITY MISMATCH'}"
        )
    summary = report["summary"]
    print(
        f"geomean speedup {summary['geomean_speedup']:.1f}x "
        f"(factory {summary['geomean_factory_speedup']:.1f}x), "
        f"dense {summary['dense_points']}-point sweep "
        f"{summary['dense_speedup']:.1f}x, simulator "
        f"{summary['sim_dense_points']}-point sweep "
        f"{summary['sim_speedup']:.1f}x -> {args.out}"
    )
    if not summary["parity"]:
        print("ERROR: scalar and batch paths disagree", file=sys.stderr)
        return 1
    if not hetero["load_aware_beats_even"]:
        print(
            "ERROR: load-aware planning did not beat the even split on the "
            "heterogeneous fleet",
            file=sys.stderr,
        )
        return 1
    if (
        args.min_dense_speedup is not None
        and summary["dense_speedup"] < args.min_dense_speedup
    ):
        print(
            f"ERROR: dense speedup {summary['dense_speedup']:.1f}x below "
            f"required {args.min_dense_speedup:.1f}x",
            file=sys.stderr,
        )
        return 1
    if (
        args.min_sim_speedup is not None
        and summary["sim_min_gated_speedup"] < args.min_sim_speedup
    ):
        print(
            f"ERROR: simulator speedup "
            f"{summary['sim_min_gated_speedup']:.1f}x below "
            f"required {args.min_sim_speedup:.1f}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
