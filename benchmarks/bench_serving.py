"""Serving-throughput benchmark and ``BENCH_sweep.json`` "serving" section.

Replays a traffic burst against the prediction server — by default 32
predict-mode vector-addition requests over overlapping 128-point windows of
the dense 256-point sweep — on two paths:

* ``serialized`` — the no-server baseline: each request is answered alone,
  one at a time, with nothing shared between requests (one union compile
  and one backend evaluation *per request*),
* ``coalesced``  — the same burst through a
  :class:`~repro.serving.server.PredictionServer`, whose workers coalesce
  every pending request sharing ``(algorithm, preset)`` into one
  union-of-sizes batch and scatter per-request columns back.

Every run asserts bit-for-bit parity between the two paths before it is
recorded, and the report — requests/sec on both paths, end-to-end p50/p99
latency, and the coalescing ratio (requests served per dispatched group) —
is merged into ``BENCH_sweep.json`` next to the batch-engine numbers so the
serving trajectory is tracked PR over PR (the CI ``perf-smoke`` lane gates
on ``--min-speedup``).

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_serving.py --out BENCH_sweep.json
"""

from __future__ import annotations

import argparse
import math
import platform
import sys
import time
from datetime import datetime, timezone
from typing import Dict, List, Sequence

import numpy as np

from repro.experiments import ExperimentSpec, predict_group
from repro.serving import PredictionServer
from repro.workloads.sweeps import dense_sweep

from bench_sweep import merge_report

#: Requests in the default burst.
DEFAULT_REQUESTS = 32

#: Dense-sweep points the request windows are cut from.
DENSE_POINTS = 256

#: Sweep points per request window.
WINDOW_POINTS = 128


def burst_specs(
    requests: int = DEFAULT_REQUESTS,
    points: int = DENSE_POINTS,
    window: int = WINDOW_POINTS,
) -> List[ExperimentSpec]:
    """Overlapping sweep-window requests over one dense size grid.

    Request ``i`` asks for a ``window``-point slice starting at an offset
    that walks the grid, so consecutive requests overlap heavily — the
    serving sweet spot — while no two are identical.
    """
    if not 0 < window <= points:
        raise ValueError("window must be in (0, points]")
    sizes = list(dense_sweep(points).sizes)
    span = points - window
    return [
        ExperimentSpec(
            "vector_addition",
            sizes=sizes[offset:offset + window],
        )
        for index in range(requests)
        for offset in ((index * span) // max(requests - 1, 1),)
    ]


def _parity(served, isolated) -> bool:
    for got, want in zip(served, isolated):
        if got.sizes != want.sizes:
            return False
        for name, values in want.series.items():
            if not np.array_equal(np.asarray(got.series[name]), values):
                return False
    return True


def _run_serialized(specs: Sequence[ExperimentSpec]) -> Dict[str, object]:
    """One request at a time, nothing shared — the no-server baseline."""
    start = time.perf_counter()
    outputs = [predict_group([spec])[0] for spec in specs]
    elapsed = time.perf_counter() - start
    return {"elapsed_s": elapsed, "outputs": outputs}


def _run_coalesced(
    specs: Sequence[ExperimentSpec], workers: int
) -> Dict[str, object]:
    """The same burst through a fresh server (fresh session, cold caches)."""
    server = PredictionServer(workers=workers)
    futures = server.submit_many(specs, mode="predict")
    start = time.perf_counter()
    with server:
        outputs = [future.result(timeout=600) for future in futures]
    elapsed = time.perf_counter() - start
    stats = server.stats()
    return {"elapsed_s": elapsed, "outputs": outputs, "stats": stats}


def run_benchmark(
    requests: int = DEFAULT_REQUESTS,
    points: int = DENSE_POINTS,
    window: int = WINDOW_POINTS,
    workers: int = 2,
    repeats: int = 3,
) -> Dict[str, object]:
    """Best-of-``repeats`` serving report (see the module docstring)."""
    specs = burst_specs(requests=requests, points=points, window=window)
    best_serial = math.inf
    best_coalesced = math.inf
    best_stats = None
    parity = True
    for _ in range(repeats):
        serial = _run_serialized(specs)
        coalesced = _run_coalesced(specs, workers=workers)
        parity = parity and _parity(coalesced["outputs"], serial["outputs"])
        best_serial = min(best_serial, serial["elapsed_s"])
        if coalesced["elapsed_s"] < best_coalesced:
            best_coalesced = coalesced["elapsed_s"]
            best_stats = coalesced["stats"]
    return {
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "repeats": repeats,
        "requests": requests,
        "dense_points": points,
        "window_points": window,
        "workers": workers,
        "parity": parity,
        "serialized_s": best_serial,
        "coalesced_s": best_coalesced,
        "serialized_rps": requests / best_serial,
        "coalesced_rps": requests / best_coalesced,
        "speedup": best_serial / best_coalesced,
        "latency_p50_s": best_stats.latency_p50_s,
        "latency_p99_s": best_stats.latency_p99_s,
        "latency_mean_s": best_stats.latency_mean_s,
        "coalescing_ratio": best_stats.coalescing_ratio,
        "dispatched_groups": best_stats.dispatched_groups,
    }


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default="BENCH_sweep.json",
        help="JSON report to merge the serving section into "
             "(default: %(default)s)",
    )
    parser.add_argument(
        "--requests", type=int, default=DEFAULT_REQUESTS,
        help="requests in the burst (default: %(default)s)",
    )
    parser.add_argument(
        "--points", type=int, default=DENSE_POINTS,
        help="dense-sweep points the windows are cut from "
             "(default: %(default)s)",
    )
    parser.add_argument(
        "--window", type=int, default=WINDOW_POINTS,
        help="sweep points per request (default: %(default)s)",
    )
    parser.add_argument(
        "--workers", type=int, default=2,
        help="server worker threads (default: %(default)s)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="timing repetitions, best-of (default: %(default)s)",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=None,
        help="fail unless coalesced throughput reaches this multiple of "
             "the serialized baseline",
    )
    args = parser.parse_args(argv)
    serving = run_benchmark(
        requests=args.requests, points=args.points, window=args.window,
        workers=args.workers, repeats=args.repeats,
    )
    merge_report(args.out, {"serving": serving})
    print(
        f"serving burst: {serving['requests']} requests x "
        f"{serving['window_points']} of {serving['dense_points']} pts  "
        f"serialized {serving['serialized_rps']:6.1f} req/s  "
        f"coalesced {serving['coalesced_rps']:6.1f} req/s  "
        f"speedup {serving['speedup']:.1f}x"
    )
    print(
        f"latency p50 {serving['latency_p50_s'] * 1e3:.2f} ms  "
        f"p99 {serving['latency_p99_s'] * 1e3:.2f} ms  "
        f"coalescing ratio {serving['coalescing_ratio']:.1f} "
        f"({serving['dispatched_groups']} dispatches) -> {args.out}"
    )
    if not serving["parity"]:
        print(
            "ERROR: coalesced and serialized answers disagree",
            file=sys.stderr,
        )
        return 1
    if (
        args.min_speedup is not None
        and serving["speedup"] < args.min_speedup
    ):
        print(
            f"ERROR: serving speedup {serving['speedup']:.1f}x below "
            f"required {args.min_speedup:.1f}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
