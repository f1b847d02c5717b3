"""Load against one in-process :class:`repro.serving.PredictionServer`.

* :func:`open_loop` sends requests on a seeded Poisson schedule from the
  calling thread, regardless of completions, and times each request from
  when it was *due* (so a stalled generator still charges the wait to the
  requests behind the stall); how late the generator ran is recorded too.
* :func:`closed_loop` sends a fixed list one request at a time, each after
  the previous answer, and times the whole list.

Each phase gets a fresh server (and so a fresh session with cold caches).
After a phase its outputs are reduced to ``digest(output)``, and each
phase starts by collecting the garbage the one before left, so phases do
not pay for each other's garbage.
"""

from __future__ import annotations

import gc
import math
import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

#: Percentiles a tail may be reported at, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: Bound on pending requests: large enough that admission control never
#: refuses load in these workloads; overload shows as a growing backlog.
QUEUE_DEPTH = 1_000_000
#: Longest wait for the outstanding answers at the end of a phase.
WAIT_S = 120.0


def tail(values: Sequence[float]):
    """``(value, percentile)`` at the highest percentile of
    :data:`TAIL_PERCENTILES` with at least ten samples beyond it (the
    maximum when there are too few samples for any)."""
    data = np.asarray(values, dtype=float)
    for q in TAIL_PERCENTILES:
        if data.size * (1.0 - q / 100.0) >= 10:
            return float(np.percentile(data, q)), q
    return (float(data.max()), 100.0) if data.size else (math.nan, 100.0)


@dataclass
class Phase:
    """What one phase sent, got back and how long each request took."""

    attempted: int = 0
    failed: int = 0
    specs: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    latencies_s: List[float] = field(default_factory=list)
    late_s: List[float] = field(default_factory=list)
    wall_s: float = 0.0
    cpu_s: float = 0.0          # process CPU seconds, closed loop only
    coalesced_share: float = 0.0
    stats: Optional[object] = None

    def tail_s(self):
        return tail(self.latencies_s)


def _server(workers: int):
    from repro.serving import PredictionServer

    return PredictionServer(workers=workers, max_queue_depth=QUEUE_DEPTH)


def settle() -> None:
    """Collect the heap and exempt the survivors (the generated requests,
    imported modules) from later collections.  Call it only where nothing
    still referenced will become garbage, e.g. right after set-up."""
    gc.collect()
    gc.freeze()


def _digested(phase: Phase, outputs, digest) -> Phase:
    phase.outputs = [None if o is None else digest(o) for o in outputs]
    return phase


def open_loop(specs, mode: str, rate: float, seconds: float, seed: int,
              workers: int, digest) -> Phase:
    """Poisson arrivals at ``rate`` into a fresh server, those due within
    ``seconds``."""
    from repro.serving import ServerOverloadedError

    rng = np.random.default_rng([seed, int(rate * 1000)])
    gaps = rng.exponential(1.0 / rate, size=int(rate * seconds * 2) + 16)
    due = np.cumsum(gaps)
    due = due[due < seconds]
    if len(due) > len(specs):
        raise ValueError(f"need {len(due)} specs, generated {len(specs)}")
    phase = Phase(specs=list(specs[:len(due)]))
    count = len(due)
    gc.collect()
    done_at = [math.nan] * count
    outputs: list = [None] * count
    errors: list = [None] * count
    lock = threading.Lock()
    completed = [0]
    all_done = threading.Event()

    def finished(index, future):
        now = time.perf_counter()
        try:
            outputs[index] = future.result()
        except Exception as exc:  # noqa: BLE001 - counted as a failure
            errors[index] = exc
        done_at[index] = now
        with lock:
            completed[0] += 1
            if completed[0] == count:
                all_done.set()

    server = _server(workers).start()
    try:
        start = time.perf_counter() + 0.01
        for index, offset in enumerate(due):
            at = start + offset
            delay = at - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            phase.late_s.append(sent - at)
            try:
                future = server.submit(phase.specs[index], mode=mode)
            except ServerOverloadedError as exc:
                errors[index] = exc
                with lock:
                    completed[0] += 1
                    if completed[0] == count:
                        all_done.set()
                continue
            future.add_done_callback(
                lambda f, i=index: finished(i, f)
            )
        all_done.wait(timeout=WAIT_S)
        phase.wall_s = time.perf_counter() - start
    finally:
        server.close(wait=True)
    phase.stats = server.stats()
    phase.attempted = count
    phase.failed = sum(e is not None for e in errors)
    phase.latencies_s = [
        done_at[i] - (start + due[i]) for i in range(count)
        if errors[i] is None and not math.isnan(done_at[i])
    ]
    phase.coalesced_share = _coalesced_share(phase.stats)
    return _digested(phase, outputs, digest)


def closed_loop(specs, mode: str, workers: int, digest) -> Phase:
    """One caller sends ``specs`` in order, each after the previous answer,
    to a fresh started server; ``wall_s`` is the time for the whole list
    and ``cpu_s`` the CPU time of every thread of the process meanwhile."""
    gc.collect()
    server = _server(workers).start()
    phase = Phase(specs=list(specs))
    outputs = []
    try:
        start = time.perf_counter()
        cpu = time.process_time()
        for spec in phase.specs:
            try:
                outputs.append(
                    server.submit(spec, mode=mode).result(timeout=WAIT_S)
                )
            except Exception:  # noqa: BLE001 - counted as a failure
                outputs.append(None)
                phase.failed += 1
        phase.wall_s = time.perf_counter() - start
        phase.cpu_s = time.process_time() - cpu
    finally:
        server.close(wait=True)
    phase.stats = server.stats()
    phase.attempted = len(phase.specs)
    phase.coalesced_share = _coalesced_share(phase.stats)
    return _digested(phase, outputs, digest)


def _coalesced_share(stats) -> float:
    """Share of dispatched requests that rode in another request's group,
    ``1 - groups / requests``: the dispatches coalescing saved."""
    if not stats.coalesced_requests:
        return 0.0
    return (stats.coalesced_requests - stats.dispatched_groups) / (
        stats.coalesced_requests
    )
