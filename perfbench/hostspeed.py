"""Host speed, measured on the same CPU and at the same time as the program.

The shared host this benchmark runs on changes speed by up to 1.7x within
seconds and over minutes, while nothing in the guest shows it (no steal
time, and CPU time tracks wall time).  A timed child therefore runs pinned
to one CPU, and the parent, pinned to the same CPU, stops the child every
:data:`PAUSE_S` seconds and meanwhile runs one pass of a fixed kernel,
alone on that CPU.  (Sharing the CPU instead, the passes measured the
cache misses the child caused as much as the host.)  The child's CPU
seconds are then scaled to a host on which one kernel pass takes
:data:`NOMINAL_S` CPU seconds, using the passes made within the child's
timed window.  The kernel is the benchmark's own code, so no change to the
program can move it.
"""

from __future__ import annotations

import os
import signal
import statistics
import subprocess
import threading
import time
from typing import List, Sequence, Tuple

#: CPU seconds of one kernel pass on the nominal host; scaled times are
#: seconds on that host.  (A pass took 6-13 ms on the two-vCPU host the
#: benchmark was tuned on.)
NOMINAL_S = 0.010
#: The child runs this long between passes.
PAUSE_S = 0.05
#: A window holding fewer passes than this is not scaled.
MIN_PASSES = 5


def kernel() -> int:
    """Fixed interpreter work: integer arithmetic, dict updates, a sort."""
    table: dict = {}
    acc = 0
    for i in range(24_000):
        key = (i * 2654435761) & 1023
        table[key] = table.get(key, 0) + i
        acc ^= (i * 31 + key) >> 3
    return acc + sorted(table.values(), reverse=True)[0]


class Pinned:
    """Pin this process, and the children it starts meanwhile, to one CPU."""

    def __enter__(self) -> "Pinned":
        self.saved = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {max(self.saved)})
        return self

    def __exit__(self, *exc) -> None:
        os.sched_setaffinity(0, self.saved)


def probe_while(proc: subprocess.Popen, timeout: float
                ) -> Tuple[str, str, List[Tuple[float, float, float]]]:
    """Run kernel passes, each with ``proc`` stopped, until it exits;
    returns its stdout, stderr and the passes as ``(start, end, cpu_s)`` on
    the monotonic clock."""
    output: List[str] = []
    reader = threading.Thread(
        target=lambda: output.extend(proc.communicate()), daemon=True
    )
    reader.start()
    passes = []
    deadline = time.monotonic() + timeout
    try:
        while reader.is_alive():
            if time.monotonic() > deadline:
                raise subprocess.TimeoutExpired(proc.args, timeout)
            proc.send_signal(signal.SIGSTOP)
            try:
                start, cpu = time.monotonic(), time.thread_time()
                kernel()
                passes.append((start, time.monotonic(),
                               time.thread_time() - cpu))
            finally:
                proc.send_signal(signal.SIGCONT)
            reader.join(PAUSE_S)
    finally:
        if reader.is_alive():
            proc.kill()
        reader.join()
    return output[0], output[1], passes


def pass_s(window: Tuple[float, float],
           passes: Sequence[Tuple[float, float, float]]) -> float:
    """Median CPU seconds of the passes inside ``window``."""
    inside = [c for start, end, c in passes
              if window[0] <= start and end <= window[1]]
    if len(inside) < MIN_PASSES:
        raise RuntimeError(
            f"{len(inside)} host-speed passes in the timed window")
    return statistics.median(inside)


def scaled(cpu_s: float, pass_cpu_s: float) -> float:
    """``cpu_s`` on the nominal host, given the median pass meanwhile."""
    return cpu_s * NOMINAL_S / pass_cpu_s
