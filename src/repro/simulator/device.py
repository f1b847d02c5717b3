"""The device façade: a CUDA-runtime-like front end over the simulator.

:class:`GPUDevice` exposes the handful of operations a host program performs
against a GPU — allocate / free device memory, copy data in and out, launch
kernels, synchronise — and maintains a timeline with simulated durations for
every one of them.  Examples and the experiment harness use this interface
exactly the way the paper's CUDA host code uses the CUDA runtime.

Execution strategy for kernel launches:

* grids up to ``config.functional_block_limit`` blocks are executed fully
  functionally (every block really runs, results land in device memory);
* larger grids are executed by tracing the kernel's representative blocks
  for timing and applying the kernel's vectorised NumPy fallback for the
  data results.  This keeps paper-scale sweeps (tens of millions of
  elements) tractable in pure Python while preserving the timing model's
  inputs (per-block instruction traces).

This device is the scalar reference: it always runs grids under the limit
block by block.  The batched probe
(:class:`~repro.simulator.batch.ProbeDevice`) instead runs one block per
exact class of
:meth:`~repro.simulator.kernel.KernelProgram.representative_blocks` at
every grid size when the algorithm's traces do not depend on input values,
and reproduces this device's timings bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.transfer import TransferDirection
from repro.simulator.config import DeviceConfig
from repro.simulator.errors import LaunchError
from repro.simulator.functional import FunctionalEngine
from repro.simulator.kernel import KernelProgram
from repro.simulator.memory import DeviceArray, GlobalMemory, HostMemory
from repro.simulator.timing import KernelTiming, TimingEngine
from repro.simulator.trace import EventKind, Timeline
from repro.simulator.transfer_engine import TransferEngine, TransferRecord


@dataclass(frozen=True)
class LaunchRecord:
    """Summary of one kernel launch as seen by the host program."""

    kernel_name: str
    num_blocks: int
    timing: KernelTiming
    functional: bool

    @property
    def duration_s(self) -> float:
        """Total launch duration (device time + launch overhead)."""
        return self.timing.total_time_s


class GPUDevice:
    """A simulated GPU attached to a simulated host."""

    def __init__(self, config: Optional[DeviceConfig] = None) -> None:
        self.config = config or DeviceConfig.gtx650()
        self.host = HostMemory()
        self.global_memory = GlobalMemory(
            capacity_words=self.config.global_memory_words,
            words_per_block=self.config.words_per_block,
        )
        self.transfer_engine = TransferEngine(self.config)
        self.timing_engine = TimingEngine(self.config)
        self.functional_engine = FunctionalEngine(self.config, self.global_memory)
        self.timeline = Timeline()
        self.launches: List[LaunchRecord] = []

    # ------------------------------------------------------------------ #
    # Memory management
    # ------------------------------------------------------------------ #
    def allocate(self, name: str, length: int, dtype=np.int64) -> DeviceArray:
        """Allocate a device array of ``length`` words."""
        return self.global_memory.allocate(name, length, dtype=dtype)

    def free(self, name: str) -> None:
        """Free a device array."""
        self.global_memory.free(name)

    def array(self, name: str) -> DeviceArray:
        """Look up a device array by name."""
        return self.global_memory.get(name)

    # ------------------------------------------------------------------ #
    # Host <-> device transfers (the ``W`` operator)
    # ------------------------------------------------------------------ #
    def memcpy_htod(
        self, name: str, data: np.ndarray, pinned: bool = False
    ) -> TransferRecord:
        """Copy ``data`` into the device array ``name`` (allocating if needed)."""
        data = np.asarray(data)
        if name in self.global_memory:
            array = self.global_memory.get(name)
            if array.length != data.size:
                raise LaunchError(
                    f"device array {name!r} has {array.length} words but the host "
                    f"buffer has {data.size}"
                )
        else:
            array = self.allocate(name, data.size, dtype=data.dtype)
        array.data[:] = data.reshape(-1)
        record = self.transfer_engine.transfer(
            words=data.size,
            direction=TransferDirection.HOST_TO_DEVICE,
            pinned=pinned,
            label=name,
        )
        self.timeline.record(
            EventKind.TRANSFER_H2D, f"H2D {name}", record.duration_s,
            details=f"{record.words} words",
        )
        return record

    def memcpy_dtoh(self, name: str, pinned: bool = False) -> np.ndarray:
        """Copy the device array ``name`` back to the host and return it."""
        array = self.global_memory.get(name)
        record = self.transfer_engine.transfer(
            words=array.length,
            direction=TransferDirection.DEVICE_TO_HOST,
            pinned=pinned,
            label=name,
        )
        self.timeline.record(
            EventKind.TRANSFER_D2H, f"D2H {name}", record.duration_s,
            details=f"{record.words} words",
        )
        return array.to_host()

    def memcpy_dtoh_partial(
        self, name: str, count: int, pinned: bool = False
    ) -> np.ndarray:
        """Copy only the first ``count`` words of a device array to the host.

        Used by the reduction example, whose final answer is a single word of
        a much larger device buffer (the paper transfers only ``A[1]`` back).
        """
        array = self.global_memory.get(name)
        if not 0 < count <= array.length:
            raise LaunchError(
                f"cannot copy {count} words from device array {name!r} of "
                f"{array.length} words"
            )
        record = self.transfer_engine.transfer(
            words=count,
            direction=TransferDirection.DEVICE_TO_HOST,
            pinned=pinned,
            label=f"{name}[:{count}]",
        )
        self.timeline.record(
            EventKind.TRANSFER_D2H, f"D2H {name}[:{count}]", record.duration_s,
            details=f"{record.words} words",
        )
        return array.data[:count].copy()

    # ------------------------------------------------------------------ #
    # Kernel launches
    # ------------------------------------------------------------------ #
    def launch(self, kernel: KernelProgram, force_functional: Optional[bool] = None) -> LaunchRecord:
        """Launch a kernel and account for its execution time.

        ``force_functional`` overrides the automatic choice between full
        functional execution and trace sampling.
        """
        kernel.validate(self.global_memory)
        grid = kernel.grid_size()
        functional = (
            force_functional
            if force_functional is not None
            else grid <= self.config.functional_block_limit
        )
        if functional:
            traces = self.functional_engine.execute_all(kernel)
            pairs = [(trace, 1) for trace in traces]
        else:
            pairs, needs_fallback = self.functional_engine.execute_sampled(kernel)
            if needs_fallback:
                arrays = {
                    name: self.global_memory.get(name)
                    for name in kernel.array_names()
                }
                kernel.vectorised_result(arrays)
        timing = self.timing_engine.kernel_timing(kernel.name, pairs)
        record = LaunchRecord(
            kernel_name=kernel.name,
            num_blocks=grid,
            timing=timing,
            functional=functional,
        )
        self.launches.append(record)
        self.timeline.record(
            EventKind.KERNEL, kernel.name, record.duration_s,
            details=f"{grid} blocks, {timing.limiting_factor}-bound",
        )
        return record

    def synchronise(self, label: str = "round sync") -> float:
        """Account for the per-round synchronisation overhead ``σ``."""
        duration = self.config.sync_overhead_s
        self.timeline.record(EventKind.SYNC, label, duration)
        return duration

    # ------------------------------------------------------------------ #
    # Timing queries (the simulated analogue of CUDA events)
    # ------------------------------------------------------------------ #
    @property
    def total_time_s(self) -> float:
        """Total simulated wall-clock time of everything the device did."""
        return self.timeline.now

    @property
    def kernel_time_s(self) -> float:
        """Total simulated time spent executing kernels."""
        return self.timeline.kernel_time()

    @property
    def transfer_time_s(self) -> float:
        """Total simulated time spent in host↔device transfers."""
        return self.timeline.transfer_time()

    @property
    def sync_time_s(self) -> float:
        """Total simulated synchronisation overhead."""
        return self.timeline.sync_time()

    def reset_timers(self) -> None:
        """Discard the timeline and launch records (keep memory contents)."""
        self.timeline = Timeline()
        self.launches = []
        self.transfer_engine.records.clear()

    def profile(self) -> str:
        """Profiler-style rendering of the run so far."""
        header = (
            f"Device: {self.config.num_sms} SMs @ {self.config.clock_hz / 1e6:.0f} MHz, "
            f"warp {self.config.warp_width}, "
            f"{self.config.global_memory_words * 4 / (1 << 30):.1f} GiB global\n"
            f"Totals: {self.total_time_s * 1e3:.3f} ms "
            f"(kernel {self.kernel_time_s * 1e3:.3f} ms, "
            f"transfer {self.transfer_time_s * 1e3:.3f} ms, "
            f"sync {self.sync_time_s * 1e3:.3f} ms)\n"
        )
        return header + self.timeline.render()
