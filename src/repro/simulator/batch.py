"""Batched (vectorized) simulation of whole sweeps — the ``SimBatch`` layer.

The scalar observation path runs the simulator once per input size: every
``observe`` call replays the host program against a fresh
:class:`~repro.simulator.device.GPUDevice`, paying per-size input
generation, host↔device data movement and per-event timeline accounting.
For a dense model-vs-observed sweep that cost dwarfs the (vectorized)
prediction side.

This module packs a sweep into *array programs*, the way
:class:`~repro.core.batch.MetricsBatch` did for the cost model:

1. **Probe** — :class:`ProbeDevice` runs the algorithm's *real* ``run``
   method once per size, but records symbolic operations (transfer word
   counts, per-launch trace aggregates, syncs) instead of timed events.
   Because the genuine host program executes — same allocations, same
   launch decisions, same representative-block traces — the recorded
   program is structurally identical to the scalar run's timeline.  For
   data-independent algorithms the probe runs one block per exact class
   even where the scalar device runs every block.
2. **Pack** — programs with the same operation structure are grouped and
   their per-operation quantities stacked into operations × sizes arrays.
3. **Evaluate** — transfer durations come from
   :func:`~repro.simulator.transfer_engine.duration_grid`, kernel launches
   from :func:`~repro.simulator.timing.kernel_timing_grid`, and the
   timeline totals from ordered array accumulation, so every column is
   **bit-for-bit** equal to the scalar ``observe`` at that size (same
   ``ceil_div`` discipline, same float operand order).

Streamed and sharded sweeps follow the same pattern via
:class:`StreamPlan` / :class:`ShardPlan`: a per-size symbolic schedule
built by the algorithm's ``sim_stream_plan`` / ``sim_shard_plan`` hooks,
replayed here with ``np.maximum`` folds that mirror
:meth:`~repro.simulator.streams.StreamTimeline.submit` and the
:class:`~repro.simulator.device_pool.DevicePool` contention formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.prediction import SweepObservation
from repro.core.transfer import TransferDirection
from repro.simulator.config import DeviceConfig
from repro.simulator.device import GPUDevice
from repro.simulator.device_pool import contended_duration_grid
from repro.simulator.errors import LaunchError
from repro.simulator.kernel import KernelProgram
from repro.simulator.streams import ENGINE_FOR_KIND, StreamOpKind
from repro.simulator.timing import KernelTiming, kernel_timing_grid
from repro.simulator.trace import KernelCounters
from repro.simulator.transfer_engine import duration_grid


# ---------------------------------------------------------------------- #
# Symbolic operations recorded by the probe
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ProbeTransfer:
    """One host↔device copy, reduced to what its duration depends on."""

    direction: TransferDirection
    words: int
    pinned: bool


@dataclass(frozen=True)
class ProbeKernel:
    """One kernel launch, reduced to its trace-weighted aggregates.

    The per-block aggregation (``KernelCounters.from_traces`` plus the
    multiplicity-weighted issue/latency sums) is order-sensitive float
    accumulation, so it happens scalarly at record time — exactly as the
    scalar :meth:`~repro.simulator.timing.TimingEngine.kernel_timing`
    performs it.  Everything downstream of these aggregates is elementwise
    and vectorizes without changing a bit.
    """

    name: str
    num_blocks: int
    total_issue_cycles: float
    total_latency_cycles: float
    global_words: float
    shared_words_per_block: int


@dataclass(frozen=True)
class ProbeSync:
    """One round synchronisation (constant ``σ`` duration)."""


def _op_tag(op) -> tuple:
    """Structural signature of one symbolic operation (grouping key)."""
    if isinstance(op, ProbeTransfer):
        return ("transfer", op.direction, op.pinned)
    if isinstance(op, ProbeKernel):
        return ("kernel",)
    return ("sync",)


def _grid_total(values: Sequence[Tuple[float, int]], per_block: bool) -> float:
    """Sum per-block cycle values over a grid given as ``(value, run)`` pairs.

    A launch the scalar device runs in full sums one term per block in
    block order, and ``x * k`` is not bitwise ``x + ... + x``, so such
    launches (``per_block``) repeat each value over its run of blocks; the
    scalar device's sampled launches sum ``value * multiplicity``.
    """
    if per_block:
        return sum(value for value, run in values for _ in range(run))
    return sum(value * count for value, count in values)


class ProbeDevice(GPUDevice):
    """A :class:`GPUDevice` that records symbolic operations, not timings.

    The algorithm's real ``run`` executes against it — allocations land at
    the same global-memory offsets as on a scalar device (coalescing
    transaction counts depend on array base addresses), launch decisions
    follow the same functional-block-limit rule, and representative blocks
    are traced identically.  With ``data_dependent=False`` the probe's
    global memory is valueless (:class:`~repro.simulator.memory.ValuelessDeviceArray`:
    same offsets, no storage, so memory use does not grow with the sweep),
    it skips host-buffer copies and vectorised data fallbacks, and it runs
    one block per class of ``representative_blocks`` at every grid size,
    summing the per-block cycles in block order where the scalar device
    would run the whole grid: safe only for algorithms whose traces depend
    on indices, not input values (see
    ``GPUAlgorithm.sim_trace_data_dependent``).
    """

    def __init__(
        self,
        config: Optional[DeviceConfig] = None,
        data_dependent: bool = True,
    ) -> None:
        super().__init__(config)
        self.data_dependent = data_dependent
        self.global_memory.valueless = not data_dependent
        self.ops: List[object] = []

    def memcpy_htod(self, name, data, pinned: bool = False):
        data = np.asarray(data)
        if name in self.global_memory:
            array = self.global_memory.get(name)
            if array.length != data.size:
                raise LaunchError(
                    f"device array {name!r} has {array.length} words but the "
                    f"host buffer has {data.size}"
                )
        else:
            array = self.allocate(name, data.size, dtype=data.dtype)
        if self.data_dependent:
            array.data[:] = data.reshape(-1)
        self.ops.append(
            ProbeTransfer(
                TransferDirection.HOST_TO_DEVICE, int(data.size), bool(pinned)
            )
        )
        return None

    def memcpy_dtoh(self, name, pinned: bool = False):
        array = self.global_memory.get(name)
        self.ops.append(
            ProbeTransfer(
                TransferDirection.DEVICE_TO_HOST, array.length, bool(pinned)
            )
        )
        # Value-faithful outputs are only needed on the data-dependent
        # path; valueless arrays hand back their read-only view.
        return array.to_host()

    def memcpy_dtoh_partial(self, name, count: int, pinned: bool = False):
        array = self.global_memory.get(name)
        if not 0 < count <= array.length:
            raise LaunchError(
                f"cannot copy {count} words from device array {name!r} of "
                f"{array.length} words"
            )
        self.ops.append(
            ProbeTransfer(
                TransferDirection.DEVICE_TO_HOST, int(count), bool(pinned)
            )
        )
        if self.data_dependent:
            return array.data[:count].copy()
        return array.data[:count]

    def launch(self, kernel: KernelProgram, force_functional: Optional[bool] = None):
        kernel.validate(self.global_memory)
        grid = kernel.grid_size()
        functional = (
            force_functional
            if force_functional is not None
            else grid <= self.config.functional_block_limit
        )
        if functional and self.data_dependent:
            traces = self.functional_engine.execute_all(kernel)
            pairs = [(trace, 1) for trace in traces]
        else:
            # Data-independent kernels take this path at every grid size:
            # one block per exact class stands for its run of blocks.
            pairs, needs_fallback = self.functional_engine.execute_sampled(kernel)
            if needs_fallback and self.data_dependent:
                arrays = {
                    name: self.global_memory.get(name)
                    for name in kernel.array_names()
                }
                kernel.vectorised_result(arrays)
        counters = KernelCounters.from_traces(kernel.name, pairs)
        engine = self.timing_engine
        issue = [(engine.block_issue_cycles(t), count) for t, count in pairs]
        latency = [(engine.block_latency_cycles(t), count) for t, count in pairs]
        self.ops.append(
            ProbeKernel(
                name=kernel.name,
                num_blocks=counters.num_blocks,
                total_issue_cycles=_grid_total(issue, functional),
                total_latency_cycles=_grid_total(latency, functional),
                global_words=counters.global_words,
                shared_words_per_block=counters.max_shared_words_per_block,
            )
        )
        return None

    def synchronise(self, label: str = "round sync") -> float:
        self.ops.append(ProbeSync())
        return self.config.sync_overhead_s


# ---------------------------------------------------------------------- #
# Batched observe_sweep
# ---------------------------------------------------------------------- #
def _evaluate_programs(
    programs: Sequence[Sequence[object]], config: DeviceConfig
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate recorded programs into (total, kernel, transfer) arrays.

    Programs with the same structure are evaluated together: one
    :func:`kernel_timing_grid` call over a launches × sizes grid, one
    :func:`duration_grid` call per transfer slot, and ordered sequential
    array adds replicating the scalar timeline's clock accumulation.
    """
    count = len(programs)
    totals = np.zeros(count)
    kernels = np.zeros(count)
    transfers = np.zeros(count)
    groups: Dict[tuple, List[int]] = {}
    for index, ops in enumerate(programs):
        signature = tuple(_op_tag(op) for op in ops)
        groups.setdefault(signature, []).append(index)

    for signature, columns in groups.items():
        width = len(columns)
        slot_durations: List[Optional[np.ndarray]] = [None] * len(signature)

        kernel_slots = [i for i, tag in enumerate(signature) if tag[0] == "kernel"]
        if kernel_slots:
            def stack(attr):
                return np.array(
                    [
                        [getattr(programs[c][s], attr) for c in columns]
                        for s in kernel_slots
                    ]
                )

            grid = kernel_timing_grid(
                config,
                stack("num_blocks"),
                stack("total_issue_cycles"),
                stack("total_latency_cycles"),
                stack("global_words"),
                stack("shared_words_per_block"),
            )
            launch_times = grid.total_time_s
            for row, slot in enumerate(kernel_slots):
                slot_durations[slot] = launch_times[row]

        for slot, tag in enumerate(signature):
            if tag[0] == "transfer":
                words = np.array(
                    [programs[c][slot].words for c in columns], dtype=np.int64
                )
                slot_durations[slot] = duration_grid(
                    config, words, tag[1], pinned=tag[2]
                )
            elif tag[0] == "sync":
                slot_durations[slot] = np.full(width, config.sync_overhead_s)

        total = np.zeros(width)
        kernel_time = np.zeros(width)
        h2d_time = np.zeros(width)
        d2h_time = np.zeros(width)
        for slot, tag in enumerate(signature):
            row = slot_durations[slot]
            total = total + row
            if tag[0] == "kernel":
                kernel_time = kernel_time + row
            elif tag[0] == "transfer":
                if tag[1] is TransferDirection.HOST_TO_DEVICE:
                    h2d_time = h2d_time + row
                else:
                    d2h_time = d2h_time + row
        totals[columns] = total
        kernels[columns] = kernel_time
        transfers[columns] = h2d_time + d2h_time
    return totals, kernels, transfers


def simulate_sweep(
    algorithm,
    sizes: Sequence[int],
    config: Optional[DeviceConfig] = None,
    seed: int = 0,
) -> SweepObservation:
    """Batched twin of ``GPUAlgorithm.observe_sweep`` (bit-for-bit parity).

    Probes the algorithm's real ``run`` once per size, then evaluates all
    recorded programs in a handful of NumPy passes.  Requires a parity test
    in ``tests/test_sim_batch.py`` (enforced by the ``SIM001`` lint rule).
    """
    device_config = config or DeviceConfig.gtx650()
    data_dependent = getattr(algorithm, "sim_trace_data_dependent", True)
    programs: List[List[object]] = []
    for n in sizes:
        device = ProbeDevice(device_config, data_dependent=data_dependent)
        algorithm.run(device, algorithm.sim_inputs(int(n), seed=seed))
        programs.append(device.ops)
    totals, kernels, transfers = _evaluate_programs(programs, device_config)
    return SweepObservation(
        algorithm=algorithm.name,
        sizes=[int(n) for n in sizes],
        total_times=[float(t) for t in totals],
        kernel_times=[float(t) for t in kernels],
        transfer_times=[float(t) for t in transfers],
    )


# ---------------------------------------------------------------------- #
# Streamed sweeps
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class StreamPlanOp:
    """One operation of a symbolic stream schedule."""

    kind: StreamOpKind
    stream: str
    words: int = 0
    pinned: bool = False
    duration_s: float = 0.0
    wait: Tuple[int, ...] = ()


class StreamPlan:
    """Symbolic :class:`~repro.simulator.streams.StreamTimeline` schedule.

    Built per size by an algorithm's ``sim_stream_plan`` hook: the stream /
    engine / wait structure is explicit, transfer durations stay symbolic
    (word counts, vectorized at replay), kernel and host durations are
    concrete floats.  Plans from different sizes that share a structure are
    replayed together as array programs.
    """

    def __init__(self, dual_copy_engines: bool = True) -> None:
        self.dual_copy_engines = dual_copy_engines
        self.ops: List[StreamPlanOp] = []

    def _add(self, op: StreamPlanOp) -> int:
        self.ops.append(op)
        return len(self.ops) - 1

    def h2d(self, stream: str, words: int, pinned: bool = False,
            wait: Sequence[int] = ()) -> int:
        """Queue an H2D copy of ``words`` words; returns its op index."""
        return self._add(StreamPlanOp(
            StreamOpKind.H2D, stream, words=int(words), pinned=bool(pinned),
            wait=tuple(wait),
        ))

    def d2h(self, stream: str, words: int, pinned: bool = False,
            wait: Sequence[int] = ()) -> int:
        """Queue a D2H copy of ``words`` words; returns its op index."""
        return self._add(StreamPlanOp(
            StreamOpKind.D2H, stream, words=int(words), pinned=bool(pinned),
            wait=tuple(wait),
        ))

    def kernel(self, stream: str, timing: KernelTiming,
               wait: Sequence[int] = ()) -> int:
        """Queue a kernel launch with a concrete timing; returns its index."""
        return self._add(StreamPlanOp(
            StreamOpKind.KERNEL, stream, duration_s=float(timing.total_time_s),
            wait=tuple(wait),
        ))

    def host(self, stream: str, duration_s: float,
             wait: Sequence[int] = ()) -> int:
        """Queue host-side work (e.g. a sync); returns its op index."""
        return self._add(StreamPlanOp(
            StreamOpKind.HOST, stream, duration_s=float(duration_s),
            wait=tuple(wait),
        ))

    def signature(self) -> tuple:
        """Structural grouping key (streams, engines, waits — not sizes)."""
        return (self.dual_copy_engines,) + tuple(
            (op.kind, op.stream, op.pinned, op.wait) for op in self.ops
        )

    def engine_for(self, kind: StreamOpKind) -> str:
        engine = ENGINE_FOR_KIND[kind]
        if not self.dual_copy_engines and engine in ("h2d", "d2h"):
            return "copy"
        return engine


def replay_stream_plans(
    plans: Sequence[StreamPlan], config: DeviceConfig
) -> Tuple[np.ndarray, np.ndarray]:
    """Replay symbolic stream plans; returns (makespans, serial_times).

    The start-time recurrence is the array form of
    :meth:`StreamTimeline.submit`: per-stream and per-engine last-end
    vectors folded with ``np.maximum`` plus awaited op ends, so each column
    equals the scalar timeline's makespan / serial sum bit for bit.
    """
    makespans = np.zeros(len(plans))
    serials = np.zeros(len(plans))
    groups: Dict[tuple, List[int]] = {}
    for index, plan in enumerate(plans):
        groups.setdefault(plan.signature(), []).append(index)

    for columns in groups.values():
        width = len(columns)
        template = plans[columns[0]]
        zero = np.zeros(width)
        stream_last: Dict[str, np.ndarray] = {}
        engine_last: Dict[str, np.ndarray] = {}
        ends: List[np.ndarray] = []
        serial = np.zeros(width)
        makespan = np.zeros(width)
        for slot, op in enumerate(template.ops):
            if op.kind in (StreamOpKind.H2D, StreamOpKind.D2H):
                words = np.array(
                    [plans[c].ops[slot].words for c in columns], dtype=np.int64
                )
                direction = (
                    TransferDirection.HOST_TO_DEVICE
                    if op.kind is StreamOpKind.H2D
                    else TransferDirection.DEVICE_TO_HOST
                )
                duration = duration_grid(
                    config, words, direction, pinned=op.pinned
                )
            else:
                duration = np.array(
                    [plans[c].ops[slot].duration_s for c in columns]
                )
            engine = template.engine_for(op.kind)
            start = np.maximum(
                stream_last.get(op.stream, zero),
                engine_last.get(engine, zero),
            )
            for waited in op.wait:
                start = np.maximum(start, ends[waited])
            end = start + duration
            ends.append(end)
            stream_last[op.stream] = end
            engine_last[engine] = end
            serial = serial + duration
            makespan = np.maximum(makespan, end)
        makespans[columns] = makespan
        serials[columns] = serial
    return makespans, serials


@dataclass(frozen=True)
class StreamedSweepObservation:
    """Overlapped makespan / serial sum of a streamed run, per sweep size."""

    algorithm: str
    sizes: List[int]
    makespans_s: List[float]
    serial_times_s: List[float]

    @property
    def overlap_speedups(self) -> List[float]:
        """Serial-over-overlapped ratio per size (1.0 = no benefit)."""
        return [
            1.0 if makespan == 0 else serial / makespan
            for makespan, serial in zip(self.makespans_s, self.serial_times_s)
        ]


def simulate_streamed_sweep(
    algorithm,
    sizes: Sequence[int],
    config: Optional[DeviceConfig] = None,
    chunks: int = 2,
    pinned: bool = False,
) -> StreamedSweepObservation:
    """Batched twin of per-size ``observe_streamed`` (bit-for-bit parity)."""
    device_config = config or DeviceConfig.gtx650()
    plans = [
        algorithm.sim_stream_plan(
            int(n), device_config, chunks=chunks, pinned=pinned
        )
        for n in sizes
    ]
    makespans, serials = replay_stream_plans(plans, device_config)
    return StreamedSweepObservation(
        algorithm=algorithm.name,
        sizes=[int(n) for n in sizes],
        makespans_s=[float(t) for t in makespans],
        serial_times_s=[float(t) for t in serials],
    )


# ---------------------------------------------------------------------- #
# Sharded sweeps
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ShardPlanOp:
    """One operation of a symbolic device-pool schedule."""

    device: int
    kind: StreamOpKind
    words: int = 0
    pinned: bool = False
    duration_s: float = 0.0


class ShardPlan:
    """Symbolic :class:`~repro.simulator.device_pool.DevicePool` schedule.

    Each device's operations run back to back on its own timeline (the
    pool submits everything to one stream per device); transfers carry word
    counts and the per-device link stretch is applied at replay with
    :func:`contended_duration_grid`, while the serial baseline accumulates
    the *uncontended* durations exactly like ``DevicePool.add_transfer``.
    """

    def __init__(self, stretches: Sequence[float]) -> None:
        self.stretches = tuple(float(s) for s in stretches)
        self.ops: List[ShardPlanOp] = []

    def _add(self, op: ShardPlanOp) -> int:
        if not 0 <= op.device < len(self.stretches):
            raise IndexError(
                f"device index {op.device} outside pool of "
                f"{len(self.stretches)}"
            )
        self.ops.append(op)
        return len(self.ops) - 1

    def h2d(self, device: int, words: int, pinned: bool = False) -> int:
        """Queue an H2D copy on one device; returns its op index."""
        return self._add(ShardPlanOp(
            device, StreamOpKind.H2D, words=int(words), pinned=bool(pinned),
        ))

    def d2h(self, device: int, words: int, pinned: bool = False) -> int:
        """Queue a D2H copy on one device; returns its op index."""
        return self._add(ShardPlanOp(
            device, StreamOpKind.D2H, words=int(words), pinned=bool(pinned),
        ))

    def kernel(self, device: int, timing: KernelTiming) -> int:
        """Queue a kernel launch on one device; returns its op index."""
        return self._add(ShardPlanOp(
            device, StreamOpKind.KERNEL, duration_s=float(timing.total_time_s),
        ))

    def host(self, device: int, duration_s: float) -> int:
        """Queue host-side work (e.g. a sync) on one device."""
        return self._add(ShardPlanOp(
            device, StreamOpKind.HOST, duration_s=float(duration_s),
        ))

    def signature(self) -> tuple:
        """Structural grouping key (device layout, stretches — not sizes)."""
        return (self.stretches,) + tuple(
            (op.device, op.kind, op.pinned) for op in self.ops
        )


def replay_shard_plans(
    plans: Sequence[ShardPlan], config: DeviceConfig
) -> Tuple[np.ndarray, np.ndarray]:
    """Replay symbolic shard plans; returns (makespans, serial_times).

    Per-device completion is an ordered sequential sum (all of a device's
    operations share one stream, so nothing overlaps within a device); the
    straggler fold and the uncontended serial accumulation mirror
    ``DevicePool.makespan_s`` / ``serial_time_s`` bit for bit.
    """
    makespans = np.zeros(len(plans))
    serials = np.zeros(len(plans))
    groups: Dict[tuple, List[int]] = {}
    for index, plan in enumerate(plans):
        groups.setdefault(plan.signature(), []).append(index)

    for columns in groups.values():
        width = len(columns)
        template = plans[columns[0]]
        num_devices = len(template.stretches)
        device_end = [np.zeros(width) for _ in range(num_devices)]
        serial = np.zeros(width)
        for slot, op in enumerate(template.ops):
            if op.kind in (StreamOpKind.H2D, StreamOpKind.D2H):
                words = np.array(
                    [plans[c].ops[slot].words for c in columns], dtype=np.int64
                )
                direction = (
                    TransferDirection.HOST_TO_DEVICE
                    if op.kind is StreamOpKind.H2D
                    else TransferDirection.DEVICE_TO_HOST
                )
                base = duration_grid(config, words, direction, pinned=op.pinned)
                duration = contended_duration_grid(
                    config, base, template.stretches[op.device]
                )
                serial = serial + base
            else:
                duration = np.array(
                    [plans[c].ops[slot].duration_s for c in columns]
                )
                serial = serial + duration
            device_end[op.device] = device_end[op.device] + duration
        makespan = np.zeros(width)
        for ends in device_end:
            makespan = np.maximum(makespan, ends)
        makespans[columns] = makespan
        serials[columns] = serial
    return makespans, serials


@dataclass(frozen=True)
class ShardedSweepObservation:
    """Straggler makespan / serial sum of a sharded run, per sweep size."""

    algorithm: str
    sizes: List[int]
    makespans_s: List[float]
    serial_times_s: List[float]
    device_count: int

    @property
    def sharding_speedups(self) -> List[float]:
        """Serial-over-sharded ratio per size (1.0 = no benefit)."""
        return [
            1.0 if makespan == 0 else serial / makespan
            for makespan, serial in zip(self.makespans_s, self.serial_times_s)
        ]


def simulate_sharded_sweep(
    algorithm,
    sizes: Sequence[int],
    config: Optional[DeviceConfig] = None,
    devices: int = 2,
    contention: float = 0.0,
    pinned: bool = False,
    topology=None,
) -> ShardedSweepObservation:
    """Batched twin of per-size ``observe_sharded`` (bit-for-bit parity)."""
    device_config = config or DeviceConfig.gtx650()
    plans = [
        algorithm.sim_shard_plan(
            int(n), device_config, devices=devices, contention=contention,
            pinned=pinned, topology=topology,
        )
        for n in sizes
    ]
    makespans, serials = replay_shard_plans(plans, device_config)
    device_count = len(plans[0].stretches) if plans else devices
    return ShardedSweepObservation(
        algorithm=algorithm.name,
        sizes=[int(n) for n in sizes],
        makespans_s=[float(t) for t in makespans],
        serial_times_s=[float(t) for t in serials],
        device_count=device_count,
    )
