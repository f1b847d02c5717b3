"""Common protocol for the computational problems evaluated on ATGPU.

Each algorithm in this package exposes the full pipeline the paper applies
to its three example problems:

* hand-derived **model metrics** (Section IV's analyses) via :meth:`GPUAlgorithm.metrics`,
* the **pseudocode** listing via :meth:`GPUAlgorithm.build_pseudocode`,
* an executable **kernel implementation** on the simulator via :meth:`GPUAlgorithm.run`,
* a NumPy **reference** for correctness checking via :meth:`GPUAlgorithm.reference`,
* convenience wrappers that produce the per-size prediction
  (:meth:`GPUAlgorithm.analyse`) and the per-size simulated observation
  (:meth:`GPUAlgorithm.observe`), plus whole-sweep versions used by the
  experiment harness.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.analysis import AnalysisReport, analyse_metrics
from repro.core.machine import ATGPUMachine
from repro.core.metrics import AlgorithmMetrics, MetricsGrid
from repro.core.prediction import (
    SweepObservation,
    SweepPrediction,
    predict_sweep,
)
from repro.core.presets import DEFAULT_PRESET, GPUPreset
from repro.core.topology import Topology
from repro.pseudocode.program import Program
from repro.simulator.config import DeviceConfig
from repro.simulator.device import GPUDevice
from repro.simulator.device_pool import DevicePool
from repro.simulator.streams import StreamTimeline
from repro.utils.validation import ensure_positive_int

#: Evaluation strategies for observed sweeps, mirroring the prediction
#: side's ``SWEEP_PATHS``: ``"auto"`` takes the batched simulator when the
#: algorithm allows it, ``"batch"`` forces it, ``"scalar"`` forces the
#: per-size loop (the parity reference).
OBSERVE_PATHS = ("auto", "batch", "scalar")


def chunk_bounds(n: int, chunks: int) -> List[tuple]:
    """Near-equal ``[lo, hi)`` bounds splitting ``n`` elements into chunks.

    ``chunks`` is clamped to ``n`` so every chunk is non-empty; the first
    ``n % chunks`` chunks carry one extra element.
    """
    ensure_positive_int(n, "n")
    ensure_positive_int(chunks, "chunks")
    chunks = min(chunks, n)
    base, extra = divmod(n, chunks)
    bounds = []
    lo = 0
    for index in range(chunks):
        hi = lo + base + (1 if index < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def sharded_pool_bounds(
    device: GPUDevice,
    n: int,
    devices: int,
    contention: float,
    topology: Optional[Topology],
) -> tuple:
    """The ``(pool, bounds)`` pair every sharded run schedules against.

    Without a topology: a homogeneous pool of ``devices`` over one link
    with the given ``contention``, and the near-equal :func:`chunk_bounds`
    split.  With one: a topology-driven pool (per-socket link stretch) and
    the throughput-weighted :func:`~repro.core.topology.plan_bounds`
    split, whose zero-width bounds mark devices the planner left idle.
    """
    if topology is None:
        pool = DevicePool(
            devices, config=device.config, contention=contention
        )
        return pool, chunk_bounds(n, devices)
    from repro.core.topology import plan_bounds

    pool = DevicePool(config=device.config, topology=topology)
    return pool, plan_bounds(n, topology.throughputs())


@dataclass
class StreamedRunResult:
    """Outcome of a chunked, double-buffered (streamed) algorithm run.

    All timing views derive from the attached stream timeline:
    :attr:`makespan_s` is the overlapped total time (its critical path) and
    :attr:`serial_time_s` is what the very same operations would cost back
    to back, so their ratio isolates the benefit of compute/copy overlap.
    """

    outputs: Dict[str, np.ndarray]
    chunk_count: int
    timeline: StreamTimeline

    @property
    def makespan_s(self) -> float:
        """Overlapped total time (the timeline's critical path)."""
        return self.timeline.makespan_s

    @property
    def serial_time_s(self) -> float:
        """The same operations executed back to back (no overlap)."""
        return self.timeline.serial_time_s

    @property
    def overlap_saving_s(self) -> float:
        """Seconds recovered by overlapping: serial sum minus makespan."""
        return self.timeline.overlap_saving_s

    @property
    def overlap_speedup(self) -> float:
        """Serial-over-overlapped time ratio (1.0 = no overlap benefit)."""
        if self.makespan_s == 0:
            return 1.0
        return self.serial_time_s / self.makespan_s


@dataclass
class ShardedRunResult:
    """Outcome of a multi-device (sharded) algorithm run.

    All timing views derive from the attached :class:`DevicePool`:
    :attr:`makespan_s` is the straggler device's completion time and
    :attr:`serial_time_s` is what the very same operations would cost back
    to back on one device, so their ratio isolates the benefit of sharding
    across the pool.
    """

    outputs: Dict[str, np.ndarray]
    device_count: int
    pool: DevicePool

    @property
    def makespan_s(self) -> float:
        """Pool total time (the straggler device's completion)."""
        return self.pool.makespan_s

    @property
    def serial_time_s(self) -> float:
        """The same operations executed back to back on one device."""
        return self.pool.serial_time_s

    @property
    def device_makespans(self) -> List[float]:
        """Per-device completion times."""
        return list(self.pool.device_makespans())

    @property
    def sharding_speedup(self) -> float:
        """Serial-over-sharded time ratio (1.0 = no benefit)."""
        return self.pool.sharding_speedup


@dataclass
class RunResult:
    """Outcome of running an algorithm end to end on the simulator."""

    outputs: Dict[str, np.ndarray]
    total_time_s: float
    kernel_time_s: float
    transfer_time_s: float
    sync_time_s: float

    @property
    def observed_transfer_proportion(self) -> float:
        """``ΔE`` -- share of the total time spent transferring."""
        if self.total_time_s == 0:
            return 0.0
        return self.transfer_time_s / self.total_time_s


@dataclass
class ObservationRecord:
    """One observed (simulated) data point of a sweep."""

    input_size: int
    total_time_s: float
    kernel_time_s: float
    transfer_time_s: float
    sync_time_s: float
    correct: Optional[bool] = None

    @property
    def observed_transfer_proportion(self) -> float:
        """``ΔE`` of this data point."""
        if self.total_time_s == 0:
            return 0.0
        return self.transfer_time_s / self.total_time_s


class GPUAlgorithm(abc.ABC):
    """A computational problem analysed and executed on the ATGPU model."""

    #: Registry / report name of the algorithm.
    name: str = "algorithm"
    #: Human-readable description.
    description: str = ""
    #: Whether the batched simulator (:mod:`repro.simulator.batch`) may
    #: probe this algorithm's :meth:`run`.  The probe replays the real host
    #: program against a recording device, which is faithful for anything
    #: that only talks to the :class:`GPUDevice` API; set ``False`` if a
    #: custom ``run`` inspects device timings mid-run, and ``observe_sweep``
    #: will keep the scalar loop on ``path="auto"``.
    sim_batch_safe: bool = True
    #: Whether this algorithm's kernel traces depend on input *values*
    #: rather than just indices.  ``False`` gives the batched-simulator
    #: probe valueless device memory (arrays keep their offsets, lose their
    #: storage), lets it skip host-buffer copies and vectorised data
    #: fallbacks (the timing traces cannot change) and run one block per
    #: exact class of each kernel's ``representative_blocks`` at every grid
    #: size; pair it with a structural :meth:`sim_inputs` override.  Opting
    #: out requires a scalar-parity test (lint ``SIM001``).
    sim_trace_data_dependent: bool = True

    # ------------------------------------------------------------------ #
    # Workload
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def default_sizes(self) -> List[int]:
        """The input sizes of the paper's sweep for this problem."""

    @abc.abstractmethod
    def generate_input(self, n: int, seed: int = 0) -> Dict[str, np.ndarray]:
        """Generate a random input instance of size ``n``."""

    def sim_inputs(self, n: int, seed: int = 0) -> Dict[str, np.ndarray]:
        """Inputs for the batched-simulator probe (default: real inputs).

        Algorithms with :attr:`sim_trace_data_dependent` ``= False``
        override this with structural stand-ins: zero-stride zero arrays
        of the right shapes and dtypes
        (:func:`~repro.simulator.memory.valueless_array`), which store one
        element whatever ``n`` is.  Their traces depend only on indices,
        so the probe skips the per-size random generation the scalar path
        pays, and its valueless device arrays never copy the stand-ins in.
        Data-dependent algorithms keep the default, which matches the
        scalar ``observe`` input exactly, and the probe keeps real storage.
        """
        return self.generate_input(n, seed=seed)

    @abc.abstractmethod
    def reference(self, inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """NumPy reference implementation used for correctness checks."""

    # ------------------------------------------------------------------ #
    # Model-side (prediction)
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def metrics(self, n: int, machine: ATGPUMachine) -> AlgorithmMetrics:
        """Hand-derived ATGPU metrics of the algorithm at size ``n``."""

    def metrics_batch(
        self, ns: Sequence[int], machine: ATGPUMachine
    ) -> MetricsGrid:
        """Array-native metrics of the algorithm over a whole size vector.

        The Section IV analyses are closed-form in ``n``, so an algorithm
        can describe an entire sweep as per-round NumPy columns instead of
        one :class:`~repro.core.metrics.AlgorithmMetrics` per size.  Every
        built-in algorithm overrides this with a true vectorized factory
        whose grid is **bit-for-bit** equal to calling :meth:`metrics` per
        size; the default here is the scalar-loop fallback (still packed
        column-wise, so custom algorithms get the cheap packing for free).
        """
        return MetricsGrid.from_metrics(
            ns,
            [self.metrics(int(n), machine) for n in ns],
            name=self.name,
        )

    @property
    def supports_metrics_batch(self) -> bool:
        """Whether this algorithm overrides :meth:`metrics_batch`."""
        return type(self).metrics_batch is not GPUAlgorithm.metrics_batch

    @abc.abstractmethod
    def build_pseudocode(self, n: int, machine: ATGPUMachine) -> Program:
        """The algorithm's ATGPU pseudocode listing at size ``n``."""

    def analyse(
        self,
        n: int,
        preset: GPUPreset = DEFAULT_PRESET,
        backends: Optional[Sequence[str]] = None,
    ) -> AnalysisReport:
        """Predict the algorithm's cost at size ``n`` on a GPU preset.

        ``backends`` selects the cost-model backends to evaluate (see
        :mod:`repro.core.backends`); the default is the built-in trio.
        """
        return analyse_metrics(
            self.metrics(n, preset.machine),
            preset.machine,
            preset.parameters,
            preset.occupancy,
            algorithm=self.name,
            input_size=n,
            backends=backends,
        )

    def predict_sweep(
        self,
        sizes: Optional[Sequence[int]] = None,
        preset: GPUPreset = DEFAULT_PRESET,
        backends: Optional[Sequence[str]] = None,
        path: str = "auto",
    ) -> SweepPrediction:
        """Per-backend cost predictions over a sweep of input sizes.

        ``path`` selects the evaluation strategy (see
        :func:`repro.core.prediction.predict_sweep`): the default ``"auto"``
        vectorizes the whole sweep when every backend supports it, compiling
        the metrics through :meth:`metrics_batch` (no per-size
        :class:`~repro.core.metrics.RoundMetrics` objects).
        """
        sizes = list(sizes) if sizes is not None else self.default_sizes()
        return predict_sweep(
            algorithm=self.name,
            sizes=sizes,
            metrics_factory=lambda n: self.metrics(n, preset.machine),
            machine=preset.machine,
            parameters=preset.parameters,
            occupancy=preset.occupancy,
            backends=backends,
            path=path,
            grid_factory=lambda ns: self.metrics_batch(ns, preset.machine),
        )

    def compile_batch(
        self,
        sizes: Optional[Sequence[int]] = None,
        preset: GPUPreset = DEFAULT_PRESET,
    ):
        """Pack this algorithm's per-round metrics for a sweep into a
        :class:`~repro.core.batch.MetricsBatch` (compiled once, evaluated by
        any backend family as an array program).  Compilation goes through
        :meth:`metrics_batch`, so algorithms with a vectorized factory
        describe the whole sweep without per-size metrics objects."""
        from repro.core.batch import MetricsBatch

        sizes = list(sizes) if sizes is not None else self.default_sizes()
        return MetricsBatch.compile(
            self.name, sizes,
            grid_factory=lambda ns: self.metrics_batch(ns, preset.machine),
        )

    # ------------------------------------------------------------------ #
    # Simulator-side (observation)
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def run(self, device: GPUDevice, inputs: Dict[str, np.ndarray]) -> RunResult:
        """Execute the algorithm end to end on a simulated device."""

    def run_streamed(
        self,
        device: GPUDevice,
        inputs: Dict[str, np.ndarray],
        chunks: int = 2,
        pinned: bool = False,
    ) -> StreamedRunResult:
        """Chunked, double-buffered execution on asynchronous streams.

        Splits the workload into ``chunks`` pieces, schedules each piece's
        H2D copies, kernels and D2H copies on its own stream of a
        :class:`~repro.simulator.streams.StreamTimeline`, and reports the
        overlapped makespan alongside the serial sum.  Not every algorithm
        decomposes this way; the base implementation raises.
        """
        raise NotImplementedError(
            f"algorithm {self.name!r} has no streamed execution mode"
        )

    @property
    def supports_streaming(self) -> bool:
        """Whether :meth:`run_streamed` is implemented for this algorithm."""
        return type(self).run_streamed is not GPUAlgorithm.run_streamed

    def run_sharded(
        self,
        device: GPUDevice,
        inputs: Dict[str, np.ndarray],
        devices: int = 2,
        contention: float = 0.0,
        pinned: bool = False,
        topology: Optional["Topology"] = None,
    ) -> ShardedRunResult:
        """Sharded execution across a multi-device pool.

        Splits the workload into ``devices`` shards, schedules each shard's
        H2D copies, kernels and D2H copies on its own device of a
        :class:`~repro.simulator.device_pool.DevicePool` (one shared host
        link with the given ``contention``), and reports the straggler
        makespan alongside the serial single-device sum.  ``device``
        supplies the per-device configuration and the kernel/transfer
        engines used for durations.  ``topology`` replaces ``devices`` /
        ``contention`` with a full :class:`~repro.core.topology.Topology`:
        shards are sized by per-device throughput
        (:func:`~repro.core.topology.plan_bounds`) and the pool applies
        per-socket link stretch.  Not every algorithm decomposes this
        way; the base implementation raises.
        """
        raise NotImplementedError(
            f"algorithm {self.name!r} has no sharded execution mode"
        )

    @property
    def supports_sharding(self) -> bool:
        """Whether :meth:`run_sharded` is implemented for this algorithm."""
        return type(self).run_sharded is not GPUAlgorithm.run_sharded

    # ------------------------------------------------------------------ #
    # Batched-simulator plan hooks
    # ------------------------------------------------------------------ #
    def sim_stream_plan(
        self,
        n: int,
        config: DeviceConfig,
        chunks: int = 2,
        pinned: bool = False,
    ):
        """Symbolic stream schedule of :meth:`run_streamed` at size ``n``.

        Returns a :class:`~repro.simulator.batch.StreamPlan` whose operation
        structure (streams, engines, waits), word counts and kernel timings
        replicate what ``run_streamed`` submits — including the scalar
        path's device-memory allocation layout, since coalescing transaction
        counts depend on array base offsets.  The batched
        :meth:`observe_streamed_sweep` replays these plans as array
        programs; algorithms without a plan fall back to the scalar loop.
        """
        raise NotImplementedError(
            f"algorithm {self.name!r} has no streamed batch plan"
        )

    @property
    def supports_sim_stream_plan(self) -> bool:
        """Whether :meth:`sim_stream_plan` is implemented."""
        return type(self).sim_stream_plan is not GPUAlgorithm.sim_stream_plan

    def sim_shard_plan(
        self,
        n: int,
        config: DeviceConfig,
        devices: int = 2,
        contention: float = 0.0,
        pinned: bool = False,
        topology: Optional["Topology"] = None,
    ):
        """Symbolic device-pool schedule of :meth:`run_sharded` at size ``n``.

        Returns a :class:`~repro.simulator.batch.ShardPlan` replicating the
        per-device operations ``run_sharded`` submits (same allocation
        layout, same shard bounds, same link stretches).  The batched
        :meth:`observe_sharded_sweep` replays these plans as array programs.
        """
        raise NotImplementedError(
            f"algorithm {self.name!r} has no sharded batch plan"
        )

    @property
    def supports_sim_shard_plan(self) -> bool:
        """Whether :meth:`sim_shard_plan` is implemented."""
        return type(self).sim_shard_plan is not GPUAlgorithm.sim_shard_plan

    def observe_streamed(
        self,
        n: int,
        config: Optional[DeviceConfig] = None,
        chunks: int = 2,
        seed: int = 0,
        pinned: bool = False,
    ) -> StreamedRunResult:
        """Run the streamed mode at size ``n`` on a fresh device."""
        device = GPUDevice(config or DeviceConfig.gtx650())
        inputs = self.generate_input(n, seed=seed)
        return self.run_streamed(device, inputs, chunks=chunks, pinned=pinned)

    def observe_sharded(
        self,
        n: int,
        config: Optional[DeviceConfig] = None,
        devices: int = 2,
        contention: float = 0.0,
        seed: int = 0,
        pinned: bool = False,
        topology: Optional["Topology"] = None,
    ) -> ShardedRunResult:
        """Run the sharded mode at size ``n`` on a fresh device pool."""
        device = GPUDevice(config or DeviceConfig.gtx650())
        inputs = self.generate_input(n, seed=seed)
        return self.run_sharded(
            device, inputs, devices=devices, contention=contention,
            pinned=pinned, topology=topology,
        )

    def observe(
        self,
        n: int,
        config: Optional[DeviceConfig] = None,
        seed: int = 0,
        check: bool = False,
    ) -> ObservationRecord:
        """Run the algorithm at size ``n`` on a fresh device and time it."""
        device = GPUDevice(config or DeviceConfig.gtx650())
        inputs = self.generate_input(n, seed=seed)
        result = self.run(device, inputs)
        correct: Optional[bool] = None
        if check:
            expected = self.reference(inputs)
            correct = all(
                np.allclose(result.outputs[key], expected[key])
                for key in expected
            )
        return ObservationRecord(
            input_size=n,
            total_time_s=result.total_time_s,
            kernel_time_s=result.kernel_time_s,
            transfer_time_s=result.transfer_time_s,
            sync_time_s=result.sync_time_s,
            correct=correct,
        )

    def observe_sweep(
        self,
        sizes: Optional[Sequence[int]] = None,
        config: Optional[DeviceConfig] = None,
        seed: int = 0,
        path: str = "auto",
    ) -> SweepObservation:
        """Simulated total / kernel / transfer times over a sweep of sizes.

        ``path`` selects the evaluation strategy (:data:`OBSERVE_PATHS`):
        ``"auto"`` evaluates the whole sweep through the batched simulator
        (:func:`repro.simulator.batch.simulate_sweep`, bit-for-bit equal to
        the scalar loop) unless :attr:`sim_batch_safe` is ``False``;
        ``"scalar"`` forces the per-size reference loop.
        """
        if path not in OBSERVE_PATHS:
            raise ValueError(
                f"unknown observe path {path!r}; expected one of {OBSERVE_PATHS}"
            )
        sizes = list(sizes) if sizes is not None else self.default_sizes()
        # Resolved once, shared by the batch path and the fallback loop
        # (observe passes a non-None config straight through).
        device_config = config or DeviceConfig.gtx650()
        if path == "batch" or (path == "auto" and self.sim_batch_safe):
            from repro.simulator.batch import simulate_sweep

            return simulate_sweep(self, sizes, config=device_config, seed=seed)
        records = [
            self.observe(int(n), config=device_config, seed=seed) for n in sizes
        ]
        return SweepObservation(
            algorithm=self.name,
            sizes=[int(n) for n in sizes],
            total_times=[r.total_time_s for r in records],
            kernel_times=[r.kernel_time_s for r in records],
            transfer_times=[r.transfer_time_s for r in records],
        )

    def observe_streamed_sweep(
        self,
        sizes: Optional[Sequence[int]] = None,
        config: Optional[DeviceConfig] = None,
        chunks: int = 2,
        seed: int = 0,
        pinned: bool = False,
        path: str = "auto",
    ):
        """Streamed makespan / serial time over a sweep of sizes.

        ``"auto"`` replays the algorithm's :meth:`sim_stream_plan` through
        the batched replay when one is implemented (bit-for-bit equal to
        per-size :meth:`observe_streamed`); otherwise, and on
        ``path="scalar"``, it runs the per-size loop.
        """
        if path not in OBSERVE_PATHS:
            raise ValueError(
                f"unknown observe path {path!r}; expected one of {OBSERVE_PATHS}"
            )
        sizes = list(sizes) if sizes is not None else self.default_sizes()
        device_config = config or DeviceConfig.gtx650()
        from repro.simulator.batch import (
            StreamedSweepObservation,
            simulate_streamed_sweep,
        )

        if path == "batch" or (path == "auto" and self.supports_sim_stream_plan):
            return simulate_streamed_sweep(
                self, sizes, config=device_config, chunks=chunks, pinned=pinned
            )
        results = [
            self.observe_streamed(
                int(n), config=device_config, chunks=chunks, seed=seed,
                pinned=pinned,
            )
            for n in sizes
        ]
        return StreamedSweepObservation(
            algorithm=self.name,
            sizes=[int(n) for n in sizes],
            makespans_s=[r.makespan_s for r in results],
            serial_times_s=[r.serial_time_s for r in results],
        )

    def observe_sharded_sweep(
        self,
        sizes: Optional[Sequence[int]] = None,
        config: Optional[DeviceConfig] = None,
        devices: int = 2,
        contention: float = 0.0,
        seed: int = 0,
        pinned: bool = False,
        topology: Optional["Topology"] = None,
        path: str = "auto",
    ):
        """Sharded straggler makespan / serial time over a sweep of sizes.

        ``"auto"`` replays the algorithm's :meth:`sim_shard_plan` through
        the batched replay when one is implemented (bit-for-bit equal to
        per-size :meth:`observe_sharded`); otherwise, and on
        ``path="scalar"``, it runs the per-size loop.
        """
        if path not in OBSERVE_PATHS:
            raise ValueError(
                f"unknown observe path {path!r}; expected one of {OBSERVE_PATHS}"
            )
        sizes = list(sizes) if sizes is not None else self.default_sizes()
        device_config = config or DeviceConfig.gtx650()
        from repro.simulator.batch import (
            ShardedSweepObservation,
            simulate_sharded_sweep,
        )

        if path == "batch" or (path == "auto" and self.supports_sim_shard_plan):
            return simulate_sharded_sweep(
                self, sizes, config=device_config, devices=devices,
                contention=contention, pinned=pinned, topology=topology,
            )
        results = [
            self.observe_sharded(
                int(n), config=device_config, devices=devices,
                contention=contention, seed=seed, pinned=pinned,
                topology=topology,
            )
            for n in sizes
        ]
        return ShardedSweepObservation(
            algorithm=self.name,
            sizes=[int(n) for n in sizes],
            makespans_s=[r.makespan_s for r in results],
            serial_times_s=[r.serial_time_s for r in results],
            device_count=results[0].device_count if results else devices,
        )
