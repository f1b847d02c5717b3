"""Vector addition on the ATGPU model (Section IV-A of the paper).

For two ``n``-element vectors ``A`` and ``B`` the kernel computes
``C = A + B`` with one thread per element.  The paper's analysis:

* rounds ``R = 1``;
* parallel time ``O(1)`` (the concrete cost uses 3 operations per MP);
* I/O ``O(k)`` with ``k = ⌈n/b⌉`` thread blocks (3 block transactions per
  block: load a, load b, store c);
* global memory ``O(n)`` (3n words), shared memory ``O(b)`` (3b words per
  block);
* transfer ``O(α + βn)``: two inward transactions of ``n`` words each and one
  outward transaction of ``n`` words.

The concrete cost is ``3α + 3βn + (3 + 3λk)/γ + σ`` and the GPU-cost replaces
the ``3`` operations with ``⌈k/(k'ℓ)⌉·3`` (Expression 2).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.algorithms.base import (
    GPUAlgorithm,
    RunResult,
    ShardedRunResult,
    StreamedRunResult,
    chunk_bounds,
    sharded_pool_bounds,
)
from repro.core.topology import Topology
from repro.core.transfer import TransferDirection
from repro.core.machine import ATGPUMachine
from repro.core.metrics import (
    AlgorithmMetrics,
    MetricsGrid,
    RoundMetrics,
    metrics_grid,
    round_arrays,
    size_vector,
)
from repro.pseudocode.ast_nodes import (
    GlobalToShared,
    KernelLaunch,
    SharedCompute,
    SharedToGlobal,
    TransferIn,
    TransferOut,
)
from repro.pseudocode.program import Program, Round
from repro.pseudocode.variables import global_var, host_var, shared_var
from repro.simulator.device import GPUDevice
from repro.simulator.device_pool import DevicePool
from repro.simulator.kernel import BlockContext, KernelProgram
from repro.simulator.memory import DeviceArray, valueless_array
from repro.simulator.streams import StreamOpKind, StreamTimeline
from repro.simulator.timing import KernelTiming
from repro.utils.numerics import ceil_div
from repro.utils.validation import ensure_positive_int

#: Operations charged per MP by the paper's analysis of the kernel.
_KERNEL_OPERATIONS = 3.0
#: Global-memory block transactions per thread block (load a, load b, store c).
_IO_BLOCKS_PER_BLOCK = 3.0


class VectorAdditionKernel(KernelProgram):
    """The vector-addition kernel as a simulator kernel program."""

    name = "vector_addition_kernel"

    def __init__(self, n: int, warp_width: int) -> None:
        self.n = ensure_positive_int(n, "n")
        self.warp_width = ensure_positive_int(warp_width, "warp_width")

    def grid_size(self) -> int:
        return ceil_div(self.n, self.warp_width)

    def array_names(self) -> Tuple[str, ...]:
        return ("a", "b", "c")

    def shared_words_per_block(self) -> int:
        return 3 * self.warp_width

    def run_block(self, ctx: BlockContext) -> None:
        tids = ctx.global_thread_ids()
        active = tids[tids < self.n]
        lanes = np.arange(active.size)
        shared_a = ctx.shared_alloc("_a", self.warp_width)
        shared_b = ctx.shared_alloc("_b", self.warp_width)
        shared_c = ctx.shared_alloc("_c", self.warp_width)
        if active.size == 0:  # pragma: no cover - grids never launch empty blocks
            return
        # _a[j] <== a[ib + j]
        values_a = ctx.global_read("a", active)
        ctx.shared_write("_a", lanes, values_a)
        shared_a[lanes] = values_a
        # _b[j] <== b[ib + j]
        values_b = ctx.global_read("b", active)
        ctx.shared_write("_b", lanes, values_b)
        shared_b[lanes] = values_b
        # _c[j] <- _a[j] + _b[j]
        ctx.compute(1.0, label="c = a + b")
        shared_c[lanes] = shared_a[lanes] + shared_b[lanes]
        # c[ib + j] <== _c[j]
        ctx.global_write("c", active, shared_c[lanes])

    def vectorised_result(self, arrays: Dict[str, DeviceArray]) -> None:
        arrays["c"].data[: self.n] = (
            arrays["a"].data[: self.n] + arrays["b"].data[: self.n]
        )


class VectorAddition(GPUAlgorithm):
    """Vector addition, the paper's first (most transfer-bound) example."""

    name = "vector_addition"
    description = "C = A + B over n-element integer vectors, one thread per element"
    #: The kernel's traces depend only on element indices, so the batched
    #: simulator probes with structural zero inputs (see :meth:`sim_inputs`).
    sim_trace_data_dependent = False

    # ------------------------------------------------------------------ #
    # Workload
    # ------------------------------------------------------------------ #
    def default_sizes(self) -> List[int]:
        """The paper sweeps n = 1,000,000 ... 10,000,000 in steps of one million."""
        return [i * 1_000_000 for i in range(1, 11)]

    def generate_input(self, n: int, seed: int = 0) -> Dict[str, np.ndarray]:
        ensure_positive_int(n, "n")
        rng = np.random.default_rng(seed)
        return {
            "A": rng.integers(0, 1 << 20, size=n, dtype=np.int64),
            "B": rng.integers(0, 1 << 20, size=n, dtype=np.int64),
        }

    def sim_inputs(self, n: int, seed: int = 0) -> Dict[str, np.ndarray]:
        """Structural stand-ins for the probe: zero-stride zeros of the real dtypes."""
        ensure_positive_int(n, "n")
        return {
            "A": valueless_array(n, np.int64),
            "B": valueless_array(n, np.int64),
        }

    def reference(self, inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        return {"C": inputs["A"] + inputs["B"]}

    # ------------------------------------------------------------------ #
    # Model-side analysis (Section IV-A)
    # ------------------------------------------------------------------ #
    def metrics(self, n: int, machine: ATGPUMachine) -> AlgorithmMetrics:
        ensure_positive_int(n, "n")
        k = machine.thread_blocks_for(n)
        round_metrics = RoundMetrics(
            time=_KERNEL_OPERATIONS,
            io_blocks=_IO_BLOCKS_PER_BLOCK * k,
            inward_words=2.0 * n,
            outward_words=float(n),
            inward_transactions=2,
            outward_transactions=1,
            global_words=3.0 * n,
            shared_words_per_mp=3.0 * machine.b,
            thread_blocks=k,
            label="vector addition",
        )
        return AlgorithmMetrics([round_metrics], name=self.name)

    def metrics_batch(self, ns, machine: ATGPUMachine) -> MetricsGrid:
        """Vectorized :meth:`metrics`: the single round over a size vector."""
        sizes = size_vector(ns)
        k = machine.thread_blocks_grid(sizes)
        return metrics_grid(sizes, [round_arrays(
            len(sizes),
            time=_KERNEL_OPERATIONS,
            io_blocks=_IO_BLOCKS_PER_BLOCK * k,
            inward_words=2.0 * sizes,
            outward_words=sizes.astype(float),
            inward_transactions=2,
            outward_transactions=1,
            global_words=3.0 * sizes,
            shared_words_per_mp=3.0 * machine.b,
            thread_blocks=k,
            label="vector addition",
        )], name=self.name)

    def build_pseudocode(self, n: int, machine: ATGPUMachine) -> Program:
        ensure_positive_int(n, "n")
        b = machine.b
        k = machine.thread_blocks_for(n)

        def block_slice(block: int, lanes: np.ndarray, params: Dict[str, float]) -> np.ndarray:
            start = block * b
            indices = start + lanes
            return indices[indices < int(params["n"])]

        kernel = KernelLaunch(
            grid_blocks=k,
            shared_declarations=(
                shared_var("_a", b), shared_var("_b", b), shared_var("_c", b),
            ),
            label="vector addition kernel",
            body=(
                GlobalToShared("_a", "a", blocks_per_mp=1, global_index=block_slice),
                GlobalToShared("_b", "b", blocks_per_mp=1, global_index=block_slice),
                SharedCompute(
                    "_c", "_a[j] + _b[j]",
                    compute=lambda shared, lanes, params: shared["_a"][lanes] + shared["_b"][lanes],
                ),
                SharedToGlobal("c", "_c", blocks_per_mp=1, global_index=block_slice),
            ),
        )
        return Program(
            name="vector-addition",
            variables=(
                host_var("A", n), host_var("B", n), host_var("C", n),
                global_var("a", n), global_var("b", n), global_var("c", n),
                shared_var("_a", b), shared_var("_b", b), shared_var("_c", b),
            ),
            rounds=(
                Round(
                    transfers_in=(
                        TransferIn("a", "A", words=n),
                        TransferIn("b", "B", words=n),
                    ),
                    launches=(kernel,),
                    transfers_out=(TransferOut("C", "c", words=n),),
                    label="vector addition",
                ),
            ),
            params={"n": float(n), "b": float(b)},
        )

    # ------------------------------------------------------------------ #
    # Simulator-side execution
    # ------------------------------------------------------------------ #
    def run(self, device: GPUDevice, inputs: Dict[str, np.ndarray]) -> RunResult:
        a = np.asarray(inputs["A"])
        b = np.asarray(inputs["B"])
        if a.shape != b.shape:
            raise ValueError("A and B must have the same length")
        n = a.size
        device.reset_timers()
        device.memcpy_htod("a", a)
        device.memcpy_htod("b", b)
        device.allocate("c", n, dtype=a.dtype)
        kernel = VectorAdditionKernel(n, device.config.warp_width)
        device.launch(kernel)
        c = device.memcpy_dtoh("c")
        device.synchronise("vector addition round")
        result = RunResult(
            outputs={"C": c},
            total_time_s=device.total_time_s,
            kernel_time_s=device.kernel_time_s,
            transfer_time_s=device.transfer_time_s,
            sync_time_s=device.sync_time_s,
        )
        for name in ("a", "b", "c"):
            device.free(name)
        return result

    def run_streamed(
        self,
        device: GPUDevice,
        inputs: Dict[str, np.ndarray],
        chunks: int = 2,
        pinned: bool = False,
    ) -> StreamedRunResult:
        """Chunked vector addition with compute/copy overlap.

        Each chunk gets its own stream carrying ``H2D a``, ``H2D b``, the
        chunk's kernel and ``D2H c``; the stream timeline's copy and compute
        engines overlap chunk ``i``'s kernel with chunk ``i+1``'s copies
        (classic double buffering — the workload is copy-bound, so most of
        the kernel time hides entirely).  Durations come from the device's
        own transfer and timing engines, so the serial sum of the scheduled
        operations matches what :meth:`run` would charge for the same
        chunked operations executed back to back.
        """
        a = np.asarray(inputs["A"])
        b = np.asarray(inputs["B"])
        if a.shape != b.shape:
            raise ValueError("A and B must have the same length")
        n = a.size
        device.reset_timers()
        device.allocate("a", n, dtype=a.dtype).data[:] = a.reshape(-1)
        device.allocate("b", n, dtype=b.dtype).data[:] = b.reshape(-1)
        device.allocate("c", n, dtype=a.dtype)

        timeline = StreamTimeline()
        d2h_ops = []
        for index, (lo, hi) in enumerate(chunk_bounds(n, chunks)):
            m = hi - lo
            stream = timeline.stream(f"chunk{index}")
            for name in ("a", "b"):
                record = device.transfer_engine.transfer(
                    m, TransferDirection.HOST_TO_DEVICE, pinned=pinned,
                    label=f"{name}[{lo}:{hi}]",
                )
                timeline.add_transfer(stream, record)
            kernel = VectorAdditionKernel(m, device.config.warp_width)
            pairs, _ = device.functional_engine.execute_sampled(kernel)
            timing = device.timing_engine.kernel_timing(kernel.name, pairs)
            timeline.add_kernel(stream, timing)
            record = device.transfer_engine.transfer(
                m, TransferDirection.DEVICE_TO_HOST, pinned=pinned,
                label=f"c[{lo}:{hi}]",
            )
            d2h_ops.append(timeline.add_transfer(stream, record))
        timeline.submit(
            "host", StreamOpKind.HOST, device.config.sync_overhead_s,
            name="round sync", wait=d2h_ops,
        )

        arrays = {name: device.array(name) for name in ("a", "b", "c")}
        VectorAdditionKernel(n, device.config.warp_width).vectorised_result(arrays)
        c = device.array("c").to_host()
        for name in ("a", "b", "c"):
            device.free(name)
        return StreamedRunResult(
            outputs={"C": c},
            chunk_count=min(chunks, n),
            timeline=timeline,
        )

    def run_sharded(
        self,
        device: GPUDevice,
        inputs: Dict[str, np.ndarray],
        devices: int = 2,
        contention: float = 0.0,
        pinned: bool = False,
        topology: Optional[Topology] = None,
    ) -> ShardedRunResult:
        """Vector addition sharded across a multi-device pool.

        Each device receives a contiguous shard of ``A``/``B``, adds it with
        its own kernel, and returns its shard of ``C``; the pool's makespan
        is the straggler device's completion.  The problem is embarrassingly
        parallel, so with independent links (``contention=0``) the makespan
        shrinks nearly linearly in the device count; on a fully shared link
        (``contention=1``) the copy-bound workload stops scaling — exactly
        the regime the :class:`~repro.core.sharding.ShardedCostModel`
        prices.  With a ``topology``, shard widths follow the per-device
        throughput weights and each device's transfers stretch by its own
        socket's link contention.  ``device`` supplies the per-device
        configuration and the functional/timing engines; data results come
        from the vectorised kernel over the full arrays.
        """
        a = np.asarray(inputs["A"])
        b = np.asarray(inputs["B"])
        if a.shape != b.shape:
            raise ValueError("A and B must have the same length")
        n = a.size
        device.reset_timers()
        device.allocate("a", n, dtype=a.dtype).data[:] = a.reshape(-1)
        device.allocate("b", n, dtype=b.dtype).data[:] = b.reshape(-1)
        device.allocate("c", n, dtype=a.dtype)

        pool, bounds = sharded_pool_bounds(
            device, n, devices, contention, topology
        )
        # Shard sizes take few distinct values, so memoise the
        # (deterministic, size-only) kernel timing instead of re-simulating
        # per device.
        timings: Dict[int, KernelTiming] = {}
        for index, (lo, hi) in enumerate(bounds):
            m = hi - lo
            if m == 0:
                continue
            for name in ("a", "b"):
                pool.add_transfer(
                    index, m, TransferDirection.HOST_TO_DEVICE,
                    pinned=pinned, label=f"{name}[{lo}:{hi}]",
                )
            if m not in timings:
                kernel = VectorAdditionKernel(m, device.config.warp_width)
                pairs, _ = device.functional_engine.execute_sampled(kernel)
                timings[m] = device.timing_engine.kernel_timing(
                    kernel.name, pairs
                )
            pool.add_kernel(index, timings[m])
            pool.add_transfer(
                index, m, TransferDirection.DEVICE_TO_HOST,
                pinned=pinned, label=f"c[{lo}:{hi}]",
            )
            pool.add_host(
                index, device.config.sync_overhead_s, name="device sync",
            )

        arrays = {name: device.array(name) for name in ("a", "b", "c")}
        VectorAdditionKernel(n, device.config.warp_width).vectorised_result(arrays)
        c = device.array("c").to_host()
        for name in ("a", "b", "c"):
            device.free(name)
        return ShardedRunResult(
            outputs={"C": c},
            device_count=pool.num_devices,
            pool=pool,
        )

    # ------------------------------------------------------------------ #
    # Batched-simulator plans
    # ------------------------------------------------------------------ #
    def _scratch_device(self, n: int, config) -> GPUDevice:
        """A device with :meth:`run_streamed`'s exact allocation layout.

        Coalescing transaction counts depend on each array's base offset in
        global memory, so the scratch device allocates ``a``/``b``/``c`` at
        full length in the same order as the scalar paths before any kernel
        is traced.  It is a valueless probe device: the traces ignore the
        stored values, so the arrays get offsets but no storage.
        """
        from repro.simulator.batch import ProbeDevice

        device = ProbeDevice(config, data_dependent=False)
        for name in ("a", "b", "c"):
            device.allocate(name, n, dtype=np.int64)
        return device

    def sim_stream_plan(
        self, n: int, config, chunks: int = 2, pinned: bool = False
    ):
        """Symbolic twin of :meth:`run_streamed`'s stream schedule."""
        from repro.simulator.batch import StreamPlan

        ensure_positive_int(n, "n")
        device = self._scratch_device(n, config)
        plan = StreamPlan()
        d2h_ops = []
        for index, (lo, hi) in enumerate(chunk_bounds(n, chunks)):
            m = hi - lo
            stream = f"chunk{index}"
            plan.h2d(stream, m, pinned=pinned)
            plan.h2d(stream, m, pinned=pinned)
            kernel = VectorAdditionKernel(m, config.warp_width)
            pairs, _ = device.functional_engine.execute_sampled(kernel)
            timing = device.timing_engine.kernel_timing(kernel.name, pairs)
            plan.kernel(stream, timing)
            d2h_ops.append(plan.d2h(stream, m, pinned=pinned))
        plan.host("host", config.sync_overhead_s, wait=d2h_ops)
        return plan

    def sim_shard_plan(
        self,
        n: int,
        config,
        devices: int = 2,
        contention: float = 0.0,
        pinned: bool = False,
        topology: Optional[Topology] = None,
    ):
        """Symbolic twin of :meth:`run_sharded`'s device-pool schedule."""
        from repro.simulator.batch import ShardPlan

        ensure_positive_int(n, "n")
        device = self._scratch_device(n, config)
        pool, bounds = sharded_pool_bounds(
            device, n, devices, contention, topology
        )
        plan = ShardPlan(
            [pool.device_stretch(i) for i in range(pool.num_devices)]
        )
        timings: Dict[int, KernelTiming] = {}
        for index, (lo, hi) in enumerate(bounds):
            m = hi - lo
            if m == 0:
                continue
            plan.h2d(index, m, pinned=pinned)
            plan.h2d(index, m, pinned=pinned)
            if m not in timings:
                kernel = VectorAdditionKernel(m, config.warp_width)
                pairs, _ = device.functional_engine.execute_sampled(kernel)
                timings[m] = device.timing_engine.kernel_timing(
                    kernel.name, pairs
                )
            plan.kernel(index, timings[m])
            plan.d2h(index, m, pinned=pinned)
            plan.host(index, config.sync_overhead_s)
        return plan
