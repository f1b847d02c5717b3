"""Exclusive prefix sum (scan) on the ATGPU model.

Scan is the first of the extension problems beyond the paper's three
examples (the paper's conclusion calls for "further experiments on other
computational problems to verify our model").  The implementation follows
the standard three-phase GPU formulation:

1. every block scans its ``b``-element segment in shared memory and writes
   the segment total to an auxiliary array (one round),
2. the auxiliary array of block totals is itself scanned (recursively; for
   the sizes used here a single second-level block suffices per level),
3. every block adds its scanned block offset to its segment (one round).

Like reduction, scan transfers the whole input in and the whole output back,
so its transfer share sits between vector addition (transfer-dominated) and
matrix multiplication (compute-dominated).
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np

from repro.algorithms.base import GPUAlgorithm, RunResult
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
    Barrier,
    GlobalToShared,
    KernelLaunch,
    Loop,
    SharedCompute,
    SharedToGlobal,
    TransferIn,
    TransferOut,
)
from repro.pseudocode.program import Program, Round
from repro.pseudocode.variables import global_var, host_var, shared_var
from repro.simulator.device import GPUDevice
from repro.simulator.kernel import BlockContext, KernelProgram
from repro.simulator.memory import DeviceArray, valueless_array
from repro.utils.numerics import ceil_div
from repro.utils.validation import ensure_positive_int


class BlockScanKernel(KernelProgram):
    """Phase 1: per-block exclusive scan plus block-total extraction."""

    name = "block_scan_kernel"

    def __init__(self, m: int, warp_width: int, src: str, dst: str, totals: str) -> None:
        self.m = ensure_positive_int(m, "m")
        self.warp_width = ensure_positive_int(warp_width, "warp_width")
        self.src, self.dst, self.totals = src, dst, totals

    def grid_size(self) -> int:
        return ceil_div(self.m, self.warp_width)

    def array_names(self) -> Tuple[str, ...]:
        return (self.src, self.dst, self.totals)

    def shared_words_per_block(self) -> int:
        return self.warp_width

    def run_block(self, ctx: BlockContext) -> None:
        b = self.warp_width
        start = ctx.block_index * b
        count = min(b, self.m - start)
        lanes = np.arange(count)
        shared = ctx.shared_alloc("_s", b)
        values = ctx.global_read(self.src, start + lanes)
        ctx.shared_write("_s", lanes, values)
        shared[:count] = values
        shared[count:] = 0
        total = shared[:count].sum()
        # Hillis-Steele inclusive scan in shared memory, then shift.
        stride = 1
        while stride < b:
            ctx.shared_read("_s", np.arange(stride, b))
            ctx.compute(1.0, label=f"scan stride {stride}")
            shifted = np.concatenate([np.zeros(stride), shared[:-stride]])
            shared[:] = shared + shifted
            ctx.shared_write("_s", np.arange(b), shared)
            ctx.barrier()
            stride *= 2
        exclusive = np.concatenate([[0.0], shared[:-1]])
        ctx.global_write(self.dst, start + lanes, exclusive[:count])
        ctx.global_write(self.totals, np.array([ctx.block_index]), np.array([total]))

    def vectorised_result(self, arrays: Dict[str, DeviceArray]) -> None:
        b = self.warp_width
        grid = self.grid_size()
        src = arrays[self.src].data[: self.m]
        padded = np.zeros(grid * b, dtype=np.float64)
        padded[: self.m] = src
        segments = padded.reshape(grid, b)
        scanned = np.cumsum(segments, axis=1) - segments
        arrays[self.dst].data[: self.m] = scanned.reshape(-1)[: self.m]
        arrays[self.totals].data[:grid] = segments.sum(axis=1)


class AddOffsetsKernel(KernelProgram):
    """Phase 3: add each block's scanned offset to its segment."""

    name = "scan_add_offsets_kernel"

    def __init__(self, m: int, warp_width: int, data: str, offsets: str) -> None:
        self.m = ensure_positive_int(m, "m")
        self.warp_width = ensure_positive_int(warp_width, "warp_width")
        self.data, self.offsets = data, offsets

    def grid_size(self) -> int:
        return ceil_div(self.m, self.warp_width)

    def array_names(self) -> Tuple[str, ...]:
        return (self.data, self.offsets)

    def shared_words_per_block(self) -> int:
        return self.warp_width + 1

    def run_block(self, ctx: BlockContext) -> None:
        b = self.warp_width
        start = ctx.block_index * b
        count = min(b, self.m - start)
        lanes = np.arange(count)
        shared = ctx.shared_alloc("_seg", b)
        offset = ctx.global_read(self.offsets, np.array([ctx.block_index]))[0]
        values = ctx.global_read(self.data, start + lanes)
        ctx.shared_write("_seg", lanes, values)
        shared[:count] = values
        ctx.compute(1.0, label="add block offset")
        ctx.global_write(self.data, start + lanes, shared[:count] + offset)

    def vectorised_result(self, arrays: Dict[str, DeviceArray]) -> None:
        b = self.warp_width
        grid = self.grid_size()
        data = arrays[self.data].data
        offsets = arrays[self.offsets].data[:grid]
        padded = np.zeros(grid * b, dtype=np.float64)
        padded[: self.m] = data[: self.m]
        padded = (padded.reshape(grid, b) + offsets[:, None]).reshape(-1)
        data[: self.m] = padded[: self.m]


class PrefixSum(GPUAlgorithm):
    """Exclusive prefix sum (extension problem)."""

    name = "prefix_sum"
    description = "Exclusive prefix sum of an n-element vector (3-phase block scan)"

    #: Block traces depend only on indices, so the batched probe may skip
    #: input materialisation (parity-tested in tests/test_sim_batch.py).
    sim_trace_data_dependent = False

    _functional_limit = 4096

    def default_sizes(self) -> List[int]:
        return [1 << e for e in range(16, 25)]

    def generate_input(self, n: int, seed: int = 0) -> Dict[str, np.ndarray]:
        rng = np.random.default_rng(seed)
        return {"A": rng.integers(0, 16, size=n).astype(np.float64)}

    def sim_inputs(self, n: int, seed: int = 0) -> Dict[str, np.ndarray]:
        ensure_positive_int(n, "n")
        return {"A": valueless_array(n, np.float64)}

    def reference(self, inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        a = inputs["A"]
        return {"S": np.concatenate([[0.0], np.cumsum(a)[:-1]])}

    def metrics(self, n: int, machine: ATGPUMachine) -> AlgorithmMetrics:
        ensure_positive_int(n, "n")
        b = machine.b
        blocks = ceil_div(n, b)
        depth = max(1.0, math.log2(b))
        scan_round = RoundMetrics(
            time=2.0 + 2.0 * depth,
            io_blocks=3.0 * blocks,
            inward_words=float(n), inward_transactions=1,
            global_words=float(2 * n + blocks),
            shared_words_per_mp=float(b),
            thread_blocks=blocks,
            label="block scan",
        )
        totals_blocks = max(1, ceil_div(blocks, b))
        totals_round = RoundMetrics(
            time=2.0 + 2.0 * depth,
            io_blocks=3.0 * totals_blocks,
            global_words=float(2 * n + blocks),
            shared_words_per_mp=float(b),
            thread_blocks=totals_blocks,
            label="scan of block totals",
        )
        add_round = RoundMetrics(
            time=3.0,
            io_blocks=3.0 * blocks,
            outward_words=float(n), outward_transactions=1,
            global_words=float(2 * n + blocks),
            shared_words_per_mp=float(b + 1),
            thread_blocks=blocks,
            label="add offsets",
        )
        return AlgorithmMetrics([scan_round, totals_round, add_round], name=self.name)

    def metrics_batch(self, ns, machine: ATGPUMachine) -> MetricsGrid:
        """Vectorized :meth:`metrics`: the three scan phases over a size vector."""
        sizes = size_vector(ns)
        b = machine.b
        blocks = ceil_div(sizes, b).astype(np.int64)
        depth = max(1.0, math.log2(b))
        phase_time = 2.0 + 2.0 * depth
        totals_blocks = np.maximum(1, ceil_div(blocks, b).astype(np.int64))
        global_words = (2 * sizes + blocks).astype(float)
        n_sizes = len(sizes)
        scan_round = round_arrays(
            n_sizes,
            time=phase_time,
            io_blocks=3.0 * blocks,
            inward_words=sizes.astype(float), inward_transactions=1,
            global_words=global_words,
            shared_words_per_mp=float(b),
            thread_blocks=blocks,
            label="block scan",
        )
        totals_round = round_arrays(
            n_sizes,
            time=phase_time,
            io_blocks=3.0 * totals_blocks,
            global_words=global_words,
            shared_words_per_mp=float(b),
            thread_blocks=totals_blocks,
            label="scan of block totals",
        )
        add_round = round_arrays(
            n_sizes,
            time=3.0,
            io_blocks=3.0 * blocks,
            outward_words=sizes.astype(float), outward_transactions=1,
            global_words=global_words,
            shared_words_per_mp=float(b + 1),
            thread_blocks=blocks,
            label="add offsets",
        )
        return metrics_grid(
            sizes, [scan_round, totals_round, add_round], name=self.name
        )

    def build_pseudocode(self, n: int, machine: ATGPUMachine) -> Program:
        b = machine.b
        blocks = ceil_div(n, b)
        depth = max(1, int(math.ceil(math.log2(b))))
        scan_body = (
            GlobalToShared("_s", "a"),
            Loop(count=depth, var="stride", body=(
                SharedCompute("_s", "_s[lane] + _s[lane - 2^stride]", operations=2),
                Barrier(),
            )),
            SharedToGlobal("s", "_s"),
            SharedToGlobal("totals", "_s"),
        )
        add_body = (
            GlobalToShared("_seg", "s"),
            GlobalToShared("_off", "totals"),
            SharedCompute("_seg", "_seg[lane] + _off[0]"),
            SharedToGlobal("s", "_seg"),
        )
        return Program(
            name="prefix-sum",
            variables=(
                host_var("A", n), host_var("S", n),
                global_var("a", n), global_var("s", n), global_var("totals", blocks),
                shared_var("_s", b), shared_var("_seg", b), shared_var("_off", 1),
            ),
            rounds=(
                Round(
                    transfers_in=(TransferIn("a", "A", words=n),),
                    launches=(KernelLaunch(blocks, scan_body,
                                           (shared_var("_s", b),), "block scan"),),
                    label="block scan",
                ),
                Round(
                    launches=(KernelLaunch(max(1, ceil_div(blocks, b)), scan_body,
                                           (shared_var("_s", b),), "totals scan"),),
                    label="totals scan",
                ),
                Round(
                    launches=(KernelLaunch(blocks, add_body,
                                           (shared_var("_seg", b), shared_var("_off", 1)),
                                           "add offsets"),),
                    transfers_out=(TransferOut("S", "s", words=n),),
                    label="add offsets",
                ),
            ),
            params={"n": float(n), "b": float(b)},
        )

    def run(self, device: GPUDevice, inputs: Dict[str, np.ndarray]) -> RunResult:
        a = np.asarray(inputs["A"], dtype=np.float64)
        n = a.size
        b = device.config.warp_width
        device.reset_timers()
        device.memcpy_htod("a", a)
        allocated: List[str] = []

        def launch(kernel: KernelProgram) -> None:
            force = False if kernel.grid_size() > self._functional_limit else None
            device.launch(kernel, force_functional=force)

        def scan_level(name: str, length: int) -> str:
            """Scan ``name`` (of ``length`` words) and return the scanned array name."""
            scanned = f"{name}_scanned"
            totals = f"{name}_totals"
            blocks = ceil_div(length, b)
            device.allocate(scanned, length, dtype=np.float64)
            device.allocate(totals, blocks, dtype=np.float64)
            allocated.extend([scanned, totals])
            launch(BlockScanKernel(length, b, src=name, dst=scanned, totals=totals))
            device.synchronise(f"scan level of {name}")
            if blocks > 1:
                totals_scanned = scan_level(totals, blocks)
                launch(AddOffsetsKernel(length, b, data=scanned,
                                        offsets=totals_scanned))
                device.synchronise(f"offset fix-up of {name}")
            return scanned

        scanned_name = scan_level("a", n)
        s = device.memcpy_dtoh(scanned_name)[:n]
        result = RunResult(
            outputs={"S": s},
            total_time_s=device.total_time_s,
            kernel_time_s=device.kernel_time_s,
            transfer_time_s=device.transfer_time_s,
            sync_time_s=device.sync_time_s,
        )
        device.free("a")
        for name in allocated:
            device.free(name)
        return result
