"""1-D three-point stencil (Jacobi smoothing step) on the ATGPU model.

An extension problem: every output element is the average of its input
neighbourhood, ``out[i] = (in[i-1] + in[i] + in[i+1]) / 3`` with clamped
boundaries.  Each block loads its ``b``-element segment plus a halo of one
element on each side into shared memory (two of the three reads per block
coalesce into the segment's own memory block, the halo elements touch the
neighbouring blocks), computes the stencil, and writes the segment back.

Stencil sweeps often iterate many times over the same device-resident data,
which makes the transfer share *per iteration* tunable: the algorithm takes
an ``iterations`` parameter, and with many iterations it behaves like the
paper's matrix-multiplication case (kernel-bound) while with one iteration
it behaves like vector addition (transfer-bound).
"""

from __future__ import annotations

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
from repro.simulator.kernel import BlockContext, KernelProgram
from repro.simulator.memory import DeviceArray, valueless_array
from repro.utils.numerics import ceil_div
from repro.utils.validation import ensure_positive_int


class StencilKernel(KernelProgram):
    """One Jacobi iteration of the three-point stencil."""

    name = "stencil_kernel"

    def __init__(self, n: int, warp_width: int, src: str, dst: str) -> None:
        self.n = ensure_positive_int(n, "n")
        self.warp_width = ensure_positive_int(warp_width, "warp_width")
        self.src, self.dst = src, dst

    def grid_size(self) -> int:
        return ceil_div(self.n, self.warp_width)

    def array_names(self) -> Tuple[str, ...]:
        return (self.src, self.dst)

    def shared_words_per_block(self) -> int:
        return self.warp_width + 2

    def run_block(self, ctx: BlockContext) -> None:
        b = self.warp_width
        start = ctx.block_index * b
        count = min(b, self.n - start)
        lanes = np.arange(count)
        shared = ctx.shared_alloc("_tile", b + 2)
        # Segment load (coalesced) plus the two halo elements (clamped).
        values = ctx.global_read(self.src, start + lanes)
        ctx.shared_write("_tile", 1 + lanes, values)
        shared[1:1 + count] = values
        left = max(start - 1, 0)
        right = min(start + count, self.n - 1)
        halo = ctx.global_read(self.src, np.array([left, right]))
        shared[0], shared[1 + count] = halo[0], halo[1]
        ctx.shared_write("_tile", np.array([0, 1 + count]), halo)
        ctx.compute(2.0, label="three-point average")
        result = (shared[0:count] + shared[1:1 + count] + shared[2:2 + count]) / 3.0
        ctx.global_write(self.dst, start + lanes, result)

    def vectorised_result(self, arrays: Dict[str, DeviceArray]) -> None:
        src = arrays[self.src].data[: self.n]
        padded = np.concatenate([src[:1], src, src[-1:]])
        arrays[self.dst].data[: self.n] = (
            padded[:-2] + padded[1:-1] + padded[2:]
        ) / 3.0


class Stencil1D(GPUAlgorithm):
    """Iterated 1-D three-point stencil (extension problem)."""

    name = "stencil_1d"
    description = "Iterated 3-point Jacobi stencil over an n-element vector"

    #: Block traces depend only on indices, so the batched probe may skip
    #: input materialisation (parity-tested in tests/test_sim_batch.py).
    sim_trace_data_dependent = False

    _functional_limit = 4096

    def __init__(self, iterations: int = 4) -> None:
        self.iterations = ensure_positive_int(iterations, "iterations")

    def default_sizes(self) -> List[int]:
        return [1 << e for e in range(16, 24)]

    def generate_input(self, n: int, seed: int = 0) -> Dict[str, np.ndarray]:
        rng = np.random.default_rng(seed)
        return {"A": rng.normal(size=n)}

    def sim_inputs(self, n: int, seed: int = 0) -> Dict[str, np.ndarray]:
        ensure_positive_int(n, "n")
        return {"A": valueless_array(n, np.float64)}

    def reference(self, inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        data = np.asarray(inputs["A"], dtype=np.float64)
        for _ in range(self.iterations):
            padded = np.concatenate([data[:1], data, data[-1:]])
            data = (padded[:-2] + padded[1:-1] + padded[2:]) / 3.0
        return {"Out": data}

    def metrics(self, n: int, machine: ATGPUMachine) -> AlgorithmMetrics:
        b = machine.b
        blocks = ceil_div(n, b)
        rounds = []
        for iteration in range(self.iterations):
            rounds.append(RoundMetrics(
                time=5.0,
                # Segment read, two halo blocks, segment write.
                io_blocks=4.0 * blocks,
                inward_words=float(n) if iteration == 0 else 0.0,
                inward_transactions=1 if iteration == 0 else 0,
                outward_words=float(n) if iteration == self.iterations - 1 else 0.0,
                outward_transactions=1 if iteration == self.iterations - 1 else 0,
                global_words=2.0 * n,
                shared_words_per_mp=float(b + 2),
                thread_blocks=blocks,
                label=f"stencil iteration {iteration + 1}",
            ))
        return AlgorithmMetrics(rounds, name=self.name)

    def metrics_batch(self, ns, machine: ATGPUMachine) -> MetricsGrid:
        """Vectorized :meth:`metrics`: ``iterations`` rounds over a size vector.

        The round count is a fixed parameter (not size-dependent), so every
        round is present at every size; only the per-size columns vary.
        """
        sizes = size_vector(ns)
        b = machine.b
        blocks = ceil_div(sizes, b).astype(np.int64)
        n_sizes = len(sizes)
        rounds = []
        for iteration in range(self.iterations):
            rounds.append(round_arrays(
                n_sizes,
                time=5.0,
                # Segment read, two halo blocks, segment write.
                io_blocks=4.0 * blocks,
                inward_words=sizes.astype(float) if iteration == 0 else 0.0,
                inward_transactions=1 if iteration == 0 else 0,
                outward_words=(
                    sizes.astype(float)
                    if iteration == self.iterations - 1 else 0.0
                ),
                outward_transactions=(
                    1 if iteration == self.iterations - 1 else 0
                ),
                global_words=2.0 * sizes,
                shared_words_per_mp=float(b + 2),
                thread_blocks=blocks,
                label=f"stencil iteration {iteration + 1}",
            ))
        return metrics_grid(sizes, rounds, name=self.name)

    def build_pseudocode(self, n: int, machine: ATGPUMachine) -> Program:
        b = machine.b
        blocks = ceil_div(n, b)
        body = (
            GlobalToShared("_tile", "u", blocks_per_mp=3),
            SharedCompute("_out", "(_tile[j-1] + _tile[j] + _tile[j+1]) / 3",
                          operations=2),
            SharedToGlobal("v", "_out", blocks_per_mp=1),
        )
        rounds = []
        for iteration in range(self.iterations):
            rounds.append(Round(
                transfers_in=(TransferIn("u", "A", words=n),) if iteration == 0 else (),
                launches=(KernelLaunch(blocks, body,
                                       (shared_var("_tile", b + 2), shared_var("_out", b)),
                                       f"stencil iteration {iteration + 1}"),),
                transfers_out=(
                    (TransferOut("Out", "v", words=n),)
                    if iteration == self.iterations - 1 else ()
                ),
                label=f"stencil iteration {iteration + 1}",
            ))
        return Program(
            name="stencil-1d",
            variables=(
                host_var("A", n), host_var("Out", n),
                global_var("u", n), global_var("v", n),
                shared_var("_tile", b + 2), shared_var("_out", b),
            ),
            rounds=tuple(rounds),
            params={"n": float(n), "b": float(b)},
        )

    def run(self, device: GPUDevice, inputs: Dict[str, np.ndarray]) -> RunResult:
        a = np.asarray(inputs["A"], dtype=np.float64)
        n = a.size
        b = device.config.warp_width
        device.reset_timers()
        device.memcpy_htod("u", a)
        device.allocate("v", n, dtype=np.float64)
        src, dst = "u", "v"
        for iteration in range(self.iterations):
            kernel = StencilKernel(n, b, src=src, dst=dst)
            force = False if kernel.grid_size() > self._functional_limit else None
            device.launch(kernel, force_functional=force)
            device.synchronise(f"stencil iteration {iteration + 1}")
            src, dst = dst, src
        out = device.memcpy_dtoh(src)
        result = RunResult(
            outputs={"Out": out},
            total_time_s=device.total_time_s,
            kernel_time_s=device.kernel_time_s,
            transfer_time_s=device.transfer_time_s,
            sync_time_s=device.sync_time_s,
        )
        device.free("u")
        device.free("v")
        return result
