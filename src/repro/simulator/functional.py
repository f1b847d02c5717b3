"""Fully functional block-by-block execution of kernel programs.

:meth:`FunctionalEngine.execute_all` executes *every* block of a kernel
through a :class:`~repro.simulator.kernel.BlockContext`, so data movement
really happens and the complete set of block traces is available for
timing.  It is the reference executor: the scalar
:class:`~repro.simulator.device.GPUDevice` uses it for grids up to its
functional block limit, and the test suite uses it as the oracle.

:meth:`FunctionalEngine.execute_sampled` executes one block per class of
the kernel's :meth:`~repro.simulator.kernel.KernelProgram.representative_blocks`.
The scalar device uses it for larger grids; the batched probe
(:class:`~repro.simulator.batch.ProbeDevice`) uses it at every grid size for
algorithms whose traces do not depend on input values, where the classes
are exact by contract (``tests/test_sim_blocks.py`` checks them against
``execute_all``).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.simulator.config import DeviceConfig
from repro.simulator.kernel import BlockContext, KernelProgram
from repro.simulator.memory import DeviceArray, GlobalMemory
from repro.simulator.trace import BlockTrace


class FunctionalEngine:
    """Executes kernels block by block with real data movement."""

    def __init__(self, config: DeviceConfig, global_memory: GlobalMemory) -> None:
        self.config = config
        self.global_memory = global_memory

    def _arrays_for(self, kernel: KernelProgram) -> Dict[str, DeviceArray]:
        return {name: self.global_memory.get(name) for name in kernel.array_names()}

    def execute_block(self, kernel: KernelProgram, block_index: int) -> BlockTrace:
        """Execute a single block and return its trace."""
        if not 0 <= block_index < kernel.grid_size():
            raise ValueError(
                f"block_index {block_index} outside grid of {kernel.grid_size()} blocks"
            )
        ctx = BlockContext(
            block_index=block_index,
            num_blocks=kernel.grid_size(),
            config=self.config,
            global_memory=self.global_memory,
            arrays=self._arrays_for(kernel),
        )
        kernel.run_block(ctx)
        return ctx.trace

    def execute_all(self, kernel: KernelProgram) -> List[BlockTrace]:
        """Execute every block of the kernel in block-index order."""
        kernel.validate(self.global_memory)
        return [
            self.execute_block(kernel, block_index)
            for block_index in range(kernel.grid_size())
        ]

    def execute_sampled(
        self, kernel: KernelProgram
    ) -> Tuple[List[Tuple[BlockTrace, int]], bool]:
        """Trace one block per class of the kernel's representative blocks.

        Returns ``(trace, multiplicity)`` pairs, one per run of blocks in
        block order, and a flag saying whether the kernel's vectorised
        fallback must be applied to obtain functional results (always
        ``True`` for this method: sampled execution does not perform the
        work of the untraced blocks).  Each representative must lie inside
        its run; that every block of the run has the representative's trace
        aggregates is the kernel's contract (see
        :meth:`KernelProgram.representative_blocks`).
        """
        kernel.validate(self.global_memory)
        grid = kernel.grid_size()
        pairs: List[Tuple[BlockTrace, int]] = []
        covered = 0
        for block_index, multiplicity in kernel.representative_blocks():
            if not covered <= block_index < covered + multiplicity:
                raise ValueError(
                    f"representative block {block_index} of kernel "
                    f"{kernel.name!r} lies outside its run of blocks "
                    f"[{covered}, {covered + multiplicity})"
                )
            if block_index >= grid:
                raise ValueError(
                    f"representative block {block_index} outside grid of {grid}"
                )
            trace = self.execute_block(kernel, block_index)
            pairs.append((trace, multiplicity))
            covered += multiplicity
        if covered != grid:
            raise ValueError(
                f"representative blocks of kernel {kernel.name!r} cover "
                f"{covered} blocks but the grid has {grid}"
            )
        return pairs, True
