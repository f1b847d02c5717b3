"""Kernel programs and the warp-level block execution context.

A :class:`KernelProgram` describes one kernel launch of the abstract model:
a grid of warp-wide thread blocks, each executing the same
:meth:`KernelProgram.run_block` body in lockstep on ``b`` lanes.  The body
manipulates data exclusively through a :class:`BlockContext`, which

* performs the actual data movement (so functional execution produces real
  results),
* counts warp-level instructions (global/shared accesses with their
  coalescing / bank-conflict behaviour, compute instructions, barriers) into
  an :class:`~repro.simulator.trace.BlockTrace` for the timing engine, and
* enforces the shared-memory capacity limit ``M``.

Kernels whose grids are too large to execute block-by-block in pure Python
may additionally provide :meth:`KernelProgram.vectorised_result`, a NumPy
implementation of the same semantics used by the device to fill in the
functional results when it falls back to trace-sampling (see
:class:`repro.simulator.device.GPUDevice`).  Trace sampling relies on
:meth:`KernelProgram.representative_blocks`, which partitions the grid into
exact classes of blocks with equal trace aggregates; the batched probe
uses those classes at every grid size.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.simulator.config import DeviceConfig
from repro.simulator.errors import LaunchError
from repro.simulator.memory import (
    DeviceArray,
    GlobalMemory,
    SharedMemory,
    bank_conflict_degree,
    coalesced_transactions,
)
from repro.simulator.trace import BlockTrace, InstructionKind, InstructionRecord


class BlockContext:
    """Execution context of one warp-wide thread block.

    All methods operate at warp granularity: index arguments are arrays with
    one entry per active lane (shorter arrays simply mean fewer active
    lanes, e.g. a ragged final block).
    """

    def __init__(
        self,
        block_index: int,
        num_blocks: int,
        config: DeviceConfig,
        global_memory: GlobalMemory,
        arrays: Dict[str, DeviceArray],
    ) -> None:
        self.block_index = block_index
        self.num_blocks = num_blocks
        self.config = config
        self._global_memory = global_memory
        self._arrays = arrays
        self._shared = SharedMemory(
            capacity_words=config.shared_memory_words,
            num_banks=config.warp_width,
        )
        self.trace = BlockTrace(block_index=block_index)

    # ------------------------------------------------------------------ #
    # Lane helpers
    # ------------------------------------------------------------------ #
    @property
    def warp_width(self) -> int:
        """Number of lanes (cores) in the block."""
        return self.config.warp_width

    @property
    def lanes(self) -> np.ndarray:
        """Lane indices ``0 .. b-1`` (the ``j`` of ``c_{i,j}`` in the paper)."""
        return np.arange(self.config.warp_width, dtype=np.int64)

    def global_thread_ids(self) -> np.ndarray:
        """Global thread indices ``block_index * b + lane``."""
        return self.block_index * self.config.warp_width + self.lanes

    # ------------------------------------------------------------------ #
    # Device array lookup
    # ------------------------------------------------------------------ #
    def array(self, name: str) -> DeviceArray:
        """Look up a kernel-argument device array by name."""
        try:
            return self._arrays[name]
        except KeyError as exc:
            raise LaunchError(
                f"kernel block referenced unknown device array {name!r}; "
                f"available arrays: {sorted(self._arrays)}"
            ) from exc

    # ------------------------------------------------------------------ #
    # Global memory (the ``⇐`` operator)
    # ------------------------------------------------------------------ #
    def global_read(self, name: str, indices: np.ndarray) -> np.ndarray:
        """Warp-wide read of ``name[indices]`` from global memory."""
        array, idx = self._global_access(InstructionKind.GLOBAL_READ, name, indices)
        return array.data[idx]

    def global_write(self, name: str, indices: np.ndarray, values: np.ndarray) -> None:
        """Warp-wide write of ``values`` to ``name[indices]`` in global memory."""
        array, idx = self._global_access(InstructionKind.GLOBAL_WRITE, name, indices)
        array.scatter(idx, values)

    def _global_access(
        self, kind: InstructionKind, name: str, indices: np.ndarray
    ) -> Tuple[DeviceArray, np.ndarray]:
        """Bounds-check one warp access once and record its transactions."""
        array = self.array(name)
        idx = np.asarray(indices, dtype=np.int64)
        addresses = array.global_addresses(idx)
        self.trace.append(InstructionRecord(
            kind=kind,
            transactions=coalesced_transactions(
                addresses, self._global_memory.words_per_block
            ),
            words=int(idx.size),
            label=name,
        ))
        return array, idx

    # ------------------------------------------------------------------ #
    # Shared memory (the ``←`` operator)
    # ------------------------------------------------------------------ #
    def shared_alloc(self, name: str, length: int, dtype: np.dtype = np.float64) -> np.ndarray:
        """Allocate a per-block shared array of ``length`` words."""
        data = self._shared.allocate(name, length, dtype=dtype)
        self.trace.shared_words_used = self._shared.used_words
        return data

    def shared_read(self, name: str, indices: np.ndarray) -> np.ndarray:
        """Warp-wide read from a shared array."""
        idx = np.asarray(indices, dtype=np.int64)
        degree = self._shared.conflict_degree(name, idx)
        self.trace.append(InstructionRecord(
            kind=InstructionKind.SHARED_READ,
            words=int(idx.size),
            conflict_degree=degree,
            label=name,
        ))
        return self._shared.get(name)[idx]

    def shared_write(self, name: str, indices: np.ndarray, values: np.ndarray) -> None:
        """Warp-wide write to a shared array."""
        idx = np.asarray(indices, dtype=np.int64)
        degree = self._shared.conflict_degree(name, idx)
        self.trace.append(InstructionRecord(
            kind=InstructionKind.SHARED_WRITE,
            words=int(idx.size),
            conflict_degree=degree,
            label=name,
        ))
        self._shared.get(name)[idx] = values

    # ------------------------------------------------------------------ #
    # Compute, divergence and synchronisation
    # ------------------------------------------------------------------ #
    def compute(self, operations: float = 1.0, label: str = "") -> None:
        """Charge ``operations`` warp-wide arithmetic/control instructions."""
        if operations < 0:
            raise ValueError("operations must be >= 0")
        self.trace.append(InstructionRecord(
            kind=InstructionKind.COMPUTE, operations=float(operations), label=label,
        ))

    def diverge(self, path_operations: Sequence[float], label: str = "divergent branch") -> None:
        """Charge a divergent branch: *all* paths are executed (Section II).

        ``path_operations`` gives the warp-instruction count of each branch
        path; the charge is their sum, reflecting the model's rule that when
        execution paths diverge every path is executed by the lockstep warp.
        """
        total = float(sum(path_operations))
        if total < 0:
            raise ValueError("path operation counts must be >= 0")
        self.compute(total, label=label)

    def barrier(self) -> None:
        """Block-wide barrier (warps of the block synchronise)."""
        self.trace.append(InstructionRecord(kind=InstructionKind.BARRIER))

    @property
    def shared_words_used(self) -> int:
        """Shared-memory words currently allocated by this block."""
        return self._shared.used_words


class KernelProgram(abc.ABC):
    """One kernel launch of the abstract model.

    Subclasses describe a concrete kernel: its grid size, the device arrays
    it expects, its per-block body, and (optionally) a vectorised NumPy
    fallback for large grids.
    """

    #: Human-readable kernel name, used in timelines and reports.
    name: str = "kernel"

    @abc.abstractmethod
    def grid_size(self) -> int:
        """Number of thread blocks launched."""

    @abc.abstractmethod
    def array_names(self) -> Tuple[str, ...]:
        """Names of the device arrays the kernel body references."""

    @abc.abstractmethod
    def run_block(self, ctx: BlockContext) -> None:
        """Execute one block's work through ``ctx`` (lockstep warp semantics)."""

    # ------------------------------------------------------------------ #
    # Optional hooks
    # ------------------------------------------------------------------ #
    def shared_words_per_block(self) -> int:
        """Shared-memory words each block allocates (for occupancy).

        The default traces nothing and returns 0; kernels that allocate
        shared memory should override (or rely on the traced value, which the
        device uses when available).
        """
        return 0

    def representative_blocks(self) -> Sequence[Tuple[int, int]]:
        """Exact classes of blocks: one block to trace per class.

        Returns ``(block_index, multiplicity)`` pairs that split the grid
        into consecutive runs in block order: pair ``k`` stands for the
        ``multiplicity`` blocks after those of the earlier pairs, and
        ``block_index`` is one of them.  For kernels of algorithms whose
        traces ignore input values the contract is exactness: every block
        of a run has the same trace aggregates (compute operations, shared
        conflict degrees, barriers, global transactions and words, shared
        footprint) as its representative.  The batched probe relies on it
        at every grid size, so such an override must be checked against
        :meth:`~repro.simulator.functional.FunctionalEngine.execute_all`
        (lint ``SIM001``); for data-dependent kernels the classes are the
        sample the scalar device times grids over its functional limit
        with.  The default assumes a structurally uniform grid whose last
        block may be ragged: one run for all blocks but the last, traced at
        block 0, and the last block on its own.
        """
        grid = self.grid_size()
        if grid <= 2:
            return [(i, 1) for i in range(grid)]
        return [(0, grid - 1), (grid - 1, 1)]

    def vectorised_result(self, arrays: Dict[str, DeviceArray]) -> None:
        """Apply the kernel's semantics to the device arrays with NumPy.

        Used by the device when it skips full functional execution for very
        large grids.  The default raises, forcing small-grid execution.
        """
        raise NotImplementedError(
            f"kernel {self.name!r} provides no vectorised fallback; "
            "reduce the grid size or raise functional_block_limit"
        )

    def validate(self, global_memory: GlobalMemory) -> None:
        """Check the launch is well-formed against the device's global memory."""
        if self.grid_size() <= 0:
            raise LaunchError(f"kernel {self.name!r} launched with an empty grid")
        missing = [n for n in self.array_names() if n not in global_memory]
        if missing:
            raise LaunchError(
                f"kernel {self.name!r} requires device arrays {missing} "
                "which are not allocated"
            )
