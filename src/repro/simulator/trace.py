"""Execution traces and counters produced by the simulator.

Every block execution yields a :class:`BlockTrace` -- the aggregate
counters of its warp-level instruction records.  Kernel
launches aggregate block traces into a :class:`KernelCounters`, and the
device keeps a :class:`Timeline` of launch / transfer / synchronisation
events so examples can print a CUDA-profiler-like account of a run.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple


class InstructionKind(enum.Enum):
    """Warp-level instruction categories recognised by the timing engine."""

    COMPUTE = "compute"
    GLOBAL_READ = "global_read"
    GLOBAL_WRITE = "global_write"
    SHARED_READ = "shared_read"
    SHARED_WRITE = "shared_write"
    BARRIER = "barrier"


@dataclass(frozen=True)
class InstructionRecord:
    """One warp-level instruction executed by a block.

    Parameters
    ----------
    kind:
        The instruction category.
    operations:
        Warp-instructions issued (compute instructions may bundle several).
    transactions:
        Global-memory block transactions generated (global accesses only).
    words:
        Words moved by the instruction.
    conflict_degree:
        Shared-memory bank-conflict serialisation degree (1 = conflict free).
    label:
        Optional human-readable tag (e.g. the source array name).
    """

    kind: InstructionKind
    operations: float = 0.0
    transactions: int = 0
    words: int = 0
    conflict_degree: int = 1
    label: str = ""


_SHARED_KINDS = (InstructionKind.SHARED_READ, InstructionKind.SHARED_WRITE)
_GLOBAL_KINDS = (InstructionKind.GLOBAL_READ, InstructionKind.GLOBAL_WRITE)


@dataclass
class BlockTrace:
    """Aggregate counters of the instructions one block executed.

    The aggregates are running totals, updated in record order by
    :meth:`append`, so reading them costs nothing however long the block
    ran.  The records themselves are not kept: a 1024-side matmul block
    issues thousands of them and nothing reads them back.
    """

    block_index: int
    shared_words_used: int = 0

    def __post_init__(self) -> None:
        # Integer starts, as the built-in sum() the totals replace has.
        self._instructions = 0
        self._compute_operations = 0
        self._shared_accesses = 0
        self._shared_conflict_sum = 0
        self._global_transactions = 0
        self._global_words = 0
        self._barriers = 0
        self._has_bank_conflicts = False

    def append(self, record: InstructionRecord) -> None:
        """Count one instruction record into the aggregates."""
        self._instructions += 1
        kind = record.kind
        if kind is InstructionKind.COMPUTE:
            self._compute_operations += record.operations
        elif kind in _SHARED_KINDS:
            self._shared_accesses += 1
            self._shared_conflict_sum += record.conflict_degree
            if record.conflict_degree > 1:
                self._has_bank_conflicts = True
        elif kind in _GLOBAL_KINDS:
            self._global_transactions += record.transactions
            self._global_words += record.words
        elif kind is InstructionKind.BARRIER:
            self._barriers += 1

    # ------------------------------------------------------------------ #
    # Aggregates consumed by the timing engine
    # ------------------------------------------------------------------ #
    @property
    def compute_operations(self) -> float:
        """Warp-instructions of arithmetic/control work."""
        return self._compute_operations

    @property
    def shared_accesses(self) -> int:
        """Number of shared-memory access instructions."""
        return self._shared_accesses

    @property
    def shared_conflict_cycles_factor(self) -> float:
        """Sum of conflict degrees over shared accesses (1 each if conflict free)."""
        return float(self._shared_conflict_sum)

    @property
    def global_transactions(self) -> int:
        """Global-memory block transactions issued by the block."""
        return self._global_transactions

    @property
    def global_words(self) -> int:
        """Words moved to/from global memory by the block."""
        return self._global_words

    @property
    def barriers(self) -> int:
        """Number of block-wide barriers executed."""
        return self._barriers

    @property
    def has_bank_conflicts(self) -> bool:
        """Whether any shared access serialised over banks."""
        return self._has_bank_conflicts

    def counters(self) -> Dict[str, float]:
        """Aggregate counters as a plain dictionary."""
        return {
            "compute_operations": self.compute_operations,
            "shared_accesses": float(self.shared_accesses),
            "global_transactions": float(self.global_transactions),
            "global_words": float(self.global_words),
            "barriers": float(self.barriers),
            "instructions": float(self._instructions),
            "shared_words_used": float(self.shared_words_used),
        }


@dataclass
class KernelCounters:
    """Aggregate counters of one kernel launch (all blocks)."""

    kernel_name: str
    num_blocks: int
    compute_operations: float = 0.0
    shared_accesses: float = 0.0
    global_transactions: float = 0.0
    global_words: float = 0.0
    barriers: float = 0.0
    bank_conflict_blocks: int = 0
    max_shared_words_per_block: int = 0

    @staticmethod
    def from_traces(
        kernel_name: str,
        traces_with_counts: Iterable[Tuple["BlockTrace", int]],
    ) -> "KernelCounters":
        """Aggregate (trace, multiplicity) pairs into kernel-level counters."""
        counters = KernelCounters(kernel_name=kernel_name, num_blocks=0)
        for trace, count in traces_with_counts:
            counters.num_blocks += count
            counters.compute_operations += trace.compute_operations * count
            counters.shared_accesses += trace.shared_accesses * count
            counters.global_transactions += trace.global_transactions * count
            counters.global_words += trace.global_words * count
            counters.barriers += trace.barriers * count
            if trace.has_bank_conflicts:
                counters.bank_conflict_blocks += count
            counters.max_shared_words_per_block = max(
                counters.max_shared_words_per_block, trace.shared_words_used
            )
        return counters


class EventKind(enum.Enum):
    """Timeline event categories."""

    TRANSFER_H2D = "transfer_h2d"
    TRANSFER_D2H = "transfer_d2h"
    KERNEL = "kernel"
    SYNC = "sync"


@dataclass(frozen=True)
class TimelineEvent:
    """One entry of the device timeline."""

    kind: EventKind
    name: str
    start_s: float
    duration_s: float
    details: str = ""

    @property
    def end_s(self) -> float:
        """End time of the event in seconds."""
        return self.start_s + self.duration_s


class Timeline:
    """Ordered record of everything the device did, with a running clock."""

    def __init__(self) -> None:
        self._events: List[TimelineEvent] = []
        self._clock_s = 0.0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._clock_s

    def record(self, kind: EventKind, name: str, duration_s: float,
               details: str = "") -> TimelineEvent:
        """Append an event of ``duration_s`` seconds starting at the current clock."""
        if duration_s < 0:
            raise ValueError("duration_s must be >= 0")
        event = TimelineEvent(
            kind=kind, name=name, start_s=self._clock_s,
            duration_s=duration_s, details=details,
        )
        self._events.append(event)
        self._clock_s += duration_s
        return event

    @property
    def events(self) -> Tuple[TimelineEvent, ...]:
        """All events in chronological order."""
        return tuple(self._events)

    def total_time(self, kind: Optional[EventKind] = None) -> float:
        """Sum of event durations, optionally restricted to one kind."""
        return sum(e.duration_s for e in self._events
                   if kind is None or e.kind is kind)

    def kernel_time(self) -> float:
        """Total time spent in kernel execution."""
        return self.total_time(EventKind.KERNEL)

    def transfer_time(self) -> float:
        """Total time spent in host↔device transfers (both directions)."""
        return (self.total_time(EventKind.TRANSFER_H2D)
                + self.total_time(EventKind.TRANSFER_D2H))

    def sync_time(self) -> float:
        """Total time spent in synchronisation overhead."""
        return self.total_time(EventKind.SYNC)

    def render(self) -> str:
        """Human-readable profiler-like rendering of the timeline."""
        lines = ["    start(ms)    dur(ms)  kind           name"]
        for event in self._events:
            lines.append(
                f"{event.start_s * 1e3:12.4f} {event.duration_s * 1e3:10.4f}  "
                f"{event.kind.value:<14} {event.name}"
                + (f"  [{event.details}]" if event.details else "")
            )
        return "\n".join(lines)
