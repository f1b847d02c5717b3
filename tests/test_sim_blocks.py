"""Exactness of the simulator's warp-pattern memo and block-class execution.

The batched probe (:class:`~repro.simulator.batch.ProbeDevice`) runs one
block per class of ``KernelProgram.representative_blocks`` for algorithms
whose traces ignore input values, and the warp analyses of
:mod:`repro.simulator.memory` answer from a memo keyed on the shifted
pattern.  Both are bit-for-bit claims, checked here against their oracles:
a direct ``np.unique`` computation and ``FunctionalEngine.execute_all``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.algorithms import create
from repro.experiments import Session
from repro.experiments.spec import paper_specs
from repro.simulator.batch import ProbeDevice
from repro.simulator.config import DeviceConfig
from repro.simulator.device import GPUDevice
from repro.simulator.errors import InvalidAccessError
from repro.simulator.functional import FunctionalEngine
from repro.simulator.memory import bank_conflict_degree, coalesced_transactions

CONFIGS = {
    "gtx650": DeviceConfig.gtx650,
    "tesla_k40": DeviceConfig.tesla_k40,
    "tiny": DeviceConfig.tiny_test_device,
    "lanes48": lambda: DeviceConfig.gtx650().with_overrides(warp_width=48),
}

#: Algorithms with ``sim_trace_data_dependent = False``.
DATA_INDEPENDENT = [
    "vector_addition",
    "reduction",
    "prefix_sum",
    "stencil_1d",
    "matrix_multiplication",
]

#: Every kernel those algorithms launch, by class name; the SIM001 lint
#: rule requires a kernel overriding ``representative_blocks`` in their
#: modules to be named here.
CLASS_PARITY_KERNELS = {
    "VectorAdditionKernel",
    "ReductionRoundKernel",
    "BlockScanKernel",
    "AddOffsetsKernel",
    "StencilKernel",
    "MatrixMultiplicationKernel",
}


def direct_transactions(addresses, width):
    return int(np.unique(np.asarray(addresses) // width).size)


def direct_conflict_degree(addresses, width):
    distinct = np.unique(np.asarray(addresses))
    _, counts = np.unique(distinct % width, return_counts=True)
    return int(counts.max())


# --------------------------------------------------------------------- #
# (a) the warp-pattern memo
# --------------------------------------------------------------------- #
widths = st.sampled_from([4, 32, 48])


@st.composite
def warp_patterns(draw):
    width = draw(widths)
    lanes = draw(st.integers(1, width))
    # A narrow value range makes duplicate lanes common.
    pattern = draw(st.lists(st.integers(0, 3 * width), min_size=lanes,
                            max_size=lanes))
    shift = draw(st.integers(0, 1 << 20))  # mostly not block-aligned
    return np.array(pattern, dtype=np.int64) + shift, width


class TestWarpPatternMemo:
    @settings(max_examples=200, deadline=None)
    @given(warp_patterns())
    @example((np.array([7], dtype=np.int64), 32))
    @example((np.array([5, 5, 5, 5], dtype=np.int64), 4))
    @example((np.arange(48, dtype=np.int64) + 17, 48))
    def test_memo_equals_direct_unique(self, case):
        addresses, width = case
        assert coalesced_transactions(addresses, width) == direct_transactions(
            addresses, width
        )
        assert bank_conflict_degree(addresses, width) == direct_conflict_degree(
            addresses, width
        )
        # Repeating the query (now a memo hit) and narrower dtypes agree.
        narrow = addresses.astype(np.int32)
        assert coalesced_transactions(narrow, width) == direct_transactions(
            addresses, width
        )
        assert bank_conflict_degree(narrow, width) == direct_conflict_degree(
            addresses, width
        )

    @settings(max_examples=50, deadline=None)
    @given(warp_patterns())
    def test_negative_addresses_raise_after_the_pattern_is_cached(self, case):
        addresses, width = case
        coalesced_transactions(addresses, width)
        bank_conflict_degree(addresses, width)
        # Shifting by whole blocks to a negative minimum leaves the
        # normalized pattern, and so the memo key, unchanged.
        rows = int(addresses.min()) // width + 1
        negative = addresses - rows * width
        assert negative.min() < 0
        with pytest.raises(InvalidAccessError):
            coalesced_transactions(negative, width)
        with pytest.raises(InvalidAccessError):
            bank_conflict_degree(negative, width)

    def test_empty_pattern_and_bad_width(self):
        empty = np.array([], dtype=np.int64)
        assert coalesced_transactions(empty, 32) == 0
        assert bank_conflict_degree(empty, 32) == 1
        with pytest.raises(ValueError):
            coalesced_transactions(np.array([1]), 0)
        with pytest.raises(ValueError):
            bank_conflict_degree(np.array([1]), 0)


# --------------------------------------------------------------------- #
# (b) class execution == execute_all, kernel by kernel
# --------------------------------------------------------------------- #
def block_aggregates(trace, engine):
    """Everything the timing model reads from one block trace."""
    return (
        engine.block_issue_cycles(trace),
        engine.block_latency_cycles(trace),
        trace.global_words,
        trace.shared_words_used,
        trace.has_bank_conflicts,
    )


class ClassCheckingDevice(GPUDevice):
    """Compares the class traces with ``execute_all`` on every launch."""

    def __init__(self, config):
        super().__init__(config)
        self.kernels = set()

    def launch(self, kernel, force_functional=None):
        engine = self.timing_engine
        pairs, _ = self.functional_engine.execute_sampled(kernel)
        by_class = [
            block_aggregates(trace, engine)
            for trace, run in pairs
            for _ in range(run)
        ]
        by_block = [
            block_aggregates(trace, engine)
            for trace in self.functional_engine.execute_all(kernel)
        ]
        assert by_class == by_block, type(kernel).__name__
        self.kernels.add(type(kernel).__name__)
        return super().launch(kernel, force_functional=force_functional)


def class_parity_sizes(name, config):
    b = config.warp_width
    if name == "matrix_multiplication":
        return st.sampled_from([1, 2, 3, b - 1, b, 2 * b, 3 * b])
    return st.one_of(
        st.integers(1, 40 * b),
        st.sampled_from([1, 2, 3, 31, 97, 1009]),  # primes
        st.integers(1, 30).map(lambda k: k * b + 1),  # one-lane ragged tail
    )


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("name", DATA_INDEPENDENT)
def test_class_execution_equals_execute_all_bitwise(name, config_name):
    config = CONFIGS[config_name]()
    algorithm = create(name)
    seen = set()

    @settings(max_examples=12, deadline=None)
    @given(class_parity_sizes(name, config))
    @example(1)
    def check(n):
        device = ClassCheckingDevice(config)
        algorithm.run(device, algorithm.sim_inputs(n))
        seen.update(device.kernels)
        # ... and the probe's kernel totals give the scalar timings.
        scalar = algorithm.observe_sweep([n], config=config, path="scalar")
        batch = algorithm.observe_sweep([n], config=config, path="batch")
        assert batch.total_times == scalar.total_times
        assert batch.kernel_times == scalar.kernel_times

    check()
    assert seen <= CLASS_PARITY_KERNELS


def test_every_named_kernel_is_exercised():
    config = DeviceConfig.gtx650()
    seen = set()
    for name in DATA_INDEPENDENT:
        algorithm = create(name)
        device = ClassCheckingDevice(config)
        algorithm.run(device, algorithm.sim_inputs(64))
        seen |= device.kernels
    assert seen == CLASS_PARITY_KERNELS


# --------------------------------------------------------------------- #
# (c) the paper probe interprets at most two blocks per launch
# --------------------------------------------------------------------- #
def test_paper_probe_interprets_at_most_two_blocks_per_launch(monkeypatch):
    blocks = []
    launches = []
    execute_block = FunctionalEngine.execute_block
    probe_launch = ProbeDevice.launch

    def counting_block(self, kernel, block_index):
        blocks.append(block_index)
        return execute_block(self, kernel, block_index)

    def counting_launch(self, kernel, force_functional=None):
        before = len(blocks)
        out = probe_launch(self, kernel, force_functional=force_functional)
        launches.append(len(blocks) - before)
        return out

    def no_execute_all(self, kernel):
        raise AssertionError("the probe ran a grid block by block")

    monkeypatch.setattr(FunctionalEngine, "execute_block", counting_block)
    monkeypatch.setattr(FunctionalEngine, "execute_all", no_execute_all)
    monkeypatch.setattr(ProbeDevice, "launch", counting_launch)
    results = Session().run_many(paper_specs())
    assert len(results) == 3
    assert launches and max(launches) <= 2
    assert len(blocks) == sum(launches)


def test_representative_outside_its_run_is_rejected():
    from repro.algorithms import VectorAdditionKernel

    class Reordered(VectorAdditionKernel):
        def representative_blocks(self):
            grid = self.grid_size()
            return [(grid - 1, 1), (0, grid - 1)]

    device = GPUDevice(DeviceConfig.gtx650())
    kernel = Reordered(100, 32)
    for name in kernel.array_names():
        device.allocate(name, 100)
    with pytest.raises(ValueError, match="outside its run"):
        device.functional_engine.execute_sampled(kernel)
