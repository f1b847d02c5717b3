"""Valueless probe memory: offsets without storage, checks without values.

For data-independent algorithms the batched probe's global memory hands out
:class:`~repro.simulator.memory.ValuelessDeviceArray` s: the allocator is
the same first-fit one (so coalescing offsets are unchanged) but the
storage is a read-only zero-stride view.  These tests pin the contract:
the same offsets and the same typed errors as real arrays, real storage
kept for data-dependent algorithms, and a traced probe allocation that
does not grow with the sweep size.
"""

import tracemalloc

import numpy as np
import pytest

from repro.algorithms import create
from repro.simulator.batch import ProbeDevice
from repro.simulator.config import DeviceConfig
from repro.simulator.errors import InvalidAccessError
from repro.simulator.kernel import BlockContext
from repro.simulator.memory import (
    DeviceArray,
    GlobalMemory,
    ValuelessDeviceArray,
    valueless_array,
)


def _memories():
    """A real and a valueless global memory of the same geometry."""
    return GlobalMemory(1024, 32), GlobalMemory(1024, 32, valueless=True)


def _raised(action):
    """``(type, message)`` of the exception ``action`` raises."""
    with pytest.raises(Exception) as info:
        action()
    return type(info.value), str(info.value)


class TestValuelessArrays:
    def test_same_offsets_as_real_allocator(self):
        real, valueless = _memories()
        for memory in (real, valueless):
            memory.allocate("a", 100, dtype=np.int64)
            memory.allocate("b", 37, dtype=np.float64)
            memory.free("a")
            memory.allocate("c", 60, dtype=np.int64)
            memory.allocate("d", 50, dtype=np.int64)
        for name in ("b", "c", "d"):
            assert valueless.get(name).offset == real.get(name).offset
            assert valueless.get(name).length == real.get(name).length
        assert valueless.used_words == real.used_words

    def test_storage_is_one_read_only_element(self):
        _, memory = _memories()
        array = memory.allocate("a", 1000, dtype=np.int64)
        assert isinstance(array, ValuelessDeviceArray)
        assert array.data.shape == (1000,) and array.data.dtype == np.int64
        assert array.data.strides == (0,)
        assert not array.data.flags.writeable
        assert np.array_equal(array.read(np.arange(32)), np.zeros(32))

    def test_writes_are_dropped(self):
        _, memory = _memories()
        array = memory.allocate("a", 64, dtype=np.int64)
        array.write(np.arange(8), np.arange(8) + 1)
        assert np.array_equal(array.read(np.arange(8)), np.zeros(8))
        assert array.to_host() is array.data

    @pytest.mark.parametrize("index", [64, 1000, -1])
    def test_out_of_range_write_same_typed_error(self, index):
        errors = []
        for memory in _memories():
            array = memory.allocate("a", 64, dtype=np.int64)
            errors.append(_raised(
                lambda: array.write(np.array([0, index]), np.array([1, 2]))
            ))
        assert errors[0] == errors[1]
        assert errors[0][0] is InvalidAccessError

    def test_shape_mismatch_same_error(self):
        errors = []
        for memory in _memories():
            array = memory.allocate("a", 64, dtype=np.int64)
            errors.append(_raised(
                lambda: array.write(np.arange(4), np.arange(3))
            ))
        assert errors[0] == errors[1]
        assert errors[0][0] is ValueError

    def test_block_context_paths_match(self):
        # The warp-level write runs the bounds check once, then the store:
        # both memories fail the same way at either step.
        config = DeviceConfig.tiny_test_device()
        outcomes = []
        for memory in _memories():
            arrays = {"a": memory.allocate("a", 64, dtype=np.int64)}
            ctx = BlockContext(0, 1, config, memory, arrays)
            outcomes.append((
                _raised(lambda: ctx.global_write("a", np.array([64]), np.array([1]))),
                _raised(lambda: ctx.global_read("a", np.array([-1]))),
                _raised(lambda: ctx.global_write("a", np.arange(4), np.arange(3))),
            ))
            # Only the shape-mismatched write reached the trace.
            assert ctx.trace.counters()["instructions"] == 1
        assert outcomes[0] == outcomes[1]

    def test_valueless_array_stand_in(self):
        stand_in = valueless_array((512, 512), np.float64)
        assert stand_in.shape == (512, 512) and stand_in.dtype == np.float64
        assert stand_in.base.nbytes == 8
        assert not stand_in.flags.writeable
        # The probe's host programs reshape and re-view it without copying.
        assert np.shares_memory(stand_in.reshape(-1), stand_in)
        assert np.shares_memory(np.asarray(stand_in, dtype=np.float64), stand_in)


class TestProbeStorage:
    def test_data_independent_probe_is_valueless(self):
        device = ProbeDevice(DeviceConfig.tiny_test_device(), data_dependent=False)
        device.memcpy_htod("a", valueless_array(100, np.int64))
        assert isinstance(device.array("a"), ValuelessDeviceArray)

    @pytest.mark.parametrize("name", ["histogram", "spmv"])
    def test_data_dependent_probe_keeps_real_storage(self, name):
        algorithm = create(name)
        assert algorithm.sim_trace_data_dependent
        device = ProbeDevice(DeviceConfig.tiny_test_device(), data_dependent=True)
        device.memcpy_htod("probe", np.arange(10))
        assert type(device.array("probe")) is DeviceArray
        device.free("probe")
        # Real storage means the probe computes the real answer.
        inputs = algorithm.generate_input(200, seed=3)
        outputs = algorithm.run(device, inputs).outputs
        for key, expected in algorithm.reference(inputs).items():
            assert np.allclose(outputs[key], expected)

    @pytest.mark.parametrize("name", ["histogram", "spmv"])
    def test_data_dependent_parity(self, name):
        algorithm = create(name)
        sizes = [33, 200]
        scalar = algorithm.observe_sweep(sizes, path="scalar")
        batch = algorithm.observe_sweep(sizes, path="batch")
        assert batch.total_times == scalar.total_times
        assert batch.kernel_times == scalar.kernel_times
        assert batch.transfer_times == scalar.transfer_times


#: Traced-allocation budget of one batched observation.  Sweep-sized
#: buffers at the large sizes below are 8 MB (one 1024² float64 matrix)
#: to 512 MB (a 2^26-word int64 input), so any one of them breaks it.
PEAK_BUDGET_BYTES = 2 * 1024 * 1024

#: How much more the large size's peak may trace than the small size's.
#: Keeping one record per warp instruction would cost a 1024-side matmul
#: block ~1 MB over a 64-side one.
GROWTH_MARGIN_BYTES = 64 * 1024

#: (algorithm, small size, large size, bytes of one sweep-sized buffer)
MEMORY_CASES = [
    ("vector_addition", 100_000, 10_000_000, 8 * 10_000_000),
    ("reduction", 1 << 16, 1 << 26, 8 * (1 << 26)),
    ("matrix_multiplication", 64, 1024, 8 * 1024 * 1024),
]


def _traced_peak(observe) -> int:
    """Peak traced bytes of one call, after a warm-up call (imports, memos)."""
    observe()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        observe()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _observers(algorithm):
    """The batched sweep observations ``algorithm`` supports, by mode."""
    modes = {"sweep": algorithm.observe_sweep}
    if algorithm.supports_sim_stream_plan:
        modes["streamed"] = algorithm.observe_streamed_sweep
    if algorithm.supports_sim_shard_plan:
        modes["sharded"] = algorithm.observe_sharded_sweep
    return modes


class TestProbeAllocation:
    @pytest.mark.parametrize("name,small,large,buffer_bytes", MEMORY_CASES)
    def test_peak_independent_of_sweep_size(self, name, small, large, buffer_bytes):
        algorithm = create(name)
        assert buffer_bytes >= 4 * PEAK_BUDGET_BYTES
        for mode, observe in _observers(algorithm).items():
            peaks = {}
            for n in (small, large):
                peaks[n] = _traced_peak(lambda: observe([n], path="batch"))
                assert peaks[n] <= PEAK_BUDGET_BYTES, (mode, n, peaks[n])
            assert peaks[large] <= peaks[small] + GROWTH_MARGIN_BYTES, (
                mode, peaks
            )
