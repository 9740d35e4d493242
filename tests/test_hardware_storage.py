"""Tests for the storage array, MM buffer, and machine runtime."""

import numpy as np
import pytest

from repro.errors import (
    CapacityError,
    ConfigurationError,
    OutOfMemoryError,
    SimulationError,
)
from repro.hardware.machine import MachineRuntime
from repro.hardware.memory import MainMemoryBuffer
from repro.hardware.specs import SSD_SPEC, GPUSpec, paper_workstation
from repro.hardware.storage import StorageArray
from repro.units import GB, KB, MB

from .reference_booking import book_kernel


class TestStorageArray:
    def test_mod_striping_default(self):
        array = StorageArray([SSD_SPEC, SSD_SPEC])
        assert array.device_for_page(0) == 0
        assert array.device_for_page(1) == 1
        assert array.device_for_page(2) == 0

    def test_custom_hash(self):
        array = StorageArray([SSD_SPEC, SSD_SPEC],
                             hash_function=lambda pid: 1)
        assert array.device_for_page(99) == 1

    def test_bad_hash_detected(self):
        array = StorageArray([SSD_SPEC], hash_function=lambda pid: 7)
        with pytest.raises(SimulationError):
            array.device_for_page(0)

    def test_needs_a_device(self):
        with pytest.raises(SimulationError):
            StorageArray([])

    def test_fetches_serialize_per_device(self):
        array = StorageArray([SSD_SPEC])
        _, end1 = array.fetch(0, 1 * MB, earliest=0.0)
        start2, _ = array.fetch(1, 1 * MB, earliest=0.0)
        assert start2 == end1

    def test_striped_fetches_overlap(self):
        array = StorageArray([SSD_SPEC, SSD_SPEC])
        start1, _ = array.fetch(0, 1 * MB, earliest=0.0)
        start2, _ = array.fetch(1, 1 * MB, earliest=0.0)
        assert start1 == start2 == 0.0

    def test_aggregate_bandwidth(self):
        array = StorageArray([SSD_SPEC, SSD_SPEC])
        assert array.aggregate_bandwidth() == 2 * SSD_SPEC.read_bandwidth

    def test_capacity_check(self):
        array = StorageArray([SSD_SPEC])
        with pytest.raises(CapacityError):
            array.check_fits(SSD_SPEC.capacity + 1)

    def test_counters(self):
        array = StorageArray([SSD_SPEC])
        array.fetch(0, 100, 0.0)
        array.fetch(1, 200, 0.0)
        assert array.pages_fetched == 2
        assert array.bytes_read == 300


class TestMainMemoryBuffer:
    def test_capacity_in_pages(self):
        buffer = MainMemoryBuffer(10 * KB, 2 * KB)
        assert buffer.capacity_pages == 5

    def test_lookup_miss_then_hit(self):
        buffer = MainMemoryBuffer(10 * KB, 2 * KB)
        assert not buffer.lookup_many(np.array([3]))[0]
        buffer.preload([3])
        assert buffer.lookup_many(np.array([3]))[0]
        assert buffer.hits == 1
        assert buffer.misses == 1

    def test_pin_policy_keeps_first_pages(self):
        buffer = MainMemoryBuffer(4 * KB, 2 * KB)
        buffer.preload([0])
        buffer.preload([1])
        buffer.preload([2])  # no space: passes through
        assert 0 in buffer
        assert 1 in buffer
        assert 2 not in buffer

    def test_unknown_policy_rejected(self):
        """Pinning is a constant, not a parameter."""
        for policy in ("pin", "lru"):
            with pytest.raises(TypeError):
                MainMemoryBuffer(4 * KB, 2 * KB, policy=policy)

    def test_preload_respects_capacity(self):
        buffer = MainMemoryBuffer(4 * KB, 2 * KB)
        assert buffer.preload(range(10)) == 2
        assert len(buffer) == 2

    @pytest.mark.parametrize("capacity_pages", [0, 3, 9, 10, 64],
                             ids="pin-{}".format)
    def test_bulk_preload_equals_the_page_loop(self, capacity_pages):
        """A bulk preload admits what admitting the ids one at a time
        would: same resident set, return value and counters — capacity
        below, at and above the page count, duplicate ids included, into
        an empty and a partly filled buffer."""

        def page_loop(buffer, page_ids):
            admitted = 0
            for page_id in page_ids:
                if len(buffer) >= buffer.capacity_pages:
                    break
                if page_id not in buffer:
                    buffer.preload([page_id])
                    admitted += 1
            return admitted

        for page_ids in (range(10), [4, 4, 1, 9, 1, 0, 7, 7, 2, 3, 5]):
            bulk, loop = (MainMemoryBuffer(capacity_pages * 2 * KB, 2 * KB)
                          for _ in range(2))
            def resident(buffer):
                return [pid for pid in range(16) if pid in buffer]

            assert bulk.preload(iter(page_ids)) == page_loop(loop, page_ids)
            assert resident(bulk) == resident(loop)
            assert (bulk.preload(np.arange(5, 15))
                    == page_loop(loop, range(5, 15)))
            assert resident(bulk) == resident(loop)
            assert len(bulk) == len(resident(bulk)) <= capacity_pages
            assert (bulk.hits, bulk.misses) == (0, 0)

    def test_zero_capacity_never_stores(self):
        buffer = MainMemoryBuffer(0, 2 * KB)
        buffer.preload([0])
        assert not buffer.lookup_many(np.array([0]))[0]

    def test_hit_rate(self):
        buffer = MainMemoryBuffer(4 * KB, 2 * KB)
        buffer.preload([0])
        buffer.lookup_many(np.array([0]))[0]
        buffer.lookup_many(np.array([1]))[0]
        assert buffer.hit_rate() == 0.5

    def test_page_size_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            MainMemoryBuffer(4 * KB, 0)


class TestMachineRuntime:
    def _runtime(self, **kwargs):
        spec = paper_workstation()
        return MachineRuntime(spec, page_bytes=1 * MB, **kwargs)

    def test_gpu_count(self):
        assert self._runtime().num_gpus == 2

    def test_stream_count_capped_at_32(self):
        runtime = self._runtime(num_streams=64)
        assert runtime.gpus[0].num_streams == 32

    def test_needs_a_stream(self):
        with pytest.raises(ConfigurationError):
            self._runtime(num_streams=0)

    def test_allocation_tracks_and_overflows(self):
        gpu = self._runtime().gpus[0]
        gpu.allocate(6 * GB, "WABuf")
        assert gpu.free_device_memory() == 6 * GB
        with pytest.raises(OutOfMemoryError):
            gpu.allocate(7 * GB, "cache")

    def test_oom_reports_sizes(self):
        gpu = self._runtime().gpus[0]
        with pytest.raises(OutOfMemoryError) as exc:
            gpu.allocate(13 * GB, "WABuf")
        assert exc.value.required_bytes == 13 * GB
        assert exc.value.available_bytes == 12 * GB

    def test_book_kernel_advances_slot_past_capacity(self):
        runtime = self._runtime(num_streams=2)
        gpu = runtime.gpus[0]
        slot = gpu.streams.slots[0]
        end = book_kernel(gpu, slot, 0.0, lane_steps=1e9,
                          cycles_per_lane_step=24.0)
        assert slot.available_at == end
        assert gpu.kernel_invocations == 1
        assert gpu.kernel_busy_time > 0

    def test_concurrent_kernels_bounded_by_device_capacity(self):
        """Two overlapping kernels cannot finish faster than their summed
        device-rate durations."""
        runtime = self._runtime(num_streams=2)
        gpu = runtime.gpus[0]
        steps = 1e9
        device_time = gpu.spec.kernel_device_time(steps, 24.0)
        end0 = book_kernel(gpu, gpu.streams.slots[0], 0.0, steps, 24.0)
        end1 = book_kernel(gpu, gpu.streams.slots[1], 0.0, steps, 24.0)
        assert max(end0, end1) >= 2 * device_time

    def test_barrier_advances_now(self):
        runtime = self._runtime()
        gpu = runtime.gpus[0]
        book_kernel(gpu, gpu.streams.slots[0], 0.0, 1e9, 24.0)
        runtime.barrier()
        assert runtime.now >= gpu.done_at()

    def test_mm_buffer_capped_by_main_memory(self):
        spec = paper_workstation(main_memory=1 * GB)
        runtime = MachineRuntime(spec, page_bytes=1 * MB,
                                 mm_buffer_bytes=100 * GB)
        assert runtime.mm_buffer.capacity_bytes == 1 * GB
