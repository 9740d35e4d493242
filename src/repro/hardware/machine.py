"""MachineRuntime: per-run resource timelines built from a MachineSpec.

Spec objects are immutable and reusable; a :class:`MachineRuntime` carries
the mutable simulation state for one engine run — copy-engine and stream
timelines per GPU, storage channels, the main-memory buffer — plus the
counters the result object reports.
"""

import numpy as np

from repro.errors import ConfigurationError
from repro.hardware.clock import Resource, SlotPool
from repro.hardware.memory import MainMemoryBuffer
from repro.hardware.storage import StorageArray


class GPURuntime:
    """Mutable per-run state of one GPU.

    ``recorder`` (a :class:`~repro.obs.events.TraceRecorder`) receives a
    structured ``kernel`` event for every invocation booked here; it is
    ``None`` on untraced runs, so the hot path pays one identity check.
    """

    def __init__(self, index, spec, num_streams, tracing=False,
                 recorder=None):
        self.index = index
        self.spec = spec
        self.recorder = recorder
        self.lane = "gpu%d" % index
        effective_streams = min(num_streams, spec.max_concurrent_streams)
        #: Host-to-device copies serialize on the copy engine (Section 3.2:
        #: transfer operations cannot overlap each other, only kernels).
        self.copy_engine = Resource("gpu%d:copy" % index, tracing=tracing)
        #: Each stream serializes its own (copy, kernel) sequence; kernels
        #: in different streams overlap.
        self.streams = SlotPool("gpu%d:stream" % index, effective_streams,
                                tracing=tracing)
        #: Aggregate compute capacity: however many kernels overlap, total
        #: device throughput cannot exceed ``effective_hz``.
        self.compute = Resource("gpu%d:compute" % index)
        self.kernel_invocations = 0
        self.kernel_busy_time = 0.0
        self.kernel_stream_time = 0.0
        self.bytes_received = 0
        self.allocated_bytes = 0

    @property
    def num_streams(self):
        return self.streams.num_slots

    def allocate(self, num_bytes, what):
        """Account a device-memory allocation; raises on exhaustion."""
        from repro.errors import OutOfMemoryError
        if self.allocated_bytes + num_bytes > self.spec.device_memory:
            raise OutOfMemoryError(
                "GPU %d cannot allocate %d bytes for %s "
                "(%d of %d bytes already allocated)"
                % (self.index, num_bytes, what, self.allocated_bytes,
                   self.spec.device_memory),
                required_bytes=self.allocated_bytes + num_bytes,
                available_bytes=self.spec.device_memory)
        self.allocated_bytes += num_bytes

    def free_device_memory(self):
        return self.spec.device_memory - self.allocated_bytes

    def book_kernel(self, slot, earliest, lane_steps, cycles_per_lane_step):
        """Book one kernel invocation; returns its completion time.

        The kernel is constrained twice: by its *stream* (serial within a
        stream, at the single-stream underutilised rate) and by the GPU's
        *aggregate compute capacity* (concurrent kernels cannot exceed the
        device's total throughput).  The completion time is the later of
        the two, and both timelines advance to it.
        """
        stream_duration = self.spec.kernel_stream_time(
            lane_steps, cycles_per_lane_step)
        device_duration = self.spec.kernel_device_time(
            lane_steps, cycles_per_lane_step)
        _, capacity_end = self.compute.book(earliest, device_duration)
        stream_start, stream_end = slot.book(earliest, stream_duration)
        end = max(capacity_end, stream_end)
        slot.available_at = end
        self.kernel_invocations += 1
        self.kernel_busy_time += device_duration
        self.kernel_stream_time += stream_duration
        if self.recorder is not None:
            # The emitted interval mirrors the stream-slot booking
            # exactly, so the ASCII renderer (which reads slot.events)
            # and the Chrome trace agree on busy fractions.
            self.recorder.interval(
                "kernel", self.lane, slot.name.split(":")[-1],
                stream_start, stream_end, lane_steps=lane_steps)
        return end

    def done_at(self):
        """Time when this GPU's queued work has fully drained."""
        return max(self.copy_engine.available_at, self.streams.all_done_at())

    def advance_to(self, time):
        """Move all of this GPU's timelines forward to a barrier time."""
        self.copy_engine.available_at = max(
            self.copy_engine.available_at, time)
        self.compute.available_at = max(self.compute.available_at, time)
        for slot in self.streams.slots:
            slot.available_at = max(slot.available_at, time)


class MachineRuntime:
    """All mutable simulation state for one engine run."""

    def __init__(self, spec, num_streams=16, page_bytes=None,
                 mm_buffer_bytes=None, tracing=False, recorder=None):
        if num_streams < 1:
            raise ConfigurationError("need at least one stream")
        self.spec = spec
        self.pcie = spec.pcie
        self.tracing = tracing
        #: Structured-event sink shared by every component of this run
        #: (None unless the engine was built with tracing on).
        self.recorder = recorder
        self.gpus = [GPURuntime(i, gpu_spec, num_streams, tracing=tracing,
                                recorder=recorder)
                     for i, gpu_spec in enumerate(spec.gpus)]
        self.storage = (StorageArray(spec.storages, recorder=recorder)
                        if spec.storages else None)
        #: On-storage size of one topology page (pages are fixed-size).
        self.page_bytes = page_bytes or 1
        buffer_bytes = (mm_buffer_bytes if mm_buffer_bytes is not None
                        else spec.main_memory)
        buffer_bytes = min(buffer_bytes, spec.main_memory)
        self.mm_buffer = MainMemoryBuffer(buffer_bytes, self.page_bytes,
                                          recorder=recorder)
        #: Serialized host-side staging: copies of WA back to main memory.
        self.host_bus = Resource("host:bus")
        self.now = 0.0

    @property
    def num_gpus(self):
        return len(self.gpus)

    def page_ready(self, page_ids, round_start):
        """Make a round's pages main-memory ready (Algorithm 1 lines
        18-19 / 23-24); returns ``(ready, from_buffer, from_storage)``.

        ``page_ids`` are the distinct pages some GPU has to stream this
        round, in dispatch order.  A page MMBuf holds is ready at
        ``round_start``; any other is read from its storage device,
        queued behind that channel's earlier reads, and then admitted.
        Readiness depends only on channel and buffer state — never on a
        GPU timeline — so a round resolves it before booking any copy;
        and since the buffer pins, admitting after all the lookups
        decides the same residency as interleaving them would.
        """
        page_ids = np.asarray(page_ids, dtype=np.int64)
        resident = self.mm_buffer.lookup_many(page_ids, ts=round_start)
        ready = np.full(len(page_ids), round_start, dtype=np.float64)
        missed = page_ids[~resident]
        if len(missed):
            ready[~resident] = self.storage.fetch_many(
                missed, self.page_bytes, round_start)
            self.mm_buffer.preload(missed.tolist())
        return ready, len(page_ids) - len(missed), len(missed)

    def barrier(self):
        """Global synchronisation: advance ``now`` past all queued work."""
        done = max(gpu.done_at() for gpu in self.gpus)
        if self.storage is not None:
            done = max(done, max(
                ch.available_at for ch in self.storage.channels))
        done = max(done, self.host_bus.available_at)
        self.now = max(self.now, done)
        for gpu in self.gpus:
            gpu.advance_to(self.now)
        return self.now
