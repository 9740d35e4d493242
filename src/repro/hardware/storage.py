"""Secondary storage: SSD/HDD devices with hash-striped page placement.

Section 4.1: GTS stores page ``SP_j`` on device ``g(j)`` where ``g`` is a
hash of the page ID (the mod function by default), and fetches pages from
their device on demand.  Each device serializes its own reads; striping
across devices multiplies aggregate fetch bandwidth, which is why two SSDs
beat one in Figure 9.

Fault model (:mod:`repro.faults`): when a run installs a
:class:`~repro.faults.FaultInjector` (``fault_injector`` attribute, set
per run by the engine), every fetch consults it.  A *transient* read
error costs the failed read plus an exponential backoff — both booked as
real time on the device channel, so recovery delays everything queued
behind it.  A *corrupt* read completes but fails checksum verification
and is re-fetched.  Either class exhausting the retry budget raises
:class:`~repro.errors.RetryExhaustedError`; a fetch addressed to a
device the plan has killed raises :class:`~repro.errors.DeviceLostError`
(a dead SSD takes its stripe of pages with it — unrecoverable).
"""

import numpy as np

from repro.errors import (CapacityError, DeviceLostError,
                          RetryExhaustedError, SimulationError)
from repro.faults.inject import READ_CORRUPT, READ_OK
from repro.hardware.clock import Resource


class StorageArray:
    """A set of storage devices with pages striped across them."""

    def __init__(self, specs, hash_function=None, recorder=None):
        if not specs:
            raise SimulationError("storage array needs at least one device")
        self.specs = list(specs)
        self.channels = [Resource("storage:%s" % spec.name) for spec in specs]
        self._hash = hash_function or (lambda pid: pid % len(self.specs))
        #: True when pages stripe with the default mod function, which
        #: :meth:`fetch_many` evaluates for a whole round at once.
        self.default_striping = hash_function is None
        #: Optional TraceRecorder; each fetch becomes an ``ssd_fetch``
        #: interval on the device's lane.
        self.recorder = recorder
        #: Optional :class:`~repro.faults.FaultInjector`; installed per
        #: run by the engine, ``None`` keeps the fault-free fast path.
        self.fault_injector = None
        self.bytes_read = 0
        self.pages_fetched = 0
        #: Per-device fault bookkeeping (parallel to ``specs``).
        self.fetch_retries = [0] * len(self.specs)
        self.faults_injected = [0] * len(self.specs)

    @property
    def num_devices(self):
        return len(self.specs)

    def device_for_page(self, page_id):
        """The paper's ``g(j)``: which device holds page ``j``."""
        device = self._hash(page_id)
        if device < 0 or device >= len(self.specs):
            raise SimulationError("hash function returned bad device index")
        return device

    def total_capacity(self):
        return sum(spec.capacity for spec in self.specs)

    def check_fits(self, num_bytes):
        """Raise :class:`CapacityError` if a dataset exceeds the array."""
        capacity = self.total_capacity()
        if num_bytes > capacity:
            raise CapacityError(
                "dataset of %d bytes exceeds storage capacity %d"
                % (num_bytes, capacity),
                required_bytes=num_bytes, available_bytes=capacity)

    def fetch(self, page_id, num_bytes, earliest):
        """Book a page read; returns ``(start, end)`` simulated times."""
        if num_bytes < 0:
            raise SimulationError(
                "cannot fetch %d bytes for page %d (negative size)"
                % (num_bytes, page_id))
        device = self.device_for_page(page_id)
        if self.fault_injector is not None:
            return self._fetch_faulted(device, page_id, num_bytes,
                                       earliest)
        duration = self.specs[device].read_time(num_bytes)
        start, end = self.channels[device].book(earliest, duration)
        self.bytes_read += num_bytes
        self.pages_fetched += 1
        if self.recorder is not None:
            self.recorder.interval(
                "ssd_fetch", "storage", self.specs[device].name,
                start, end, page=page_id, bytes=num_bytes)
        return start, end

    def fetch_many(self, page_ids, num_bytes, earliest):
        """:meth:`fetch` for each of ``page_ids`` (an int64 array) in
        order; returns their end times as a float64 array.

        A fault injector or a custom hash function needs the per-page
        call.  Without them each channel books its pages back to back,
        ``end_i = max(earliest, end_{i-1}) + duration`` with a constant
        duration, which ``np.add.accumulate`` reproduces with the exact
        floating-point fold of the per-call loop.
        """
        if self.fault_injector is not None or not self.default_striping:
            return np.array([self.fetch(pid, num_bytes, earliest)[1]
                             for pid in page_ids.tolist()],
                            dtype=np.float64)
        if num_bytes < 0 or earliest < 0:
            raise SimulationError(
                "cannot fetch %d bytes at time %r (negative)"
                % (num_bytes, earliest))
        devices = page_ids % len(self.specs)
        ends = np.empty(len(page_ids), dtype=np.float64)
        for device, channel in enumerate(self.channels):
            selected = devices == device
            count = int(np.count_nonzero(selected))
            if not count:
                continue
            chain = np.full(count + 1, self.specs[device].read_time(
                num_bytes), dtype=np.float64)
            chain[0] = max(earliest, channel.available_at)
            edges = np.add.accumulate(chain)  # each start is the last end
            ends[selected] = edges[1:]
            channel.available_at = float(edges[-1])
            if self.recorder is not None:
                self.recorder.block(
                    "storage", self.specs[device].name, "ssd_fetch",
                    edges[:-1], edges[1:], page=page_ids[selected],
                    bytes=num_bytes)
            chain[0] = channel.busy_time
            channel.busy_time = float(np.add.accumulate(chain)[-1])
            channel.num_activities += count
        self.bytes_read += num_bytes * len(page_ids)
        self.pages_fetched += len(page_ids)
        return ends

    def _fetch_faulted(self, device, page_id, num_bytes, earliest):
        """The fetch path under an installed fault injector.

        Each attempt books the read on the device channel (failed and
        corrupt attempts cost the same channel time as good ones — the
        device did the work); a failed attempt additionally books its
        retry backoff there, so the delay is real simulated time that
        every later read on the device queues behind.
        """
        injector = self.fault_injector
        spec = self.specs[device]
        name = spec.name
        lost_at = injector.ssd_lost(device, earliest)
        if lost_at is not None:
            if self.recorder is not None:
                self.recorder.instant(
                    "device_lost", "storage", name, earliest,
                    page=page_id, lost_at=lost_at)
            raise DeviceLostError(
                "storage device %s (holding page %d) was lost at "
                "simulated time %.6f; its stripe of pages is gone"
                % (name, page_id, lost_at),
                device=name, lost_at=lost_at)
        channel = self.channels[device]
        duration = spec.read_time(num_bytes)
        retry = injector.retry
        for attempt in range(retry.max_attempts):
            start, end = channel.book(earliest, duration)
            outcome = injector.ssd_read_outcome(page_id, attempt)
            self.faults_injected[device] += outcome is not READ_OK
            if outcome is READ_OK:
                self.bytes_read += num_bytes
                self.pages_fetched += 1
                if self.recorder is not None:
                    self.recorder.interval(
                        "ssd_fetch", "storage", name, start, end,
                        page=page_id, bytes=num_bytes, attempt=attempt)
                return start, end
            # The device still moved the bytes on a corrupt read; a
            # transient error aborted partway.  Either way the channel
            # time above is spent, and the backoff is charged on top.
            if attempt + 1 >= retry.max_attempts:
                break
            backoff = retry.backoff(attempt)
            _, earliest = channel.book(end, backoff)
            self.fetch_retries[device] += 1
            injector.note_retry(backoff)
            if self.recorder is not None:
                self.recorder.interval(
                    "fault", "storage", name, start, end,
                    page=page_id, kind=outcome, attempt=attempt)
                self.recorder.interval(
                    "retry", "storage", name, end, earliest,
                    page=page_id, backoff=backoff)
        raise RetryExhaustedError(
            "page %d read on %s failed %d attempt(s) (last outcome: %s)"
            % (page_id, name, retry.max_attempts,
               READ_CORRUPT if outcome is READ_CORRUPT else "read error"),
            site="ssd_read", attempts=retry.max_attempts, page_id=page_id)

    def aggregate_bandwidth(self):
        """Sum of sequential-read bandwidths — the Section 4.1 bottleneck."""
        return sum(spec.read_bandwidth for spec in self.specs)

    def reset(self):
        for channel in self.channels:
            channel.reset()
        self.bytes_read = 0
        self.pages_fetched = 0
        self.fetch_retries = [0] * len(self.specs)
        self.faults_injected = [0] * len(self.specs)
