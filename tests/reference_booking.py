"""Loop oracle for the scheduler's round booking.

``book_round`` books a round the way Algorithm 1 (lines 17-26) reads:
page-major, GPU ascending, one ``Resource.book`` /
:func:`book_kernel` call per activity, each GPU's cache probed
and filled one page at a time, a page made ready from the buffer and
the storage, one page at a time, when its first miss is reached, and every fault
decided at the injector's scalar injection points (``copy_fault``,
``stall_seconds`` and the storage's ``ssd_read_outcome``).  The tests
require ``StreamScheduler.dispatch_round``'s bulk booking to leave every
timeline, counter, trace event and error where this loop leaves them.

Each function takes the :class:`~repro.core.streams.StreamScheduler`
whose runtime, injector and per-GPU dispatch counts it books on.
"""

import numpy as np

from repro.errors import ConfigurationError, RetryExhaustedError
from repro.faults import FaultInjector


def book_kernel(gpu, slot, earliest, lane_steps, cycles_per_lane_step,
                recorder=None):
    """Book one kernel invocation on ``gpu``; returns its completion
    time.

    The kernel is constrained twice: by its *stream* (serial within a
    stream, at the single-stream underutilised rate) and by the GPU's
    *aggregate compute capacity* (concurrent kernels cannot exceed the
    device's total throughput).  The completion time is the later of
    the two, and both timelines advance to it.  ``recorder`` gets the
    stream-slot booking as a ``kernel`` interval.
    """
    stream_duration = gpu.spec.kernel_stream_time(
        lane_steps, cycles_per_lane_step)
    device_duration = gpu.spec.kernel_device_time(
        lane_steps, cycles_per_lane_step)
    _, capacity_end = gpu.compute.book(earliest, device_duration)
    stream_start, stream_end = slot.book(earliest, stream_duration)
    end = max(capacity_end, stream_end)
    slot.available_at = end
    gpu.kernel_stream_time += stream_duration
    if recorder is not None:
        recorder.interval("kernel", gpu.lane, slot.name.split(":")[-1],
                          stream_start, stream_end, lane_steps=lane_steps)
    return end


def next_slot(scheduler, gpu):
    """Round-robin stream assignment, as in Figure 3."""
    index = scheduler._dispatch_count[gpu.index] % gpu.num_streams
    scheduler._dispatch_count[gpu.index] += 1
    return gpu.streams.slots[index]


def dispatch_cached(scheduler, gpu_index, earliest, lane_steps,
                    cycles_per_lane_step, page_id=None):
    """A kernel for a page resident in the GPU cache (line 17: no
    transfer); returns the kernel end."""
    gpu = scheduler.runtime.gpus[gpu_index]
    slot = next_slot(scheduler, gpu)
    start = max(earliest, slot.available_at)
    if page_id is not None:
        start += _stall(scheduler, gpu, page_id, start)
    return book_kernel(gpu, slot, start, lane_steps, cycles_per_lane_step,
                       scheduler.runtime.recorder)


def dispatch_streamed(scheduler, gpu_index, ready_time, copy_bytes,
                      lane_steps, cycles_per_lane_step, page_id=None):
    """The async copy + kernel pair of a streamed page (lines 19-21 /
    24-26); returns ``(copy_end, kernel_end)``.  Under the injector
    (``page_id`` given) a failed copy attempt costs the full copy plus
    its backoff, both on the copy engine, and a stall delays the
    kernel."""
    if copy_bytes < 0:
        raise ConfigurationError("copy_bytes cannot be negative")
    runtime, injector = scheduler.runtime, scheduler.fault_injector
    recorder = runtime.recorder
    gpu = runtime.gpus[gpu_index]
    slot = next_slot(scheduler, gpu)
    earliest = max(ready_time, slot.available_at)
    duration = runtime.pcie.stream_copy_time(copy_bytes)
    attempts = 1 if page_id is None else injector.retry.max_attempts
    for attempt in range(attempts):
        copy_start, copy_end = gpu.copy_engine.book(earliest, duration)
        if page_id is None or not injector.copy_fault(gpu.index, page_id,
                                                      attempt):
            break
        if attempt + 1 == attempts:
            raise RetryExhaustedError(
                "H2D copy of page %d to GPU %d failed %d attempt(s)"
                % (page_id, gpu.index, attempts), site="h2d_copy",
                attempts=attempts, page_id=page_id)
        backoff = injector.retry.backoff(attempt)
        _, earliest = gpu.copy_engine.book(copy_end, backoff)
        injector.note_retry(backoff)
        if recorder is not None:
            recorder.interval(
                "fault", gpu.lane, "copy engine", copy_start, copy_end,
                page=page_id, kind="copy_error", attempt=attempt)
            recorder.interval(
                "retry", gpu.lane, "copy engine", copy_end, earliest,
                page=page_id, backoff=backoff)
    gpu.bytes_received += copy_bytes
    if recorder is not None:
        recorder.interval(
            "h2d_copy", gpu.lane, "copy engine", copy_start, copy_end,
            bytes=copy_bytes, **({} if page_id is None
                                 else {"attempt": attempt}))
    kernel_earliest = copy_end
    if page_id is not None:
        kernel_earliest += _stall(scheduler, gpu, page_id, copy_end)
    kernel_end = book_kernel(gpu, slot, kernel_earliest, lane_steps,
                             cycles_per_lane_step, recorder)
    return copy_end, kernel_end


def _stall(scheduler, gpu, page_id, at_time):
    """Stream-stall delay before the kernel launch (0.0 normally)."""
    stall = scheduler.fault_injector.stall_seconds(gpu.index, page_id)
    if stall and scheduler.runtime.recorder is not None:
        scheduler.runtime.recorder.interval(
            "fault", gpu.lane, "copy engine", at_time, at_time + stall,
            page=page_id, kind="stream_stall")
    return stall


def round_faulted(injector, pids, per_gpu):
    """Does an attempt-0 draw fire in the round?  Asked of a fresh
    injector's scalar injection points: the storage read of every routed
    page, each GPU's copy and stall of its routed pages."""
    probe = FaultInjector(injector.plan, retry=injector.retry)
    probe.begin_round(injector._round)
    for g, seq in enumerate(per_gpu):
        for pid in pids[seq].tolist():
            probe.ssd_read_outcome(pid, 0)
            probe.copy_fault(g, pid, 0)
            probe.stall_seconds(g, pid)
    return probe.faults_injected > 0


def book_round(scheduler, order, copy_bytes, lane_steps,
               cycles_per_lane_step, caches, wa_ready, round_start, stats):
    """``dispatch_round``'s arguments, booked one call at a time."""
    runtime = scheduler.runtime
    injector = scheduler.fault_injector
    faulted = injector is not None and round_faulted(
        injector, order.page_ids, order.per_gpu)
    if faulted:
        injector.fallback_rounds += 1
        if runtime.recorder is not None:
            runtime.recorder.instant("fallback", "engine", "rounds",
                                     round_start, round=stats.round_index)
    ready = {}
    for j, pid in enumerate(order.page_ids.tolist()):
        nbytes, steps = int(copy_bytes[j]), float(lane_steps[j])
        page = pid if faulted else None
        for g in [g for g, seq in enumerate(order.per_gpu) if j in seq]:
            early = max(round_start, wa_ready[g])
            hit = caches[g].lookup(pid, ts=early)
            if not hit:
                caches[g].admit(pid, ts=early)
            if hit:
                stats.pages_from_cache += 1
                dispatch_cached(scheduler, g, early, steps,
                                cycles_per_lane_step, page_id=page)
                continue
            if pid not in ready and runtime.mm_buffer.lookup_many(
                    np.array([pid]), ts=round_start)[0]:
                stats.pages_from_buffer += 1
                ready[pid] = round_start
            elif pid not in ready:
                stats.pages_from_storage += 1
                ready[pid] = runtime.storage.fetch(
                    pid, runtime.page_bytes, round_start)[1]
                runtime.mm_buffer.preload([pid])
            stats.bytes_streamed += nbytes
            dispatch_streamed(scheduler, g, max(ready[pid], wa_ready[g]),
                              nbytes, steps, cycles_per_lane_step,
                              page_id=page)
