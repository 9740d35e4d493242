"""Asynchronous multi-stream dispatch (Section 3.2, Figure 3).

GTS assigns topology pages to GPU streams round-robin; within a stream
the copy and the kernel serialize, while across streams kernels overlap
(bounded by the GPU's aggregate compute capacity) and copies contend on
the single host-to-device copy engine.  :class:`StreamScheduler` owns
exactly that booking logic, so the engine's round loop stays about
*what* to dispatch and this module about *when* it runs.
"""

from functools import cached_property

import numpy as np

from repro.errors import (ConfigurationError, RetryExhaustedError,
                          SimulationError)


class RoundOrder:
    """One round's dispatch order: ``page_ids`` (duplicate-free, in
    dispatch order) and ``per_gpu``, the strategy's routing: each GPU's
    ascending positions in the round, one index array per GPU.  The
    engine keeps the full-scan order for a whole run, so every
    full-scan round after the first reuses its per-GPU page IDs."""

    def __init__(self, page_ids, per_gpu):
        self.page_ids = np.asarray(page_ids, dtype=np.int64)
        self.per_gpu = per_gpu

    @cached_property
    def gpu_pids(self):
        """Each GPU's page IDs, in dispatch order."""
        return [self.page_ids[seq] for seq in self.per_gpu]


def _fold(start, durations):
    """``start`` plus ``durations`` one at a time, left to right:
    ``np.add.accumulate`` is a sequential fold (unlike the pairwise
    ``np.sum``), so this equals ``Resource.book``'s repeated ``+=``."""
    return float(np.add.accumulate(np.append(start, durations))[-1])


class StreamScheduler:
    """Books per-page transfer and kernel activities on one machine run.

    Parameters
    ----------
    runtime:
        The :class:`~repro.hardware.machine.MachineRuntime` whose GPU
        timelines are booked.
    fault_injector:
        Optional :class:`~repro.faults.FaultInjector`.  When installed,
        streamed dispatches consult it for copy-engine errors (absorbed
        by retry + backoff booked on the copy engine) and stream stalls
        (a fixed kernel-launch delay), and :meth:`dispatch_round`
        books any round a fault fires in through those per-call
        methods; with ``None`` no round is.
    """

    def __init__(self, runtime, fault_injector=None):
        self.runtime = runtime
        self.fault_injector = fault_injector
        self._dispatch_count = [0] * runtime.num_gpus

    def _next_slot(self, gpu):
        """Round-robin stream assignment, as in Figure 3."""
        index = self._dispatch_count[gpu.index] % gpu.num_streams
        self._dispatch_count[gpu.index] += 1
        return gpu.streams.slots[index]

    def dispatch_cached(self, gpu_index, earliest, lane_steps,
                        cycles_per_lane_step, page_id=None):
        """Book a kernel for a page already resident in the GPU cache
        (Algorithm 1 line 17: no transfer).  Returns the kernel end."""
        gpu = self.runtime.gpus[gpu_index]
        slot = self._next_slot(gpu)
        start = max(earliest, slot.available_at)
        if self.fault_injector is not None and page_id is not None:
            start += self._stall(gpu, page_id, start)
        return gpu.book_kernel(slot, start, lane_steps,
                               cycles_per_lane_step)

    def dispatch_streamed(self, gpu_index, ready_time, copy_bytes,
                          lane_steps, cycles_per_lane_step, page_id=None):
        """Book the async copy + kernel pair for a page being streamed
        (Algorithm 1 lines 19-21 / 24-26).

        ``ready_time`` is when the page's bytes are available in main
        memory (after any SSD fetch).  The copy starts once the page is
        ready, the stream's previous work is done, and the copy engine
        frees up; the kernel follows the copy on the same stream.
        Returns ``(copy_end, kernel_end)``.
        """
        if copy_bytes < 0:
            raise ConfigurationError("copy_bytes cannot be negative")
        gpu = self.runtime.gpus[gpu_index]
        slot = self._next_slot(gpu)
        earliest = max(ready_time, slot.available_at)
        if self.fault_injector is not None and page_id is not None:
            copy_end = self._book_copy_faulted(gpu, page_id, earliest,
                                               copy_bytes)
            kernel_earliest = copy_end + self._stall(gpu, page_id,
                                                     copy_end)
        else:
            copy_start, copy_end = gpu.copy_engine.book(
                earliest, self.runtime.pcie.stream_copy_time(copy_bytes))
            gpu.bytes_received += copy_bytes
            if self.runtime.recorder is not None:
                self.runtime.recorder.interval(
                    "h2d_copy", gpu.lane, "copy engine",
                    copy_start, copy_end, bytes=copy_bytes)
            kernel_earliest = copy_end
        kernel_end = gpu.book_kernel(slot, kernel_earliest, lane_steps,
                                     cycles_per_lane_step)
        return copy_end, kernel_end

    def _book_copy_faulted(self, gpu, page_id, earliest, copy_bytes):
        """Book the H2D copy under the fault injector; returns copy end.

        A faulted attempt costs the full copy time (the engine moved the
        bytes before the error surfaced) plus its backoff, both on the
        copy engine — everything queued behind it on that GPU waits.
        """
        injector = self.fault_injector
        recorder = self.runtime.recorder
        duration = self.runtime.pcie.stream_copy_time(copy_bytes)
        retry = injector.retry
        for attempt in range(retry.max_attempts):
            copy_start, copy_end = gpu.copy_engine.book(earliest, duration)
            if not injector.copy_fault(gpu.index, page_id, attempt):
                gpu.bytes_received += copy_bytes
                if recorder is not None:
                    recorder.interval(
                        "h2d_copy", gpu.lane, "copy engine",
                        copy_start, copy_end, bytes=copy_bytes,
                        attempt=attempt)
                return copy_end
            if attempt + 1 >= retry.max_attempts:
                break
            backoff = retry.backoff(attempt)
            _, earliest = gpu.copy_engine.book(copy_end, backoff)
            injector.note_retry(backoff)
            if recorder is not None:
                recorder.interval(
                    "fault", gpu.lane, "copy engine", copy_start,
                    copy_end, page=page_id, kind="copy_error",
                    attempt=attempt)
                recorder.interval(
                    "retry", gpu.lane, "copy engine", copy_end,
                    earliest, page=page_id, backoff=backoff)
        raise RetryExhaustedError(
            "H2D copy of page %d to GPU %d failed %d attempt(s)"
            % (page_id, gpu.index, retry.max_attempts),
            site="h2d_copy", attempts=retry.max_attempts,
            page_id=page_id)

    def _stall(self, gpu, page_id, at_time):
        """Stream-stall delay before the kernel launch (0.0 normally)."""
        stall = self.fault_injector.stall_seconds(gpu.index, page_id)
        if stall and self.runtime.recorder is not None:
            self.runtime.recorder.interval(
                "fault", gpu.lane, "copy engine", at_time,
                at_time + stall, page=page_id, kind="stream_stall")
        return stall

    def dispatch_round(self, order, copy_bytes, lane_steps,
                       cycles_per_lane_step, caches, wa_ready, round_start,
                       stats):
        """Book a whole round of pages from precomputed per-page arrays.

        ``order`` is the round's :class:`RoundOrder`, ``copy_bytes`` /
        ``lane_steps`` are arrays aligned with its ``page_ids`` and
        ``stats`` is the round's :class:`RoundStats`.  Cache lookups and
        admits are resolved in bulk per GPU first (their decisions are
        time-independent).

        There are two ways to book, chosen by one observation.  A round
        in which the injector's
        :meth:`~repro.faults.FaultInjector.round_faulted` probe fires is
        booked per call through :meth:`dispatch_cached` /
        :meth:`dispatch_streamed`, page-major with each page made
        main-memory ready as it is reached — copy-fault retry, backoff
        and stalls live there; it is counted in
        ``fault_stats["fallback_rounds"]`` and marked by a ``fallback``
        trace instant.  Every other round — traced, profiled, validated
        or bare — has its missed pages made ready first
        (:meth:`~repro.hardware.machine.MachineRuntime.page_ready`) and
        is booked by :meth:`_book_round`, which performs the per-call
        float operations in the per-call order on each timeline, so the
        simulated clock comes out bit-identical.
        """
        runtime = self.runtime
        earliest = [max(round_start, wa_ready[g])
                    for g in range(runtime.num_gpus)]
        page_ids = order.page_ids
        indices = order.per_gpu
        hit_masks = [cache.resolve_round(pids, ts=early)
                     for cache, pids, early in zip(caches, order.gpu_pids,
                                                   earliest)]
        steps_arr = np.asarray(lane_steps, dtype=np.float64)
        bytes_arr = np.asarray(copy_bytes, dtype=np.float64)
        injector = self.fault_injector
        if injector is not None and injector.round_faulted(page_ids,
                                                           indices):
            injector.note_fallback()
            if runtime.recorder is not None:
                runtime.recorder.instant(
                    "fallback", "engine", "rounds", round_start,
                    round=stats.round_index)
            self._book_round_per_call(
                page_ids.tolist(), indices, hit_masks,
                bytes_arr.astype(np.int64).tolist(), steps_arr.tolist(),
                cycles_per_lane_step, earliest, wa_ready, round_start,
                stats)
            return
        # The per-call methods validate each booking; this loop checks
        # the round once and raises the same typed errors.
        if len(page_ids) and bytes_arr.min() < 0:
            raise ConfigurationError("copy_bytes cannot be negative")
        if len(page_ids) and (steps_arr * cycles_per_lane_step).min() < 0:
            raise SimulationError("negative kernel duration in round %d"
                                  % stats.round_index)
        missed = np.zeros(len(page_ids), dtype=bool)
        for seq, hits in zip(indices, hit_masks):
            missed[seq[~hits]] = True
        ready_at = np.zeros(len(page_ids), dtype=np.float64)
        if missed.any():
            # First cache miss on any GPU, in page order: exactly the
            # sequence the per-call path makes ready.
            ready_at[missed], from_buffer, from_storage = runtime.page_ready(
                page_ids[missed], round_start)
            stats.pages_from_buffer += from_buffer
            stats.pages_from_storage += from_storage
        self._book_round(indices, hit_masks, bytes_arr, steps_arr,
                         cycles_per_lane_step, earliest, wa_ready,
                         ready_at, stats)

    def _book_round_per_call(self, pids, indices, hit_masks, copy_bytes,
                             lane_steps, cycles_per_lane_step, earliest,
                             wa_ready, round_start, stats):
        """A faulted round: page-major, GPU ascending, one public
        dispatch call per booking, a page made ready when its first
        miss is reached (once per round: Strategy-S's second GPU copies
        it from MMBuf)."""
        positions = np.concatenate(indices)
        gpus = np.repeat(np.arange(len(indices)), list(map(len, indices)))
        hits = np.concatenate(hit_masks)
        page_major = np.argsort(positions, kind="stable")
        ready_memo = {}
        for j, g, hit in zip(positions[page_major].tolist(),
                             gpus[page_major].tolist(),
                             hits[page_major].tolist()):
            pid = pids[j]
            if hit:
                stats.pages_from_cache += 1
                self.dispatch_cached(
                    g, earliest[g], lane_steps[j],
                    cycles_per_lane_step, page_id=pid)
                continue
            ready = ready_memo.get(pid)
            if ready is None:
                (ready,), from_buffer, from_storage = (
                    self.runtime.page_ready([pid], round_start))
                stats.pages_from_buffer += from_buffer
                stats.pages_from_storage += from_storage
                ready_memo[pid] = ready = float(ready)
            stats.bytes_streamed += copy_bytes[j]
            self.dispatch_streamed(
                g, max(ready, wa_ready[g]), copy_bytes[j],
                lane_steps[j], cycles_per_lane_step, page_id=pid)

    def _book_round(self, indices, hit_masks, bytes_arr, steps_arr,
                    cycles_per_lane_step, earliest, wa_ready, ready_at,
                    stats):
        """GPU-major booking of a round whose missed pages are already
        main-memory ready (at ``ready_at[j]``).

        With readiness known, the per-GPU timelines (copy engine,
        compute capacity, stream slots) share no state across GPUs.
        Within a GPU the pages keep their page-major order, and one
        Python loop carries the three max-plus chains of
        :meth:`dispatch_cached` / :meth:`dispatch_streamed` /
        ``GPURuntime.book_kernel`` with the same float operations in the
        same order, so the simulated clock comes out bit-identical:

        - copy: ``start = max(ready, slot, engine)``, ``end = start + ct``;
        - compute capacity: ``comp = max(k, comp) + dd``;
        - the page's slot: ``slot = max(comp, k + sd)``,

        where ``k``, the kernel's start on its stream, is the copy end
        (a copy starts after its slot frees, so its end is the later
        one) or, for a cache hit, ``max(earliest, slot)``.  Slots are
        read by position: ``window`` holds the slot values rotated by
        the dispatch count, page ``i`` reads entry ``i`` and appends its
        slot's new value, which page ``i + n`` reads.  Durations are
        precomputed with the helpers' elementwise arithmetic; busy times
        are :func:`_fold` sums and counts are integer sums, per GPU.
        """
        runtime = self.runtime
        pcie = runtime.pcie
        traced = runtime.tracing or runtime.recorder is not None
        ct_all = pcie.latency + bytes_arr / pcie.stream_bandwidth
        for gpu, seq, hit_mask, early, wa in zip(
                runtime.gpus, indices, hit_masks, earliest, wa_ready):
            m = len(seq)
            if not m:
                continue
            hits, miss = hit_mask.tolist(), ~hit_mask
            spec = gpu.spec
            work = steps_arr[seq] * cycles_per_lane_step
            sd = (spec.kernel_launch_overhead
                  + work / (spec.effective_hz * spec.single_stream_fraction))
            dd = work / spec.effective_hz
            ct = ct_all[seq]
            rt = np.maximum(ready_at[seq], wa).tolist()
            ce, comp = gpu.copy_engine, gpu.compute
            slots = gpu.streams.slots
            n = len(slots)
            first = self._dispatch_count[gpu.index] % n
            rotated = slots[first:] + slots[:first]
            window = [slot.available_at for slot in rotated]
            append = window.append
            ce_start = copy_end = ce.available_at
            comp_at = comp.available_at
            # ``window`` grows while zip reads it: page i appends entry i + n.
            for sa, hit, r, c, d, s in zip(window, hits, rt, ct.tolist(),
                                           dd.tolist(), sd.tolist()):
                if hit:
                    k = early if early > sa else sa
                else:
                    k = r if r > sa else sa
                    if copy_end > k:
                        k = copy_end
                    copy_end = k = k + c
                comp_at = (k if k > comp_at else comp_at) + d
                k += s
                append(comp_at if comp_at > k else k)
            ce.available_at = copy_end
            comp.available_at = comp_at
            for i in range(m, m + n):
                rotated[i % n].available_at = window[i]
            # One column per slot, in its pages' order; the zero padding
            # of the last row adds exactly nothing.
            busy = np.zeros((-(-m // n) + 1, n))
            busy[0] = [slot.busy_time for slot in rotated]
            busy.ravel()[n:n + m] = sd
            for r, (slot, total) in enumerate(
                    zip(rotated, np.add.accumulate(busy)[-1].tolist())):
                slot.busy_time = total
                slot.num_activities += m // n + (r < m % n)
            num_missed = int(np.count_nonzero(miss))
            ce.busy_time = _fold(ce.busy_time, ct[miss])
            ce.num_activities += num_missed
            comp.busy_time = _fold(comp.busy_time, dd)
            comp.num_activities += m
            gpu.kernel_stream_time = _fold(gpu.kernel_stream_time, sd)
            nbytes = int(bytes_arr[seq[miss]].astype(np.int64).sum())
            gpu.bytes_received += nbytes
            stats.bytes_streamed += nbytes
            stats.pages_from_cache += m - num_missed
            self._dispatch_count[gpu.index] += m
            if traced:
                self._trace_gpu(gpu, rotated, window, hits, rt, ct, sd,
                                bytes_arr[seq], steps_arr[seq], early,
                                ce_start)

    def _trace_gpu(self, gpu, rotated, window, hits, rt, ct, sd, nbytes,
                   steps, early, copy_end):
        """Record a traced GPU's round as the per-call helpers would:
        the same ``Resource.events`` and ``h2d_copy`` / ``kernel``
        intervals, lane by lane in page order.  The loop kept only the
        slot values it read (``window``); the copy chain is replayed from
        them to recover each copy's start and each kernel's."""
        recorder = self.runtime.recorder
        ce = gpu.copy_engine
        n = len(rotated)
        for i, hit in enumerate(hits):
            sa = window[i]
            if hit:
                k = max(early, sa)
            else:
                copy_start = max(rt[i], sa, copy_end)
                k = copy_end = copy_start + float(ct[i])
                if ce.events is not None:
                    ce.events.append((copy_start, k))
                if recorder is not None:
                    recorder.interval("h2d_copy", gpu.lane, "copy engine",
                                      copy_start, k, bytes=int(nbytes[i]))
            slot = rotated[i % n]
            end = k + float(sd[i])
            if slot.events is not None:
                slot.events.append((k, end))
            if recorder is not None:
                recorder.interval("kernel", gpu.lane,
                                  slot.name.split(":")[-1], k, end,
                                  lane_steps=float(steps[i]))

    def dispatched_pages(self, gpu_index=None):
        """How many pages have been dispatched (per GPU or total)."""
        if gpu_index is None:
            return sum(self._dispatch_count)
        return self._dispatch_count[gpu_index]
