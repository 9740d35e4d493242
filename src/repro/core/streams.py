"""Asynchronous multi-stream dispatch (Section 3.2, Figure 3).

GTS assigns topology pages to GPU streams round-robin; within a stream
the copy and the kernel serialize, while across streams kernels overlap
(bounded by the GPU's aggregate compute capacity) and copies contend on
the single host-to-device copy engine.  :class:`StreamScheduler` owns
exactly that booking logic, so the engine's round loop stays about
*what* to dispatch and this module about *when* it runs.
"""

import numpy as np

from repro.errors import (ConfigurationError, RetryExhaustedError,
                          SimulationError)


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

    def dispatch_round(self, page_ids, assignments, copy_bytes, lane_steps,
                       cycles_per_lane_step, caches, wa_ready, round_start,
                       stats):
        """Book a whole round of pages from precomputed per-page arrays.

        ``assignments`` is the strategy's per-page GPU tuple list,
        ``copy_bytes`` / ``lane_steps`` are arrays aligned with
        ``page_ids`` (which must be duplicate-free — the engine's rounds
        are deduped) and ``stats`` is the round's :class:`RoundStats`.
        Cache lookups and admits are resolved in bulk per GPU first
        (their decisions are time-independent).

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
        num_gpus = runtime.num_gpus
        earliest = [max(round_start, wa_ready[g]) for g in range(num_gpus)]
        page_ids = np.asarray(page_ids, dtype=np.int64)
        pids = page_ids.tolist()
        sequences = [[] for _ in range(num_gpus)]
        for j, gpus in enumerate(assignments):
            for g in gpus:
                sequences[g].append(j)
        hit_lists = [
            caches[g].resolve_round([pids[j] for j in seq], ts=earliest[g],
                                    assume_distinct=True)
            for g, seq in enumerate(sequences)
        ]
        steps_arr = np.asarray(lane_steps, dtype=np.float64)
        bytes_arr = np.asarray(copy_bytes, dtype=np.float64)
        injector = self.fault_injector
        if (injector is not None
                and injector.round_faulted(page_ids, assignments)):
            injector.note_fallback()
            if runtime.recorder is not None:
                runtime.recorder.instant(
                    "fallback", "engine", "rounds", round_start,
                    round=stats.round_index)
            self._book_round_per_call(
                pids, assignments, sequences, hit_lists,
                bytes_arr.astype(np.int64).tolist(), steps_arr.tolist(),
                cycles_per_lane_step, earliest, wa_ready, round_start,
                stats)
            return
        # The per-call methods validate each booking; this loop checks
        # the round once and raises the same typed errors.
        if pids and bytes_arr.min() < 0:
            raise ConfigurationError("copy_bytes cannot be negative")
        if pids and (steps_arr * cycles_per_lane_step).min() < 0:
            raise SimulationError("negative kernel duration in round %d"
                                  % stats.round_index)
        missed = np.zeros(len(pids), dtype=bool)
        for seq, hit_list in zip(sequences, hit_lists):
            if seq:
                seq_arr = np.asarray(seq, dtype=np.int64)
                missed[seq_arr[~np.asarray(hit_list, dtype=bool)]] = True
        ready_at = None
        if missed.any():
            # First cache miss on any GPU, in page order: exactly the
            # sequence the per-call path makes ready.
            ready, from_buffer, from_storage = runtime.page_ready(
                page_ids[missed], round_start)
            stats.pages_from_buffer += from_buffer
            stats.pages_from_storage += from_storage
            ready_at = np.zeros(len(pids), dtype=np.float64)
            ready_at[missed] = ready
            ready_at = ready_at.tolist()
        self._book_round(pids, sequences, hit_lists, bytes_arr, steps_arr,
                         cycles_per_lane_step, earliest, wa_ready,
                         ready_at, stats)

    def _book_round_per_call(self, pids, assignments, sequences, hit_lists,
                             copy_bytes, lane_steps, cycles_per_lane_step,
                             earliest, wa_ready, round_start, stats):
        """A faulted round: page-major, GPU inner, one public dispatch
        call per booking, a page made ready when its first miss is
        reached (once per round: Strategy-S's second GPU copies it from
        MMBuf)."""
        hits = [dict(zip(seq, hit_list))
                for seq, hit_list in zip(sequences, hit_lists)]
        ready_memo = {}
        for j, pid in enumerate(pids):
            for g in assignments[j]:
                if hits[g][j]:
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

    def _book_round(self, pids, sequences, hit_lists, bytes_arr, steps_arr,
                    cycles_per_lane_step, earliest, wa_ready, ready_at,
                    stats):
        """GPU-major inlined booking of a round whose missed pages are
        already main-memory ready (at ``ready_at[j]``).

        With readiness known, the per-GPU timelines (copy engine,
        compute capacity, stream slots) share no state across GPUs, so
        each GPU's bookings replay in one tight loop over plain locals.
        Within a GPU the pages keep their page-major order, so the
        floating-point operations happen in exactly the sequence of
        :meth:`dispatch_cached` / :meth:`dispatch_streamed` /
        ``GPURuntime.book_kernel`` / ``Resource.book`` and the simulated
        clock comes out bit-identical; per-page durations are
        precomputed with the same elementwise arithmetic those helpers
        use.  A traced run records the same ``Resource.events`` and
        emits the same ``h2d_copy`` / ``kernel`` intervals from here.
        """
        runtime = self.runtime
        pcie = runtime.pcie
        recorder = runtime.recorder
        traced = runtime.tracing or recorder is not None
        ct_all = (pcie.latency + bytes_arr / pcie.stream_bandwidth).tolist()
        bytes_list = bytes_arr.astype(np.int64).tolist()
        steps_list = steps_arr.tolist() if traced else None
        from_cache = 0
        bytes_streamed = 0
        for g, gpu in enumerate(runtime.gpus):
            seq = sequences[g]
            if not seq:
                continue
            hit_list = hit_lists[g]
            spec = gpu.spec
            hz = spec.effective_hz
            stream_rate = hz * spec.single_stream_fraction
            sd_all = (spec.kernel_launch_overhead
                      + steps_arr * cycles_per_lane_step
                      / stream_rate).tolist()
            dd_all = (steps_arr * cycles_per_lane_step / hz).tolist()
            ce = gpu.copy_engine
            comp = gpu.compute
            slots = gpu.streams.slots
            ce_avail = ce.available_at
            ce_busy = ce.busy_time
            ce_n = ce.num_activities
            comp_avail = comp.available_at
            comp_busy = comp.busy_time
            comp_n = comp.num_activities
            slot_avail = [s.available_at for s in slots]
            slot_busy = [s.busy_time for s in slots]
            slot_n = [s.num_activities for s in slots]
            n_slots = len(slots)
            dc = self._dispatch_count[gpu.index]
            early = earliest[g]
            wa = wa_ready[g]
            k_inv = gpu.kernel_invocations
            k_busy = gpu.kernel_busy_time
            k_stream = gpu.kernel_stream_time
            gbytes = gpu.bytes_received
            for i, j in enumerate(seq):
                si = dc % n_slots
                dc += 1
                sa = slot_avail[si]
                sd = sd_all[j]
                dd = dd_all[j]
                if hit_list[i]:
                    from_cache += 1
                    kernel_earliest = early if early > sa else sa
                else:
                    ready = ready_at[j]
                    rt = ready if ready > wa else wa
                    copy_earliest = rt if rt > sa else sa
                    copy_start = (copy_earliest
                                  if copy_earliest > ce_avail else ce_avail)
                    ct = ct_all[j]
                    copy_end = copy_start + ct
                    ce_avail = copy_end
                    ce_busy += ct
                    ce_n += 1
                    cb = bytes_list[j]
                    gbytes += cb
                    bytes_streamed += cb
                    kernel_earliest = copy_end
                    if traced:
                        if ce.events is not None:
                            ce.events.append((copy_start, copy_end))
                        if recorder is not None:
                            recorder.interval(
                                "h2d_copy", gpu.lane, "copy engine",
                                copy_start, copy_end, bytes=cb)
                # book_kernel: device-capacity booking, then the stream
                # slot, then both timelines advance to the later end.
                cap_start = (kernel_earliest
                             if kernel_earliest > comp_avail else comp_avail)
                cap_end = cap_start + dd
                comp_avail = cap_end
                comp_busy += dd
                comp_n += 1
                stream_start = (kernel_earliest
                                if kernel_earliest > sa else sa)
                stream_end = stream_start + sd
                slot_busy[si] += sd
                slot_n[si] += 1
                slot_avail[si] = cap_end if cap_end > stream_end else stream_end
                k_inv += 1
                k_busy += dd
                k_stream += sd
                if traced:
                    slot = slots[si]
                    if slot.events is not None:
                        slot.events.append((stream_start, stream_end))
                    if recorder is not None:
                        recorder.interval(
                            "kernel", gpu.lane, slot.name.split(":")[-1],
                            stream_start, stream_end,
                            lane_steps=steps_list[j])
            ce.available_at = ce_avail
            ce.busy_time = ce_busy
            ce.num_activities = ce_n
            comp.available_at = comp_avail
            comp.busy_time = comp_busy
            comp.num_activities = comp_n
            for slot, avail, busy, n in zip(slots, slot_avail,
                                            slot_busy, slot_n):
                slot.available_at = avail
                slot.busy_time = busy
                slot.num_activities = n
            self._dispatch_count[gpu.index] = dc
            gpu.kernel_invocations = k_inv
            gpu.kernel_busy_time = k_busy
            gpu.kernel_stream_time = k_stream
            gpu.bytes_received = gbytes
        stats.pages_from_cache += from_cache
        stats.bytes_streamed += bytes_streamed

    def dispatched_pages(self, gpu_index=None):
        """How many pages have been dispatched (per GPU or total)."""
        if gpu_index is None:
            return sum(self._dispatch_count)
        return self._dispatch_count[gpu_index]
