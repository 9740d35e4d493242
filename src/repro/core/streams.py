"""Asynchronous multi-stream dispatch (Section 3.2, Figure 3).

GTS assigns topology pages to GPU streams round-robin; within a stream
the copy and the kernel serialize, while across streams kernels overlap
(bounded by the GPU's aggregate compute capacity) and copies contend on
the single host-to-device copy engine.  :class:`StreamScheduler` owns
exactly that booking logic, so the engine's round loop stays about
*what* to dispatch and this module about *when* it runs.
"""

from functools import cached_property
from itertools import islice

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
        every round draws its copy-engine errors (absorbed by retry +
        backoff booked on the copy engine) and stream stalls (a fixed
        kernel-launch delay) as arrays before it is booked; with
        ``None`` no round faults.
    """

    def __init__(self, runtime, fault_injector=None):
        self.runtime = runtime
        self.fault_injector = fault_injector
        self._dispatch_count = [0] * runtime.num_gpus

    def dispatch_round(self, order, copy_bytes, lane_steps,
                       cycles_per_lane_step, caches, wa_ready, round_start,
                       stats):
        """Book a whole round of pages from precomputed per-page arrays.

        ``order`` is the round's :class:`RoundOrder`, ``copy_bytes`` /
        ``lane_steps`` are arrays aligned with its ``page_ids`` and
        ``stats`` is the round's :class:`RoundStats`.  Cache lookups and
        admits are resolved in bulk per GPU first (their decisions are
        time-independent), then the injector's
        :meth:`~repro.faults.FaultInjector.draw_round` draws the round's
        faults (a round one fires in is counted in
        ``fault_stats["fallback_rounds"]`` and marked by a ``fallback``
        trace instant), :meth:`_make_ready` makes the missed pages
        main-memory ready and :meth:`_book_round` books every GPU.

        Algorithm 1 books one copy and one kernel per page, page-major
        and GPU ascending; the three steps perform that loop's float
        operations in its order on each timeline, so the simulated clock
        and every counter come out bit-identical to it.
        """
        runtime = self.runtime
        earliest = [max(round_start, wa_ready[g])
                    for g in range(runtime.num_gpus)]
        hit_masks = [cache.resolve_round(pids, ts=early)
                     for cache, pids, early in zip(caches, order.gpu_pids,
                                                   earliest)]
        steps_arr = np.asarray(lane_steps, dtype=np.float64)
        bytes_arr = np.asarray(copy_bytes, dtype=np.float64)
        if len(order.page_ids) and bytes_arr.min() < 0:
            raise ConfigurationError("copy_bytes cannot be negative")
        if len(order.page_ids) and (steps_arr
                                    * cycles_per_lane_step).min() < 0:
            raise SimulationError("negative kernel duration in round %d"
                                  % stats.round_index)
        faults = None
        if self.fault_injector is not None:
            faults = self.fault_injector.draw_round(
                order.page_ids, order.per_gpu, hit_masks)
            if faults is not None and runtime.recorder is not None:
                runtime.recorder.instant(
                    "fallback", "engine", "rounds", round_start,
                    round=stats.round_index)
        ready_at = self._make_ready(order, hit_masks, faults, round_start,
                                    stats)
        self._book_round(order, hit_masks, bytes_arr, steps_arr,
                         cycles_per_lane_step, earliest, wa_ready,
                         ready_at, stats, faults)

    def _make_ready(self, order, hit_masks, faults, round_start, stats):
        """Make the round's missed pages main-memory ready
        (:meth:`~repro.hardware.machine.MachineRuntime.page_ready`);
        returns each position's ready time.

        A page is made ready when page-major order first reaches a miss
        of it, so the pages up to each position with a retried copy are
        made ready before that position's copy retries are noted: the
        injector's one ``backoff_seconds`` float adds storage and copy
        backoffs in that order.  The first copy to exhaust its attempts
        raises once every page up to it is ready, so a storage error
        before it raises first.
        """
        page_ids = order.page_ids
        missed = np.zeros(len(page_ids), dtype=bool)
        for seq, hits in zip(order.per_gpu, hit_masks):
            missed[seq[~hits]] = True
        todo = np.flatnonzero(missed)
        ready_at = np.zeros(len(page_ids), dtype=np.float64)
        retried = []  # (position, GPU, failed attempts), page-major
        if faults is not None:
            for g, (seq, (fails, _)) in enumerate(zip(order.per_gpu,
                                                      faults)):
                at = np.flatnonzero(fails)
                retried += zip(seq[at].tolist(), [g] * len(at),
                               fails[at].tolist())
            retried.sort()
        done = 0
        for j, g, fails in retried + [(len(page_ids), None, 0)]:
            upto = int(np.searchsorted(todo, j, side="right"))
            if upto > done:
                chunk = todo[done:upto]
                ready_at[chunk], from_buffer, from_storage = (
                    self.runtime.page_ready(page_ids[chunk], round_start))
                stats.pages_from_buffer += from_buffer
                stats.pages_from_storage += from_storage
                done = upto
            if not fails:
                continue
            injector = self.fault_injector
            retry = injector.retry
            for attempt in range(min(fails, retry.max_attempts - 1)):
                injector.note_retry(retry.backoff(attempt))
            if fails == retry.max_attempts:
                raise RetryExhaustedError(
                    "H2D copy of page %d to GPU %d failed %d attempt(s)"
                    % (page_ids[j], g, fails), site="h2d_copy",
                    attempts=fails, page_id=int(page_ids[j]))
        return ready_at

    def _book_round(self, order, hit_masks, bytes_arr, steps_arr,
                    cycles_per_lane_step, earliest, wa_ready, ready_at,
                    stats, faults):
        """GPU-major booking of a round whose missed pages are already
        main-memory ready (at ``ready_at[j]``).

        With readiness known, the per-GPU timelines (copy engine,
        compute capacity, stream slots) share no state across GPUs.
        Within a GPU the pages keep their page-major order, and one
        Python loop carries the three max-plus chains of Algorithm 1's
        copy + kernel pair with the per-page float operations in the
        per-page order:

        - copy: ``start = max(ready, slot, engine)``, ``end = start + ct``;
        - compute capacity: ``comp = max(k, comp) + dd``;
        - the page's slot: ``slot = max(comp, k + sd)``,

        where ``k``, the kernel's start on its stream, is the copy end
        (a copy starts after its slot frees, so its end is the later
        one) or, for a cache hit, ``max(earliest, slot)``.  Slots are
        read by position: ``window`` holds the slot values rotated by
        the dispatch count, page ``i`` reads entry ``i`` and appends its
        slot's new value, which page ``i + n`` reads.

        The loop pauses before a faulted page (``faults[g]`` is the
        GPU's ``(fails, stalls)``), and only there.  The pause books the
        page's copy — each failed attempt and its backoff first, both on
        the copy engine — adds its stall to ``k`` and keeps the page's
        copy-engine rows; the page then enters the loop as a hit whose
        slot reads ``k`` (``k >= earliest``, so the loop keeps it).  A
        clean round never pauses.  The loop appends every page's ``k``,
        from which a traced run records the round (:meth:`_record`).
        Durations are precomputed with ``GPUSpec``'s elementwise
        arithmetic; busy times are :func:`_fold` sums and counts are
        integer sums.
        """
        runtime = self.runtime
        pcie = runtime.pcie
        ct_all = pcie.latency + bytes_arr / pcie.stream_bandwidth
        backoffs = []
        if faults is not None:
            retry = self.fault_injector.retry
            backoffs = [retry.backoff(a) for a in range(retry.max_attempts)]
        for g, (gpu, seq, hit_mask, early, wa) in enumerate(zip(
                runtime.gpus, order.per_gpu, hit_masks, earliest,
                wa_ready)):
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
            rt = np.maximum(ready_at[seq], wa)
            rts = rt.tolist()
            ce, comp = gpu.copy_engine, gpu.compute
            slots = gpu.streams.slots
            n = len(slots)
            first = self._dispatch_count[gpu.index] % n
            rotated = slots[first:] + slots[:first]
            window = [slot.available_at for slot in rotated]
            append = window.append
            kernel_starts = []
            started = kernel_starts.append
            copy_end = ce.available_at
            comp_at = comp.available_at
            cts, sds = ct.tolist(), sd.tolist()
            # ``window`` and ``hits`` are read lazily: page i appends
            # entry i + n, and a pause rewrites entry i before page i.
            pages = zip(window, hits, rts, cts, dd.tolist(), sds)
            paused, pauses = [], []  # pauses: (position, copy end, rows)
            if faults is not None:
                fails, stalls = faults[g]
                paused = np.flatnonzero(fails | (stalls > 0)).tolist()
                fails, stalls = fails.tolist(), stalls.tolist()
                pids = order.gpu_pids[g].tolist()
                sizes = bytes_arr[seq].astype(np.int64).tolist()
            paused = iter(paused)
            done, i = 0, next(paused, None)
            while True:
                for sa, hit, r, c, d, s in (
                        pages if i is None else islice(pages, i - done)):
                    if hit:
                        k = early if early > sa else sa
                    else:
                        k = r if r > sa else sa
                        if copy_end > k:
                            k = copy_end
                        copy_end = k = k + c
                    started(k)
                    comp_at = (k if k > comp_at else comp_at) + d
                    k += s
                    append(comp_at if comp_at > k else k)
                if i is None:
                    break
                k, c, pid, tries, stall = (window[i], cts[i], pids[i],
                                           fails[i], stalls[i])
                rows = []  # the page's copy-engine rows
                if hits[i]:
                    k = early if early > k else k
                else:
                    if rts[i] > k:
                        k = rts[i]
                    if copy_end > k:
                        k = copy_end
                    for attempt, b in enumerate(backoffs[:tries]):
                        rows += [("fault", k, k + c, dict(
                                     page=pid, kind="copy_error",
                                     attempt=attempt)),
                                 ("retry", k + c, k + c + b, dict(
                                     page=pid, backoff=b))]
                        k = k + c + b
                    rows.append(("h2d_copy", k, k + c, dict(
                        bytes=sizes[i], attempt=tries)))
                    copy_end = k = k + c
                if stall:
                    rows.append(("fault", k, k + stall, dict(
                        page=pid, kind="stream_stall")))
                    k += stall
                pauses.append((i, copy_end, rows))
                window[i], hits[i] = k, True
                done, i = i, next(paused, None)
            if runtime.recorder is not None:
                self._record(gpu, first, np.array(kernel_starts), sd,
                             steps_arr[seq], np.maximum(rt, window[:m]),
                             miss, pauses, ce.available_at, bytes_arr[seq],
                             None if faults is None else 0)
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
            # The copy engine's bookings: per missed page, each failed
            # attempt and its backoff, then the copy.
            copies = ct[miss]
            if faults is not None and len(copies):
                f = faults[g][0][miss]
                copies = np.repeat(copies, 2 * f + 1)
                at = np.cumsum(2 * f + 1) - (2 * f + 1)
                for a, b in enumerate(backoffs[:f.max()]):
                    copies[at[f > a] + 2 * a + 1] = b
            num_missed = int(np.count_nonzero(miss))
            ce.busy_time = _fold(ce.busy_time, copies)
            ce.num_activities += len(copies)
            comp.busy_time = _fold(comp.busy_time, dd)
            comp.num_activities += m
            gpu.kernel_stream_time = _fold(gpu.kernel_stream_time, sd)
            nbytes = int(bytes_arr[seq[miss]].astype(np.int64).sum())
            gpu.bytes_received += nbytes
            stats.bytes_streamed += nbytes
            stats.pages_from_cache += m - num_missed
            self._dispatch_count[gpu.index] += m

    def _record(self, gpu, first, kernel_starts, sd, steps, ready, miss,
                pauses, copy_end, copy_bytes, attempt):
        """Record a GPU's booked round: its kernels ``[k, k + sd]``, each
        on its stream's lane; on the copy engine, in page order, a clean
        miss's copy ``[max(ready, slot, last copy end), k]`` or a
        pause's rows."""
        recorder, lane = self.runtime.recorder, gpu.lane
        m, n = len(kernel_starts), gpu.num_streams
        slots = np.array([slot.name.split(":")[-1]
                          for slot in gpu.streams.slots])
        recorder.block(lane, slots[(first + np.arange(m)) % n], "kernel",
                       kernel_starts, kernel_starts + sd, lane_steps=steps)
        tag = {} if attempt is None else {"attempt": attempt}
        lo = 0
        for i, paused_end, rows in pauses + [(m, None, [])]:
            clean = lo + np.flatnonzero(miss[lo:i])
            if len(clean):
                ends = kernel_starts[clean]
                recorder.block(lane, "copy engine", "h2d_copy", np.maximum(
                    ready[clean], np.append(copy_end, ends[:-1])), ends,
                    bytes=copy_bytes[clean].astype(np.int64), **tag)
            for name, start, end, args in rows:
                recorder.interval(name, lane, "copy engine", start, end,
                                  **args)
            copy_end, lo = paused_end, i + 1
