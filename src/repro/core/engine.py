"""The GTS engine: Algorithm 1's framework over the simulated machine.

One :class:`GTSEngine` ties together every piece the paper describes:

* a :class:`~repro.format.database.GraphDatabase` of slotted pages as the
  streamed topology, with ``nextPIDSet`` steering which pages each round
  touches (all of them for PageRank-like kernels, the frontier's pages for
  BFS-like kernels);
* a :class:`~repro.hardware.specs.MachineSpec` instantiated into per-run
  resource timelines — SSD channels, the main-memory buffer
  (``bufferPIDMap``), per-GPU copy engines and stream slots, and per-GPU
  page caches (``cachedPIDMap``);
* a multi-GPU :class:`~repro.core.strategies.Strategy` deciding page
  placement (``h(j)``), WA residency, and synchronisation;
* a :class:`~repro.core.kernels.base.Kernel` executed **for real** in
  NumPy, one ``process_batch`` call per round over the round's pages as
  flat arrays (:class:`~repro.core.plan.RoundBatch`), with the per-page
  work it measures driving each page's simulated kernel duration.

Every round is ``PagePlan.round_batch`` → ``Kernel.process_batch`` →
``StreamScheduler.dispatch_round``, each written once under its
host-clock span (:mod:`repro.spans`); the engine reads the page plan and
never a page.  Every page dispatch follows Algorithm 1's three-way branch: GPU
cache hit (kernel only) → main-memory buffer hit (stream copy + kernel)
→ storage fetch (SSD read + stream copy + kernel).  Copies serialize on
the GPU's copy engine; kernels run concurrently on up to
``min(streams, 32)`` stream slots; pages are assigned to streams
round-robin as in Figure 3.
"""

import functools
import time as _time

import numpy as np

from repro.core.cache import PageCache, check_policy
from repro.core.kernels.base import ALL_PAGES, KernelContext
from repro.core.micro import MicroTechnique
from repro.core.plan import RoundPlanCache
from repro.core.result import RoundStats, RunResult
from repro.core.strategies import make_strategy
from repro.core.streams import RoundOrder, StreamScheduler
from repro.errors import (CapacityError, ConfigurationError,
                          DeadlineError, DeviceLostError)
from repro.faults import FaultInjector, FaultPlan, RetryPolicy
from repro.hardware.machine import MachineRuntime
from repro.spans import count, span

#: The file store's counters a run reports as deltas: real file I/O,
#: the host page pool, the mapped store and verified re-reads.  A
#: resident database has none of them (all read as 0).
_STORE_COUNTERS = ("host_bytes_read", "host_reads", "host_adjacent_reads",
                   "pool_hits", "pool_misses", "mmap_hits", "mmap_misses",
                   "integrity_retries")


class GTSEngine:
    """Run graph-algorithm kernels by streaming topology to GPUs.

    A run reads its database's :class:`~repro.core.plan.PagePlan` of the
    topology version it serves
    (:meth:`~repro.format.database.GraphDatabase.page_plan`): built by
    the first run on that version and shared by every engine after it.

    Parameters
    ----------
    db:
        The slotted-page graph database.
    machine:
        A :class:`~repro.hardware.specs.MachineSpec`; fresh resource
        timelines are created for every :meth:`run`.
    strategy:
        ``"performance"`` (Strategy-P) or ``"scalability"`` (Strategy-S),
        or a :class:`~repro.core.strategies.Strategy` instance.
    num_streams:
        GPU streams per device (Figure 10 sweeps 1–32; CUDA caps
        concurrent kernel execution at 32).
    micro_technique:
        Intra-page parallelisation model: ``"edge"`` (VWC, the default),
        ``"vertex"`` or ``"hybrid"`` (Section 6.2).
    enable_caching:
        Cache streamed pages in spare device memory (Section 3.3).
    cache_bytes:
        Per-GPU cache size; ``None`` means "all free device memory after
        the four buffers" (the paper's default behaviour).
    cache_policy:
        Page-cache replacement policy: ``"lru"`` (the paper's default),
        ``"fifo"``, ``"clock"`` or ``"pin"`` (Section 3.3 allows
        alternatives to LRU).
    mm_buffer_bytes:
        Main-memory page-buffer size; ``None`` applies the paper's
        policy — the whole graph when it fits in main memory, otherwise
        ``buffer_fraction`` (20 %) of the graph size.
    tracing:
        Record the run, which takes the untraced path, in a columnar
        :class:`~repro.obs.events.TraceRecorder` (``result.trace``);
        ``result.timeline`` renders Figure 4 from it on first read.
    validate_simulation:
        Audit the finished schedule against the DES invariants (no
        resource overlap, accounting, concurrency caps); implies
        ``tracing``.  Raises :class:`~repro.errors.SimulationError` on
        any violation.
    faults:
        Optional :class:`~repro.faults.FaultPlan` (or its dict form)
        injected into every run.  Recoverable faults cost simulated
        time but leave algorithm outputs bit-identical to the
        fault-free run; unrecoverable ones raise a typed
        :class:`~repro.errors.GTSError` subclass — never a wrong
        answer.  A round's faults are drawn as arrays and booked by
        the same loop as a clean round (retry and backoff on the copy
        engine, stalls before the kernel); its compute is the same
        ``process_batch``.
    fault_seed:
        Overrides the plan's seed (the CLI's ``--fault-seed``), letting
        one plan file drive a whole matrix of chaos runs.
    retry_policy:
        Overrides the plan's :class:`~repro.faults.RetryPolicy` for
        transient-fault recovery.
    """

    def __init__(self, db, machine, strategy="performance", num_streams=16,
                 micro_technique=MicroTechnique.EDGE_CENTRIC,
                 enable_caching=True, cache_bytes=None, cache_policy="lru",
                 mm_buffer_bytes=None, tracing=False,
                 validate_simulation=False, faults=None, fault_seed=None,
                 retry_policy=None):
        if num_streams < 1:
            raise ConfigurationError("need at least one stream")
        check_policy(cache_policy)
        for name, value in (("cache_bytes", cache_bytes),
                            ("mm_buffer_bytes", mm_buffer_bytes)):
            if value is not None and value < 0:
                raise ConfigurationError("%s cannot be negative (got %r)"
                                         % (name, value))
        if faults is not None and not isinstance(faults, FaultPlan):
            faults = FaultPlan.from_dict(faults)
        if retry_policy is not None and not isinstance(retry_policy,
                                                       RetryPolicy):
            retry_policy = RetryPolicy.from_dict(retry_policy)
        self.faults = faults
        self.fault_seed = fault_seed
        self.retry_policy = retry_policy
        self.db = db
        self.machine = machine
        self.strategy = make_strategy(strategy)
        self.num_streams = num_streams
        self.micro_technique = MicroTechnique.parse(micro_technique)
        self.enable_caching = enable_caching
        self.cache_bytes = cache_bytes
        self.cache_policy = cache_policy
        self.mm_buffer_bytes = mm_buffer_bytes
        self.validate_simulation = validate_simulation
        self.tracing = tracing or validate_simulation

    # ------------------------------------------------------------------
    # Setup helpers
    # ------------------------------------------------------------------
    def _absorb_gpu_losses(self, runtime, injector, dead_gpus, recorder):
        """Handle GPUs whose scheduled loss time has passed.

        Loss is detected at round boundaries: a GPU finishes (drains)
        the round in flight and disappears before the next one.  Under
        Strategy-P every survivor holds the full WA, so the dead GPU's
        share of the page stream is simply redistributed and the run
        continues — slower, but with bit-identical algorithm output.
        Under Strategy-S the dead GPU owned an unrecoverable WA chunk,
        so the run fails with a typed error rather than a wrong answer.
        Returns True when the dead set grew (cached assignments must be
        rebuilt).
        """
        lost = [g for g in injector.gpu_losses_by(runtime.now)
                if g not in dead_gpus and 0 <= g < runtime.num_gpus]
        if not lost:
            return False
        for g in lost:
            dead_gpus.add(g)
            injector.note_device_lost()
            if recorder is not None:
                recorder.instant(
                    "device_lost", runtime.gpus[g].lane, "copy engine",
                    runtime.now, gpu=g,
                    lost_at=injector.plan.gpu_loss[g])
        if not self.strategy.wa_replicated:
            raise DeviceLostError(
                "GPU %d was lost at simulated time %.6f under the %s "
                "strategy; its partitioned WA chunk is gone and cannot "
                "be recovered" % (lost[0], runtime.now,
                                  self.strategy.name),
                device="gpu:%d" % lost[0], lost_at=runtime.now)
        if len(dead_gpus) >= runtime.num_gpus:
            raise DeviceLostError(
                "all %d GPU(s) lost by simulated time %.6f; no device "
                "remains to stream the topology to"
                % (runtime.num_gpus, runtime.now),
                device="gpu:%d" % lost[-1], lost_at=runtime.now)
        return True

    def _mm_buffer_capacity(self):
        topology = self.db.topology_bytes()
        if self.mm_buffer_bytes is not None:
            return min(self.mm_buffer_bytes, self.machine.main_memory)
        if topology <= self.machine.main_memory:
            return topology
        return min(int(self.machine.main_memory),
                   max(self.db.page_bytes(),
                       int(topology * self.machine.buffer_fraction)))

    def _allocate_device_buffers(self, runtime, kernel, max_records):
        """Size and allocate WABuf/RABuf/SPBuf/LPBuf per GPU (RABuf by
        the largest page's ``max_records``); whatever device memory
        remains becomes the page cache.  Raises the paper's O.O.M. when
        WA cannot fit."""
        db = self.db
        wa_total = kernel.wa_bytes(db.num_vertices)
        wa_gpu = self.strategy.wa_gpu_bytes(wa_total, runtime.num_gpus)
        ra_buf = (self.num_streams * max_records
                  * kernel.ra_bytes_per_vertex)
        sp_buf = (self.num_streams * db.config.page_size
                  if db.num_small_pages else 0)
        lp_buf = (self.num_streams * db.config.page_size
                  if db.num_large_pages else 0)
        caches = []
        for gpu in runtime.gpus:
            gpu.allocate(wa_gpu, "WABuf")
            gpu.allocate(ra_buf, "RABuf")
            gpu.allocate(sp_buf, "SPBuf")
            gpu.allocate(lp_buf, "LPBuf")
            if self.enable_caching:
                budget = gpu.free_device_memory()
                if self.cache_bytes is not None:
                    budget = min(budget, self.cache_bytes)
                capacity_pages = int(budget // db.config.page_size)
                gpu.allocate(capacity_pages * db.config.page_size,
                             "page cache")
            else:
                capacity_pages = 0
            caches.append(PageCache(capacity_pages,
                                    policy=self.cache_policy,
                                    recorder=runtime.recorder,
                                    gpu_index=gpu.index))
        return wa_total, caches

    # ------------------------------------------------------------------
    # The run loop (Algorithm 1)
    # ------------------------------------------------------------------
    def run(self, kernel, dataset_name=None, query_id=None,
            deadline=None, timeout_ms=None):
        """Execute ``kernel`` over the database; returns a
        :class:`~repro.core.result.RunResult` with the algorithm output
        and the simulated performance counters.

        When the engine was built with a fault plan, a fresh
        :class:`~repro.faults.FaultInjector` scopes this run's faults
        and is attached to the database's host read path (file-backed
        databases verify checksums against it) for the duration of the
        run only.

        ``query_id`` tags the result (and the service's traces and
        metrics) with the caller's identifier; ``None`` leaves the
        one-shot behaviour unchanged.

        ``deadline`` (absolute ``time.perf_counter()`` seconds) arms a
        cooperative cancellation check between execution rounds: the
        first round boundary past the deadline raises
        :class:`~repro.errors.DeadlineError` instead of finishing the
        run, so a timed-out query releases its gate slot and snapshot
        pin promptly.  ``timeout_ms`` only annotates that error with
        the caller's configured budget.

        The run's host-clock spans (``core.engine.run`` > ``setup`` /
        ``round`` / ``finalize``, see :mod:`repro.spans`) land in the
        calling thread's active recorder; with none active they are
        no-ops that read no clock.
        """
        injector = None
        attached = []
        if self.faults is not None and self.faults.active:
            injector = FaultInjector(self.faults, seed=self.fault_seed,
                                     retry=self.retry_policy)
            for candidate in (self.db, getattr(self.db, "_base", None)):
                if candidate is not None and hasattr(
                        candidate, "attach_fault_injector"):
                    candidate.attach_fault_injector(injector)
                    attached.append(candidate)
        try:
            with span("core.engine.run"):
                return self._run(kernel, dataset_name, injector,
                                 query_id=query_id, deadline=deadline,
                                 timeout_ms=timeout_ms)
        finally:
            for candidate in attached:
                candidate.detach_fault_injector()

    @staticmethod
    def _store_counters(store):
        """``store``'s :data:`_STORE_COUNTERS` so far, by name."""
        return {name: getattr(store, name, 0) for name in _STORE_COUNTERS}

    def _run(self, kernel, dataset_name, injector, query_id=None,
             deadline=None, timeout_ms=None):
        wall_start = _time.perf_counter()
        db = self.db
        # The file store whose counters the run reports: ``db`` itself,
        # or the base under a dynamic overlay or snapshot (an overlay
        # holds none of the counters; it only proxies the pool's).
        store = getattr(db, "_base", db)
        with span("setup"):
            store_start = self._store_counters(store)
            topology = db.topology_bytes()
            recorder = None
            if self.tracing:
                from repro.obs.events import TraceRecorder
                recorder = TraceRecorder()
            runtime = MachineRuntime(
                self.machine, num_streams=self.num_streams,
                page_bytes=db.config.page_size,
                mm_buffer_bytes=self._mm_buffer_capacity(),
                recorder=recorder)
            if runtime.storage is not None:
                runtime.storage.check_fits(topology)
                runtime.storage.fault_injector = injector
            elif topology > runtime.mm_buffer.capacity_bytes:
                raise CapacityError(
                    "graph of %d bytes exceeds main memory %d and the "
                    "machine has no secondary storage" % (
                        topology, runtime.mm_buffer.capacity_bytes),
                    required_bytes=topology,
                    available_bytes=runtime.mm_buffer.capacity_bytes)

            # The database's plan of this topology version, built by
            # the first run on it (one pass over the pages, no sort);
            # every round gathers flat array views from it.
            with span("core.plan.get"):
                plan_arrays = RoundPlanCache.get(db)
            wa_total, caches = self._allocate_device_buffers(
                runtime, kernel, plan_arrays.max_records)
            state = kernel.init_state(db)
            ctx = KernelContext(db, self.micro_technique)
            copy_bytes_all = plan_arrays.copy_bytes(
                kernel.ra_bytes_per_vertex)

            # |G| < MMBuf: load the graph up front (Algorithm 1 lines
            # 9-10).
            preloaded = False
            if topology <= runtime.mm_buffer.capacity_bytes:
                runtime.mm_buffer.preload(np.arange(db.num_pages))
                preloaded = True

            # Step 1: copy WA chunks to the GPUs.
            wa_ready = self.strategy.book_wa_broadcast(runtime, wa_total)

        rounds = []
        scheduler = StreamScheduler(runtime, fault_injector=injector)
        total_edges = 0
        full_order = None
        dead_gpus = set()

        round_index = 0
        while True:
            if deadline is not None:
                now = _time.perf_counter()
                if now > deadline:
                    if timeout_ms is not None:
                        elapsed = now - (deadline - timeout_ms / 1000.0)
                    else:
                        elapsed = now - wall_start
                    raise DeadlineError(
                        "query exceeded its deadline after %.1f ms "
                        "(%d round(s) completed)"
                        % (elapsed * 1000.0, round_index),
                        timeout_ms=timeout_ms,
                        elapsed_seconds=elapsed,
                        rounds_completed=round_index)
            with span("frontier"):
                plan = kernel.next_round(state)
            if plan is None:
                break
            with span("round"):
                if isinstance(plan.pids, str) and plan.pids == ALL_PAGES:
                    small = db.small_page_ids()
                    large = db.large_page_ids()
                else:
                    small, large = plan_arrays.expand_pids(plan.pids)
                stats = RoundStats(round_index=round_index,
                                   description=plan.description,
                                   start_time=runtime.now)
                # nextPIDSet is a page bitmap; the round's kernels OR
                # into it.
                next_pages = (np.zeros(db.num_pages, dtype=bool)
                              if kernel.traversal else None)
                round_start = runtime.now
                if injector is not None:
                    injector.begin_round(round_index)
                    if injector.plan.gpu_loss and self._absorb_gpu_losses(
                            runtime, injector, dead_gpus, recorder):
                        # The survivor set changed; the cached full-scan
                        # order no longer reflects it.
                        full_order = None
                pids_round = np.concatenate([small, large])
                # SPs first, then LPs (reduces kernel switching,
                # Section 3.2).  Full-scan rounds dispatch the same
                # SP-first page sequence every time, so its routing is
                # computed once.
                full_scan = len(pids_round) == plan_arrays.num_pages
                if full_scan and full_order is not None:
                    order = full_order
                else:
                    order = RoundOrder(pids_round, self.strategy.assign_batch(
                        pids_round, runtime.num_gpus, dead_gpus))
                    if full_scan:
                        full_order = order
                with span("core.plan.gather"):
                    batch = plan_arrays.round_batch(pids_round)
                with span("core.kernels.batch"):
                    work = kernel.process_batch(batch, state, ctx)
                stats.pages_dispatched += batch.num_pages
                round_edges = int(work.edges_traversed.sum())
                stats.edges_traversed += round_edges
                stats.active_vertices += int(work.active_vertices.sum())
                total_edges += round_edges
                if next_pages is not None and work.next_pids is not None:
                    next_pages[work.next_pids] = True
                # The scheduler books the round in bulk, with any faults
                # the injector draws for it.
                with span("core.streams.booking"):
                    scheduler.dispatch_round(
                        order, copy_bytes_all[pids_round], work.lane_steps,
                        kernel.cycles_per_lane_step, caches, wa_ready,
                        round_start, stats)

                # Lines 27-30: barrier, WA sync, nextPIDSet merge.
                with span("sync"):
                    barrier = max(gpu.done_at() for gpu in runtime.gpus)
                    sync_end = self.strategy.book_sync(
                        runtime, wa_total, barrier,
                        sync_full_wa=not kernel.traversal)
                    runtime.now = max(barrier, sync_end)
                    for gpu in runtime.gpus:
                        gpu.advance_to(runtime.now)
                    kernel.finish_round(
                        state,
                        None if next_pages is None
                        else np.flatnonzero(next_pages))
                stats.end_time = runtime.now
                if recorder is not None:
                    recorder.instant(
                        "round_barrier", "engine", "rounds", barrier,
                        round=round_index)
                    recorder.interval(
                        "round", "engine", "rounds",
                        stats.start_time, stats.end_time,
                        round=round_index, description=plan.description,
                        pages=stats.pages_dispatched,
                        bytes=stats.bytes_streamed)
                rounds.append(stats)
                round_index += 1

        with span("finalize"):
            values = kernel.results(state)
            io = {name: value - store_start[name] for name, value
                  in self._store_counters(store).items()}
            fault_stats = None
            if injector is not None:
                fault_stats = injector.stats()
                fault_stats["dead_gpus"] = sorted(dead_gpus)
                fault_stats["integrity_retries"] = io["integrity_retries"]
                if runtime.storage is not None:
                    fault_stats["fetch_retries"] = list(
                        runtime.storage.fetch_retries)
                    fault_stats["device_faults"] = list(
                        runtime.storage.faults_injected)
            if self.validate_simulation:
                from repro.hardware.validation import check_runtime
                check_runtime(runtime)
            render_timeline = None
            if recorder is not None:
                from repro.hardware import trace
                render_timeline = functools.partial(
                    trace.render_timeline, recorder, runtime.gpus, 0.0,
                    runtime.now)
        wall = _time.perf_counter() - wall_start
        count("io.file_bytes_read", io["host_bytes_read"])
        count("io.file_reads", io["host_reads"])
        count("io.file_adjacent_reads", io["host_adjacent_reads"])
        if runtime.storage is not None:
            count("io.sim_pages_fetched", runtime.storage.pages_fetched)
            count("io.sim_bytes_read", runtime.storage.bytes_read)
        return RunResult(
            algorithm=kernel.name,
            dataset=dataset_name or db.name,
            values=values,
            elapsed_seconds=runtime.now,
            wall_seconds=wall,
            num_rounds=round_index,
            rounds=rounds,
            pages_streamed=sum(r.pages_dispatched for r in rounds),
            bytes_streamed=sum(r.bytes_streamed for r in rounds),
            storage_bytes_read=(runtime.storage.bytes_read
                                if runtime.storage else 0),
            cache_hits=sum(c.hits for c in caches),
            cache_misses=sum(c.misses for c in caches),
            mm_buffer_hits=runtime.mm_buffer.hits,
            mm_buffer_misses=runtime.mm_buffer.misses,
            pool_hits=io["pool_hits"],
            pool_misses=io["pool_misses"],
            mmap_hits=io["mmap_hits"],
            mmap_misses=io["mmap_misses"],
            transfer_busy_seconds=sum(
                g.copy_engine.busy_time for g in runtime.gpus),
            kernel_busy_seconds=sum(
                g.kernel_busy_time for g in runtime.gpus),
            kernel_stream_seconds=sum(
                g.kernel_stream_time for g in runtime.gpus),
            kernel_invocations=sum(
                g.kernel_invocations for g in runtime.gpus),
            edges_traversed=total_edges,
            num_gpus=runtime.num_gpus,
            num_streams=self.num_streams,
            strategy=self.strategy.name,
            cache_policy=self.cache_policy,
            notes="preloaded" if preloaded else "cold storage",
            render_timeline=render_timeline,
            trace=recorder,
            fault_stats=fault_stats,
            query_id=query_id,
            snapshot_version=getattr(db, "topology_version", 0),
        )
