"""The multi-tenant graph query service core.

:class:`GraphService` is a long-lived object that owns open database
handles and runs many queries against them concurrently, sharing the
host-side caches that PRs 1-6 rebuilt per run:

* one :class:`~repro.core.cache.SharedPageCache` per database — decoded
  pages survive across queries, so a warm query skips the disk read and
  the byte-level parse (host wall-clock only; simulated timings and
  outputs stay bit-identical to a cold one-shot run);
* one :class:`~repro.core.plan.RoundPlanCache` per database — the
  flat-array plan every round reads is built once per topology version
  instead of once per engine;
* (for file-backed handles) the database's own page pool, which the
  :mod:`repro.concurrency` locks made safe to share.

Admission control keeps the service honest under load: at most
``max_in_flight`` queries execute at once on a thread pool, at most
``max_queue`` more wait, and anything beyond that is rejected with a
typed :class:`~repro.errors.AdmissionError` (never an unbounded queue).
:meth:`GraphService.drain` starts a graceful shutdown — queries already
admitted finish, new ones get :class:`~repro.errors.ShutdownError`.

Queries whose fault plan injects host-read corruption attach
process-global state to the shared database, so they take the
database's :class:`~repro.concurrency.ReadWriteGate` exclusively and
run alone; ordinary queries share the gate and run fully concurrently.

Live updates (:meth:`GraphService.update`) commit through the dynamic
store's MVCC path instead of the gate's exclusive mode: each query pins
the topology version current at its start and runs against that
snapshot end to end, so update batches — and even compaction — land
mid-query without blocking readers or perturbing their results.  A
query may bound its total latency with the ``timeout_ms`` engine
option; the engine checks the deadline between rounds and raises
:class:`~repro.errors.DeadlineError` (HTTP 504, CLI exit code 4).
"""

import itertools
import threading
import time as _time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.concurrency import InstrumentedLock, ReadWriteGate
from repro.core import (
    BCKernel,
    BFSKernel,
    DegreeKernel,
    GTSEngine,
    KCoreKernel,
    PageRankKernel,
    RWRKernel,
    SSSPKernel,
    WCCKernel,
)
from repro.core.cache import SharedPageCache
from repro.core.plan import RoundPlanCache
from repro.errors import (
    AdmissionError,
    ConfigurationError,
    DeadlineError,
    ServiceError,
    ShutdownError,
)
from repro.hardware.specs import scaled_workstation
from repro.obs.metrics import quantile
from repro.spans import activate, span

#: Service algorithm name -> (kernel factory, needs weighted db).
#: Factories take (params dict, start vertex); parameters default the
#: same way the CLI's one-shot ``run`` command does.
ALGORITHMS = {
    "bfs": (lambda p, start: BFSKernel(start), False),
    "pagerank": (lambda p, start: PageRankKernel(
        iterations=int(p.get("iterations", 10))), False),
    "sssp": (lambda p, start: SSSPKernel(start), True),
    "cc": (lambda p, start: WCCKernel(), False),
    "bc": (lambda p, start: BCKernel(sources=(start,)), False),
    "rwr": (lambda p, start: RWRKernel(
        query_vertex=start, iterations=int(p.get("iterations", 10))),
        False),
    "degree": (lambda p, start: DegreeKernel(), False),
    "kcore": (lambda p, start: KCoreKernel(k=int(p.get("k", 2))), False),
}

#: Engine knobs a query request may override, with service defaults.
ENGINE_OPTIONS = {
    "strategy": "performance",
    "num_streams": 16,
    "num_gpus": 2,
    "num_ssds": 2,
    "micro_technique": "edge",
    "enable_caching": True,
    "cache_policy": "lru",
    # Per-query deadline in milliseconds (None = unlimited).  The clock
    # starts at submit, so queue wait counts against the budget; the
    # engine checks it cooperatively between rounds and raises
    # DeadlineError (HTTP 504, CLI exit 4) when exceeded.
    "timeout_ms": None,
}


class QueryRequest:
    """One query against a served database.

    ``params`` feeds the algorithm factory (``start``, ``iterations``,
    ``k``); ``options`` overrides engine knobs from
    :data:`ENGINE_OPTIONS`; ``faults`` is an optional fault-plan dict
    (such queries run exclusively on their database, see the module
    docstring).  ``query_id`` tags the result, traces and metrics —
    ``None`` lets the service assign ``q<N>``.
    """

    __slots__ = ("database", "algorithm", "params", "options", "faults",
                 "fault_seed", "query_id")

    def __init__(self, database, algorithm, params=None, options=None,
                 faults=None, fault_seed=None, query_id=None):
        self.database = database
        self.algorithm = algorithm
        self.params = dict(params or {})
        self.options = dict(options or {})
        self.faults = faults
        self.fault_seed = fault_seed
        self.query_id = query_id
        unknown = set(self.options) - set(ENGINE_OPTIONS)
        if unknown:
            raise ServiceError(
                "unknown engine option(s): %s (valid: %s)"
                % (", ".join(sorted(unknown)),
                   ", ".join(sorted(ENGINE_OPTIONS))))

    @classmethod
    def from_dict(cls, payload):
        """Build a request from a JSON-ish dict (the HTTP body)."""
        if not isinstance(payload, dict):
            raise ServiceError("query payload must be a JSON object")
        if "database" not in payload or "algorithm" not in payload:
            raise ServiceError(
                "query payload needs 'database' and 'algorithm' keys")
        extras = set(payload) - {"database", "algorithm", "params",
                                 "options", "faults", "fault_seed",
                                 "query_id"}
        if extras:
            raise ServiceError(
                "unknown query key(s): %s" % ", ".join(sorted(extras)))
        return cls(payload["database"], payload["algorithm"],
                   params=payload.get("params"),
                   options=payload.get("options"),
                   faults=payload.get("faults"),
                   fault_seed=payload.get("fault_seed"),
                   query_id=payload.get("query_id"))


class _ServedDatabase:
    """A database handle plus the caches every query on it shares."""

    __slots__ = ("name", "db", "shared_cache", "plan_cache", "gate",
                 "queries", "owns_db", "writer_lock", "updates", "prefix")

    def __init__(self, name, db, shared_cache_pages=None, owns_db=False,
                 prefix=None):
        self.name = name
        self.db = db
        self.shared_cache = SharedPageCache(
            capacity_pages=shared_cache_pages)
        self.plan_cache = RoundPlanCache()
        self.gate = ReadWriteGate()
        self.queries = 0
        #: True when the service opened the database itself (via
        #: ``prefix=``) and therefore owns closing its file handles.
        self.owns_db = owns_db
        #: On-disk prefix when the service opened the database; lets
        #: in-service compaction persist the folded base durably.
        self.prefix = prefix
        # Serialises update batches on this handle.  Updates do NOT
        # take the gate exclusively: MVCC commits a new version while
        # pinned readers keep serving theirs.  They do share the gate
        # as readers, so fault-injecting queries still run alone.
        self.writer_lock = InstrumentedLock()
        self.updates = 0
        # Attach to the handle *and* its base (dynamic overlays keep
        # their file-backed pages on ``_base``, whose miss path is what
        # consults the shared cache).
        for candidate in (db, getattr(db, "_base", None)):
            if candidate is not None and hasattr(candidate,
                                                 "attach_shared_cache"):
                candidate.attach_shared_cache(self.shared_cache)

    def stats(self):
        """JSON-ready per-database cache/lock statistics."""
        db = self.db
        out = {
            "name": self.name,
            "vertices": db.num_vertices,
            "edges": db.num_edges,
            "pages": db.num_pages,
            "topology_version": getattr(db, "topology_version", 0),
            "queries": self.queries,
            "shared_cache": self.shared_cache.stats(),
            "plan_cache": self.plan_cache.stats(),
            "exclusive_queries": self.gate.exclusive_acquisitions,
            "gate": self.gate.stats(),
            "updates": self.updates,
        }
        if hasattr(db, "mvcc_stats"):
            out["mvcc"] = db.mvcc_stats()
        # Dynamic wrappers keep the page pool on their file-backed base.
        pooled = (db if hasattr(db, "pool_lock_stats")
                  else getattr(db, "_base", None))
        if pooled is not None and hasattr(pooled, "pool_lock_stats"):
            out["pool_locks"] = pooled.pool_lock_stats()
            out["pool_hits"] = pooled.pool_hits
            out["pool_misses"] = pooled.pool_misses
        return out


class GraphService:
    """Run graph queries concurrently over shared database handles.

    Parameters
    ----------
    max_in_flight:
        Queries executing at once (the worker-pool width).
    max_queue:
        Queries allowed to wait beyond the in-flight set; a submit
        that would exceed ``max_in_flight + max_queue`` total raises
        :class:`~repro.errors.AdmissionError` instead of queueing.
    shared_cache_pages:
        Per-database :class:`~repro.core.cache.SharedPageCache`
        capacity; ``None`` (default) is unbounded, ``0`` disables
        caching but keeps the accounting (the benchmark baseline).
    telemetry:
        Request telemetry (:mod:`repro.obs.telemetry`): ``None``
        (default) disables it entirely — the request path then
        performs **no** telemetry clock reads at all (the test suite
        proves this by counting) and results are bit-identical either
        way.  ``True`` enables it with defaults; a
        :class:`~repro.obs.telemetry.TelemetryConfig` or
        :class:`~repro.obs.telemetry.ServiceTelemetry` configures
        lifecycle spans, rolling windows, structured logging and the
        slow-query ring.
    """

    def __init__(self, max_in_flight=8, max_queue=64,
                 shared_cache_pages=None, telemetry=None):
        if max_in_flight < 1:
            raise ConfigurationError(
                "service needs at least one in-flight slot")
        if max_queue < 0:
            raise ConfigurationError("queue capacity cannot be negative")
        self.max_in_flight = max_in_flight
        self.max_queue = max_queue
        self.shared_cache_pages = shared_cache_pages
        self._databases = {}
        self._db_lock = InstrumentedLock()
        self._executor = ThreadPoolExecutor(
            max_workers=max_in_flight,
            thread_name_prefix="gts-query")
        self._lock = InstrumentedLock()
        self._queued = 0
        self._in_flight = 0
        self._draining = False
        self._drained = threading.Event()
        self._drained.set()
        self._query_ids = itertools.count()
        # Service-level counters (mutated under self._lock, so exact).
        self.admitted = 0
        self.completed = 0
        self.failed = 0
        self.rejected_admission = 0
        self.rejected_shutdown = 0
        self.peak_in_flight = 0
        self.peak_queued = 0
        self.deadline_exceeded = 0
        self.updates_applied = 0
        self._wall_latencies = []
        # Telemetry is imported lazily and only when requested, so an
        # untelemetered service never loads (or clocks through) the
        # telemetry module.
        if telemetry is None or telemetry is False:
            self.telemetry = None
        else:
            from repro.obs.telemetry import (ServiceTelemetry,
                                             TelemetryConfig)
            if isinstance(telemetry, ServiceTelemetry):
                self.telemetry = telemetry
            elif isinstance(telemetry, TelemetryConfig):
                self.telemetry = ServiceTelemetry(telemetry)
            elif telemetry is True:
                self.telemetry = ServiceTelemetry()
            else:
                raise ConfigurationError(
                    "telemetry must be None, True, a TelemetryConfig "
                    "or a ServiceTelemetry, got %r" % (telemetry,))

    # ------------------------------------------------------------------
    # Database registry
    # ------------------------------------------------------------------
    def add_database(self, name, db=None, prefix=None, pool_pages=256):
        """Serve ``db`` (or lazily open ``<prefix>.meta.json/.pages``
        through the WAL-aware dynamic opener) under ``name``.

        The handle gets its own shared page cache, plan cache and
        read/write gate; re-registering a name raises
        :class:`~repro.errors.ServiceError`.  Returns the handle.
        """
        if (db is None) == (prefix is None):
            raise ServiceError(
                "add_database needs exactly one of db= or prefix=")
        owns_db = db is None
        if db is None:
            from repro.dynamic import open_dynamic_database
            db = open_dynamic_database(prefix, pool_pages=pool_pages)
        with self._db_lock:
            if name in self._databases:
                raise ServiceError(
                    "database %r is already being served" % name)
            self._databases[name] = _ServedDatabase(
                name, db, shared_cache_pages=self.shared_cache_pages,
                owns_db=owns_db, prefix=prefix)
        return db

    def remove_database(self, name):
        """Stop serving ``name``: wait for the engines running on it to
        drain (the handle's gate, taken exclusively), then detach the
        shared cache and close the file store if the service opened it.
        A query that reaches the gate afterwards fails with the closed
        store's typed :class:`~repro.errors.FormatError`."""
        with self._db_lock:
            entry = self._databases.pop(name, None)
        if entry is None:
            raise ServiceError("unknown database %r" % name)
        candidates = [c for c in (entry.db, getattr(entry.db, "_base", None))
                      if c is not None]
        entry.gate.acquire_write()
        try:
            for candidate in candidates:
                if hasattr(candidate, "detach_shared_cache"):
                    candidate.detach_shared_cache()
                if entry.owns_db and hasattr(candidate, "close"):
                    candidate.close()
        finally:
            entry.gate.release_write()

    def database_names(self):
        """Names currently served, sorted."""
        with self._db_lock:
            return sorted(self._databases)

    def _entry(self, name):
        with self._db_lock:
            entry = self._databases.get(name)
        if entry is None:
            raise ServiceError(
                "unknown database %r (served: %s)"
                % (name, ", ".join(sorted(self._databases)) or "none"))
        return entry

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------
    def submit(self, request, defer_trace=False):
        """Admit ``request`` and return a Future of its RunResult.

        Raises :class:`~repro.errors.ShutdownError` when draining and
        :class:`~repro.errors.AdmissionError` when full — both *before*
        any work is enqueued, so rejected queries cost nothing.

        ``defer_trace`` (the HTTP layer) opens the request's telemetry
        trace already deferred: the caller, not the worker, completes
        it, after appending its own spans.  The flag is set before the
        query is enqueued, so a query that finishes before its caller
        looks again cannot complete the trace first.
        """
        if not isinstance(request, QueryRequest):
            request = QueryRequest.from_dict(request)
        # Validate the cheap parts up front so malformed queries fail
        # typed instead of occupying a queue slot.
        entry = self._entry(request.database)
        self._validate(request, entry)
        tm = self.telemetry
        admit_ns = tm.now() if tm is not None else None
        rejection = None
        with self._lock:
            if self._draining:
                self.rejected_shutdown += 1
                rejection = ShutdownError(
                    "service is draining; query %r rejected"
                    % request.database)
            elif (self._queued + self._in_flight
                    >= self.max_in_flight + self.max_queue):
                self.rejected_admission += 1
                rejection = AdmissionError(
                    "service at capacity (%d in flight, %d queued)"
                    % (self._in_flight, self._queued),
                    queue_depth=self._queued,
                    in_flight=self._in_flight,
                    max_in_flight=self.max_in_flight,
                    max_queue=self.max_queue)
            else:
                self.admitted += 1
                self._queued += 1
                if self._queued > self.peak_queued:
                    self.peak_queued = self._queued
                self._drained.clear()
                if request.query_id is None:
                    request.query_id = "q%d" % next(self._query_ids)
        if rejection is not None:
            # Raised outside the admission lock so the telemetry fan-out
            # (counter + structured log line) never extends the lock's
            # critical section.
            if tm is not None:
                tm.record_rejection(request, rejection)
            raise rejection
        trace = None
        if tm is not None:
            trace = tm.new_trace(request)
            trace.deferred = defer_trace
            trace.add_phase("admission_wait", admit_ns, trace.submit_ns)
        # The deadline clock starts now — queue wait counts against the
        # caller's budget, so a query stuck behind a full pool times out
        # instead of running long after the client gave up.
        timeout_ms = request.options.get("timeout_ms")
        deadline = (_time.perf_counter() + timeout_ms / 1000.0
                    if timeout_ms is not None else None)
        return self._executor.submit(self._execute, request, entry,
                                     deadline, timeout_ms, trace)

    def query(self, database, algorithm, **kwargs):
        """Blocking convenience: submit and wait for the RunResult.

        Keyword arguments are :class:`QueryRequest` fields
        (``params``, ``options``, ``faults``, ``fault_seed``,
        ``query_id``).
        """
        return self.submit(QueryRequest(database, algorithm,
                                        **kwargs)).result()

    # ------------------------------------------------------------------
    # Live updates
    # ------------------------------------------------------------------
    def update(self, database, batch, compact_threshold=None):
        """Apply an :class:`~repro.dynamic.UpdateBatch` to a served
        database while queries keep running.

        MVCC makes this safe without stopping the world: the batch
        commits a new topology version; queries already in flight keep
        their pinned snapshot, queries submitted afterwards see the new
        head.  Batches on one handle serialise on its writer lock;
        against *readers* the update only takes the gate in shared
        mode, so it excludes fault-injecting exclusive queries (which
        mutate process-global read state) but never ordinary ones.

        ``compact_threshold`` (bytes) folds the delta overlay once it
        exceeds the threshold, persisting the new base durably when the
        service opened the database from a ``prefix``.  Returns a
        JSON-ready dict describing the commit.
        """
        from repro.dynamic.batch import UpdateBatch
        from repro.dynamic.compact import maybe_compact

        entry = self._entry(database)
        if isinstance(batch, dict):
            batch = UpdateBatch.from_dict(batch)
        if not hasattr(entry.db, "apply"):
            raise ServiceError(
                "database %r is not dynamic; serve it through "
                "open_dynamic_database (prefix=) to accept updates"
                % database)
        with self._lock:
            if self._draining:
                self.rejected_shutdown += 1
                raise ShutdownError(
                    "service is draining; update to %r rejected"
                    % database)
        with entry.writer_lock:
            entry.gate.acquire_read()
            try:
                report = entry.db.apply(batch)
            finally:
                entry.gate.release_read()
            compaction = None
            if compact_threshold is not None:
                save_prefix = entry.prefix if entry.owns_db else None
                compaction = maybe_compact(
                    entry.db, threshold_bytes=compact_threshold,
                    save_prefix=save_prefix)
        with self._lock:
            entry.updates += 1
            self.updates_applied += 1
        out = {
            "database": database,
            "topology_version": report.topology_version,
            "edges_inserted": report.inserted_edges,
            "edges_deleted": report.deleted_edges,
            "vertices_added": report.added_vertices,
            "delta_bytes": entry.db.delta_bytes,
            "compacted": compaction is not None,
        }
        if compaction is not None:
            out["compaction"] = {
                "folded_bytes": compaction.folded_bytes,
                "folded_batches": compaction.folded_batches,
                "num_pages_after": compaction.num_pages_after,
                "retained_versions": compaction.retained_versions,
            }
        if hasattr(entry.db, "mvcc_stats"):
            out["mvcc"] = entry.db.mvcc_stats()
        return out

    def _validate(self, request, entry):
        spec = ALGORITHMS.get(request.algorithm)
        if spec is None:
            raise ServiceError(
                "unknown algorithm %r (valid: %s)"
                % (request.algorithm, ", ".join(sorted(ALGORITHMS))))
        if spec[1] and entry.db.config.weight_bytes == 0:
            raise ServiceError(
                "algorithm %r needs edge weights, but database %r was "
                "built without them" % (request.algorithm, entry.name))
        start = request.params.get("start")
        if start is not None and not (
                0 <= int(start) < entry.db.num_vertices):
            raise ServiceError(
                "start vertex %r outside database %r (%d vertices)"
                % (start, entry.name, entry.db.num_vertices))
        timeout_ms = request.options.get("timeout_ms")
        if timeout_ms is not None and not (
                isinstance(timeout_ms, (int, float))
                and timeout_ms > 0):
            raise ServiceError(
                "timeout_ms must be a positive number, got %r"
                % (timeout_ms,))

    def _build_engine(self, request, entry, db=None, tracing=False):
        options = dict(ENGINE_OPTIONS)
        options.update(request.options)
        machine = scaled_workstation(num_gpus=options["num_gpus"],
                                     num_ssds=options["num_ssds"])
        return GTSEngine(
            entry.db if db is None else db, machine,
            tracing=tracing,
            strategy=options["strategy"],
            num_streams=options["num_streams"],
            micro_technique=options["micro_technique"],
            enable_caching=options["enable_caching"],
            cache_policy=options["cache_policy"],
            faults=request.faults,
            fault_seed=request.fault_seed,
            plan_cache=entry.plan_cache)

    def _execute(self, request, entry, deadline=None, timeout_ms=None,
                 trace=None):
        recorder = None
        if trace is not None:
            # A worker picked the request up: everything since submit
            # was queueing.
            trace.add_phase("queue_wait", trace.submit_ns,
                            self.telemetry.now())
            recorder = trace.recorder
        with self._lock:
            self._queued -= 1
            self._in_flight += 1
            if self._in_flight > self.peak_in_flight:
                self.peak_in_flight = self._in_flight
        status, error = "ok", None
        wall_start = _time.perf_counter()
        try:
            # The request's recorder is this worker's for the length of
            # the query: the lifecycle spans below and the engine's own
            # land in it (no trace, no recorder: they are no-ops).
            with activate(recorder):
                result = self._run_query(request, entry, deadline,
                                         timeout_ms, trace)
            if trace is not None:
                trace.simulated_seconds = result.elapsed_seconds
                if trace.sampled and result.trace is not None:
                    from repro.obs.exporters import chrome_trace
                    trace.chrome = chrome_trace(result.trace)
            return result
        except DeadlineError as exc:
            status, error = "deadline", exc
            raise
        except BaseException as exc:
            status, error = "error", exc
            raise
        finally:
            wall = _time.perf_counter() - wall_start
            with self._lock:
                self._in_flight -= 1
                entry.queries += 1
                if status == "ok":
                    self.completed += 1
                else:
                    self.failed += 1
                if status == "deadline":
                    self.deadline_exceeded += 1
                self._wall_latencies.append(wall)
                if not self._in_flight and not self._queued:
                    self._drained.set()
            # Completion (windows, log line, tail capture) stays out of
            # the admission lock.  The HTTP layer *defers* completion at
            # submit to append its serialize span first; complete() is
            # idempotent all the same.
            if trace is not None:
                trace.set_status(status, error)
                if not trace.deferred:
                    self.telemetry.complete(trace)

    def _run_query(self, request, entry, deadline, timeout_ms, trace):
        """Pin, take the gate, run: each step once, under its span."""
        if deadline is not None and _time.perf_counter() > deadline:
            # Queued past the whole budget; fail before doing work.
            elapsed = (_time.perf_counter()
                       - (deadline - timeout_ms / 1000.0))
            raise DeadlineError(
                "query spent its whole %.0f ms budget queued "
                "(%.1f ms elapsed)" % (timeout_ms, elapsed * 1000.0),
                timeout_ms=timeout_ms, elapsed_seconds=elapsed,
                rounds_completed=0)
        # Fault plans attach process-global state (a corrupting
        # injector) to the shared database; run those alone so the
        # injected budget can never leak into a neighbour's reads.
        exclusive = request.faults is not None
        # Pin the topology version for the whole run: concurrent
        # update batches commit new versions without disturbing this
        # query's view, and the pin keeps the version's state (and
        # retired base, if compaction swapped one out mid-run) from
        # being reclaimed until the query releases it.
        snapshot = None
        if not exclusive and hasattr(entry.db, "pin"):
            with span("snapshot_pin"):
                snapshot = entry.db.pin()
        try:
            view = snapshot if snapshot is not None else entry.db
            start = request.params.get("start")
            start = (int(start) if start is not None
                     else int(np.argmax(view.out_degrees)))
            kernel = ALGORITHMS[request.algorithm][0](request.params,
                                                      start)
            engine = self._build_engine(
                request, entry, db=view,
                tracing=trace is not None and trace.sampled)
            with span("gate_acquire"):
                waited = (entry.gate.acquire_write() if exclusive
                          else entry.gate.acquire_read())
            if trace is not None:
                trace.snapshot_version = getattr(
                    snapshot, "topology_version", None)
                trace.attrs["gate_acquire"] = {
                    "mode": "write" if exclusive else "read",
                    "waited_seconds": round(waited, 9)}
            try:
                with span("engine"):
                    return engine.run(
                        kernel, dataset_name=entry.name,
                        query_id=request.query_id,
                        deadline=deadline, timeout_ms=timeout_ms)
            finally:
                if exclusive:
                    entry.gate.release_write()
                else:
                    entry.gate.release_read()
        finally:
            if snapshot is not None:
                snapshot.release()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def draining(self):
        """True once :meth:`drain` has been called."""
        with self._lock:
            return self._draining

    def drain(self, wait=True, timeout=None):
        """Begin graceful shutdown: stop admitting, finish the rest.

        With ``wait`` the call blocks until every admitted query has
        completed (or ``timeout`` seconds pass — returns False then).
        Safe to call more than once, and from signal handlers.
        """
        with self._lock:
            self._draining = True
        finished = self._drained.wait(timeout) if wait else True
        if wait and finished:
            self._executor.shutdown(wait=True)
        return finished

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def _latency_quantiles(self):
        """Cumulative wall-latency quantiles, linearly interpolated.

        Always returns the full shape: an idle service reports
        ``{"count": 0, "p50": None, ...}`` (an explicit null block, not
        a crash or an empty dict), a 1-sample history reports that
        sample for every quantile, and a 2-sample history interpolates
        between the two (p50 is their midpoint) — matching
        :meth:`repro.obs.metrics.Histogram.snapshot` semantics instead
        of the old nearest-rank pick.
        """
        ordered = sorted(self._wall_latencies)
        out = {"count": len(ordered)}
        if not ordered:
            out.update({"p50": None, "p95": None, "p99": None})
            return out
        out.update({"p50": quantile(ordered, 0.50),
                    "p95": quantile(ordered, 0.95),
                    "p99": quantile(ordered, 0.99)})
        return out

    def stats(self):
        """JSON-ready service snapshot: admission state and counters,
        wall-clock latency percentiles, and per-database cache, lock
        and gate statistics."""
        with self._lock:
            snapshot = {
                "queue_depth": self._queued,
                "in_flight": self._in_flight,
                "max_in_flight": self.max_in_flight,
                "max_queue": self.max_queue,
                "draining": self._draining,
                "admitted": self.admitted,
                "completed": self.completed,
                "failed": self.failed,
                "rejected_admission": self.rejected_admission,
                "rejected_shutdown": self.rejected_shutdown,
                "deadline_exceeded": self.deadline_exceeded,
                "updates_applied": self.updates_applied,
                "peak_in_flight": self.peak_in_flight,
                "peak_queued": self.peak_queued,
                "latency_seconds": self._latency_quantiles(),
                "admission_lock": self._lock.stats(),
            }
        if self.telemetry is not None:
            snapshot["rolling"] = self.telemetry.window_snapshot()
            snapshot["telemetry"] = self.telemetry.stats()
        with self._db_lock:
            entries = list(self._databases.values())
        snapshot["databases"] = {entry.name: entry.stats()
                                 for entry in entries}
        return snapshot

    def metrics_text(self):
        """The Prometheus text exposition body (``GET /metrics``).

        Works with telemetry disabled too — then only the cumulative
        service/per-database series appear, without the rolling-window
        families.  Byte-deterministic given an unchanged stats
        snapshot.
        """
        from repro.obs.telemetry import render_service_metrics
        return render_service_metrics(self.stats())
