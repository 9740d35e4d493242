"""Service-scale request telemetry: lifecycle spans, structured logs,
rolling-window metrics and the slow-query ring.

Everything else in :mod:`repro.obs` observes a *run*; this module
observes a *request* as it crosses the whole service path.  A
:class:`RequestTrace` records one span per lifecycle stage —
``admission_wait`` (the submit-side admission lock), ``queue_wait``
(admitted but waiting for a worker), ``snapshot_pin`` (MVCC version
pinning), ``gate_acquire`` (the database's
:class:`~repro.concurrency.ReadWriteGate`), ``engine`` (the actual run),
``service.http.serialize`` (``RunResult.to_dict``) and ``serialize``
(JSON encoding and the socket write) — correlated end to end by the
request's ``query_id``.  The spans live on the request's own
:class:`~repro.obs.host.HostProfiler`, which the worker thread makes
its active recorder around ``engine.run``: the ``engine`` span's
children are the engine's real spans (setup > plan build > page decode;
round > gather, kernel, booking, sync; finalize), so one record reads
from the HTTP handler down to a page decode.

On top of the spans sit three service-wide layers, all owned by
:class:`ServiceTelemetry`:

* a :class:`StructuredLogger` emitting one sorted-key JSON line per
  request (and per rejection), so a log pipeline can aggregate without
  parsing prose;
* :class:`RollingWindow` fixed-bucket sliding histograms giving
  1-minute / 5-minute p50/p95/p99 and throughput next to the service's
  cumulative-since-boot quantiles;
* a :class:`SlowQueryRing`: head-sampling picks every Nth request for a
  full engine trace, and *tail capture* persists the span tree (plus
  the Chrome trace, when sampled) of any request that overran the
  latency threshold or died with a typed error — to a bounded on-disk
  ring the ``obs requests`` CLI tails, filters and summarizes.

Telemetry is strictly **pay-for-use**, the :mod:`repro.obs.host`
contract: a service built without it never calls this module's clock or
the span clock (the test suite patches both and counts), and no
simulated time or output bit ever depends on whether telemetry is on.
"""

import itertools
import json
import os
import re
import threading
import time as _time
from bisect import bisect_right
from time import perf_counter_ns as _perf_counter_ns

from repro.errors import ConfigurationError
from repro.obs.host import PATH_SEP, HostProfiler, span_tree
from repro.obs.metrics import quantile

#: Module-level indirection so tests can count request-clock reads (the
#: disabled-path-is-free proof patches this symbol, as with
#: :mod:`repro.obs.host`).
perf_counter_ns = _perf_counter_ns

_NS = 1e-9
_MS = 1e-6  # nanoseconds -> milliseconds

#: ``kind`` stamp on serialized slow-query records.
RECORD_KIND = "gts-request-trace"
RECORD_SCHEMA = 1

#: Log-spaced latency bin upper edges (seconds) for the rolling
#: windows: 0.1 ms .. 100 s, ten bins per decade (~26% resolution).
DEFAULT_LATENCY_BOUNDS = tuple(1e-4 * (10.0 ** (i / 10.0))
                               for i in range(61))


# ----------------------------------------------------------------------
# Structured logging
# ----------------------------------------------------------------------
#: Sink installed by :func:`configure_logging`; ``None`` drops events.
_global_stream = None

_loggers = {}
_loggers_lock = threading.Lock()


def configure_logging(stream):
    """Install ``stream`` as the sink for every :func:`get_logger`
    logger (``None`` silences them again).  Returns the previous sink.

    Library code logs unconditionally through its named logger; whether
    anything is written is the *process's* choice, made here — the same
    split stdlib ``logging`` draws between loggers and handlers, minus
    the global mutable level state.
    """
    global _global_stream
    previous = _global_stream
    _global_stream = stream
    return previous


def get_logger(name):
    """The process-wide :class:`StructuredLogger` for ``name``.

    Loggers obtained here share the :func:`configure_logging` sink and
    are silent (and clock-free) until one is installed, so library
    paths — WAL recovery, compaction — can emit structured events
    without ever writing to stderr ad hoc.
    """
    with _loggers_lock:
        logger = _loggers.get(name)
        if logger is None:
            logger = _loggers[name] = StructuredLogger(name)
        return logger


class StructuredLogger:
    """One-JSON-line-per-event logging with sorted keys.

    A logger constructed with an explicit ``stream`` writes there; one
    constructed without (the :func:`get_logger` path) follows the
    global :func:`configure_logging` sink.  Disabled loggers return
    before touching the clock or building the record.
    """

    def __init__(self, name, stream=None):
        self.name = name
        self._stream = stream
        self._lock = threading.Lock()

    @property
    def stream(self):
        """The active sink (own stream, else the global one)."""
        return self._stream if self._stream is not None \
            else _global_stream

    @property
    def enabled(self):
        """True when a sink is installed."""
        return self.stream is not None

    def log(self, event, **fields):
        """Emit one JSON line: ``event``, ``logger``, ``ts`` plus
        ``fields`` (keys sorted; non-JSON values fall back to str)."""
        stream = self.stream
        if stream is None:
            return
        record = {"event": event, "logger": self.name,
                  "ts": round(_time.time(), 6)}
        record.update(fields)
        line = json.dumps(record, sort_keys=True, default=str)
        with self._lock:
            stream.write(line + "\n")
            stream.flush()

    def __repr__(self):
        return "StructuredLogger(%r, enabled=%r)" % (self.name,
                                                     self.enabled)


# ----------------------------------------------------------------------
# Per-request lifecycle spans
# ----------------------------------------------------------------------
def _render(node):
    """One :func:`~repro.obs.host.span_tree` node (nanoseconds since
    submit) as the ring's JSON span (milliseconds)."""
    span = {"name": node["name"],
            "start_ms": round(node["start_ns"] * _MS, 6),
            "duration_ms": round(node["duration_ns"] * _MS, 6)}
    if node.get("attrs"):
        span["attrs"] = dict(node["attrs"])
    if node["children"]:
        span["children"] = [_render(child) for child in node["children"]]
    return span


class RequestTrace:
    """The lifecycle span record of one service request.

    Phases are disjoint top-level spans on :attr:`recorder` inside the
    request's wall time (``submit_ns`` .. ``end_ns``): the service and
    the HTTP layer open them with ``with span(name):`` while the
    recorder is their thread's active one, or file an interval they
    already timed with :meth:`add_phase`.  ``to_dict`` renders the span
    tree the slow-query ring persists.
    """

    __slots__ = ("query_id", "database", "algorithm", "sampled",
                 "recorder", "end_ns", "attrs", "status", "error_type",
                 "error", "snapshot_version", "simulated_seconds",
                 "deferred", "chrome", "_completed")

    def __init__(self, query_id, database, algorithm, sampled=False):
        self.query_id = query_id
        self.database = database
        self.algorithm = algorithm
        self.sampled = sampled
        self.recorder = HostProfiler()
        self.end_ns = None
        self.attrs = {}         # phase name -> attributes
        self.status = None
        self.error_type = None
        self.error = None
        self.snapshot_version = None
        self.simulated_seconds = None
        #: True once the HTTP layer took over completion (so it can
        #: append the ``serialize`` span before the trace finalizes).
        self.deferred = False
        #: Chrome trace object of the sampled engine run, if any.
        self.chrome = None
        self._completed = False

    @property
    def submit_ns(self):
        """When the request was admitted: the recorder's origin."""
        return self.recorder.start_ns

    @property
    def rounds(self):
        """Engine rounds that ran to completion (0 before the engine)."""
        return self.recorder.calls("round")

    def add_phase(self, name, start_ns, end_ns, **attrs):
        """Record one lifecycle phase from timestamps already taken."""
        self.recorder.record(name, start_ns, end_ns)
        if attrs:
            self.attrs[name] = attrs

    def set_status(self, status, error=None):
        """Record the service-side outcome (``ok`` or a typed error)."""
        self.status = status
        if error is not None:
            self.error_type = type(error).__name__
            self.error = str(error)

    def finish(self):
        """Close the root span (idempotent once ``end_ns`` is set)."""
        if self.end_ns is None:
            self.end_ns = perf_counter_ns()

    @property
    def wall_seconds(self):
        """Submit-to-finish wall time (None while still open)."""
        if self.end_ns is None:
            return None
        return (self.end_ns - self.submit_ns) * _NS

    def span_tree(self):
        """The request's span tree: a ``request`` root whose children
        are the lifecycle phases, each with whatever ran inside it."""
        phases = span_tree(self.recorder.events)
        for phase in phases:
            phase["attrs"] = self.attrs.get(phase["name"])
        # The admission_wait phase starts at the pre-admission clock
        # read, before the trace object (and submit_ns) exists — the
        # root must stretch back to cover it.
        start = min([0] + [phase["start_ns"] for phase in phases])
        if self.end_ns is not None:
            end = self.end_ns - self.submit_ns
        else:
            end = max([0] + [phase["start_ns"] + phase["duration_ns"]
                             for phase in phases])
        return _render({"name": "request", "start_ns": start,
                        "duration_ns": end - start, "children": phases})

    def to_dict(self):
        """JSON-ready record (the slow-query ring's on-disk format)."""
        record = {
            "kind": RECORD_KIND,
            "schema": RECORD_SCHEMA,
            "query_id": self.query_id,
            "database": self.database,
            "algorithm": self.algorithm,
            "status": self.status,
            "sampled": self.sampled,
            "wall_ms": (round(self.wall_seconds * 1e3, 6)
                        if self.wall_seconds is not None else None),
            "rounds": self.rounds,
            "span": self.span_tree(),
        }
        if self.error_type is not None:
            record["error_type"] = self.error_type
            record["error"] = self.error
        if self.snapshot_version is not None:
            record["snapshot_version"] = self.snapshot_version
        if self.simulated_seconds is not None:
            record["simulated_seconds"] = self.simulated_seconds
        if self.chrome is not None:
            record["chrome_trace"] = self.chrome
        return record

    def phase_ms(self):
        """``{phase name: duration_ms}`` for the structured log line."""
        out = {}
        for path, _start_ns, duration_ns in self.recorder.events:
            if PATH_SEP not in path:
                out[path] = round(duration_ns * _MS, 6) \
                    + out.get(path, 0.0)
        return out

    def __repr__(self):
        return ("RequestTrace(%r, %s/%s, status=%r)"
                % (self.query_id, self.database, self.algorithm,
                   self.status))


# ----------------------------------------------------------------------
# Rolling-window metrics
# ----------------------------------------------------------------------
class RollingWindow:
    """A sliding histogram over the last ``window_seconds``.

    Time is chopped into ``num_buckets`` fixed buckets; each bucket is
    a small array of counts over log-spaced latency bins (``bounds``),
    so observation is O(log bins), memory is O(buckets x bins) however
    many requests arrive, and expiry is dropping whole buckets — the
    standard fixed-bucket sliding-window estimator.  ``snapshot``
    merges the live buckets and reports count, throughput and
    p50/p95/p99 (each quantile is its bin's upper edge, so the estimate
    is deterministic and conservative).

    ``clock`` (seconds, monotonic) is injectable for deterministic
    tests; it is only consulted when telemetry is enabled.
    """

    def __init__(self, window_seconds, num_buckets=60, bounds=None,
                 clock=None):
        if window_seconds <= 0 or num_buckets < 1:
            raise ConfigurationError(
                "rolling window needs positive span and >=1 bucket "
                "(got %r / %r)" % (window_seconds, num_buckets))
        self.window_seconds = float(window_seconds)
        self.num_buckets = int(num_buckets)
        self.bucket_seconds = self.window_seconds / self.num_buckets
        self.bounds = tuple(bounds) if bounds is not None \
            else DEFAULT_LATENCY_BOUNDS
        self._clock = clock if clock is not None else _time.monotonic
        self._lock = threading.Lock()
        self._buckets = {}  # bucket index -> [bin counts, count, sum]

    def _evict(self, head):
        floor = head - self.num_buckets
        for index in [i for i in self._buckets if i <= floor]:
            del self._buckets[index]

    def observe(self, seconds, now=None):
        """Record one latency observation at ``now`` (clock seconds)."""
        now = self._clock() if now is None else now
        index = int(now // self.bucket_seconds)
        position = bisect_right(self.bounds, seconds)
        with self._lock:
            self._evict(index)
            bucket = self._buckets.get(index)
            if bucket is None:
                bucket = self._buckets[index] = [
                    [0] * (len(self.bounds) + 1), 0, 0.0]
            bucket[0][position] += 1
            bucket[1] += 1
            bucket[2] += seconds

    def _edge(self, position):
        """The latency value reported for bin ``position``: its upper
        edge (the overflow bin reports the last finite edge)."""
        return self.bounds[min(position, len(self.bounds) - 1)]

    def snapshot(self, now=None):
        """Merge the live buckets into a JSON-ready window summary."""
        now = self._clock() if now is None else now
        head = int(now // self.bucket_seconds)
        merged = [0] * (len(self.bounds) + 1)
        count = 0
        total = 0.0
        with self._lock:
            self._evict(head)
            for bucket in self._buckets.values():
                for position, n in enumerate(bucket[0]):
                    merged[position] += n
                count += bucket[1]
                total += bucket[2]
        out = {"window_seconds": self.window_seconds,
               "count": count,
               "throughput_qps": round(count / self.window_seconds, 6),
               "mean_seconds": (round(total / count, 9) if count
                                else None)}
        for name, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
            if not count:
                out[name] = None
                continue
            rank = q * count
            running = 0
            for position, n in enumerate(merged):
                running += n
                if running >= rank:
                    out[name] = self._edge(position)
                    break
        return out


# ----------------------------------------------------------------------
# Slow-query ring
# ----------------------------------------------------------------------
_SAFE_ID = re.compile(r"[^A-Za-z0-9_.-]+")
_RING_NAME = re.compile(r"^req-(\d{8})-.*\.json$")


class SlowQueryRing:
    """A bounded on-disk ring of tail-captured request records.

    Each appended :class:`RequestTrace` record becomes one
    ``req-<seq>-<query_id>.json`` file under ``directory``; once more
    than ``capacity`` records exist the oldest are deleted, so the ring
    holds the *most recent* slow/errored requests and disk use stays
    bounded no matter how unhealthy the service gets.  Sequence numbers
    resume past existing files, so restarts keep appending rather than
    overwriting evidence.
    """

    def __init__(self, directory, capacity=64):
        if capacity < 1:
            raise ConfigurationError(
                "slow-query ring capacity must be >= 1, got %r"
                % (capacity,))
        self.directory = directory
        self.capacity = int(capacity)
        os.makedirs(directory, exist_ok=True)
        self._lock = threading.Lock()
        highest = -1
        for name in os.listdir(directory):
            match = _RING_NAME.match(name)
            if match:
                highest = max(highest, int(match.group(1)))
        self._seq = itertools.count(highest + 1)

    def paths(self):
        """Ring files, oldest first."""
        with self._lock:
            return self._paths_locked()

    def _paths_locked(self):
        names = sorted(name for name in os.listdir(self.directory)
                       if _RING_NAME.match(name))
        return [os.path.join(self.directory, name) for name in names]

    def __len__(self):
        return len(self.paths())

    def append(self, record):
        """Persist ``record`` (a dict or :class:`RequestTrace`) and
        evict past ``capacity``; returns the written path."""
        if hasattr(record, "to_dict"):
            record = record.to_dict()
        query_id = _SAFE_ID.sub("_", str(record.get("query_id") or
                                         "unknown")) or "unknown"
        with self._lock:
            path = os.path.join(
                self.directory,
                "req-%08d-%s.json" % (next(self._seq), query_id))
            with open(path, "w") as handle:
                json.dump(record, handle, sort_keys=True)
                handle.write("\n")
            paths = self._paths_locked()
            for stale in paths[:max(0, len(paths) - self.capacity)]:
                try:
                    os.remove(stale)
                except OSError:
                    pass
        return path

    def records(self):
        """Load every ring record, oldest first (unreadable files are
        skipped — eviction may race a reader)."""
        out = []
        for path in self.paths():
            try:
                with open(path) as handle:
                    out.append(json.load(handle))
            except (OSError, ValueError):
                continue
        return out


def load_ring(directory):
    """Read a slow-query ring directory into a list of records (oldest
    first) — the ``obs requests`` CLI entry point."""
    if not os.path.isdir(directory):
        raise ConfigurationError(
            "%r is not a slow-query ring directory" % (directory,))
    return SlowQueryRing(directory, capacity=1 << 30).records()


def summarize_requests(records):
    """Aggregate ring records: counts by status / error type /
    database, wall-time quantiles and mean phase durations."""
    summary = {"requests": len(records), "by_status": {},
               "by_error_type": {}, "by_database": {},
               "wall_ms": None, "phase_mean_ms": {}}
    walls = []
    phase_totals = {}
    phase_counts = {}
    for record in records:
        status = record.get("status") or "unknown"
        summary["by_status"][status] = \
            summary["by_status"].get(status, 0) + 1
        error_type = record.get("error_type")
        if error_type:
            summary["by_error_type"][error_type] = \
                summary["by_error_type"].get(error_type, 0) + 1
        database = record.get("database") or "unknown"
        summary["by_database"][database] = \
            summary["by_database"].get(database, 0) + 1
        if record.get("wall_ms") is not None:
            walls.append(float(record["wall_ms"]))
        for child in (record.get("span") or {}).get("children") or []:
            name = child.get("name")
            phase_totals[name] = (phase_totals.get(name, 0.0)
                                  + float(child.get("duration_ms", 0.0)))
            phase_counts[name] = phase_counts.get(name, 0) + 1
    if walls:
        ordered = sorted(walls)
        summary["wall_ms"] = {
            "min": ordered[0], "max": ordered[-1],
            "p50": round(quantile(ordered, 0.50), 6),
            "p95": round(quantile(ordered, 0.95), 6),
        }
    summary["phase_mean_ms"] = {
        name: round(phase_totals[name] / phase_counts[name], 6)
        for name in sorted(phase_totals)}
    return summary


# ----------------------------------------------------------------------
# Service telemetry front end
# ----------------------------------------------------------------------
class TelemetryConfig:
    """Knobs for :class:`ServiceTelemetry`.

    ``slow_ms`` is the tail-capture latency threshold (requests slower
    than this, or ending in a typed error, are persisted to the ring);
    ``sample_every`` head-samples every Nth admitted request for a full
    engine Chrome trace (0 disables sampling); ``ring_dir`` /
    ``ring_capacity`` bound the on-disk ring (no directory, no ring);
    ``log_stream`` receives the structured JSON log lines (``None``
    keeps them off).
    """

    __slots__ = ("slow_ms", "sample_every", "ring_dir", "ring_capacity",
                 "log_stream")

    def __init__(self, slow_ms=250.0, sample_every=0, ring_dir=None,
                 ring_capacity=64, log_stream=None):
        if slow_ms is not None and slow_ms < 0:
            raise ConfigurationError(
                "slow_ms must be >= 0 or None, got %r" % (slow_ms,))
        if sample_every < 0:
            raise ConfigurationError(
                "sample_every must be >= 0, got %r" % (sample_every,))
        self.slow_ms = slow_ms
        self.sample_every = int(sample_every)
        self.ring_dir = ring_dir
        self.ring_capacity = ring_capacity
        self.log_stream = log_stream


class ServiceTelemetry:
    """Request telemetry owned by one :class:`GraphService`.

    The service calls :meth:`new_trace` per admitted request,
    :meth:`record_rejection` per typed rejection and :meth:`complete`
    when a trace's last span closes; the HTTP layer may :meth:`defer`
    completion to append the ``serialize`` span first.  Completion
    fans out to the rolling windows, the structured log and (for slow
    or errored requests) the ring — all host-side only.
    """

    def __init__(self, config=None):
        self.config = config if config is not None else TelemetryConfig()
        self.log = StructuredLogger("repro.service",
                                    stream=self.config.log_stream)
        self.windows = {"1m": RollingWindow(60.0, num_buckets=60),
                        "5m": RollingWindow(300.0, num_buckets=60)}
        self.ring = (SlowQueryRing(self.config.ring_dir,
                                   capacity=self.config.ring_capacity)
                     if self.config.ring_dir else None)
        self._lock = threading.Lock()
        self._pending = {}
        self._admissions = 0
        self.requests = 0
        self.sampled = 0
        self.slow = 0
        self.tail_captured = 0
        self.rejections = 0

    # -- per-request lifecycle -----------------------------------------
    @staticmethod
    def now():
        """This module's request clock (patchable in tests)."""
        return perf_counter_ns()

    def new_trace(self, request):
        """Open the lifecycle trace for an admitted request."""
        every = self.config.sample_every
        with self._lock:
            self._admissions += 1
            sampled = bool(every) and self._admissions % every == 0
            if sampled:
                self.sampled += 1
        trace = RequestTrace(request.query_id, request.database,
                             request.algorithm, sampled=sampled)
        with self._lock:
            self._pending[trace.query_id] = trace
        return trace

    def defer(self, query_id):
        """Hand completion of ``query_id``'s trace to the caller (the
        HTTP layer): returns the still-open trace, or ``None`` when it
        already completed (or was never admitted)."""
        with self._lock:
            trace = self._pending.get(query_id)
            if trace is None or trace._completed:
                return None
            trace.deferred = True
            return trace

    def complete(self, trace):
        """Finalize ``trace`` exactly once: close the root span, feed
        the rolling windows, emit the log line, tail-capture."""
        with self._lock:
            if trace._completed:
                return
            trace._completed = True
            self._pending.pop(trace.query_id, None)
        trace.finish()
        wall = trace.wall_seconds
        slow_ms = self.config.slow_ms
        is_error = trace.status not in (None, "ok")
        is_slow = (slow_ms is not None and wall * 1e3 >= slow_ms)
        for window in self.windows.values():
            window.observe(wall)
        captured = False
        if (is_error or is_slow) and self.ring is not None:
            self.ring.append(trace)
            captured = True
        with self._lock:
            self.requests += 1
            if is_slow:
                self.slow += 1
            if captured:
                self.tail_captured += 1
        fields = {
            "query_id": trace.query_id,
            "database": trace.database,
            "algorithm": trace.algorithm,
            "status": trace.status,
            "wall_ms": round(wall * 1e3, 6),
            "sampled": trace.sampled,
            "captured": captured,
            "phases_ms": trace.phase_ms(),
            "rounds": trace.rounds,
        }
        if trace.error_type is not None:
            fields["error_type"] = trace.error_type
        if trace.snapshot_version is not None:
            fields["snapshot_version"] = trace.snapshot_version
        self.log.log("request", **fields)

    def record_rejection(self, request, error):
        """Log a typed admission/shutdown rejection (no trace opens —
        rejected requests must stay as close to free as they were)."""
        with self._lock:
            self.rejections += 1
        self.log.log("request_rejected",
                     database=request.database,
                     algorithm=request.algorithm,
                     error_type=type(error).__name__,
                     error=str(error))

    # -- snapshots ------------------------------------------------------
    def window_snapshot(self):
        """``{window label: rolling summary}`` for ``stats()``."""
        return {label: window.snapshot()
                for label, window in sorted(self.windows.items())}

    def stats(self):
        """JSON-ready telemetry counters for ``stats()``."""
        with self._lock:
            out = {
                "requests": self.requests,
                "sampled": self.sampled,
                "slow": self.slow,
                "tail_captured": self.tail_captured,
                "rejections": self.rejections,
                "slow_ms": self.config.slow_ms,
                "sample_every": self.config.sample_every,
                "log_enabled": self.log.enabled,
            }
        if self.ring is not None:
            out["ring"] = {"directory": self.ring.directory,
                           "capacity": self.ring.capacity,
                           "size": len(self.ring)}
        return out


# ----------------------------------------------------------------------
# Prometheus family construction (rendering lives in obs.exporters)
# ----------------------------------------------------------------------
def _family(families, name, kind, help_text=""):
    family = {"name": name, "type": kind, "help": help_text,
              "samples": []}
    families.append(family)
    return family


def _sample(family, value, **labels):
    if value is None:
        return
    family["samples"].append((labels or None, value))


def service_metric_families(stats):
    """Map a :meth:`GraphService.stats` snapshot onto Prometheus metric
    families (``gts_*``), per-database series labelled
    ``database="name"``.  A pure function of the snapshot, so rendering
    is byte-deterministic given a frozen stats dict."""
    families = []
    for key, help_text in (
            ("queue_depth", "queries waiting for a worker"),
            ("in_flight", "queries currently executing"),
            ("max_in_flight", "worker pool width"),
            ("max_queue", "queue capacity beyond the in-flight set"),
            ("peak_in_flight", "high-water mark of executing queries"),
            ("peak_queued", "high-water mark of queued queries")):
        _sample(_family(families, "gts_service_%s" % key, "gauge",
                        help_text), stats.get(key))
    _sample(_family(families, "gts_service_draining", "gauge",
                    "1 while graceful shutdown is in progress"),
            int(bool(stats.get("draining"))))
    for key, help_text in (
            ("admitted", "queries accepted by admission control"),
            ("completed", "queries finished successfully"),
            ("failed", "queries that raised"),
            ("deadline_exceeded",
             "queries that overran timeout_ms (HTTP 504)"),
            ("updates_applied", "live update batches committed")):
        _sample(_family(families, "gts_service_%s_total" % key,
                        "counter", help_text), stats.get(key))
    rejected = _family(families, "gts_service_rejected_total",
                       "counter", "typed admission-control rejections")
    _sample(rejected, stats.get("rejected_admission"),
            reason="admission")
    _sample(rejected, stats.get("rejected_shutdown"), reason="shutdown")
    latency = stats.get("latency_seconds") or {}
    family = _family(families, "gts_service_latency_seconds", "gauge",
                     "cumulative query wall-clock latency quantiles")
    for quantile, label in (("p50", "0.5"), ("p95", "0.95"),
                            ("p99", "0.99")):
        _sample(family, latency.get(quantile), quantile=label)
    _sample(_family(families, "gts_service_latency_count", "counter",
                    "queries in the cumulative latency history"),
            latency.get("count"))
    rolling = stats.get("rolling") or {}
    if rolling:
        lat = _family(families, "gts_service_window_latency_seconds",
                      "gauge", "rolling-window latency quantiles")
        qps = _family(families, "gts_service_window_throughput_qps",
                      "gauge", "rolling-window request throughput")
        count = _family(families, "gts_service_window_requests",
                        "gauge", "requests inside the rolling window")
        for label in sorted(rolling):
            window = rolling[label]
            for quantile, qlabel in (("p50", "0.5"), ("p95", "0.95"),
                                     ("p99", "0.99")):
                _sample(lat, window.get(quantile), window=label,
                        quantile=qlabel)
            _sample(qps, window.get("throughput_qps"), window=label)
            _sample(count, window.get("count"), window=label)
    telemetry = stats.get("telemetry") or {}
    if telemetry:
        for key, help_text in (
                ("requests", "requests with a completed trace"),
                ("sampled", "head-sampled requests (full engine trace)"),
                ("slow", "requests over the slow_ms threshold"),
                ("tail_captured",
                 "requests persisted to the slow-query ring"),
                ("rejections", "rejections seen by telemetry")):
            _sample(_family(families,
                            "gts_service_telemetry_%s_total" % key,
                            "counter", help_text), telemetry.get(key))
        ring = telemetry.get("ring") or {}
        _sample(_family(families, "gts_service_telemetry_ring_size",
                        "gauge", "records in the slow-query ring"),
                ring.get("size"))
    databases = stats.get("databases") or {}
    db_gauges = {}
    db_counters = {}

    def db_gauge(name, help_text=""):
        if name not in db_gauges:
            db_gauges[name] = _family(families, name, "gauge",
                                      help_text)
        return db_gauges[name]

    def db_counter(name, help_text=""):
        if name not in db_counters:
            db_counters[name] = _family(families, name, "counter",
                                        help_text)
        return db_counters[name]

    for name in sorted(databases):
        db = databases[name]
        label = {"database": name}
        for key in ("vertices", "edges", "pages", "topology_version"):
            _sample(db_gauge("gts_db_%s" % key), db.get(key), **label)
        _sample(db_counter("gts_db_queries_total",
                           "queries run on this handle"),
                db.get("queries"), **label)
        _sample(db_counter("gts_db_updates_total",
                           "update batches committed on this handle"),
                db.get("updates"), **label)
        _sample(db_counter("gts_db_exclusive_queries_total",
                           "fault-isolated exclusive queries"),
                db.get("exclusive_queries"), **label)
        shared = db.get("shared_cache") or {}
        _sample(db_counter("gts_db_shared_cache_hits_total"),
                shared.get("hits"), **label)
        _sample(db_counter("gts_db_shared_cache_misses_total"),
                shared.get("misses"), **label)
        _sample(db_gauge("gts_db_shared_cache_hit_rate"),
                shared.get("hit_rate"), **label)
        plan = db.get("plan_cache") or {}
        _sample(db_counter("gts_db_plan_cache_hits_total"),
                plan.get("hits"), **label)
        _sample(db_counter("gts_db_plan_cache_builds_total"),
                plan.get("builds"), **label)
        gate = db.get("gate") or {}
        _sample(db_gauge("gts_db_gate_writers_waiting"),
                gate.get("writers_waiting"), **label)
        _sample(db_gauge("gts_db_gate_readers_active"),
                gate.get("readers_active"), **label)
        _sample(db_counter("gts_db_gate_writer_wait_seconds_total",
                           "host seconds writers waited for the gate"),
                gate.get("writer_wait_seconds"), **label)
        _sample(db_counter("gts_db_gate_reader_wait_seconds_total",
                           "host seconds readers waited for the gate"),
                gate.get("reader_wait_seconds"), **label)
        _sample(db_counter("gts_db_gate_reader_waits_total",
                           "reader acquisitions that had to wait"),
                gate.get("reader_waits"), **label)
        if "pool_hits" in db:
            _sample(db_counter("gts_db_pool_hits_total"),
                    db.get("pool_hits"), **label)
            _sample(db_counter("gts_db_pool_misses_total"),
                    db.get("pool_misses"), **label)
        mvcc = db.get("mvcc") or {}
        if mvcc:
            _sample(db_gauge("gts_db_mvcc_pinned_snapshots"),
                    mvcc.get("pinned_snapshots"), **label)
            _sample(db_gauge("gts_db_mvcc_version_chain_length"),
                    mvcc.get("version_chain_length"), **label)
            _sample(db_gauge("gts_db_mvcc_oldest_pinned_lag"),
                    mvcc.get("oldest_pinned_lag"), **label)
            _sample(db_counter("gts_db_mvcc_reclaimed_versions_total"),
                    mvcc.get("reclaimed_versions"), **label)
    return families


def render_service_metrics(stats):
    """Render a service stats snapshot as Prometheus exposition text
    (the ``GET /metrics`` body)."""
    from repro.obs.exporters import render_prometheus
    return render_prometheus(service_metric_families(stats))
