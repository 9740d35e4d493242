"""Metrics registry: counters, gauges and histograms for engine runs.

The registry is deliberately small — named instruments with JSON-ready
snapshots — so ``bench/harness.py`` can persist per-run metrics next to
``results/`` and future PRs accumulate a performance trajectory instead
of one-off summary lines.

Conventions
-----------
* **Counter** — monotonically increasing totals (bytes streamed, cache
  hits).
* **Gauge** — point-in-time values (elapsed seconds, hit rates, drift).
* **Histogram** — per-observation distributions (round latency, per-round
  copy bytes); snapshots report count/sum/min/max/mean and p50/p95/p99.

``collect_run_metrics`` maps a :class:`~repro.core.result.RunResult`
onto these instruments with stable metric names, which is what the CLI's
``--metrics-out`` and the bench harness write out.
"""

import dataclasses
import json
import os
from typing import Dict, Optional

from repro.errors import ConfigurationError


class Counter:
    """A monotonically increasing total."""

    kind = "counter"

    def __init__(self, name, help=""):
        self.name = name
        self.help = help
        self.value = 0

    def inc(self, amount=1):
        if amount < 0:
            raise ConfigurationError(
                "counter %r cannot decrease (inc %r)" % (self.name, amount))
        self.value += amount
        return self.value

    def snapshot(self):
        return self.value


class Gauge:
    """A point-in-time value."""

    kind = "gauge"

    def __init__(self, name, help=""):
        self.name = name
        self.help = help
        self.value = None

    def set(self, value):
        self.value = value
        return value

    def snapshot(self):
        return self.value


def quantile(ordered, q):
    """Linear-interpolation quantile over a sorted list (``None`` when
    it is empty)."""
    if not ordered:
        return None
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


class Histogram:
    """A distribution of observations with quantile snapshots."""

    kind = "histogram"

    def __init__(self, name, help=""):
        self.name = name
        self.help = help
        self.values = []

    def observe(self, value):
        self.values.append(float(value))

    def snapshot(self):
        ordered = sorted(self.values)
        if not ordered:
            # Same shape as the populated snapshot so downstream
            # flattening/comparison never KeyErrors on an idle
            # instrument; the statistics are None, not fake zeros.
            return {"count": 0, "sum": 0.0, "min": None, "max": None,
                    "mean": None, "p50": None, "p95": None, "p99": None}
        return {
            "count": len(ordered),
            "sum": sum(ordered),
            "min": ordered[0],
            "max": ordered[-1],
            "mean": sum(ordered) / len(ordered),
            "p50": quantile(ordered, 0.50),
            "p95": quantile(ordered, 0.95),
            "p99": quantile(ordered, 0.99),
        }


class MetricsRegistry:
    """Named instruments plus run-level metadata, serializable to JSON.

    ``meta`` holds identifying labels (algorithm, dataset, strategy, …)
    that distinguish runs inside a shared JSONL file.
    """

    def __init__(self, meta: Optional[Dict[str, object]] = None):
        self.meta = dict(meta or {})
        self._instruments = {}

    def _get(self, cls, name, help):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = cls(name, help=help)
            self._instruments[name] = instrument
        elif not isinstance(instrument, cls):
            raise ConfigurationError(
                "metric %r already registered as a %s"
                % (name, instrument.kind))
        return instrument

    def counter(self, name, help="") -> Counter:
        return self._get(Counter, name, help)

    def gauge(self, name, help="") -> Gauge:
        return self._get(Gauge, name, help)

    def histogram(self, name, help="") -> Histogram:
        return self._get(Histogram, name, help)

    def __contains__(self, name):
        return name in self._instruments

    def __getitem__(self, name):
        return self._instruments[name]

    def names(self):
        return sorted(self._instruments)

    # -- serialization -----------------------------------------------------
    def as_dict(self):
        """JSON-ready snapshot: ``{"meta": ..., "metrics": {name: ...}}``."""
        metrics = {}
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            metrics[name] = {
                "kind": instrument.kind,
                "value": instrument.snapshot(),
            }
        return {"meta": dict(self.meta), "metrics": metrics}

    def to_json(self, path=None, indent=2):
        """Serialize to a JSON string, optionally writing ``path``."""
        payload = json.dumps(self.as_dict(), indent=indent, sort_keys=True,
                             default=_jsonable)
        if path is not None:
            directory = os.path.dirname(os.path.abspath(path))
            os.makedirs(directory, exist_ok=True)
            with open(path, "w") as handle:
                handle.write(payload + "\n")
        return payload

    #: Version stamp written on every JSONL line so trajectory readers
    #: can evolve the record shape without guessing.
    JSONL_SCHEMA_VERSION = 1

    def append_jsonl(self, path, extra_meta=None):
        """Append this registry as one JSONL line (the bench trajectory
        format: one line per run, greppable and diff-friendly).

        Each line is stamped with a ``schema`` version, and
        ``extra_meta`` merges into the record's ``meta`` block at write
        time (without mutating the registry) — so one registry can be
        logged under several experiment labels and every record stays
        self-describing.
        """
        record = self.as_dict()
        record["schema"] = self.JSONL_SCHEMA_VERSION
        if extra_meta:
            record["meta"].update(extra_meta)
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        with open(path, "a") as handle:
            handle.write(json.dumps(record, sort_keys=True,
                                    default=_jsonable) + "\n")
        return path


def _jsonable(value):
    """Fallback encoder for numpy scalars and dataclasses."""
    if dataclasses.is_dataclass(value):
        return dataclasses.asdict(value)
    for attribute in ("item",):  # numpy scalar -> python scalar
        if hasattr(value, attribute):
            return getattr(value, attribute)()
    return str(value)


def collect_run_metrics(result, registry=None, host_profile=None):
    """Populate a registry from a :class:`~repro.core.result.RunResult`
    (and, when the caller recorded one around the run, its
    :class:`~repro.obs.host.HostProfile` as ``host.*`` gauges).

    Returns the registry (a fresh one when none is given).  Metric names
    are stable: changing them breaks the bench trajectory files.
    """
    if registry is None:
        registry = MetricsRegistry()
    registry.meta.setdefault("algorithm", result.algorithm)
    registry.meta.setdefault("dataset", result.dataset)
    registry.meta.setdefault("engine", result.engine)
    registry.meta.setdefault("strategy", result.strategy)
    registry.meta.setdefault("num_gpus", result.num_gpus)
    registry.meta.setdefault("num_streams", result.num_streams)

    registry.gauge("run.elapsed_seconds",
                   "simulated wall-clock").set(result.elapsed_seconds)
    registry.gauge("run.wall_seconds",
                   "real host compute time").set(result.wall_seconds)
    registry.gauge("run.num_rounds", "engine rounds").set(result.num_rounds)
    registry.gauge("run.mteps",
                   "millions of traversed edges per simulated second"
                   ).set(result.mteps())

    registry.counter("run.pages_streamed").inc(result.pages_streamed)
    registry.counter("run.bytes_streamed").inc(result.bytes_streamed)
    registry.counter("run.storage_bytes_read").inc(result.storage_bytes_read)
    registry.counter("run.edges_traversed").inc(result.edges_traversed)
    registry.counter("run.kernel_invocations").inc(result.kernel_invocations)

    registry.counter("cache.hits").inc(result.cache_hits)
    registry.counter("cache.misses").inc(result.cache_misses)
    registry.gauge("cache.hit_rate").set(result.cache_hit_rate)
    registry.meta.setdefault("cache_policy", result.cache_policy)
    registry.gauge("cache.policy_hit_rate.%s"
                   % result.cache_policy).set(result.cache_hit_rate)
    registry.counter("mm_buffer.hits").inc(result.mm_buffer_hits)
    registry.counter("mm_buffer.misses").inc(result.mm_buffer_misses)
    registry.gauge("mm_buffer.hit_rate").set(result.mm_buffer_hit_rate)
    if result.pool_hits or result.pool_misses:
        registry.counter("pool.hits",
                         "host page-pool hits (file-backed DB)"
                         ).inc(result.pool_hits)
        registry.counter("pool.misses",
                         "host page-pool misses (file-backed DB)"
                         ).inc(result.pool_misses)
        registry.gauge("pool.hit_rate").set(result.pool_hit_rate)
    if result.shared_hits or result.shared_misses:
        registry.counter("shared_cache.hits",
                         "cross-query shared-cache hits (disk read + "
                         "parse skipped)").inc(result.shared_hits)
        registry.counter("shared_cache.misses").inc(result.shared_misses)
        registry.gauge("shared_cache.hit_rate").set(
            result.shared_hit_rate)
    if result.query_id is not None:
        registry.meta.setdefault("query_id", result.query_id)

    if result.fault_stats is not None:
        fs = result.fault_stats
        registry.counter("faults.injected",
                         "probabilistic faults that fired"
                         ).inc(fs.get("faults_injected", 0))
        registry.counter("faults.ssd_transient").inc(
            fs.get("ssd_transient_faults", 0))
        registry.counter("faults.ssd_corrupt").inc(
            fs.get("ssd_corrupt_faults", 0))
        registry.counter("faults.copy_errors").inc(fs.get("copy_faults", 0))
        registry.counter("faults.stream_stalls").inc(
            fs.get("stream_stalls", 0))
        registry.counter("faults.host_corrupt").inc(
            fs.get("host_corrupt_faults", 0))
        registry.counter("faults.retries",
                         "recovery retries across all sites"
                         ).inc(fs.get("retries", 0))
        registry.counter("faults.integrity_retries",
                         "host reads re-read after checksum mismatch"
                         ).inc(fs.get("integrity_retries", 0))
        registry.counter("faults.fallback_rounds",
                         "rounds booked per call because a fault fires"
                         ).inc(fs.get("fallback_rounds", 0))
        registry.counter("faults.devices_lost").inc(
            fs.get("devices_lost", 0))
        registry.gauge("faults.backoff_seconds",
                       "simulated backoff charged to faulted channels"
                       ).set(fs.get("backoff_seconds", 0.0))
        registry.gauge("faults.stall_seconds",
                       "simulated stream-stall delay injected"
                       ).set(fs.get("stall_seconds_injected", 0.0))

    registry.gauge("pipeline.transfer_busy_seconds").set(
        result.transfer_busy_seconds)
    registry.gauge("pipeline.kernel_busy_seconds").set(
        result.kernel_busy_seconds)
    registry.gauge("pipeline.transfer_to_kernel_ratio").set(
        result.transfer_to_kernel_ratio)

    latency = registry.histogram("round.latency_seconds",
                                 "per-round simulated latency")
    round_bytes = registry.histogram("round.copy_bytes",
                                     "per-round bytes streamed over PCI-E")
    round_pages = registry.histogram("round.pages_dispatched")
    for stats in result.rounds:
        latency.observe(stats.elapsed)
        round_bytes.observe(stats.bytes_streamed)
        round_pages.observe(stats.pages_dispatched)

    if host_profile is not None:
        for name, value in sorted(host_profile.to_metrics().items()):
            registry.gauge(name).set(value)
    return registry


def collect_dynamic_metrics(db, registry=None):
    """Populate a registry from a dynamic database's update counters.

    ``db`` is any object exposing ``dynamic_stats()`` (see
    :meth:`repro.dynamic.delta.DynamicGraphDatabase.dynamic_stats`);
    returns the registry (a fresh one when none is given).  Names are
    stable, mirroring :func:`collect_run_metrics`.
    """
    if registry is None:
        registry = MetricsRegistry()
    stats = db.dynamic_stats()
    registry.counter("dynamic.applied_batches",
                     "update batches applied").inc(stats["applied_batches"])
    registry.counter("dynamic.inserted_edges").inc(stats["inserted_edges"])
    registry.counter("dynamic.deleted_edges").inc(stats["deleted_edges"])
    registry.counter("dynamic.added_vertices").inc(stats["added_vertices"])
    registry.counter("dynamic.tombstoned_edges").inc(
        stats["tombstoned_edges"])
    registry.gauge("dynamic.delta_bytes",
                   "bytes of unfolded delta overlay"
                   ).set(stats["delta_bytes"])
    registry.gauge("dynamic.delta_pages",
                   "pages whose served form differs from the base"
                   ).set(stats["delta_pages"])
    registry.gauge("dynamic.extension_pages").set(stats["extension_pages"])
    registry.counter("wal.records_appended").inc(
        stats["wal_records_appended"])
    registry.counter("wal.bytes_appended").inc(stats["wal_bytes_appended"])
    registry.counter("compaction.count").inc(stats["compactions"])
    registry.counter("compaction.folded_bytes").inc(
        stats["compaction_folded_bytes"])
    registry.gauge("mvcc.pinned_snapshots",
                   "live snapshot handles pinning a version"
                   ).set(stats.get("pinned_snapshots", 0))
    registry.gauge("mvcc.pinned_versions",
                   "distinct topology versions kept alive by pins"
                   ).set(stats.get("pinned_versions", 0))
    registry.gauge("mvcc.oldest_pinned_lag",
                   "head version minus oldest pinned version"
                   ).set(stats.get("oldest_pinned_lag", 0))
    registry.gauge("mvcc.version_chain_length",
                   "retained versions including the head"
                   ).set(stats.get("version_chain_length", 1))
    registry.counter("mvcc.reclaimed_versions",
                     "versions reclaimed after their pins released"
                     ).inc(stats.get("reclaimed_versions", 0))
    registry.counter("mvcc.snapshots_pinned_total").inc(
        stats.get("snapshots_pinned_total", 0))
    return registry


def collect_service_metrics(stats, registry=None):
    """Populate a registry from a service stats snapshot.

    ``stats`` is :meth:`repro.service.service.GraphService.stats` (or a
    service instance, whose snapshot is taken here).  Returns the
    registry (a fresh one when none is given).  Names are stable,
    mirroring :func:`collect_run_metrics`; per-database cache counters
    are flattened as ``service.db.<name>.*``.
    """
    if registry is None:
        registry = MetricsRegistry()
    if hasattr(stats, "stats"):
        stats = stats.stats()
    registry.gauge("service.queue_depth",
                   "queries waiting for a worker").set(
        stats["queue_depth"])
    registry.gauge("service.in_flight",
                   "queries currently executing").set(stats["in_flight"])
    registry.gauge("service.peak_in_flight").set(stats["peak_in_flight"])
    registry.gauge("service.peak_queued").set(stats["peak_queued"])
    registry.counter("service.admitted",
                     "queries accepted by admission control"
                     ).inc(stats["admitted"])
    registry.counter("service.completed").inc(stats["completed"])
    registry.counter("service.failed").inc(stats["failed"])
    registry.counter("service.rejected_admission",
                     "queries rejected at capacity (HTTP 429)"
                     ).inc(stats["rejected_admission"])
    registry.counter("service.rejected_shutdown",
                     "queries rejected while draining (HTTP 503)"
                     ).inc(stats["rejected_shutdown"])
    latency = stats.get("latency_seconds") or {}
    for quantile in ("p50", "p95", "p99"):
        value = latency.get(quantile)
        if value is not None:
            registry.gauge("service.latency_%s_seconds" % quantile,
                           "query wall-clock latency").set(value)
    for name, db_stats in sorted((stats.get("databases") or {}).items()):
        prefix = "service.db.%s" % name
        shared = db_stats.get("shared_cache") or {}
        registry.counter(prefix + ".queries").inc(db_stats["queries"])
        registry.counter(prefix + ".shared_hits").inc(
            shared.get("hits", 0))
        registry.counter(prefix + ".shared_misses").inc(
            shared.get("misses", 0))
        registry.gauge(prefix + ".shared_hit_rate").set(
            shared.get("hit_rate", 0.0))
        plan = db_stats.get("plan_cache") or {}
        registry.counter(prefix + ".plan_hits").inc(plan.get("hits", 0))
        registry.counter(prefix + ".plan_builds").inc(
            plan.get("builds", 0))
        registry.counter(prefix + ".exclusive_queries").inc(
            db_stats.get("exclusive_queries", 0))
        registry.counter(prefix + ".updates",
                         "update batches committed on this handle"
                         ).inc(db_stats.get("updates", 0))
        gate = db_stats.get("gate") or {}
        registry.gauge(prefix + ".gate_writers_waiting").set(
            gate.get("writers_waiting", 0))
        registry.counter(prefix + ".gate_writer_wait_seconds",
                         "cumulative time writers spent waiting for "
                         "the gate").inc(gate.get("writer_wait_seconds",
                                                  0.0))
        registry.counter(prefix + ".gate_reader_wait_seconds",
                         "cumulative time readers spent waiting for "
                         "the gate").inc(gate.get("reader_wait_seconds",
                                                  0.0))
        mvcc = db_stats.get("mvcc")
        if mvcc:
            registry.gauge(prefix + ".mvcc_pinned_snapshots").set(
                mvcc.get("pinned_snapshots", 0))
            registry.gauge(prefix + ".mvcc_oldest_pinned_lag").set(
                mvcc.get("oldest_pinned_lag", 0))
            registry.gauge(prefix + ".mvcc_version_chain_length").set(
                mvcc.get("version_chain_length", 1))
            registry.counter(prefix + ".mvcc_reclaimed_versions").inc(
                mvcc.get("reclaimed_versions", 0))
    registry.counter("service.deadline_exceeded",
                     "queries that overran timeout_ms (HTTP 504)"
                     ).inc(stats.get("deadline_exceeded", 0))
    registry.counter("service.updates_applied",
                     "live update batches committed via the service"
                     ).inc(stats.get("updates_applied", 0))
    for label, window in sorted((stats.get("rolling") or {}).items()):
        prefix = "service.window.%s" % label
        registry.gauge(prefix + ".count",
                       "requests inside the rolling window").set(
            window.get("count", 0))
        registry.gauge(prefix + ".throughput_qps").set(
            window.get("throughput_qps", 0.0))
        for quantile in ("p50", "p95", "p99"):
            value = window.get(quantile)
            if value is not None:
                registry.gauge(
                    "%s.%s_seconds" % (prefix, quantile),
                    "rolling-window latency").set(value)
    telemetry = stats.get("telemetry") or {}
    if telemetry:
        for key in ("requests", "sampled", "slow", "tail_captured",
                    "rejections"):
            registry.counter("service.telemetry.%s" % key).inc(
                telemetry.get(key, 0))
    return registry
