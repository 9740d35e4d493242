"""Observability for the GTS reproduction (``repro.obs``).

Three layers over one event stream:

* :mod:`repro.obs.events` — typed :class:`TraceEvent` records captured
  by a :class:`TraceRecorder` threaded through the engine, the stream
  scheduler, the page caches, the main-memory buffer and the storage
  array (``ssd_fetch``, ``h2d_copy``, ``kernel``, ``cache_*``,
  ``mm_buffer_*``, ``wa_broadcast``, ``wa_sync``, ``round``).
* :mod:`repro.obs.exporters` — Chrome trace-event JSON for
  Perfetto/chrome://tracing plus the Figure 4-style ASCII view, both
  rendered from the same recorder.
* :mod:`repro.obs.metrics` / :mod:`repro.obs.drift` — a
  :class:`MetricsRegistry` (counters/gauges/histograms, JSON/JSONL
  serialization) and the :class:`CostModelDrift` report comparing each
  run's simulated time against the Eq. 1/Eq. 2 analytic prediction.
* :mod:`repro.obs.analyze` — trace analytics over the same stream:
  per-lane occupancy, the transfer/kernel overlap-hiding ratio (the
  Fig. 4 claim made measurable), per-round category attribution and
  the critical path through round barriers.
* :mod:`repro.obs.compare` / :mod:`repro.obs.history` — run-to-run
  comparison under tolerance rules with typed verdicts
  (improved/unchanged/regressed) and the append-only, schema-versioned
  ``BENCH_history.jsonl`` benchmark trajectory the CI regression gate
  diffs against.
* :mod:`repro.obs.host` — the *host-runtime* profiler: the one
  recorder of nested wall-clock spans (plus real I/O counters) over the
  process's own clock (everything else in ``repro.obs`` measures the
  *simulated* machine).  The program opens spans with
  ``with repro.spans.span(name):``; they land in the
  :class:`HostProfiler` that :func:`repro.spans.activate` made the
  calling thread's, and read no clock when there is none.  Exports
  collapsed-stack flamegraphs and ``host/*`` lanes merged into the
  Chrome trace.

* :mod:`repro.obs.telemetry` — *service-scale* request telemetry:
  per-request span trees (lifecycle phases with the engine's own spans
  under ``engine``, on one :class:`HostProfiler` per request)
  correlated by ``query_id``,
  structured JSON logging, rolling-window (1m/5m) latency/throughput
  histograms, the bounded slow-query ring with head-sampling and
  tail-capture, and the Prometheus ``/metrics`` family builders.

Observability is pay-for-use: with ``tracing=False`` nothing is
recorded and the dispatch hot path takes no measurable overhead; the
same holds for a thread with no active host recorder and an
untelemetered service.
"""

from repro.obs.analyze import (
    CriticalSegment,
    LaneOccupancy,
    OverlapStats,
    RoundProfile,
    TraceAnalysis,
    analyze_trace,
)
from repro.obs.compare import (
    DEFAULT_RULES,
    ComparisonReport,
    MetricDelta,
    ToleranceRule,
    compare_metrics,
    flatten_metrics,
    load_rules,
)
from repro.obs.drift import CostModelDrift, cost_model_drift, record_drift
from repro.obs.events import (
    CACHE_ADMIT,
    CACHE_EVICT,
    CACHE_HIT,
    CACHE_MISS,
    COMPACTION,
    DELTA_APPLY,
    DEVICE_LOST,
    FALLBACK,
    FAULT,
    H2D_COPY,
    KERNEL,
    MM_BUFFER_HIT,
    MM_BUFFER_MISS,
    RETRY,
    ROUND,
    ROUND_BARRIER,
    SSD_FETCH,
    WA_BROADCAST,
    WA_SYNC,
    WAL_APPEND,
    WAL_REPLAY,
    WAL_RESET,
    TraceEvent,
    TraceRecorder,
)
from repro.obs.exporters import (
    MICROSECONDS,
    PROMETHEUS_CONTENT_TYPE,
    ascii_timeline,
    chrome_trace,
    load_chrome_trace,
    recorder_from_chrome_trace,
    render_prometheus,
    validate_chrome_trace,
    validate_prometheus_text,
    write_chrome_trace,
)
from repro.obs.host import (
    HostPhase,
    HostProfile,
    HostProfiler,
    host_chrome_trace,
    load_host_profile,
    merge_host_lanes,
    write_flamegraph,
    write_host_profile,
)
from repro.obs.history import (
    append_history,
    compare_to_baseline,
    describe_history,
    latest_baseline,
    load_history,
    make_record,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    collect_dynamic_metrics,
    collect_run_metrics,
    collect_service_metrics,
)
from repro.obs.telemetry import (
    RequestTrace,
    RollingWindow,
    ServiceTelemetry,
    SlowQueryRing,
    StructuredLogger,
    TelemetryConfig,
    configure_logging,
    get_logger,
    load_ring,
    render_service_metrics,
    service_metric_families,
    summarize_requests,
)

__all__ = [
    "TraceEvent",
    "TraceRecorder",
    "SSD_FETCH",
    "H2D_COPY",
    "KERNEL",
    "CACHE_HIT",
    "CACHE_MISS",
    "CACHE_ADMIT",
    "CACHE_EVICT",
    "MM_BUFFER_HIT",
    "MM_BUFFER_MISS",
    "WA_BROADCAST",
    "WA_SYNC",
    "ROUND",
    "ROUND_BARRIER",
    "WAL_APPEND",
    "WAL_REPLAY",
    "WAL_RESET",
    "DELTA_APPLY",
    "COMPACTION",
    "FAULT",
    "RETRY",
    "FALLBACK",
    "DEVICE_LOST",
    "MICROSECONDS",
    "chrome_trace",
    "write_chrome_trace",
    "ascii_timeline",
    "validate_chrome_trace",
    "recorder_from_chrome_trace",
    "load_chrome_trace",
    "TraceAnalysis",
    "LaneOccupancy",
    "OverlapStats",
    "RoundProfile",
    "CriticalSegment",
    "analyze_trace",
    "ToleranceRule",
    "MetricDelta",
    "ComparisonReport",
    "DEFAULT_RULES",
    "compare_metrics",
    "flatten_metrics",
    "load_rules",
    "make_record",
    "append_history",
    "load_history",
    "latest_baseline",
    "compare_to_baseline",
    "describe_history",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "collect_run_metrics",
    "collect_dynamic_metrics",
    "collect_service_metrics",
    "CostModelDrift",
    "cost_model_drift",
    "record_drift",
    "HostPhase",
    "HostProfile",
    "HostProfiler",
    "host_chrome_trace",
    "load_host_profile",
    "merge_host_lanes",
    "write_flamegraph",
    "write_host_profile",
    "PROMETHEUS_CONTENT_TYPE",
    "render_prometheus",
    "validate_prometheus_text",
    "RequestTrace",
    "RollingWindow",
    "ServiceTelemetry",
    "SlowQueryRing",
    "StructuredLogger",
    "TelemetryConfig",
    "configure_logging",
    "get_logger",
    "load_ring",
    "render_service_metrics",
    "service_metric_families",
    "summarize_requests",
]
