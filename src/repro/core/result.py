"""Run results: algorithm output plus simulated performance counters."""

import dataclasses
import functools
from typing import Callable, Dict, List, Optional

import numpy as np


@dataclasses.dataclass
class RoundStats:
    """Counters for one engine round (one BFS level / one PR iteration)."""

    round_index: int
    description: str
    pages_dispatched: int = 0
    pages_from_cache: int = 0
    pages_from_buffer: int = 0
    pages_from_storage: int = 0
    bytes_streamed: int = 0
    edges_traversed: int = 0
    active_vertices: int = 0
    start_time: float = 0.0
    end_time: float = 0.0

    @property
    def elapsed(self):
        return self.end_time - self.start_time


@dataclasses.dataclass
class RunResult:
    """Everything a :class:`~repro.core.engine.GTSEngine` run produces.

    ``values`` holds the algorithm's output vectors (e.g. ``{"level": ...}``
    for BFS, ``{"rank": ...}`` for PageRank).  ``elapsed_seconds`` is the
    *simulated* wall-clock of the run on the configured machine — the
    quantity the paper's figures plot.  ``wall_seconds`` is the real time
    this process spent computing, reported separately so nobody mistakes
    one for the other.
    """

    algorithm: str
    dataset: str
    values: Dict[str, np.ndarray]
    elapsed_seconds: float
    wall_seconds: float
    num_rounds: int
    rounds: List[RoundStats]
    pages_streamed: int = 0
    bytes_streamed: int = 0
    storage_bytes_read: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    mm_buffer_hits: int = 0
    mm_buffer_misses: int = 0
    #: Host page-pool counters (file-backed databases only; both stay 0
    #: for eager in-memory databases).
    pool_hits: int = 0
    pool_misses: int = 0
    #: Always 0 (there is no second host page cache); the ledger sums them.
    shared_hits: int = 0
    shared_misses: int = 0
    #: Mapped page-store traffic (file-backed databases only): a hit
    #: decoded straight from an already-verified mapped region; a miss
    #: paid first-touch verification or fell back to the copy read path.
    mmap_hits: int = 0
    mmap_misses: int = 0
    transfer_busy_seconds: float = 0.0
    kernel_busy_seconds: float = 0.0
    #: Sum of per-stream kernel occupancy (what a Figure 4-style stream
    #: profile shows); exceeds ``kernel_busy_seconds`` because one kernel
    #: alone underutilises the device.
    kernel_stream_seconds: float = 0.0
    kernel_invocations: int = 0
    edges_traversed: int = 0
    num_gpus: int = 1
    num_streams: int = 1
    strategy: str = ""
    cache_policy: str = "lru"
    engine: str = "GTS"
    notes: Optional[str] = None
    #: Renders :attr:`timeline` from :attr:`trace` (traced runs only).
    render_timeline: Optional[Callable[[], str]] = dataclasses.field(
        default=None, repr=False, compare=False)
    #: Structured event stream (a :class:`repro.obs.events.TraceRecorder`)
    #: when the engine ran with ``tracing=True``; feed it to
    #: :func:`repro.obs.write_chrome_trace` for a Perfetto-loadable file.
    trace: Optional[object] = None
    #: Fault-injection accounting (:meth:`repro.faults.FaultInjector.stats`
    #: plus per-device counters) when the run had a fault plan; ``None``
    #: for fault-free runs.
    fault_stats: Optional[Dict] = None
    #: Caller-supplied identifier when the run was submitted through the
    #: service layer (``None`` for one-shot runs); tags traces, metrics
    #: and the ``--json`` payload.
    query_id: Optional[str] = None
    #: Topology version the query executed against.  Under the service's
    #: MVCC path this is the version pinned at submit time — concurrent
    #: update batches bump the head but never this run's view.
    snapshot_version: int = 0

    @functools.cached_property
    def timeline(self):
        """Figure 4-style ASCII stream timeline of a traced run, rendered
        on first read; None when the run was not traced."""
        return self.render_timeline and self.render_timeline()

    def analyze(self):
        """Trace analytics for this run: lane occupancy, the
        transfer/kernel overlap-hiding ratio, per-round category
        attribution and the critical path.

        Requires the engine to have run with ``tracing=True`` (the
        analysis consumes :attr:`trace`); the report is computed once
        and cached on the result.  Returns a
        :class:`repro.obs.analyze.TraceAnalysis`.
        """
        cached = getattr(self, "_analysis", None)
        if cached is None:
            from repro.obs.analyze import analyze_trace

            cached = self._analysis = analyze_trace(self.trace)
        return cached

    def round_profiles(self):
        """Per-round :class:`repro.obs.analyze.RoundProfile` time series
        (storage/transfer/kernel/sync attribution, cache traffic and the
        round's critical lane).  Traced runs only."""
        return self.analyze().rounds

    @property
    def cache_hit_rate(self):
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def mm_buffer_hit_rate(self):
        total = self.mm_buffer_hits + self.mm_buffer_misses
        return self.mm_buffer_hits / total if total else 0.0

    @property
    def pool_hit_rate(self):
        total = self.pool_hits + self.pool_misses
        return self.pool_hits / total if total else 0.0

    @property
    def mmap_hit_rate(self):
        """Zero-copy hit rate of the mmap page store during this run."""
        total = self.mmap_hits + self.mmap_misses
        return self.mmap_hits / total if total else 0.0

    @property
    def transfer_to_kernel_ratio(self):
        """The paper's Table 1 quantity: transfer time : kernel time.

        Returned as a single float ``transfer / kernel`` so ``0.33`` reads
        as the paper's "1:3" and ``2.0`` as "2:1".  Kernel time here is
        device-level busy time (true kernel work at the aggregate rate);
        ``kernel_stream_seconds`` holds the per-stream occupancy view.
        """
        if self.kernel_busy_seconds <= 0:
            return float("inf") if self.transfer_busy_seconds > 0 else 0.0
        return self.transfer_busy_seconds / self.kernel_busy_seconds

    def mteps(self):
        """Millions of traversed edges per simulated second."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.edges_traversed / self.elapsed_seconds / 1e6

    def summary(self):
        """One-line report used by examples and benches."""
        ratio = self.transfer_to_kernel_ratio
        pool = ""
        if self.pool_hits + self.pool_misses:
            pool = ", page-pool hit rate %.1f%%" % (
                100.0 * self.pool_hit_rate)
        if self.mmap_hits + self.mmap_misses:
            pool += ", mmap hit rate %.1f%%" % (100.0 * self.mmap_hit_rate)
        if self.fault_stats:
            pool += ", %d fault(s) injected (%d retries)" % (
                self.fault_stats.get("faults_injected", 0),
                self.fault_stats.get("retries", 0))
        return (
            "%s on %s [%s, %d GPU(s), %d stream(s)]: %.6f s simulated, "
            "%d rounds, %d pages streamed, cache hit rate %.1f%%, "
            "mm-buffer hit rate %.1f%%%s, transfer:kernel %s"
            % (self.algorithm, self.dataset, self.strategy or self.engine,
               self.num_gpus, self.num_streams, self.elapsed_seconds,
               self.num_rounds, self.pages_streamed,
               100.0 * self.cache_hit_rate,
               100.0 * self.mm_buffer_hit_rate, pool,
               "inf" if ratio == float("inf") else "%.2f" % ratio)
        )

    def to_dict(self, include_values=False):
        """JSON-ready dict of the run (the CLI's ``--json`` payload).

        Value arrays are summarised (dtype/size/min/max) unless
        ``include_values`` is set; the trace recorder and the ASCII
        timeline are always left out — export those with
        :mod:`repro.obs.exporters`.
        """
        out = {
            "algorithm": self.algorithm,
            "dataset": self.dataset,
            "engine": self.engine,
            "strategy": self.strategy,
            "cache_policy": self.cache_policy,
            "elapsed_seconds": self.elapsed_seconds,
            "wall_seconds": self.wall_seconds,
            "num_rounds": self.num_rounds,
            "num_gpus": self.num_gpus,
            "num_streams": self.num_streams,
            "pages_streamed": self.pages_streamed,
            "bytes_streamed": self.bytes_streamed,
            "storage_bytes_read": self.storage_bytes_read,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": self.cache_hit_rate,
            "mm_buffer_hits": self.mm_buffer_hits,
            "mm_buffer_misses": self.mm_buffer_misses,
            "mm_buffer_hit_rate": self.mm_buffer_hit_rate,
            "pool_hits": self.pool_hits,
            "pool_misses": self.pool_misses,
            "pool_hit_rate": self.pool_hit_rate,
            "shared_hits": self.shared_hits,
            "shared_misses": self.shared_misses,
            "mmap_hits": self.mmap_hits,
            "mmap_misses": self.mmap_misses,
            "mmap_hit_rate": self.mmap_hit_rate,
            "query_id": self.query_id,
            "snapshot_version": self.snapshot_version,
            "transfer_busy_seconds": self.transfer_busy_seconds,
            "kernel_busy_seconds": self.kernel_busy_seconds,
            "kernel_stream_seconds": self.kernel_stream_seconds,
            "kernel_invocations": self.kernel_invocations,
            "edges_traversed": self.edges_traversed,
            "mteps": self.mteps(),
            "transfer_to_kernel_ratio": (
                None if self.kernel_busy_seconds <= 0
                else self.transfer_to_kernel_ratio),
            "notes": self.notes,
            "fault_stats": self.fault_stats,
            "rounds": [
                {
                    "round_index": r.round_index,
                    "description": r.description,
                    "pages_dispatched": r.pages_dispatched,
                    "pages_from_cache": r.pages_from_cache,
                    "pages_from_buffer": r.pages_from_buffer,
                    "pages_from_storage": r.pages_from_storage,
                    "bytes_streamed": r.bytes_streamed,
                    "edges_traversed": r.edges_traversed,
                    "active_vertices": r.active_vertices,
                    "start_time": r.start_time,
                    "end_time": r.end_time,
                    "elapsed": r.elapsed,
                }
                for r in self.rounds
            ],
        }
        values = {}
        for key, array in self.values.items():
            array = np.asarray(array)
            if include_values:
                values[key] = array.tolist()
            else:
                summary = {"dtype": str(array.dtype),
                           "size": int(array.size)}
                if array.size:
                    summary["min"] = array.min().item()
                    summary["max"] = array.max().item()
                values[key] = summary
        out["values"] = values
        return out
