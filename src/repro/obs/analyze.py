"""Trace analytics: turn a recorded run into measured claims.

PR 1 made the engine *record* its schedule; this module makes the
recording answer the paper's central question — how much of the
topology-transfer time is actually hidden under kernel execution
(PAPER.md Fig. 4, the ``max(...)`` term of Eq. 1).  Given a
:class:`~repro.obs.events.TraceRecorder` (or a written Chrome-trace
JSON file), :func:`analyze_trace` computes:

* **per-lane occupancy** — busy seconds and busy fraction for every
  ``(process, thread)`` resource lane;
* **overlap-hiding ratio** — per GPU and globally, the fraction of
  ``h2d_copy`` + ``ssd_fetch`` interval time concealed under concurrent
  ``kernel`` intervals.  A multi-stream run hides most of its transfer;
  a ``num_streams=1`` run serializes copy→kernel on its single stream
  and hides none of it (the Fig. 4 ablation, asserted in the tests);
* **per-round attribution** — each round's booked time split by
  category (storage / transfer / kernel / sync), clipped exactly to the
  round's barrier window, plus per-round cache hit/miss counts — the
  :class:`RoundProfile` time series surfaced on
  :meth:`repro.core.result.RunResult.analyze`;
* **critical path** — per round, the lane with the most booked time
  inside the barrier window; the concatenation of those segments is the
  run's critical path through the round barriers.

All arithmetic happens in **integer nanoseconds** (timestamps are
quantized on ingestion), so analyzing a live recorder and re-loading
its written Chrome trace produce *identical* reports — the property
:mod:`repro.obs.compare` relies on to trust diffs between artifacts.
"""

import dataclasses
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.obs.events import (
    CACHE_HIT,
    CACHE_MISS,
    H2D_COPY,
    KERNEL,
    PHASE_COMPLETE,
    ROUND,
    SSD_FETCH,
)

#: Quantization grid: one simulated nanosecond.  Fine enough that no
#: two distinct bookings collapse, coarse enough that the microsecond
#: float round-trip through Chrome-trace JSON is exactly absorbed.
_NS = 1e9

#: Categories whose booked time is attributed to rounds.  ``round``
#: itself is excluded (it is the window, not work inside it) and
#: ``fault``/``dynamic`` events ride on the lanes they delay.
ATTRIBUTED_CATEGORIES = ("storage", "transfer", "kernel", "sync")


def _ns(seconds):
    return int(round(seconds * _NS))


def _seconds(nanos):
    return nanos / _NS


def _merge(intervals):
    """Merge ``(start, end)`` integer intervals into a sorted union."""
    merged = []
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1][1] = end
        else:
            merged.append([start, end])
    return [(s, e) for s, e in merged]


def _total(merged):
    return sum(end - start for start, end in merged)


def _overlap(a, b):
    """Total intersection length of two merged interval unions."""
    total = 0
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if hi > lo:
            total += hi - lo
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return total


@dataclasses.dataclass(frozen=True)
class LaneOccupancy:
    """Busy accounting for one ``(process, thread)`` resource lane."""

    process: str
    thread: str
    busy_seconds: float
    span_seconds: float  #: full analysis window (0 .. last event edge)
    occupancy: float  #: busy / span (0.0 for an empty window)
    num_events: int

    @property
    def lane(self) -> Tuple[str, str]:
        return (self.process, self.thread)

    def to_dict(self):
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class OverlapStats:
    """How much of one transfer source hid under kernel execution."""

    name: str  #: ``gpu<i>`` or ``storage``
    copy_seconds: float  #: union of transfer intervals
    kernel_seconds: float  #: union of the covering kernel intervals
    hidden_seconds: float  #: |transfer ∩ kernel|
    hiding_ratio: float  #: hidden / copy (0.0 when nothing was copied)

    @property
    def exposed_seconds(self):
        return self.copy_seconds - self.hidden_seconds

    def to_dict(self):
        out = dataclasses.asdict(self)
        out["exposed_seconds"] = self.exposed_seconds
        return out


@dataclasses.dataclass(frozen=True)
class CriticalSegment:
    """The dominant lane of one round — one link of the critical path."""

    round_index: int
    process: str
    thread: str
    busy_seconds: float
    round_seconds: float

    @property
    def share(self):
        return (self.busy_seconds / self.round_seconds
                if self.round_seconds > 0 else 0.0)

    def to_dict(self):
        out = dataclasses.asdict(self)
        out["share"] = self.share
        return out


@dataclasses.dataclass(frozen=True)
class RoundProfile:
    """One round's time attribution inside its barrier window."""

    round_index: int
    description: str
    start: float
    end: float
    category_seconds: Dict[str, float]
    cache_hits: int
    cache_misses: int
    critical: Optional[CriticalSegment]

    @property
    def elapsed(self):
        return self.end - self.start

    def to_dict(self):
        return {
            "round_index": self.round_index,
            "description": self.description,
            "start": self.start,
            "end": self.end,
            "elapsed": self.elapsed,
            "category_seconds": dict(self.category_seconds),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "critical": (self.critical.to_dict()
                         if self.critical is not None else None),
        }


@dataclasses.dataclass
class TraceAnalysis:
    """Everything :func:`analyze_trace` derives from one event stream."""

    total_seconds: float
    num_events: int
    lanes: List[LaneOccupancy]
    overlap: List[OverlapStats]  #: one per GPU plus ``storage`` if any
    overlap_hiding_ratio: float  #: aggregate over every transfer source
    copy_seconds: float  #: aggregate transfer-union seconds
    hidden_seconds: float  #: aggregate hidden seconds
    category_seconds: Dict[str, float]  #: whole-run booked time by cat.
    setup_seconds: Dict[str, float]  #: booked time outside any round
    rounds: List[RoundProfile]
    critical_path: List[CriticalSegment]

    @property
    def critical_path_seconds(self):
        return sum(seg.busy_seconds for seg in self.critical_path)

    def lane(self, process, thread) -> Optional[LaneOccupancy]:
        for occupancy in self.lanes:
            if occupancy.lane == (process, thread):
                return occupancy
        return None

    def gpu_overlap(self, gpu_index) -> Optional[OverlapStats]:
        return next((o for o in self.overlap
                     if o.name == "gpu%d" % gpu_index), None)

    def to_dict(self):
        """JSON-ready report (the ``repro obs analyze --json`` payload
        and the ``compare``-able artifact)."""
        return {
            "schema": "gts-trace-analysis/1",
            "total_seconds": self.total_seconds,
            "num_events": self.num_events,
            "overlap_hiding_ratio": self.overlap_hiding_ratio,
            "copy_seconds": self.copy_seconds,
            "hidden_seconds": self.hidden_seconds,
            "exposed_seconds": self.copy_seconds - self.hidden_seconds,
            "critical_path_seconds": self.critical_path_seconds,
            "category_seconds": dict(self.category_seconds),
            "setup_seconds": dict(self.setup_seconds),
            "lanes": [lane.to_dict() for lane in self.lanes],
            "overlap": [stats.to_dict() for stats in self.overlap],
            "rounds": [profile.to_dict() for profile in self.rounds],
            "critical_path": [seg.to_dict()
                              for seg in self.critical_path],
        }

    def summary(self):
        """Multi-line human report (the ``repro obs analyze`` output)."""
        from repro.units import format_seconds

        lines = ["trace analysis over %s (%d events)"
                 % (format_seconds(self.total_seconds), self.num_events)]
        lines.append(
            "overlap-hiding ratio %.1f%%: %s of %s transfer time hidden "
            "under kernels"
            % (100.0 * self.overlap_hiding_ratio,
               format_seconds(self.hidden_seconds),
               format_seconds(self.copy_seconds)))
        for stats in self.overlap:
            lines.append(
                "  %-8s copy %-10s kernel %-10s hidden %-10s (%.1f%%)"
                % (stats.name, format_seconds(stats.copy_seconds),
                   format_seconds(stats.kernel_seconds),
                   format_seconds(stats.hidden_seconds),
                   100.0 * stats.hiding_ratio))
        lines.append("booked time by category:")
        for category in sorted(self.category_seconds):
            lines.append("  %-10s %s" % (
                category,
                format_seconds(self.category_seconds[category])))
        lines.append("top lanes by occupancy:")
        ranked = sorted(self.lanes,
                        key=lambda lane: -lane.busy_seconds)[:6]
        for lane in ranked:
            lines.append("  %-24s %5.1f%% busy (%s)"
                         % ("%s/%s" % lane.lane,
                            100.0 * lane.occupancy,
                            format_seconds(lane.busy_seconds)))
        if self.rounds:
            lines.append("rounds (critical lane per barrier window):")
            shown = self.rounds[:12]
            for profile in shown:
                critical = profile.critical
                lines.append(
                    "  round %-3d %-24s %-9s crit %s (%.0f%%)"
                    % (profile.round_index,
                       profile.description[:24],
                       format_seconds(profile.elapsed),
                       ("%s/%s" % (critical.process, critical.thread)
                        if critical else "-"),
                       100.0 * critical.share if critical else 0.0))
            if len(self.rounds) > len(shown):
                lines.append("  ... %d more round(s)"
                             % (len(self.rounds) - len(shown)))
        return "\n".join(lines)


def _load_events(source, time_scale):
    """Normalise any supported source into a TraceRecorder."""
    from repro.obs.events import TraceRecorder

    if source is None:
        raise ConfigurationError(
            "no trace to analyze (run the engine with tracing=True, or "
            "pass a Chrome-trace JSON path)")
    if isinstance(source, TraceRecorder):
        return source
    if isinstance(source, str):
        import json

        with open(source) as handle:
            source = json.load(handle)
    if isinstance(source, dict):
        from repro.obs.exporters import recorder_from_chrome_trace

        return recorder_from_chrome_trace(source, time_scale=time_scale)
    raise ConfigurationError(
        "cannot analyze %r: expected a TraceRecorder, a Chrome-trace "
        "dict, or a path to a written trace file" % type(source).__name__)


def analyze_trace(source, time_scale=None) -> TraceAnalysis:
    """Analyze a recorded run.

    ``source`` is a :class:`~repro.obs.events.TraceRecorder`, a loaded
    Chrome-trace object, or a path to a written trace file.  Reports
    from the three forms are identical for the same run (timestamps are
    quantized to integer nanoseconds on ingestion).
    """
    from repro.obs.exporters import (MICROSECONDS, _natural_key,
                                     sorted_lanes)

    recorder = _load_events(source,
                            MICROSECONDS if time_scale is None
                            else time_scale)

    # -- quantize: every complete event becomes (lane, name, category,
    #    start_ns, end_ns); instants keep (lane, name, ts_ns).
    complete = []
    instants = []
    for event in recorder.events:
        if event.phase == PHASE_COMPLETE:
            start = _ns(event.start)
            complete.append((event.lane, event.name, event.category,
                             start, start + _ns(event.duration),
                             event.args or {}))
        else:
            instants.append((event.lane, event.name, _ns(event.start),
                             event.args or {}))
    end_ns = max([e[4] for e in complete]
                 + [i[2] for i in instants] + [0])

    # -- per-lane occupancy (lanes never self-overlap by construction,
    #    but merge anyway so malformed input cannot push busy > span).
    lane_intervals = {}
    lane_events = {}
    for lane, _, _, start, end, _ in complete:
        lane_intervals.setdefault(lane, []).append((start, end))
        lane_events[lane] = lane_events.get(lane, 0) + 1
    lanes = []
    span_s = _seconds(end_ns)
    # Natural-sorted like the exporters, not first-appearance order:
    # the same booked schedule must serialise the same way whichever
    # lane happened to emit first.
    for lane in sorted_lanes(recorder):
        merged = _merge(lane_intervals.get(lane, []))
        busy = _total(merged)
        lanes.append(LaneOccupancy(
            process=lane[0], thread=lane[1],
            busy_seconds=_seconds(busy), span_seconds=span_s,
            occupancy=(busy / end_ns if end_ns else 0.0),
            num_events=lane_events.get(lane, 0)))

    # -- overlap hiding: per GPU, that GPU's h2d_copy union against its
    #    kernel union; the shared storage array against all kernels.
    copies = {}  # gpu process -> intervals
    kernels = {}  # gpu process -> intervals
    fetches = []
    for lane, name, _, start, end, _ in complete:
        if name == H2D_COPY:
            copies.setdefault(lane[0], []).append((start, end))
        elif name == KERNEL:
            kernels.setdefault(lane[0], []).append((start, end))
        elif name == SSD_FETCH:
            fetches.append((start, end))
    overlap = []
    copy_total = hidden_total = 0
    all_kernels = _merge([iv for ivs in kernels.values() for iv in ivs])
    for gpu in sorted(set(copies) | set(kernels), key=_natural_key):
        copy_union = _merge(copies.get(gpu, []))
        kernel_union = _merge(kernels.get(gpu, []))
        hidden = _overlap(copy_union, kernel_union)
        copy_len = _total(copy_union)
        overlap.append(OverlapStats(
            name=gpu, copy_seconds=_seconds(copy_len),
            kernel_seconds=_seconds(_total(kernel_union)),
            hidden_seconds=_seconds(hidden),
            hiding_ratio=(hidden / copy_len if copy_len else 0.0)))
        copy_total += copy_len
        hidden_total += hidden
    if fetches:
        fetch_union = _merge(fetches)
        hidden = _overlap(fetch_union, all_kernels)
        fetch_len = _total(fetch_union)
        overlap.append(OverlapStats(
            name="storage", copy_seconds=_seconds(fetch_len),
            kernel_seconds=_seconds(_total(all_kernels)),
            hidden_seconds=_seconds(hidden),
            hiding_ratio=(hidden / fetch_len if fetch_len else 0.0)))
        copy_total += fetch_len
        hidden_total += hidden

    # -- whole-run booked time by category (sum of durations: what the
    #    resources were charged, not a dedup — two GPUs working at once
    #    book two seconds per second, and attribution preserves that).
    category_ns = {}
    for _, _, category, start, end, _ in complete:
        if category in ATTRIBUTED_CATEGORIES:
            category_ns[category] = (category_ns.get(category, 0)
                                     + (end - start))

    # -- per-round windows from the engine's `round` interval events.
    windows = []
    for lane, name, _, start, end, args in complete:
        if name == ROUND and lane == ("engine", "rounds"):
            windows.append((start, end, args))
    windows.sort(key=lambda w: (w[0], w[1]))
    cache_instants = [(name, ts)
                      for _, name, ts, _ in instants
                      if name in (CACHE_HIT, CACHE_MISS)]
    rounds = []
    critical_path = []
    attributed_ns = {}
    for start, end, args in windows:
        per_category = {}
        per_lane = {}
        for lane, name, category, ev_start, ev_end, _ in complete:
            if category not in ATTRIBUTED_CATEGORIES:
                continue
            clipped = min(ev_end, end) - max(ev_start, start)
            if clipped <= 0:
                continue
            per_category[category] = (per_category.get(category, 0)
                                      + clipped)
            per_lane[lane] = per_lane.get(lane, 0) + clipped
        for category, booked in per_category.items():
            attributed_ns[category] = (attributed_ns.get(category, 0)
                                       + booked)
        hits = sum(1 for name, ts in cache_instants
                   if name == CACHE_HIT and start <= ts < end)
        misses = sum(1 for name, ts in cache_instants
                     if name == CACHE_MISS and start <= ts < end)
        critical = None
        if per_lane:
            lane = min(per_lane, key=lambda k: (-per_lane[k], k))
            critical = CriticalSegment(
                round_index=int(args.get("round", len(rounds))),
                process=lane[0], thread=lane[1],
                busy_seconds=_seconds(per_lane[lane]),
                round_seconds=_seconds(end - start))
            critical_path.append(critical)
        rounds.append(RoundProfile(
            round_index=int(args.get("round", len(rounds))),
            description=str(args.get("description", "")),
            start=_seconds(start), end=_seconds(end),
            category_seconds={c: _seconds(v)
                              for c, v in sorted(per_category.items())},
            cache_hits=hits, cache_misses=misses, critical=critical))

    # Booked time not inside any round window (WA broadcast, drain past
    # the last barrier): the exact remainder, so per-round attribution
    # plus setup always sums back to the whole-run totals.
    setup_ns = {
        category: category_ns[category] - attributed_ns.get(category, 0)
        for category in category_ns
    }

    return TraceAnalysis(
        total_seconds=span_s,
        num_events=len(recorder.events),
        lanes=lanes,
        overlap=overlap,
        overlap_hiding_ratio=(hidden_total / copy_total
                              if copy_total else 0.0),
        copy_seconds=_seconds(copy_total),
        hidden_seconds=_seconds(hidden_total),
        category_seconds={c: _seconds(v)
                          for c, v in sorted(category_ns.items())},
        setup_seconds={c: _seconds(v)
                       for c, v in sorted(setup_ns.items())},
        rounds=rounds,
        critical_path=critical_path,
    )

