"""Host-runtime profiling: the *other* clock.

Everything else in :mod:`repro.obs` measures **simulated** time — the
deterministic discrete-event timeline the engine books GPU kernels and
SSD fetches on.  This module measures **host** time: where the Python
process actually spends its wall-clock while driving that simulation —
page decoding in :mod:`repro.format.io`, plan construction and gathers
in :mod:`repro.core.plan`, kernel ``process_batch`` calls, DES booking
in :mod:`repro.core.streams`, and the engine's own setup/round loop.

A :class:`HostProfiler` is the one host-clock recorder: a stack of
nested spans timed with :func:`time.perf_counter_ns`, and nothing else —
no allocator hook, so a recorded run is the program that runs bare (see
ARCHITECTURE, "Simulated vs. host time").  The program opens spans with
``with repro.spans.span(name):``, which records into the profiler
:func:`repro.spans.activate` made current on the calling thread and is
a no-op that reads no clock otherwise.  A span that brackets exactly a
boundary the benchmark ledger traces carries the ledger's layer name
(``core.engine.run``, ``core.plan.get``, ``core.plan.gather``,
``core.kernels.batch``, ``core.streams.booking``, ``format.io.page``),
so the two instruments compare by name.  Service telemetry records each
request's lifecycle on one of these too (:mod:`repro.obs.telemetry`),
so a slow-query record reads from the HTTP handler down to a page
decode.

The finished :class:`HostProfile` exports three ways:

* ``to_metrics()`` — flat ``host.*`` names (per-phase seconds, counts,
  p50/p95 per-call latencies via the shared
  :func:`~repro.obs.metrics.quantile`, I/O counters) so ``repro obs
  compare`` / ``obs history`` tolerance rules can gate per-phase
  wall-clock regressions, not just the end-to-end number;
* ``flamegraph()`` — collapsed-stack text (``a;b;c <self-µs>`` lines,
  the format Brendan Gregg's ``flamegraph.pl`` and speedscope read);
* ``trace_events()`` / :func:`merge_host_lanes` — host spans as extra
  ``host/profile`` lanes merged into the simulated Chrome trace at
  *export* time, so the live recorder and ``result.analyze()`` are
  untouched.

Both text exporters are byte-deterministic given a frozen profile.
"""

import dataclasses
import json
import os
from time import perf_counter_ns as _perf_counter_ns
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.obs.events import PHASE_COMPLETE, TraceEvent, TraceRecorder
from repro.obs.exporters import MICROSECONDS
from repro.obs.metrics import quantile

#: Module-level indirection so tests can count host-clock reads: every
#: read a span makes goes through this symbol.
perf_counter_ns = _perf_counter_ns

#: Separator inside phase paths (``run/round/kernel``).
PATH_SEP = "/"

#: Chrome-trace lane the merged host spans land on.  Distinct from the
#: simulated ``host`` process (mm buffer / bus lanes) so the two clocks
#: never share a swimlane.
HOST_PROCESS = "host/profile"
HOST_THREAD = "wall"

#: ``kind`` stamp on serialized profiles.
PROFILE_KIND = "gts-host-profile"
#: v2 dropped the allocator-hook fields (peak and per-phase net bytes).
PROFILE_SCHEMA = 2

_NS = 1e-9


@dataclasses.dataclass(frozen=True)
class HostPhase:
    """Aggregated host wall-clock for one phase path.

    ``seconds`` is inclusive (children counted); ``self_seconds``
    subtracts direct children.  ``p50_seconds`` / ``p95_seconds`` are
    per-call latency quantiles over the phase's recorded spans.
    """

    path: str
    depth: int
    seconds: float
    self_seconds: float
    count: int
    p50_seconds: Optional[float]
    p95_seconds: Optional[float]

    @property
    def name(self):
        return self.path.rsplit(PATH_SEP, 1)[-1]

    def to_dict(self):
        return dataclasses.asdict(self)


class HostProfile:
    """Frozen snapshot of one profiled run's host-side behavior."""

    def __init__(self, wall_seconds, phases, counters=None,
                 events=(), dropped_events=0):
        self.wall_seconds = float(wall_seconds)
        #: Sorted by path — every consumer below relies on this order
        #: for deterministic output.
        self.phases: List[HostPhase] = sorted(
            phases, key=lambda p: p.path)
        self.counters: Dict[str, float] = dict(counters or {})
        #: Raw closed spans ``(path, rel_start_ns, duration_ns)`` for
        #: the Chrome-lane export (capped at record time).
        self.events: List[Tuple[str, int, int]] = list(events)
        self.dropped_events = int(dropped_events)

    def phase(self, path) -> Optional[HostPhase]:
        for entry in self.phases:
            if entry.path == path:
                return entry
        return None

    def coverage(self) -> float:
        """Fraction of the measured wall-clock inside top-level phases.

        The acceptance bar for the instrumentation: a profiled run's
        depth-1 phases must account for (almost) all of the
        end-to-end host time, or the timers are missing a hot path.
        """
        if self.wall_seconds <= 0.0:
            return 0.0
        covered = sum(p.seconds for p in self.phases if p.depth == 1)
        return min(1.0, covered / self.wall_seconds)

    # -- exporters ---------------------------------------------------------
    def to_metrics(self) -> Dict[str, float]:
        """Flat ``host.*`` metric names for tolerance-ruled gating.

        Per-phase ``.fraction`` (share of wall-clock) is included
        because it is far more host-independent than absolute seconds —
        cross-machine gates should prefer it.
        """
        metrics = {
            "host.wall_seconds": self.wall_seconds,
            "host.coverage": self.coverage(),
            "host.dropped_events": float(self.dropped_events),
        }
        for name in sorted(self.counters):
            metrics["host.%s" % name] = float(self.counters[name])
        for entry in self.phases:
            base = "host.phase.%s" % entry.path
            metrics[base + ".seconds"] = entry.seconds
            metrics[base + ".self_seconds"] = entry.self_seconds
            metrics[base + ".count"] = float(entry.count)
            if self.wall_seconds > 0.0:
                metrics[base + ".fraction"] = \
                    entry.seconds / self.wall_seconds
            if entry.p50_seconds is not None:
                metrics[base + ".p50_seconds"] = entry.p50_seconds
            if entry.p95_seconds is not None:
                metrics[base + ".p95_seconds"] = entry.p95_seconds
        return metrics

    def flamegraph(self) -> str:
        """Collapsed-stack text: one ``a;b;c <self-time-µs>`` line per
        phase path, sorted by path — byte-deterministic for a frozen
        profile and directly consumable by ``flamegraph.pl`` or
        speedscope."""
        lines = []
        for entry in self.phases:
            weight = max(0, int(round(entry.self_seconds * 1e6)))
            lines.append("%s %d"
                         % (entry.path.replace(PATH_SEP, ";"), weight))
        return "\n".join(lines) + ("\n" if lines else "")

    def trace_events(self) -> List[TraceEvent]:
        """The recorded spans as Chrome-lane events (host seconds) on
        the ``host/profile`` process, ready to merge next to the
        simulated lanes."""
        out = []
        for path, rel_start_ns, duration_ns in self.events:
            out.append(TraceEvent(
                name=path.rsplit(PATH_SEP, 1)[-1], category="host",
                phase=PHASE_COMPLETE, start=rel_start_ns * _NS,
                duration=duration_ns * _NS, process=HOST_PROCESS,
                thread=HOST_THREAD, args={"path": path}))
        return out

    def to_dict(self, include_events=False) -> Dict:
        """JSON-ready payload.  Carries a ``metrics`` map in the flat
        shape :func:`repro.obs.compare.flatten_metrics` passes through
        unchanged, so a written host-profile artifact can be fed
        straight to ``repro obs compare``."""
        payload = {
            "kind": PROFILE_KIND,
            "schema": PROFILE_SCHEMA,
            "wall_seconds": self.wall_seconds,
            "coverage": self.coverage(),
            "dropped_events": self.dropped_events,
            "counters": dict(self.counters),
            "phases": [entry.to_dict() for entry in self.phases],
            "metrics": self.to_metrics(),
        }
        if include_events:
            payload["events"] = [list(event) for event in self.events]
        return payload

    @classmethod
    def from_dict(cls, payload) -> "HostProfile":
        if not isinstance(payload, dict) or \
                payload.get("kind") != PROFILE_KIND:
            raise ConfigurationError(
                "not a %s payload" % PROFILE_KIND)
        if payload.get("schema") != PROFILE_SCHEMA:
            raise ConfigurationError(
                "host profile schema v%s is not this reader's (v%d)"
                % (payload.get("schema"), PROFILE_SCHEMA))
        phases = [HostPhase(**entry) for entry in
                  payload.get("phases", [])]
        events = [tuple(event) for event in payload.get("events", [])]
        return cls(payload.get("wall_seconds", 0.0), phases,
                   counters=payload.get("counters"),
                   events=events,
                   dropped_events=payload.get("dropped_events", 0))

    def summary(self) -> str:
        """Compact plain-text table for the CLI."""
        lines = ["host profile: %.4fs wall, coverage %.1f%%"
                 % (self.wall_seconds, 100.0 * self.coverage())]
        for entry in self.phases:
            indent = "  " * entry.depth
            lines.append(
                "%s%-*s %9.4fs (self %7.4fs) x%-6d"
                % (indent, max(1, 30 - 2 * entry.depth), entry.name,
                   entry.seconds, entry.self_seconds, entry.count))
        for name in sorted(self.counters):
            lines.append("  %-30s %s" % (name, self.counters[name]))
        return "\n".join(lines)


class HostProfiler:
    """Records nested host-clock spans: one run, or one request.

    One instance is one measurement: the wall-clock starts at
    construction and ends at :meth:`finish` (or at each
    :meth:`profile` snapshot).  The program reaches it through
    ``with repro.spans.span(name):`` on a thread that
    :func:`repro.spans.activate` gave it to; :meth:`push` /
    :meth:`pop` are that block's two halves, and :meth:`record` files a
    span whose timestamps the caller already holds.  One stack, no
    lock: a profiler is active on one thread at a time, and a span
    costs exactly two clock reads.
    """

    def __init__(self, max_events=200_000):
        self.max_events = max_events
        self._stack = []  # (path, start_ns)
        self._stats = {}  # path -> [total_ns, count]
        #: Closed spans ``(path, start_ns - start_ns of self,
        #: duration_ns)`` in closing order: children before their parent.
        self.events = []
        self.dropped_events = 0
        self._counters = {}
        self.start_ns = perf_counter_ns()

    # -- span recording ----------------------------------------------------
    def _path(self, name):
        if self._stack:
            return self._stack[-1][0] + PATH_SEP + name
        return name

    def push(self, name):
        """Open a nested span; its path is the stack joined with ``/``."""
        self._stack.append((self._path(name), perf_counter_ns()))

    def pop(self):
        """Close the innermost open span and record it."""
        path, start_ns = self._stack.pop()
        self._close(path, start_ns, perf_counter_ns())

    def record(self, name, start_ns, end_ns):
        """File an already-timed span under the innermost open one."""
        self._close(self._path(name), start_ns, end_ns)

    def _close(self, path, start_ns, end_ns):
        stat = self._stats.get(path)
        if stat is None:
            stat = self._stats[path] = [0, 0]
        stat[0] += end_ns - start_ns
        stat[1] += 1
        if len(self.events) < self.max_events:
            self.events.append(
                (path, start_ns - self.start_ns, end_ns - start_ns))
        else:
            self.dropped_events += 1

    def add_counter(self, name, amount):
        """Accumulate a named resource counter (I/O bytes, reads, ...)."""
        self._counters[name] = self._counters.get(name, 0) + amount

    @property
    def depth(self):
        return len(self._stack)

    def calls(self, name):
        """How many spans named ``name`` have closed, at any depth."""
        return sum(stat[1] for path, stat in self._stats.items()
                   if path.rsplit(PATH_SEP, 1)[-1] == name)

    # -- snapshotting ------------------------------------------------------
    def profile(self) -> HostProfile:
        """Non-destructive snapshot of everything recorded so far.

        Open spans are not counted (only closed ones carry a
        duration), so a profiler can keep recording afterwards.
        Per-call quantiles come from the retained events; totals and
        counts are never capped.
        """
        wall_ns = perf_counter_ns() - self.start_ns
        child_total = {}
        for path, stat in self._stats.items():
            if PATH_SEP in path:
                parent = path.rsplit(PATH_SEP, 1)[0]
                child_total[parent] = \
                    child_total.get(parent, 0) + stat[0]
        samples = {}
        for path, _start_ns, duration_ns in self.events:
            samples.setdefault(path, []).append(duration_ns)
        phases = []
        for path, (total_ns, count) in self._stats.items():
            ordered = sorted(samples.get(path, ()))
            p50 = quantile(ordered, 0.50)
            p95 = quantile(ordered, 0.95)
            phases.append(HostPhase(
                path=path,
                depth=path.count(PATH_SEP) + 1,
                seconds=total_ns * _NS,
                self_seconds=max(
                    0, total_ns - child_total.get(path, 0)) * _NS,
                count=count,
                p50_seconds=None if p50 is None else p50 * _NS,
                p95_seconds=None if p95 is None else p95 * _NS))
        return HostProfile(
            wall_ns * _NS, phases, counters=self._counters,
            events=self.events, dropped_events=self.dropped_events)

    def finish(self) -> HostProfile:
        """Close any dangling spans and snapshot."""
        while self._stack:
            self.pop()
        return self.profile()


def span_tree(events):
    """Nest closed spans ``(path, start_ns, duration_ns)`` — in the
    order a :class:`HostProfiler` appends them, children before their
    parent — into ``{"name", "start_ns", "duration_ns", "children"}``
    nodes; returns the top-level ones."""
    waiting = {}  # depth -> closed spans whose parent is still open
    for path, start_ns, duration_ns in events:
        depth = path.count(PATH_SEP)
        waiting.setdefault(depth, []).append({
            "name": path.rsplit(PATH_SEP, 1)[-1],
            "start_ns": start_ns, "duration_ns": duration_ns,
            "children": waiting.pop(depth + 1, [])})
    return waiting.get(0, [])


def merge_host_lanes(recorder, profile) -> TraceRecorder:
    """A new recorder holding the simulated events plus the profile's
    ``host/profile`` lane.

    Merging happens at export time on a *copy* so the live recorder —
    and everything ``result.analyze()`` computes from it — is
    untouched.  Note the two clocks share one time axis in the merged
    view: simulated seconds and host seconds are different quantities
    that merely render side by side.
    """
    merged = TraceRecorder()
    if recorder is not None:
        for event in recorder:
            merged._emit(event)
    for event in profile.trace_events():
        merged._emit(event)
    return merged


def host_chrome_trace(profile, recorder=None, time_scale=MICROSECONDS):
    """Chrome trace JSON for a host profile, optionally merged with a
    simulated-run recorder."""
    from repro.obs.exporters import chrome_trace

    return chrome_trace(merge_host_lanes(recorder, profile),
                        time_scale=time_scale)


def write_flamegraph(profile, path):
    """Write the collapsed-stack flamegraph text to ``path``."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w") as handle:
        handle.write(profile.flamegraph())
    return path


def write_host_profile(profile, path, include_events=False):
    """Write the profile's JSON payload to ``path`` (sorted keys —
    byte-deterministic for a frozen profile)."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(profile.to_dict(include_events=include_events),
                  handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path


def load_host_profile(path) -> HostProfile:
    """Read a written host-profile artifact back."""
    with open(path) as handle:
        return HostProfile.from_dict(json.load(handle))

