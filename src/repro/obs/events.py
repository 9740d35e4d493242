"""Typed trace events and the recorder that collects them.

The discrete-event machine already *books* every activity on a resource
timeline (:mod:`repro.hardware.clock`); this module gives those bookings
an identity.  A :class:`TraceRecorder` threaded through the engine, the
stream scheduler, the page caches, the main-memory buffer and the
storage array captures each activity as a row (a :class:`TraceEvent`
when read) with a semantic name, a category, and a *resource lane* —
the (process, thread) pair the Chrome trace-event format uses to draw
swimlanes, mapped here onto the simulated hardware:

=================  ==========================  =======================
process            thread                      events
=================  ==========================  =======================
``engine``         ``rounds``                  ``round``, ``round_barrier``
``gpu<i>``         ``copy engine``             ``h2d_copy``, ``wa_broadcast``, ``wa_sync``
``gpu<i>``         ``stream[<s>]``             ``kernel``
``gpu<i>``         ``page cache``              ``cache_hit/miss/admit/evict``
``host``           ``mm buffer``               ``mm_buffer_hit/miss``
``host``           ``bus``                     ``wa_sync``
``storage``        ``<device name>``           ``ssd_fetch``
=================  ==========================  =======================

Interval events on one lane never overlap, but for a ``fault`` row of
kind ``stream_stall``: it sits on the copy-engine lane and books no
copy-engine time (it delays a kernel), so it can overlap the next copy.
Every other interval mirrors a booking on a serialized
:class:`~repro.hardware.clock.Resource`, and
:func:`repro.hardware.validation.check_gpu` audits those.  A traced run
takes the untraced path and appends what its arrays hold, one block per
round per lane (or per GPU, for its streams' kernels; see
:meth:`TraceRecorder.block`).
"""

from itertools import repeat
from typing import Dict, NamedTuple, Optional, Tuple

# ---------------------------------------------------------------------------
# Event taxonomy (names are stable identifiers; exporters rely on them).
# ---------------------------------------------------------------------------
SSD_FETCH = "ssd_fetch"
H2D_COPY = "h2d_copy"
KERNEL = "kernel"
CACHE_HIT = "cache_hit"
CACHE_MISS = "cache_miss"
CACHE_ADMIT = "cache_admit"
CACHE_EVICT = "cache_evict"
MM_BUFFER_HIT = "mm_buffer_hit"
MM_BUFFER_MISS = "mm_buffer_miss"
WA_BROADCAST = "wa_broadcast"
WA_SYNC = "wa_sync"
ROUND = "round"
ROUND_BARRIER = "round_barrier"
WAL_APPEND = "wal_append"
WAL_REPLAY = "wal_replay"
WAL_RESET = "wal_reset"
DELTA_APPLY = "delta_apply"
COMPACTION = "compaction"
FAULT = "fault"
RETRY = "retry"
FALLBACK = "fallback"
DEVICE_LOST = "device_lost"

#: Event name -> category (the Chrome ``cat`` field, used for filtering
#: in the Perfetto UI).
CATEGORIES = {
    SSD_FETCH: "storage",
    H2D_COPY: "transfer",
    KERNEL: "kernel",
    CACHE_HIT: "cache",
    CACHE_MISS: "cache",
    CACHE_ADMIT: "cache",
    CACHE_EVICT: "cache",
    MM_BUFFER_HIT: "buffer",
    MM_BUFFER_MISS: "buffer",
    WA_BROADCAST: "sync",
    WA_SYNC: "sync",
    ROUND: "round",
    ROUND_BARRIER: "round",
    WAL_APPEND: "dynamic",
    WAL_REPLAY: "dynamic",
    WAL_RESET: "dynamic",
    DELTA_APPLY: "dynamic",
    COMPACTION: "dynamic",
    FAULT: "fault",
    RETRY: "fault",
    FALLBACK: "fault",
    DEVICE_LOST: "fault",
}

#: Phase markers matching the Chrome trace-event ``ph`` field.
PHASE_COMPLETE = "X"
PHASE_INSTANT = "i"


class TraceEvent(NamedTuple):
    """One structured event on the simulated timeline.

    ``start`` and ``duration`` are simulated seconds; instants carry a
    zero duration.  ``process`` / ``thread`` name the resource lane.
    """

    name: str
    category: str
    phase: str
    start: float
    duration: float
    process: str
    thread: str
    args: Optional[Dict[str, object]] = None

    @property
    def end(self):
        return self.start + self.duration

    @property
    def lane(self) -> Tuple[str, str]:
        return (self.process, self.thread)


class TraceRecorder:
    """Collects one engine run's trace as columnar blocks (see
    :meth:`block`), after any already built ``events`` it is given;
    :attr:`events` builds the :class:`TraceEvent` objects, for the
    exporters (:mod:`repro.obs.exporters`), on first read."""

    def __init__(self, events=()):
        self._blocks = []  # (process, thread, name, starts, ends, args)
        self._events = list(events)  # + those of _blocks[:_built]
        self._built = 0
        self._rows = len(self._events)

    def __len__(self):
        return self._rows

    def __iter__(self):
        return iter(self.events)

    @property
    def events(self):
        """Every row as a :class:`TraceEvent`, in append order."""
        for block in self._blocks[self._built:]:
            self._events += _block_events(*block)
            self._built += 1
        return self._events

    # -- emission ----------------------------------------------------------
    def block(self, process, thread, name, starts, ends=None, **args):
        """Append rows to ``process``'s lanes: intervals ``[starts[i],
        ends[i]]``, or instants at ``starts[i]`` when ``ends`` is None.
        ``thread``, ``name`` and each args keyword are one value per row
        (a list, tuple or array) or one value for every row."""
        if len(starts):
            self._blocks.append((process, thread, name, starts, ends, args))
            self._rows += len(starts)

    def interval(self, name, process, thread, start, end, **args):
        """Record a complete event spanning ``[start, end]``."""
        self.block(process, thread, name, [start], [end],
                   **{key: [value] for key, value in args.items()})

    def instant(self, name, process, thread, ts, **args):
        """Record a zero-duration instant event at ``ts``."""
        self.block(process, thread, name, [ts],
                   **{key: [value] for key, value in args.items()})

    # -- queries -----------------------------------------------------------
    def lanes(self):
        """All (process, thread) lanes in first-appearance order."""
        return list(dict.fromkeys(e.lane for e in self.events))

    def select(self, name=None, category=None, process=None, thread=None):
        """Events filtered by any combination of fields."""
        return [e for e in self.events
                if (name is None or e.name == name)
                and (category is None or e.category == category)
                and (process is None or e.process == process)
                and (thread is None or e.thread == thread)]

    def busy_intervals(self, process, thread):
        """``(start, end)`` pairs of the lane's interval events — the same
        shape :func:`repro.hardware.trace.render_lane` consumes."""
        return [(e.start, e.end)
                for e in self.events
                if e.phase == PHASE_COMPLETE
                and e.process == process and e.thread == thread]

    def end_time(self):
        """Timestamp of the latest event edge (0.0 when empty)."""
        return max((e.end for e in self.events), default=0.0)

    def counts(self):
        """Event-name -> occurrence count (handy in tests and reports)."""
        out = {}
        for event in self.events:
            out[event.name] = out.get(event.name, 0) + 1
        return out


def _column(values, n):
    """A block column as a list: its rows, or one value ``n`` times."""
    return (values.tolist() if getattr(values, "ndim", 0) else list(values)
            if isinstance(values, (list, tuple)) else [values] * n)


def _block_events(process, thread, name, starts, ends, args):
    starts = _column(starts, 0)
    n = len(starts)
    names = _column(name, n)
    durations = repeat(0.0) if ends is None else [
        max(0.0, end - start) for start, end in zip(starts,
                                                    _column(ends, n))]
    rows = [dict(zip(args, row)) for row in zip(
        *(_column(column, n) for column in args.values()))]
    return list(map(TraceEvent._make, zip(
        names, map(CATEGORIES.get, names, repeat("misc")),
        repeat(PHASE_INSTANT if ends is None else PHASE_COMPLETE), starts,
        durations, repeat(process), _column(thread, n),
        rows or repeat(None))))
