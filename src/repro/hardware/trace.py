"""ASCII timeline rendering: the reproduction of Figure 4.

The paper profiles its streams and shows, per GPU stream, short transfer
bars and long kernel bars ("the timeline for PageRank is denser than
that for BFS since PageRank is computationally intensive").  A traced
run records every copy-engine and stream-slot booking in its
:class:`~repro.obs.events.TraceRecorder`; this module renders a GPU's
lanes of it as a character Gantt chart:

* ``=`` — kernel execution on a stream,
* ``#`` — a host-to-device copy on the copy engine,
* ``.`` — idle.
"""

import math

from repro.errors import ConfigurationError
from repro.obs.events import PHASE_COMPLETE
from repro.units import format_seconds


def render_lane(events, t0, t1, width, mark="="):
    """Render one resource's ``(start, end)`` intervals as a lane.

    Zero-length intervals paint nothing: a cell is marked only when the
    interval genuinely covers part of it, so an instantaneous booking no
    longer shows up as a full-width-cell bar.
    """
    if t1 <= t0:
        return "." * width
    cells = ["."] * width
    scale = width / (t1 - t0)
    for start, end in events:
        if end <= start:
            continue
        lo = int(max(0.0, (start - t0)) * scale)
        hi = min(width - 1,
                 max(lo, int(math.ceil(max(0.0, (end - t0)) * scale)) - 1))
        for i in range(lo, hi + 1):
            if i < width:
                cells[i] = mark
    return "".join(cells)


def busy_fraction(events, t0, t1):
    """Fraction of the window covered by intervals (no overlap assumed)."""
    if t1 <= t0:
        return 0.0
    covered = sum(min(end, t1) - max(start, t0)
                  for start, end in events
                  if end > t0 and start < t1)
    return max(0.0, covered) / (t1 - t0)


def gpu_lanes(recorder, gpu):
    """``gpu``'s copy engine and stream slots as ``(resource, thread,
    intervals)``: each one's interval rows in ``recorder`` but the
    ``stream_stall`` faults, which book no copy-engine time."""
    booked = {}
    for e in recorder.select(process=gpu.lane):
        if (e.phase == PHASE_COMPLETE
                and (e.args or {}).get("kind") != "stream_stall"):
            booked.setdefault(e.thread, []).append((e.start, e.end))
    resources = [gpu.copy_engine] + gpu.streams.slots
    threads = ["copy engine"] + [r.name.split(":")[-1]
                                 for r in gpu.streams.slots]
    return [(r, t, booked.get(t, [])) for r, t in zip(resources, threads)]


def render_timeline(recorder, gpus, t0, t1, width=72, max_streams=16):
    """Figure 4-style view of each GPU's copy engine and streams, read
    from ``recorder``; one blank-line separated block per GPU."""
    if recorder is None:
        raise ConfigurationError(
            "no trace was recorded (run the engine with tracing=True)")
    blocks = []
    for gpu in gpus:
        lines = ["GPU %d timeline over %s  ('#'=copy, '='=kernel)"
                 % (gpu.index, format_seconds(t1 - t0))]
        for resource, thread, intervals in gpu_lanes(recorder, gpu)[
                :max_streams + 1]:
            mark = "#" if resource is gpu.copy_engine else "="
            lines.append("  %-12s |%s| %4.0f%%" % (
                thread, render_lane(intervals, t0, t1, width, mark),
                100 * busy_fraction(intervals, t0, t1)))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)
