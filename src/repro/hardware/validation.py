"""Simulation self-checks: audit a finished run for DES invariants.

A discrete-event model is only as trustworthy as its invariants.  This
module reads a traced runtime's recorder after a run — each GPU's
copy-engine and stream lanes, less the ``stream_stall`` rows, which
book no copy-engine time — and verifies the properties every correct
schedule must satisfy:

* **No overlap** — a serialized resource never runs two activities at
  once (a copy engine's / stream slot's intervals are disjoint and
  ordered).
* **Accounting** — a resource's ``busy_time`` equals the sum of its
  recorded intervals.
* **Causality** — no interval starts before time zero or ends after the
  runtime's clock.
* **Concurrency caps** — at no instant do more kernels run on a GPU
  than it has stream slots.

The engine exposes this through ``GTSEngine(validate_simulation=True)``,
which enables tracing, runs the audit after every run, and raises
:class:`~repro.errors.SimulationError` on any violation — the test
suite's property tests lean on it.
"""

import itertools

from repro.errors import SimulationError
from repro.hardware.trace import gpu_lanes

#: Slack for floating-point comparison of simulated times.
_EPSILON = 1e-9


def check_resource(resource, intervals, horizon=None):
    """Validate a resource's ``(start, end)`` intervals (None when it
    was not traced); returns their count."""
    if intervals is None:
        raise SimulationError(
            "resource %s was not traced; enable tracing to validate"
            % resource.name)
    previous_end = 0.0
    busy = 0.0
    for index, (start, end) in enumerate(intervals):
        if start < -_EPSILON:
            raise SimulationError(
                "%s: interval %d starts before time zero (%g)"
                % (resource.name, index, start))
        if end < start - _EPSILON:
            raise SimulationError(
                "%s: interval %d ends before it starts (%g > %g)"
                % (resource.name, index, start, end))
        if start < previous_end - _EPSILON:
            raise SimulationError(
                "%s: interval %d overlaps its predecessor "
                "(starts %g, predecessor ends %g)"
                % (resource.name, index, start, previous_end))
        if horizon is not None and end > horizon + _EPSILON:
            raise SimulationError(
                "%s: interval %d ends at %g, after the clock's %g"
                % (resource.name, index, end, horizon))
        previous_end = max(previous_end, end)
        busy += end - start
    if abs(busy - resource.busy_time) > max(_EPSILON,
                                            1e-6 * max(busy, 1e-12)):
        raise SimulationError(
            "%s: busy_time %g does not match interval sum %g"
            % (resource.name, resource.busy_time, busy))
    return len(intervals)


def check_gpu(gpu, recorder, horizon=None):
    """Validate a GPU's copy engine and stream slots against their
    lanes in ``recorder``; returns the interval count."""
    lanes = gpu_lanes(recorder, gpu)
    count = sum(check_resource(resource, intervals, horizon)
                for resource, _, intervals in lanes)
    events = [interval for _, _, intervals in lanes[1:]
              for interval in intervals]
    # Concurrency cap: sweep the combined kernel intervals.
    boundary = sorted([(start, 1) for start, _ in events]
                      + [(end, -1) for _, end in events])
    peak = max(itertools.accumulate(delta for _, delta in boundary),
               default=0)
    if peak > gpu.num_streams:
        raise SimulationError(
            "GPU %d ran %d concurrent kernels with only %d streams"
            % (gpu.index, peak, gpu.num_streams))
    return count


def check_runtime(runtime):
    """Validate every GPU of a traced runtime; returns the total number
    of intervals audited."""
    if runtime.recorder is None:
        raise SimulationError(
            "runtime was created without a recorder; nothing to validate")
    horizon = runtime.now if runtime.now > 0 else None
    return sum(check_gpu(gpu, runtime.recorder, horizon)
               for gpu in runtime.gpus)
