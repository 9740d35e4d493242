"""Tests for event tracing and the Figure 4 timeline renderer."""

import pytest

from repro.core import BFSKernel, GTSEngine, PageRankKernel
from repro.errors import ConfigurationError
from repro.hardware.clock import Resource
from repro.hardware.machine import MachineRuntime
from repro.hardware.specs import paper_workstation
from repro.hardware.trace import (
    busy_fraction,
    gpu_lanes,
    render_timeline,
    render_lane,
)
from repro.obs.events import TraceRecorder
from repro.units import MB

from .reference_booking import book_kernel


class TestResourceTracing:
    def test_events_recorded_when_tracing(self):
        """A traced runtime records each booking in its recorder, on
        the lane the renderer and the DES audit read."""
        runtime = MachineRuntime(paper_workstation(), num_streams=2,
                                 page_bytes=1 * MB,
                                 recorder=TraceRecorder())
        gpu = runtime.gpus[0]
        end = book_kernel(gpu, gpu.streams.slots[1], 2.0, 1e9, 24.0,
                          runtime.recorder)
        assert gpu_lanes(runtime.recorder, gpu) == [
            (gpu.copy_engine, "copy engine", []),
            (gpu.streams.slots[0], "stream[0]", []),
            (gpu.streams.slots[1], "stream[1]", [(2.0, end)])]

    def test_no_events_by_default(self):
        """A resource keeps no intervals of its own."""
        resource = Resource("r")
        assert resource.book(0.0, 1.0) == (0.0, 1.0)
        assert not hasattr(resource, "events")

    def test_stream_stalls_book_no_copy_engine_time(self):
        """A ``stream_stall`` row shares the copy-engine lane but is no
        booking of it: the renderer and the audit leave it out."""
        recorder = TraceRecorder()
        gpu = MachineRuntime(paper_workstation(), num_streams=1,
                             page_bytes=1 * MB).gpus[0]
        recorder.interval("h2d_copy", "gpu0", "copy engine", 0.0, 1.0,
                          bytes=8)
        recorder.interval("fault", "gpu0", "copy engine", 1.0, 3.0,
                          page=4, kind="stream_stall")
        recorder.interval("fault", "gpu0", "copy engine", 1.0, 2.0,
                          page=5, kind="copy_error", attempt=0)
        recorder.instant("device_lost", "gpu0", "copy engine", 2.0)
        assert gpu_lanes(recorder, gpu)[0][2] == [(0.0, 1.0), (1.0, 2.0)]
        assert len(recorder.busy_intervals("gpu0", "copy engine")) == 3


class TestRenderLane:
    def test_full_coverage(self):
        lane = render_lane([(0.0, 10.0)], 0.0, 10.0, width=10)
        assert lane == "=" * 10

    def test_half_coverage(self):
        lane = render_lane([(0.0, 5.0)], 0.0, 10.0, width=10)
        assert lane.startswith("=====")
        assert lane.endswith("....")

    def test_empty_window(self):
        assert render_lane([], 0.0, 0.0, width=8) == "." * 8

    def test_custom_mark(self):
        lane = render_lane([(0.0, 1.0)], 0.0, 1.0, width=4, mark="#")
        assert lane == "####"


class TestBusyFraction:
    def test_simple(self):
        assert busy_fraction([(0.0, 5.0)], 0.0, 10.0) == pytest.approx(0.5)

    def test_clipped_to_window(self):
        assert busy_fraction([(-5.0, 5.0)], 0.0, 10.0) == pytest.approx(0.5)

    def test_empty(self):
        assert busy_fraction([], 0.0, 10.0) == 0.0


class TestEngineTimelines:
    def test_timeline_attached_when_tracing(self, rmat_db, machine):
        result = GTSEngine(rmat_db, machine, tracing=True).run(
            BFSKernel(0))
        assert result.timeline is not None
        assert "copy engine" in result.timeline
        assert "stream[0]" in result.timeline

    def test_no_timeline_by_default(self, rmat_db, machine):
        result = GTSEngine(rmat_db, machine).run(BFSKernel(0))
        assert result.timeline is None

    def test_timeline_renders_on_first_read(self, rmat_db, machine,
                                            monkeypatch):
        """A traced run renders its timeline when it is first read, and
        only then."""
        from repro.hardware import trace

        calls = []

        def spy(*args, _render=trace.gpu_lanes):
            calls.append(args)
            return _render(*args)
        monkeypatch.setattr(trace, "gpu_lanes", spy)
        result = GTSEngine(rmat_db, machine, tracing=True).run(
            BFSKernel(0))
        assert calls == []
        assert result.timeline is result.timeline
        assert len(calls) == result.num_gpus

    def test_pagerank_denser_than_bfs(self, rmat_db, machine):
        """The paper's Figure 4 observation, as a measured inequality."""
        def density(kernel):
            engine = GTSEngine(rmat_db, machine, num_streams=16,
                               tracing=True, enable_caching=False)
            result = engine.run(kernel)
            lines = [line for line in result.timeline.splitlines()
                     if "stream[" in line]
            return sum(float(line.rsplit("|", 1)[1].rstrip("% "))
                       for line in lines) / len(lines)
        assert density(PageRankKernel(iterations=2)) \
            > density(BFSKernel(0))

    def test_render_requires_tracing(self):
        runtime = MachineRuntime(paper_workstation(), page_bytes=1 * MB)
        with pytest.raises(ConfigurationError):
            render_timeline(runtime.recorder, runtime.gpus, 0.0, 1.0)

    def test_zero_length_intervals_paint_nothing(self):
        assert render_lane([(0.5, 0.5)], 0.0, 1.0, width=10) == "." * 10
        mixed = render_lane([(0.0, 0.0), (0.5, 1.0)], 0.0, 1.0, width=10)
        assert mixed == "....." + "=" * 5
