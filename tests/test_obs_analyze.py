"""Tests for the trace analyzer (:mod:`repro.obs.analyze`).

Covers the PR 5 acceptance claims: the overlap-hiding ratio ablation
(multi-stream hides > 50% of transfer time, ``num_streams=1`` hides
~none), exact per-round attribution conservation, occupancy bounds, and
live-recorder vs written-trace report equivalence for both execution
paths, with and without faults.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GTSEngine
from repro.core.kernels.bfs import BFSKernel
from repro.core.kernels.pagerank import PageRankKernel
from repro.errors import ConfigurationError
from repro.obs import analyze_trace, write_chrome_trace
from repro.obs.events import TraceRecorder


@pytest.fixture(scope="module")
def multi_stream(rmat_db, machine):
    """Traced PageRank with 16 streams and no cache: copies every
    round, overlapped across streams."""
    engine = GTSEngine(rmat_db, machine, tracing=True, num_streams=16,
                       enable_caching=False)
    return engine.run(PageRankKernel(iterations=3))


@pytest.fixture(scope="module")
def single_stream(rmat_db, machine):
    """Same run with one stream: copy i+1 serializes behind kernel i."""
    engine = GTSEngine(rmat_db, machine, tracing=True, num_streams=1,
                       enable_caching=False)
    return engine.run(PageRankKernel(iterations=3))


class TestOverlapHiding:
    def test_multi_stream_hides_most_transfer(self, multi_stream):
        analysis = multi_stream.analyze()
        assert analysis.overlap_hiding_ratio > 0.5
        assert analysis.copy_seconds > 0

    def test_single_stream_hides_nothing(self, single_stream):
        analysis = single_stream.analyze()
        assert analysis.overlap_hiding_ratio < 0.05

    def test_ablation_orders_the_two_runs(self, multi_stream,
                                          single_stream):
        assert (multi_stream.analyze().overlap_hiding_ratio
                > single_stream.analyze().overlap_hiding_ratio)

    def test_per_gpu_stats(self, multi_stream):
        analysis = multi_stream.analyze()
        names = [stats.name for stats in analysis.overlap]
        assert "gpu0" in names and "gpu1" in names
        for stats in analysis.overlap:
            assert 0.0 <= stats.hiding_ratio <= 1.0
            assert stats.hidden_seconds <= stats.copy_seconds + 1e-12
            assert stats.exposed_seconds >= -1e-12
        assert analysis.gpu_overlap(0).name == "gpu0"
        assert analysis.gpu_overlap(99) is None

    def test_storage_overlap_reported_with_cold_buffer(self, rmat_db,
                                                       machine):
        engine = GTSEngine(
            rmat_db, machine, tracing=True, enable_caching=False,
            mm_buffer_bytes=rmat_db.config.page_size * 4)
        result = engine.run(BFSKernel(0))
        analysis = result.analyze()
        storage = next(s for s in analysis.overlap
                       if s.name == "storage")
        assert storage.copy_seconds > 0


class TestOccupancy:
    def test_busy_never_exceeds_span(self, multi_stream):
        analysis = multi_stream.analyze()
        assert analysis.lanes
        for lane in analysis.lanes:
            assert 0.0 <= lane.occupancy <= 1.0
            assert lane.busy_seconds <= lane.span_seconds + 1e-12
            assert lane.span_seconds == analysis.total_seconds

    def test_lane_accessor(self, multi_stream):
        analysis = multi_stream.analyze()
        lane = analysis.lane("gpu0", "copy engine")
        assert lane is not None
        assert lane.busy_seconds > 0
        assert analysis.lane("gpu9", "copy engine") is None


class TestAttribution:
    def test_rounds_match_result(self, multi_stream):
        profiles = multi_stream.round_profiles()
        assert len(profiles) == multi_stream.num_rounds
        assert [p.round_index for p in profiles] \
            == sorted(p.round_index for p in profiles)
        for profile in profiles:
            assert profile.end >= profile.start

    def test_attribution_conserves_booked_time(self, multi_stream):
        analysis = multi_stream.analyze()
        for category, total in analysis.category_seconds.items():
            attributed = sum(
                profile.category_seconds.get(category, 0.0)
                for profile in analysis.rounds)
            attributed += analysis.setup_seconds.get(category, 0.0)
            # Exact in integer nanoseconds; the float sum reintroduces
            # only ulp-level error.
            assert attributed == pytest.approx(total, abs=1e-9)

    def test_kernel_time_attributed_to_rounds(self, multi_stream):
        analysis = multi_stream.analyze()
        assert analysis.category_seconds["kernel"] > 0
        assert any(p.category_seconds.get("kernel", 0) > 0
                   for p in analysis.rounds)

    def test_cache_traffic_lands_in_rounds(self, rmat_db, machine):
        engine = GTSEngine(rmat_db, machine, tracing=True)
        result = engine.run(PageRankKernel(iterations=3))
        profiles = result.round_profiles()
        assert sum(p.cache_hits for p in profiles) == result.cache_hits
        assert sum(p.cache_misses for p in profiles) \
            == result.cache_misses

    def test_critical_path(self, multi_stream):
        analysis = multi_stream.analyze()
        assert len(analysis.critical_path) == len(analysis.rounds)
        assert analysis.critical_path_seconds > 0
        for segment in analysis.critical_path:
            assert 0.0 <= segment.share <= 1.0
            # The dominant lane is a real lane of the trace.
            assert analysis.lane(segment.process,
                                 segment.thread) is not None


class TestEquivalence:
    """A written trace analyzes identically to the live recorder."""

    def _roundtrip(self, result, tmp_path, name):
        live = analyze_trace(result.trace).to_dict()
        path = str(tmp_path / name)
        write_chrome_trace(result.trace, path)
        reloaded = analyze_trace(path).to_dict()
        assert live == reloaded

    def test_batched(self, rmat_db, machine, tmp_path):
        engine = GTSEngine(rmat_db, machine, tracing=True)
        self._roundtrip(engine.run(PageRankKernel(iterations=2)),
                        tmp_path, "batched.json")

    def test_with_faults(self, rmat_db, machine, tmp_path):
        from repro.faults import FaultPlan
        # A cold MM buffer forces real SSD fetches for the transient
        # faults to hit.
        plan = FaultPlan(ssd_transient_rate=0.05, seed=11)
        engine = GTSEngine(rmat_db, machine, tracing=True, faults=plan,
                           enable_caching=False,
                           mm_buffer_bytes=rmat_db.config.page_size * 4)
        result = engine.run(BFSKernel(0))
        assert result.fault_stats["faults_injected"] > 0
        self._roundtrip(result, tmp_path, "faulted.json")

    def test_dict_source_too(self, multi_stream):
        from repro.obs import chrome_trace
        payload = chrome_trace(multi_stream.trace)
        assert analyze_trace(payload).to_dict() \
            == multi_stream.analyze().to_dict()


class TestDeterministicArtifacts:
    def test_identical_runs_write_identical_bytes(self, rmat_db,
                                                  machine, tmp_path):
        paths = []
        for name in ("a.json", "b.json"):
            engine = GTSEngine(rmat_db, machine, tracing=True,
                               num_streams=4)
            result = engine.run(PageRankKernel(iterations=2))
            path = str(tmp_path / name)
            write_chrome_trace(result.trace, path)
            paths.append(path)
        with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
            assert a.read() == b.read()

    def test_emission_order_does_not_change_the_report(self):
        """The same booked schedule, emitted lane by lane in two
        different orders (one with the ``execution`` argument old
        traces carry on their rounds), serialises to the same bytes."""
        events = [
            ("round", "engine", "rounds", 0.0, 4.0,
             {"round": 0, "description": "r"}),
            ("kernel", "gpu10", "stream[0]", 1.0, 2.0, {}),
            ("kernel", "gpu2", "stream[0]", 0.5, 3.0, {}),
            ("h2d_copy", "gpu2", "copy engine", 0.0, 0.5, {}),
        ]
        reports = []
        for order, extra in ((events, {}),
                             (events[::-1], {"execution": "paged"})):
            recorder = TraceRecorder()
            for name, process, thread, start, end, args in order:
                if name == "round":
                    args = dict(args, **extra)
                recorder.interval(name, process, thread, start, end,
                                  **args)
            reports.append(analyze_trace(recorder).to_dict())
        assert json.dumps(reports[0]) == json.dumps(reports[1])
        assert [lane["process"] for lane in reports[0]["lanes"]] \
            == ["engine", "gpu2", "gpu2", "gpu10"]
        assert "execution" not in reports[0]["rounds"][0]


class TestInputs:
    def test_none_raises(self):
        with pytest.raises(ConfigurationError):
            analyze_trace(None)

    def test_untraced_run_raises(self, rmat_db, machine):
        result = GTSEngine(rmat_db, machine).run(BFSKernel(0))
        with pytest.raises(ConfigurationError):
            result.analyze()

    def test_wrong_type_raises(self):
        with pytest.raises(ConfigurationError):
            analyze_trace(42)

    def test_empty_recorder_analyzes_to_zero(self):
        analysis = analyze_trace(TraceRecorder())
        assert analysis.total_seconds == 0.0
        assert analysis.overlap_hiding_ratio == 0.0
        assert analysis.rounds == []
        assert analysis.lanes == []

    def test_result_caches_analysis(self, multi_stream):
        assert multi_stream.analyze() is multi_stream.analyze()

    def test_json_ready(self, multi_stream):
        json.dumps(multi_stream.analyze().to_dict())
        assert "overlap-hiding" in multi_stream.analyze().summary()


# -- property tests over synthetic event streams ------------------------

_LANES = [("gpu0", "stream[0]"), ("gpu0", "copy engine"),
          ("gpu1", "stream[0]"), ("storage", "nvme0")]
_NAMES = ["kernel", "h2d_copy", "ssd_fetch", "wa_sync"]


@st.composite
def synthetic_recorders(draw):
    """A random event stream plus disjoint round windows over it."""
    recorder = TraceRecorder()
    for _ in range(draw(st.integers(1, 30))):
        process, thread = draw(st.sampled_from(_LANES))
        name = draw(st.sampled_from(_NAMES))
        start = draw(st.floats(0, 100, allow_nan=False))
        duration = draw(st.floats(0, 20, allow_nan=False))
        recorder.interval(name, process, thread, start, start + duration)
    cuts = sorted(draw(st.lists(st.floats(0, 130, allow_nan=False),
                                min_size=2, max_size=6, unique=True)))
    for index in range(len(cuts) - 1):
        recorder.interval("round", "engine", "rounds", cuts[index],
                          cuts[index + 1], round=index,
                          description="synthetic")
    return recorder


@settings(max_examples=60, deadline=None)
@given(recorder=synthetic_recorders())
def test_property_occupancy_bounded(recorder):
    analysis = analyze_trace(recorder)
    for lane in analysis.lanes:
        assert 0.0 <= lane.occupancy <= 1.0
        assert lane.busy_seconds <= analysis.total_seconds + 1e-12


@settings(max_examples=60, deadline=None)
@given(recorder=synthetic_recorders())
def test_property_attribution_conserved(recorder):
    """Round windows are disjoint, so per-round attribution plus the
    setup remainder reconstructs the whole-run booked time exactly."""
    analysis = analyze_trace(recorder)
    for category, total in analysis.category_seconds.items():
        attributed = sum(p.category_seconds.get(category, 0.0)
                         for p in analysis.rounds)
        attributed += analysis.setup_seconds.get(category, 0.0)
        assert attributed == pytest.approx(total, abs=1e-6)


@settings(max_examples=60, deadline=None)
@given(recorder=synthetic_recorders())
def test_property_hiding_ratio_bounded(recorder):
    analysis = analyze_trace(recorder)
    assert 0.0 <= analysis.overlap_hiding_ratio <= 1.0
    assert analysis.hidden_seconds <= analysis.copy_seconds + 1e-12
