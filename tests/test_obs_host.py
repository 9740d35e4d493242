"""Host-runtime profiling layer (:mod:`repro.obs.host` over
:mod:`repro.spans`).

Covers the recorder's span algebra (nesting, conservation, dangling and
raising spans), the engine integration (span tree, coverage, bit-identical
simulated results, I/O counters, per-thread activation), the counts that
make a recorded run the program that runs bare (no clock read without a
recorder, two per span with one, spans per round and never per page),
byte-determinism of the exporters, gating host profiles under the default
tolerance rules, and the no-baseline behaviour of the history loader.
"""

import json
import os
import threading
import time

import numpy as np
import pytest

import repro.obs.host as host_module
import repro.spans as spans_module
from repro.core import BFSKernel, GTSEngine, PageRankKernel
from repro.core.plan import PagePlan, RoundPlanCache
from repro.errors import ConfigurationError, DeadlineError
from repro.format import build_database
from repro.format.io import FileBackedDatabase, load_database, save_database
from repro.graphgen import generate_rmat
from repro.obs import compare_metrics, validate_chrome_trace
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
from repro.spans import activate, span

RUN = "core.engine.run"


def recorded(engine, kernel, hp=None, **run_options):
    """``engine.run(kernel)`` under a recorder: ``(result, profile)``."""
    hp = hp if hp is not None else HostProfiler()
    with activate(hp):
        result = engine.run(kernel, **run_options)
    return result, hp.finish()


def _assert_conservation(profile):
    """Every parent's inclusive time covers the sum of its children."""
    by_path = {p.path: p for p in profile.phases}
    child_sums = {}
    for p in profile.phases:
        if "/" in p.path:
            parent = p.path.rsplit("/", 1)[0]
            child_sums[parent] = child_sums.get(parent, 0.0) + p.seconds
    for parent, total in child_sums.items():
        assert parent in by_path, "orphan phase under %r" % parent
        # Tiny float slack: seconds are ns-accurate but summed floats.
        assert total <= by_path[parent].seconds + 1e-9, (
            "children of %r (%fs) exceed parent (%fs)"
            % (parent, total, by_path[parent].seconds))


class TestHostProfiler:
    def test_nested_paths_and_counts(self):
        hp = HostProfiler()
        with activate(hp), span("a"):
            with span("b"):
                pass
            with span("b"):
                pass
        profile = hp.finish()
        paths = [p.path for p in profile.phases]
        assert paths == ["a", "a/b"]
        assert profile.phase("a").count == 1
        assert profile.phase("a/b").count == 2
        assert profile.phase("a/b").name == "b"
        assert profile.phase("a").depth == 1
        assert profile.phase("a/b").depth == 2
        assert hp.calls("b") == 2

    def test_conservation_child_within_parent(self):
        hp = HostProfiler()
        with activate(hp), span("outer"):
            for _ in range(5):
                with span("inner"):
                    sum(range(200))
        _assert_conservation(hp.finish())

    def test_self_seconds_subtract_children(self):
        hp = HostProfiler()
        with activate(hp), span("outer"), span("inner"):
            pass
        profile = hp.finish()
        outer = profile.phase("outer")
        inner = profile.phase("outer/inner")
        assert outer.self_seconds == pytest.approx(
            outer.seconds - inner.seconds, abs=1e-12)
        assert outer.self_seconds >= 0.0

    def test_finish_closes_dangling_spans(self):
        hp = HostProfiler()
        hp.push("a")
        hp.push("b")
        assert hp.depth == 2
        profile = hp.finish()
        assert hp.depth == 0
        assert [p.path for p in profile.phases] == ["a", "a/b"]

    def test_counters_accumulate(self):
        hp = HostProfiler()
        with activate(hp):
            spans_module.count("io.bytes", 10)
            spans_module.count("io.bytes", 5)
        spans_module.count("io.bytes", 99)  # no recorder: dropped
        assert hp.finish().counters == {"io.bytes": 15}

    @staticmethod
    def _capped(spans):
        hp = HostProfiler(max_events=2)
        with activate(hp):
            for _ in range(spans):
                with span("x"):
                    pass
        return hp.finish()

    def test_event_cap_counts_drops(self):
        profile = self._capped(5)
        assert len(profile.events) == 2
        assert profile.dropped_events == 3
        assert profile.phase("x").count == 5  # stats are never dropped

    def test_sample_cap_keeps_totals(self):
        """Quantiles come from the retained events; totals do not."""
        phase = self._capped(4).phase("x")
        assert phase.count == 4
        assert phase.p50_seconds is not None

    def test_removed_names_are_rejected(self, rmat_db, machine, tmp_path):
        """The allocator hook, the second observer hook and every
        profiler-passing parameter are gone, not ignored."""
        hp = HostProfiler()
        for call in (
                lambda: HostProfiler(track_memory=False),
                lambda: HostProfiler(max_samples_per_phase=8),
                lambda: GTSEngine(rmat_db, machine, host_profile=True),
                lambda: GTSEngine(rmat_db, machine).run(
                    BFSKernel(0), round_observer=print),
                lambda: load_database(str(tmp_path / "g"),
                                      host_profiler=hp),
                lambda: PagePlan(rmat_db, host_profiler=hp),
                lambda: RoundPlanCache().get(rmat_db, host_profiler=hp)):
            with pytest.raises(TypeError):
                call()
        assert not hasattr(hp, "phase")
        assert not hasattr(HostProfiler().finish(),
                           "tracemalloc_peak_bytes")

    def test_profile_snapshot_is_non_destructive(self):
        hp = HostProfiler()
        with activate(hp):
            with span("first"):
                pass
            snap = hp.profile()
            assert snap.phase("first") is not None
            with span("second"):
                pass
        final = hp.finish()
        assert [p.path for p in final.phases] == ["first", "second"]

    def test_coverage_of_top_level_phases(self):
        hp = HostProfiler()
        with activate(hp), span("everything"):
            sum(range(50_000))
        profile = hp.finish()
        assert 0.9 <= profile.coverage() <= 1.0


class TestEngineIntegration:
    def test_disabled_by_default(self, rmat_db, machine):
        """A recorder nobody activated hears nothing, and a result
        carries no profile: the profile is its owner's."""
        hp = HostProfiler()
        result = GTSEngine(rmat_db, machine).run(BFSKernel(0))
        with activate(hp), activate(None):  # masked: still nobody's
            GTSEngine(rmat_db, machine).run(BFSKernel(0))
        assert not hasattr(result, "host_profile")
        assert hp.finish().phases == []

    def test_profiled_run_has_phase_tree(self, rmat_db, machine):
        result, profile = recorded(GTSEngine(rmat_db, machine),
                                   PageRankKernel(iterations=3))
        paths = {p.path for p in profile.phases}
        assert {RUN, RUN + "/setup", RUN + "/setup/core.plan.get",
                RUN + "/setup/core.plan.get/core.plan.build",
                RUN + "/round", RUN + "/round/core.plan.gather",
                RUN + "/round/core.kernels.batch",
                RUN + "/round/core.streams.booking",
                RUN + "/finalize"} <= paths
        assert profile.phase(RUN).count == 1
        assert profile.phase(RUN + "/round").count == result.num_rounds
        _assert_conservation(profile)

    def test_coverage_meets_bar(self, rmat_db, machine):
        engine = GTSEngine(rmat_db, machine)
        for kernel in (PageRankKernel(iterations=3), BFSKernel(0)):
            assert recorded(engine, kernel)[1].coverage() >= 0.95

    def test_profiling_does_not_change_simulation(self, rmat_db, machine):
        plain = GTSEngine(rmat_db, machine).run(
            PageRankKernel(iterations=3))
        profiled, _ = recorded(GTSEngine(rmat_db, machine),
                               PageRankKernel(iterations=3))
        assert repr(plain.elapsed_seconds) == repr(
            profiled.elapsed_seconds)
        assert np.array_equal(plain.values["rank"],
                              profiled.values["rank"])

    def test_external_profiler_spans_load_and_run(self, rmat_db, machine):
        hp = HostProfiler()
        with activate(hp):
            with span("load"):
                pass
            GTSEngine(rmat_db, machine).run(BFSKernel(0))
            snap = hp.profile()
            # Snapshot is non-destructive: the owner keeps measuring.
            with span("after"):
                pass
        assert snap.phase("load") and snap.phase(RUN)
        assert hp.finish().phase("after") is not None

    def test_profiler_detached_after_run(self, rmat_db, machine):
        """Nothing outlives the ``with``: no recorder on the thread,
        none parked on the (shared) database."""
        recorded(GTSEngine(rmat_db, machine), BFSKernel(0))
        assert spans_module._active.recorder is None
        assert not hasattr(rmat_db, "host_profiler")

    def test_deadline_mid_run_leaves_no_open_span(self, rmat_db, machine):
        """A run that raises closes its spans: the next run on the same
        recorder files under the same paths as on a fresh one."""
        engine = GTSEngine(rmat_db, machine)
        engine.run(BFSKernel(0))  # warm plan
        hp = HostProfiler()
        with activate(hp), pytest.raises(DeadlineError):
            engine.run(PageRankKernel(iterations=50),
                       deadline=time.perf_counter() + 0.002)
        assert hp.depth == 0
        completed = hp.calls("round")
        assert hp.profile().phase(RUN).count == 1
        _, again = recorded(engine, PageRankKernel(iterations=2), hp=hp)
        _, fresh = recorded(engine, PageRankKernel(iterations=2))
        assert ({p.path for p in again.phases}
                == {p.path for p in fresh.phases})
        assert again.phase(RUN + "/round").count == completed + 2
        assert again.coverage() <= 1.0

    def test_recorder_belongs_to_its_thread(self, rmat_db, machine,
                                            tmp_path):
        """Two threads decode the same file-backed handle for their own
        plans; only one records, and it hears only itself."""
        prefix = str(tmp_path / "g")
        save_database(rmat_db, prefix)
        db = FileBackedDatabase(prefix, pool_pages=8)
        hp = HostProfiler()
        barrier = threading.Barrier(2, timeout=30)
        done = []

        def worker(recorder):
            with activate(recorder):
                barrier.wait()
                for _ in range(3):
                    GTSEngine(db, machine,
                              plan_cache=RoundPlanCache()).run(BFSKernel(0))
            done.append(recorder)

        threads = [threading.Thread(target=worker, args=(recorder,))
                   for recorder in (hp, None)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        db.close()
        assert len(done) == 2 and hp.depth == 0
        profile = hp.finish()
        assert profile.phase(RUN).count == 3
        decode = profile.phase(
            RUN + "/setup/core.plan.get/core.plan.build/scan"
            "/format.io.page")
        assert decode is not None and decode.count == 3
        _assert_conservation(profile)

    def test_spans_per_round_never_per_page(self, small_config, machine,
                                            clock_reads):
        """On a warm plan a recorded run opens the same spans whatever
        the page count, and reads the clock exactly twice per span."""
        reads = clock_reads(host_module)
        spans, pages = [], []
        for scale in (8, 12):
            db = build_database(generate_rmat(scale, edge_factor=16,
                                              seed=3), small_config)
            engine = GTSEngine(db, machine)
            engine.run(PageRankKernel(iterations=3))
            hp = HostProfiler()
            reads[0] = 0
            with activate(hp):
                engine.run(PageRankKernel(iterations=3))
            assert reads[0] == 2 * len(hp.events)
            spans.append(len(hp.events))
            pages.append(db.num_pages)
        assert spans[0] == spans[1] and pages[1] > 4 * pages[0]

    def test_sim_io_counters(self, rmat_db, machine):
        result, profile = recorded(
            GTSEngine(rmat_db, machine,
                      mm_buffer_bytes=2 * rmat_db.config.page_size),
            PageRankKernel(iterations=2))
        counters = profile.counters
        assert counters["io.sim_pages_fetched"] > 0
        assert counters["io.sim_bytes_read"] == result.storage_bytes_read
        assert "io.sim_adjacent_fetches" not in counters

    def test_file_backed_io_counters(self, rmat_db, machine, tmp_path):
        prefix = str(tmp_path / "g")
        save_database(rmat_db, prefix)
        db = FileBackedDatabase(prefix)
        _, profile = recorded(GTSEngine(db, machine), BFSKernel(0))
        counters = profile.counters
        assert counters["io.file_reads"] > 0
        assert counters["io.file_bytes_read"] >= (
            counters["io.file_reads"] * db.config.page_size)
        assert any(p.name == "format.io.page" for p in profile.phases)

    def test_load_database_spans(self, rmat_db, tmp_path):
        prefix = str(tmp_path / "g")
        save_database(rmat_db, prefix)
        hp = HostProfiler()
        with activate(hp), span("load"):
            load_database(prefix)
        profile = hp.finish()
        paths = {p.path for p in profile.phases}
        assert {"load", "load/load_meta", "load/load_pages"} <= paths
        _assert_conservation(profile)


class TestDisabledPathIsFree:
    """The structural overhead guard: a run with no recorder active
    never constructs a profiler or reads the host clock through a span.
    (What a *recorded* run costs is counted in
    ``test_spans_per_round_never_per_page``.)"""

    def test_disabled_run_survives_broken_profiler(self, rmat_db,
                                                   machine, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("disabled run constructed a profiler")

        monkeypatch.setattr(host_module, "HostProfiler", boom)
        result = GTSEngine(rmat_db, machine).run(BFSKernel(0))
        assert result.num_rounds > 0

    def test_host_clock_reads(self, rmat_db, machine, clock_reads):
        calls = clock_reads(host_module)
        GTSEngine(rmat_db, machine).run(BFSKernel(0))
        assert calls[0] == 0, "disabled run read the host clock"
        recorded(GTSEngine(rmat_db, machine), BFSKernel(0))
        assert calls[0] > 0


def _frozen_profile():
    """A deterministic hand-built profile for exporter tests."""
    return HostProfile(
        wall_seconds=2.0,
        phases=[
            HostPhase("run", 1, 1.5, 0.5, 1, 1.5, 1.5),
            HostPhase("run/kernel", 2, 1.0, 1.0, 4, 0.25, 0.4),
            HostPhase("load", 1, 0.4, 0.4, 1, 0.4, 0.4),
        ],
        counters={"io.file_reads": 7, "io.file_bytes_read": 14336},
        events=[("run", 0, 1_500_000_000),
                ("run/kernel", 100, 250_000_000)],
        dropped_events=0)


class TestExporters:
    def test_flamegraph_is_byte_deterministic(self):
        a, b = _frozen_profile(), _frozen_profile()
        assert a.flamegraph() == b.flamegraph()
        lines = a.flamegraph().splitlines()
        assert "run;kernel 1000000" in lines
        assert "load 400000" in lines
        assert a.flamegraph().endswith("\n")

    def test_flamegraph_sorted_by_path(self):
        lines = _frozen_profile().flamegraph().splitlines()
        stacks = [line.rsplit(" ", 1)[0] for line in lines]
        assert stacks == sorted(stacks)

    def test_to_dict_roundtrip(self):
        original = _frozen_profile()
        payload = original.to_dict(include_events=True)
        restored = HostProfile.from_dict(payload)
        assert restored.to_dict(include_events=True) == payload

    def test_to_dict_carries_flat_metrics(self):
        payload = _frozen_profile().to_dict()
        assert payload["metrics"]["host.wall_seconds"] == 2.0
        assert payload["metrics"]["host.phase.run/kernel.seconds"] == 1.0
        assert payload["metrics"]["host.io.file_reads"] == 7.0

    def test_from_dict_rejects_wrong_kind(self):
        with pytest.raises(ConfigurationError):
            HostProfile.from_dict({"kind": "something-else"})

    def test_from_dict_rejects_newer_schema(self):
        payload = _frozen_profile().to_dict()
        payload["schema"] = 999
        with pytest.raises(ConfigurationError):
            HostProfile.from_dict(payload)

    def test_written_artifacts_are_byte_identical(self, tmp_path):
        profile = _frozen_profile()
        flame_a = tmp_path / "a.txt"
        flame_b = tmp_path / "b.txt"
        write_flamegraph(profile, str(flame_a))
        write_flamegraph(profile, str(flame_b))
        assert flame_a.read_bytes() == flame_b.read_bytes()
        json_a = tmp_path / "a.json"
        json_b = tmp_path / "b.json"
        write_host_profile(profile, str(json_a))
        write_host_profile(profile, str(json_b))
        assert json_a.read_bytes() == json_b.read_bytes()

    def test_load_host_profile_roundtrip(self, tmp_path):
        path = str(tmp_path / "p.json")
        write_host_profile(_frozen_profile(), path)
        assert (load_host_profile(path).to_dict()
                == _frozen_profile().to_dict())

    def test_chrome_trace_is_deterministic_and_valid(self):
        profile = _frozen_profile()
        trace_a = host_chrome_trace(profile)
        trace_b = host_chrome_trace(profile)
        assert (json.dumps(trace_a, sort_keys=True)
                == json.dumps(trace_b, sort_keys=True))
        validate_chrome_trace(trace_a)
        names = {event.get("args", {}).get("name")
                 for event in trace_a["traceEvents"]
                 if event.get("name") == "process_name"}
        assert "host/profile" in names

    def test_merge_leaves_recorder_untouched(self, rmat_db, machine):
        result, profile = recorded(
            GTSEngine(rmat_db, machine, tracing=True), BFSKernel(0))
        before = len(list(result.trace))
        merged = merge_host_lanes(result.trace, profile)
        assert len(list(result.trace)) == before
        merged_events = list(merged)
        assert len(merged_events) > before
        assert any(event.process == "host/profile"
                   for event in merged_events)
        validate_chrome_trace(host_chrome_trace(
            profile, recorder=result.trace))


class TestGating:
    def test_identical_profiles_are_unchanged(self):
        report = compare_metrics(_frozen_profile().to_dict(),
                                 _frozen_profile().to_dict())
        assert report.verdict == "unchanged"

    def test_doubled_phase_time_regresses(self):
        before = _frozen_profile()
        after = HostProfile(
            wall_seconds=4.0,
            phases=[
                HostPhase("run", 1, 3.5, 2.5, 1, 3.5, 3.5),
                HostPhase("run/kernel", 2, 1.0, 1.0, 4, 0.25, 0.4),
                HostPhase("load", 1, 0.4, 0.4, 1, 0.4, 0.4),
            ],
            counters=dict(before.counters))
        report = compare_metrics(before.to_dict(), after.to_dict())
        assert report.verdict == "regressed"
        regressed = {delta.name for delta in report.regressions()}
        assert "host.wall_seconds" in regressed
        assert "host.phase.run.seconds" in regressed

    def test_collect_run_metrics_includes_host(self, rmat_db, machine):
        from repro.obs import collect_run_metrics
        result, profile = recorded(GTSEngine(rmat_db, machine),
                                   BFSKernel(0))
        assert "host.wall_seconds" not in collect_run_metrics(result)
        registry = collect_run_metrics(result, host_profile=profile)
        assert "host.wall_seconds" in registry
        assert "host.coverage" in registry
        assert "host.phase.%s.seconds" % RUN in registry


class TestHistoryNoBaseline:
    def test_load_history_missing_file_is_empty(self, tmp_path):
        from repro.obs.history import load_history
        assert load_history(str(tmp_path / "nope.jsonl")) == []

    def test_compare_to_baseline_missing_file(self, tmp_path):
        from repro.obs.history import compare_to_baseline
        report, baseline = compare_to_baseline(
            str(tmp_path / "nope.jsonl"), "bench", {"metrics": {"x": 1}})
        assert report is None and baseline is None

    def test_empty_file_is_empty_history(self, tmp_path):
        from repro.obs.history import load_history
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert load_history(str(path)) == []

    def test_cli_history_missing_file_exits_zero(self, tmp_path, capsys):
        from repro.cli import main
        code = main(["obs", "history", "--path",
                     str(tmp_path / "nope.jsonl")])
        assert code == 0
        assert "no history records" in capsys.readouterr().out

    def test_cli_compare_missing_history_exits_zero(self, tmp_path,
                                                    capsys):
        from repro.cli import main
        artifact = tmp_path / "current.json"
        artifact.write_text(json.dumps({"metrics": {"x": 1.0}}))
        code = main(["obs", "compare", "--history",
                     str(tmp_path / "nope.jsonl"),
                     "--benchmark", "bench", str(artifact)])
        assert code == 0
        assert "no matching" in capsys.readouterr().out


class TestCLIHostProfile:
    @pytest.fixture()
    def edges_file(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("".join("%d %d\n" % (i, i + 1)
                                for i in range(64)))
        return str(path)

    def test_run_writes_host_artifacts(self, edges_file, tmp_path,
                                       capsys):
        from repro.cli import main
        flame = tmp_path / "flame.txt"
        profile_json = tmp_path / "host.json"
        trace = tmp_path / "trace.json"
        code = main(["run", "--edges", edges_file, "--algorithm", "bfs",
                     "--host-profile", "--flamegraph", str(flame),
                     "--host-profile-out", str(profile_json),
                     "--trace-out", str(trace)])
        assert code == 0
        out = capsys.readouterr().out
        assert "host profile:" in out
        text = flame.read_text()
        assert text.splitlines() and text.endswith("\n")
        assert any(line.startswith("load ")
                   for line in text.splitlines())
        profile = load_host_profile(str(profile_json))
        assert profile.phase("load") is not None
        assert profile.phase(RUN) is not None
        payload = json.loads(trace.read_text())
        validate_chrome_trace(payload)
        names = {event.get("args", {}).get("name")
                 for event in payload["traceEvents"]
                 if event.get("name") == "process_name"}
        assert "host/profile" in names

    def test_flag_implies_profiling(self, edges_file, tmp_path):
        from repro.cli import main
        profile_json = tmp_path / "host.json"
        code = main(["run", "--edges", edges_file, "--algorithm", "bfs",
                     "--host-profile-out", str(profile_json)])
        assert code == 0
        assert os.path.exists(str(profile_json))

    def test_profile_command_prints_host_summary(self, edges_file,
                                                 capsys):
        from repro.cli import main
        code = main(["profile", "--edges", edges_file,
                     "--algorithm", "bfs", "--host-profile"])
        assert code == 0
        assert "host profile:" in capsys.readouterr().out
