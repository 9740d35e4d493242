"""Request-telemetry tests (:mod:`repro.obs.telemetry`).

The load-bearing properties:

* **disabled path is free** — a service built without telemetry never
  reads the telemetry clock or the span clock (proved by counting), and
  results are bit-identical with telemetry on or off;
* **span trees conserve time** — child spans sum to no more than the
  parent's wall time and stay inside its bounds, from the HTTP handler
  down to the engine's kernel and booking spans;
* **/metrics is byte-deterministic** — the same stats snapshot renders
  identical exposition bytes regardless of dict construction order,
  and the rendering validates against the format grammar;
* **the slow-query ring is bounded** — eviction keeps the newest
  records within capacity, across restarts;
* **query_id propagates** HTTP → service → RunResult → trace record.
"""

import contextlib
import io
import json
import os
import threading
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

import repro.obs.host as host_module
import repro.obs.telemetry as telemetry_module
from repro.errors import (
    AdmissionError,
    ConfigurationError,
    DeadlineError,
    ShutdownError,
)
from repro.format import PageFormatConfig, build_database
from repro.format.io import FileBackedDatabase, load_database, save_database
from repro.graphgen import generate_rmat
from repro.obs.exporters import render_prometheus, validate_prometheus_text
from repro.obs.telemetry import (
    RequestTrace,
    RollingWindow,
    ServiceTelemetry,
    SlowQueryRing,
    StructuredLogger,
    TelemetryConfig,
    load_ring,
    render_service_metrics,
    summarize_requests,
)
from repro.service import (GraphService, QueryRequest, ServiceClient,
                           make_server)
from repro.units import KB

POOL_PAGES = 8


@pytest.fixture(scope="module")
def db_prefix(tmp_path_factory):
    graph = generate_rmat(9, edge_factor=8, seed=3)
    db = build_database(graph,
                        PageFormatConfig(2, 2, 1 * KB, weight_bytes=4))
    prefix = str(tmp_path_factory.mktemp("telemetry") / "g")
    save_database(db, prefix)
    return prefix


@contextlib.contextmanager
def serving(server):
    """Run ``server`` on a daemon thread; yields its base URL."""
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        yield "http://127.0.0.1:%d" % server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()


def make_service(db_prefix, telemetry=None, **kwargs):
    service = GraphService(max_in_flight=2, telemetry=telemetry,
                           **kwargs)
    service.add_database(
        "g", db=FileBackedDatabase(db_prefix, pool_pages=POOL_PAGES))
    return service


# ----------------------------------------------------------------------
# Pay-for-use: the disabled path reads no telemetry clock
# ----------------------------------------------------------------------
class TestDisabledPathIsFree:
    def test_no_clock_reads_without_telemetry(self, db_prefix,
                                              clock_reads):
        calls = clock_reads(telemetry_module, host_module)
        service = make_service(db_prefix)
        assert service.telemetry is None
        result = service.query("g", "bfs", params={"start": 0})
        service.stats()
        service.drain()
        assert result.num_rounds > 0
        assert calls[0] == 0, (
            "telemetry=None service read a telemetry or span clock %d "
            "time(s)" % calls[0])

    def test_enabled_path_does_read_the_clock(self, db_prefix,
                                              clock_reads):
        calls = clock_reads(telemetry_module)
        service = make_service(db_prefix, telemetry=True)
        service.query("g", "bfs", params={"start": 0})
        service.drain()
        assert calls[0] > 0

    def test_results_bit_identical_on_off(self, db_prefix):
        off = make_service(db_prefix)
        on = make_service(db_prefix, telemetry=TelemetryConfig(
            slow_ms=0.0, sample_every=1))
        try:
            for algorithm, params in (("bfs", {"start": 0}),
                                      ("pagerank", {"iterations": 5})):
                a = off.query("g", algorithm, params=params)
                b = on.query("g", algorithm, params=params)
                assert repr(a.elapsed_seconds) == repr(b.elapsed_seconds)
                assert a.num_rounds == b.num_rounds
                assert set(a.values) == set(b.values)
                for key in a.values:
                    np.testing.assert_array_equal(a.values[key],
                                                  b.values[key])
        finally:
            off.drain()
            on.drain()


# ----------------------------------------------------------------------
# Span trees
# ----------------------------------------------------------------------
def check_engine_span(engine, rounds):
    """``engine`` > ``core.engine.run`` > setup (with the plan lookup),
    one closed ``round`` per completed round — kernel and booking
    inside, no longer than it — and nothing of the setup in a round."""
    assert engine["name"] == "engine"
    (run,) = engine["children"]
    assert run["name"] == "core.engine.run"
    assert run["duration_ms"] <= engine["duration_ms"] + 1e-6
    by_name = {}
    for child in run["children"]:
        by_name.setdefault(child["name"], []).append(child)
    (setup,) = by_name["setup"]
    (get,) = [c for c in setup["children"] if c["name"] == "core.plan.get"]
    assert len(by_name.get("round", [])) == rounds
    for span in by_name.get("round", []):
        assert span["start_ms"] >= setup["start_ms"] + setup["duration_ms"]
        inner = {c["name"]: c for c in span["children"]}
        assert {"core.kernels.batch", "core.streams.booking"} <= set(inner)
        assert "core.plan.get" not in inner
        assert sum(c["duration_ms"] for c in span["children"]) \
            <= span["duration_ms"] + 1e-6
    return get


class TestSpanTree:
    def test_children_conserve_parent_wall(self, db_prefix, tmp_path):
        ring_dir = str(tmp_path / "ring")
        service = make_service(db_prefix, telemetry=TelemetryConfig(
            slow_ms=0.0, ring_dir=ring_dir))
        for _ in range(3):
            service.query("g", "cc")
        service.drain()
        records = load_ring(ring_dir)
        assert len(records) == 3
        for record in records:
            root = record["span"]
            assert root["name"] == "request"
            children = root["children"]
            names = [c["name"] for c in children]
            assert names == ["admission_wait", "queue_wait",
                             "gate_acquire", "engine"]
            assert sum(c["duration_ms"] for c in children) \
                <= root["duration_ms"] + 1e-6
            for child in children:
                assert child["start_ms"] >= root["start_ms"] - 1e-6
                assert (child["start_ms"] + child["duration_ms"]
                        <= root["start_ms"] + root["duration_ms"]
                        + 1e-6)
            check_engine_span(children[-1], record["rounds"])
            assert record["rounds"] > 0

    def test_deadline_capture_records_error(self, db_prefix, tmp_path):
        ring_dir = str(tmp_path / "ring")
        service = make_service(db_prefix, telemetry=TelemetryConfig(
            slow_ms=1e9, ring_dir=ring_dir))
        with pytest.raises(DeadlineError):
            service.query("g", "pagerank",
                          params={"iterations": 50},
                          options={"timeout_ms": 0.0001})
        service.drain()
        records = load_ring(ring_dir)
        # slow_ms is unreachable, so only the *error* tail-captured it.
        assert len(records) == 1
        assert records[0]["status"] == "deadline"
        assert records[0]["error_type"] == "DeadlineError"

    def test_deadline_mid_run_closes_engine_span(self, db_prefix,
                                                 tmp_path):
        """The run raises out of its spans and every one closes: the
        record's engine span holds exactly the rounds that completed."""
        ring_dir = str(tmp_path / "ring")
        service = make_service(db_prefix, telemetry=TelemetryConfig(
            slow_ms=1e9, ring_dir=ring_dir))
        for timeout_ms in (0.5, 1, 2, 4, 8, 16, 32, 64):
            with pytest.raises(DeadlineError) as info:
                service.query("g", "pagerank",
                              params={"iterations": 5000},
                              options={"timeout_ms": timeout_ms})
            if info.value.rounds_completed:
                break
        service.drain()
        record = load_ring(ring_dir)[-1]
        assert record["rounds"] == info.value.rounds_completed > 0
        check_engine_span(record["span"]["children"][-1],
                          record["rounds"])

    def test_phase_accounting_and_repr(self):
        trace = RequestTrace("q1", "g", "bfs")
        t0 = trace.submit_ns
        trace.add_phase("queue_wait", t0, t0 + 2000)
        trace.add_phase("engine", t0 + 2000, t0 + 8000, rounds=2)
        trace.end_ns = t0 + 9000
        assert trace.phase_ms() == {"queue_wait": 0.002,
                                    "engine": 0.006}
        assert trace.wall_seconds == pytest.approx(9e-6)
        assert "q1" in repr(trace)
        tree = trace.span_tree()
        assert tree["duration_ms"] == 0.009
        assert tree["children"][1]["attrs"] == {"rounds": 2}


# ----------------------------------------------------------------------
# Rolling windows
# ----------------------------------------------------------------------
class TestRollingWindow:
    def test_deterministic_with_injected_clock(self):
        now = [0.0]
        window = RollingWindow(60.0, num_buckets=6,
                               clock=lambda: now[0])
        for i in range(20):
            window.observe(0.010)
            now[0] += 1.0
        snap = window.snapshot()
        assert snap["count"] == 20
        assert snap["throughput_qps"] == pytest.approx(20 / 60.0)
        # every observation sits in the same log bin; all quantiles
        # report that bin's upper edge, at or above the true value.
        assert snap["p50"] == snap["p99"] >= 0.010

    def test_old_buckets_age_out(self):
        now = [0.0]
        window = RollingWindow(60.0, num_buckets=6,
                               clock=lambda: now[0])
        window.observe(0.5)
        now[0] = 30.0
        window.observe(0.5)
        assert window.snapshot()["count"] == 2
        now[0] = 65.0  # first bucket (t=0..10) is now outside
        assert window.snapshot()["count"] == 1
        now[0] = 500.0
        snap = window.snapshot()
        assert snap["count"] == 0
        assert snap["p50"] is None and snap["mean_seconds"] is None

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigurationError):
            RollingWindow(0.0)
        with pytest.raises(ConfigurationError):
            RollingWindow(60.0, num_buckets=0)


# ----------------------------------------------------------------------
# Slow-query ring
# ----------------------------------------------------------------------
class TestSlowQueryRing:
    def make_record(self, i):
        return {"query_id": "q%d" % i, "status": "ok", "wall_ms": 1.0,
                "database": "g", "span": {"name": "request",
                                          "children": []}}

    def test_eviction_bounds(self, tmp_path):
        ring = SlowQueryRing(str(tmp_path / "ring"), capacity=4)
        for i in range(10):
            ring.append(self.make_record(i))
        assert len(ring) == 4
        records = ring.records()
        assert [r["query_id"] for r in records] == ["q6", "q7", "q8",
                                                    "q9"]

    def test_restart_resumes_sequence(self, tmp_path):
        path = str(tmp_path / "ring")
        ring = SlowQueryRing(path, capacity=8)
        ring.append(self.make_record(0))
        reopened = SlowQueryRing(path, capacity=8)
        reopened.append(self.make_record(1))
        assert [r["query_id"] for r in reopened.records()] == ["q0",
                                                               "q1"]

    def test_query_id_sanitised_in_filename(self, tmp_path):
        ring = SlowQueryRing(str(tmp_path / "ring"), capacity=4)
        record = self.make_record(0)
        record["query_id"] = "../evil id/\\x"
        written = ring.append(record)
        assert os.path.dirname(written) == ring.directory
        assert "/.." not in os.path.basename(written)
        assert len(ring) == 1

    def test_capacity_validation_and_load_ring_errors(self, tmp_path):
        with pytest.raises(ConfigurationError):
            SlowQueryRing(str(tmp_path / "r"), capacity=0)
        with pytest.raises(ConfigurationError):
            load_ring(str(tmp_path / "missing"))

    def test_summarize(self, tmp_path):
        records = []
        for i, (status, wall) in enumerate((("ok", 10.0),
                                            ("deadline", 30.0),
                                            ("ok", 20.0))):
            record = self.make_record(i)
            record["status"] = status
            record["wall_ms"] = wall
            record["span"]["children"] = [
                {"name": "engine", "start_ms": 0.0,
                 "duration_ms": wall / 2}]
            if status == "deadline":
                record["error_type"] = "DeadlineError"
            records.append(record)
        summary = summarize_requests(records)
        assert summary["requests"] == 3
        assert summary["by_status"] == {"ok": 2, "deadline": 1}
        assert summary["by_error_type"] == {"DeadlineError": 1}
        assert summary["wall_ms"]["p50"] == 20.0
        assert summary["phase_mean_ms"]["engine"] == pytest.approx(10.0)


# ----------------------------------------------------------------------
# Structured logging
# ----------------------------------------------------------------------
class TestStructuredLogger:
    def test_silent_without_sink(self):
        logger = StructuredLogger("t")
        assert not logger.enabled
        logger.log("event", key="value")  # no sink: no-op, no error

    def test_json_lines_sorted_keys(self):
        stream = io.StringIO()
        logger = StructuredLogger("t", stream=stream)
        logger.log("thing_happened", zebra=1, alpha="x")
        line = stream.getvalue().strip()
        record = json.loads(line)
        assert record["event"] == "thing_happened"
        assert record["logger"] == "t"
        assert list(record) == sorted(record)

    def test_global_sink_configures_named_loggers(self):
        from repro.obs.telemetry import configure_logging, get_logger
        stream = io.StringIO()
        previous = configure_logging(stream)
        try:
            logger = get_logger("repro.test-global")
            assert logger is get_logger("repro.test-global")
            logger.log("ping")
            assert json.loads(stream.getvalue())["event"] == "ping"
        finally:
            configure_logging(previous)
        assert not logger.enabled

    def test_wal_recovery_logs_through_structured_logger(self,
                                                         tmp_path):
        from repro.dynamic import UpdateBatch, open_dynamic_database
        from repro.obs.telemetry import configure_logging
        graph = generate_rmat(6, edge_factor=4, seed=1)
        db = build_database(graph, PageFormatConfig(2, 2, 1 * KB))
        prefix = str(tmp_path / "dyn")
        save_database(db, prefix)
        dynamic = open_dynamic_database(prefix)
        dynamic.apply(UpdateBatch().insert_edge(0, 1))
        del dynamic  # "crash": base files + WAL survive
        # Tear the WAL tail to force the repair path on reopen.
        with open(prefix + ".wal", "ab") as handle:
            handle.write(b"\x01\x02\x03")
        stream = io.StringIO()
        previous = configure_logging(stream)
        try:
            open_dynamic_database(prefix)
        finally:
            configure_logging(previous)
        events = [json.loads(line) for line in
                  stream.getvalue().splitlines()]
        repaired = [e for e in events
                    if e["event"] == "wal_torn_tail_repaired"]
        assert len(repaired) == 1
        assert repaired[0]["logger"] == "repro.dynamic"
        assert repaired[0]["torn_bytes"] == 3


# ----------------------------------------------------------------------
# Prometheus exposition
# ----------------------------------------------------------------------
class TestPrometheusRendering:
    def frozen_stats(self, reorder=False):
        db = {"vertices": 10, "edges": 20, "pages": 4,
              "topology_version": 1, "queries": 5,
              "shared_cache": {"hits": 9, "misses": 1,
                               "hit_rate": 0.9},
              "plan_cache": {"hits": 4, "builds": 1},
              "exclusive_queries": 0, "updates": 2,
              "gate": {"writers_waiting": 0, "readers_active": 0,
                       "writer_wait_seconds": 0.25,
                       "reader_wait_seconds": 0.125,
                       "reader_waits": 3}}
        stats = {"queue_depth": 0, "in_flight": 1, "max_in_flight": 4,
                 "max_queue": 8, "draining": False, "admitted": 7,
                 "completed": 5, "failed": 1, "rejected_admission": 1,
                 "rejected_shutdown": 0, "deadline_exceeded": 1,
                 "updates_applied": 2, "peak_in_flight": 2,
                 "peak_queued": 3,
                 "latency_seconds": {"count": 5, "p50": 0.01,
                                     "p95": 0.05, "p99": 0.09},
                 "rolling": {"1m": {"count": 3, "throughput_qps": 0.05,
                                    "p50": 0.01, "p95": 0.02,
                                    "p99": 0.02},
                             "5m": {"count": 5, "throughput_qps": 0.02,
                                    "p50": 0.01, "p95": 0.05,
                                    "p99": 0.09}},
                 "telemetry": {"requests": 5, "sampled": 1, "slow": 2,
                               "tail_captured": 2, "rejections": 1,
                               "ring": {"size": 2}},
                 "databases": {"g": db}}
        if reorder:
            # Same content, different insertion order everywhere a dict
            # order could leak into the rendering.
            stats = json.loads(json.dumps(stats))
            stats["databases"] = dict(
                reversed(list(stats["databases"].items())))
            stats["rolling"] = dict(
                reversed(list(stats["rolling"].items())))
            stats["latency_seconds"] = dict(
                reversed(list(stats["latency_seconds"].items())))
        return stats

    def test_byte_deterministic_given_frozen_stats(self):
        text_a = render_service_metrics(self.frozen_stats())
        text_b = render_service_metrics(self.frozen_stats(reorder=True))
        assert text_a == text_b
        assert text_a.encode("utf-8") == text_b.encode("utf-8")

    def test_rendering_validates_and_carries_series(self):
        text = render_service_metrics(self.frozen_stats())
        parsed = validate_prometheus_text(text)
        assert parsed["gts_service_completed_total"]["samples"] == [
            ({}, 5.0)]
        rejected = dict(
            (labels["reason"], value) for labels, value in
            parsed["gts_service_rejected_total"]["samples"])
        assert rejected == {"admission": 1.0, "shutdown": 0.0}
        windows = parsed["gts_service_window_throughput_qps"]["samples"]
        assert {labels["window"] for labels, _ in windows} == {"1m",
                                                               "5m"}
        db_queries = parsed["gts_db_queries_total"]["samples"]
        assert db_queries == [({"database": "g"}, 5.0)]
        assert parsed["gts_db_gate_reader_wait_seconds_total"][
            "samples"] == [({"database": "g"}, 0.125)]

    def test_label_escaping_round_trips(self):
        hostile = 'a"b\\c\nd'
        text = render_prometheus([
            {"name": "gts_t", "type": "gauge", "help": "h",
             "samples": [({"database": hostile}, 1.0)]}])
        parsed = validate_prometheus_text(text)
        assert parsed["gts_t"]["samples"] == [({"database": hostile},
                                               1.0)]

    def test_malformed_text_rejected(self):
        for bad in ("gts_x 1\n",                      # sample before TYPE
                    "# TYPE gts_x wibble\ngts_x 1\n",  # bad type
                    "# TYPE gts_x gauge\ngts_x one\n",  # bad value
                    "# TYPE gts_x gauge\ngts_x{a=b} 1\n"):  # unquoted
            with pytest.raises(ConfigurationError):
                validate_prometheus_text(bad)

    def test_metrics_text_without_telemetry(self, db_prefix):
        service = make_service(db_prefix)
        service.query("g", "bfs", params={"start": 0})
        service.drain()
        parsed = validate_prometheus_text(service.metrics_text())
        assert "gts_service_completed_total" in parsed
        assert "gts_service_window_latency_seconds" not in parsed


# ----------------------------------------------------------------------
# Latency quantile edge cases (satellite)
# ----------------------------------------------------------------------
class TestLatencyQuantiles:
    def test_empty_service_null_shaped_block(self):
        service = GraphService(max_in_flight=1)
        latency = service.stats()["latency_seconds"]
        assert latency == {"count": 0, "p50": None, "p95": None,
                           "p99": None}
        service.drain()

    def test_single_sample(self):
        service = GraphService(max_in_flight=1)
        service._wall_latencies = [0.25]
        latency = service._latency_quantiles()
        assert latency == {"count": 1, "p50": 0.25, "p95": 0.25,
                           "p99": 0.25}
        service.drain()

    def test_two_samples_interpolate(self):
        service = GraphService(max_in_flight=1)
        service._wall_latencies = [1.0, 3.0]
        latency = service._latency_quantiles()
        assert latency["count"] == 2
        assert latency["p50"] == pytest.approx(2.0)
        assert latency["p95"] == pytest.approx(2.9)
        assert latency["p99"] == pytest.approx(2.98)
        service.drain()


# ----------------------------------------------------------------------
# HTTP propagation + serialize span
# ----------------------------------------------------------------------
class TestHTTPPropagation:
    @pytest.fixture()
    def served(self, db_prefix, tmp_path):
        ring_dir = str(tmp_path / "ring")
        service = make_service(db_prefix, telemetry=TelemetryConfig(
            slow_ms=0.0, ring_dir=ring_dir))
        with serving(make_server(service, port=0)) as base:
            yield service, base, ring_dir
        service.drain()

    def post(self, base, payload):
        request = urllib.request.Request(
            base + "/query", data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=30) as response:
            return (json.loads(response.read()),
                    response.headers.get("X-Query-Id"))

    def test_query_id_propagates_end_to_end(self, served):
        service, base, ring_dir = served
        body, header = self.post(base, {
            "database": "g", "algorithm": "bfs",
            "params": {"start": 0}, "query_id": "corr-42"})
        assert body["query_id"] == "corr-42"
        assert header == "corr-42"
        # Server-assigned ids propagate too.
        body, header = self.post(base, {"database": "g",
                                        "algorithm": "bfs",
                                        "params": {"start": 0}})
        assert body["query_id"] == header is not None
        service.drain()
        records = load_ring(ring_dir)
        by_id = {r["query_id"]: r for r in records}
        assert "corr-42" in by_id
        # The HTTP path appends the serialize span before completion.
        names = [c["name"] for c in by_id["corr-42"]["span"]["children"]]
        assert names[-1] == "serialize"

    def test_post_commit_rebuild_is_filed_under_setup(self, db_prefix,
                                                      tmp_path):
        """A commit, then a query, over HTTP: the ring record reads
        from the handler down to the page decode of the plan rebuild,
        and the rebuild sits in ``setup`` — not in the first round."""
        prefix = str(tmp_path / "live")
        save_database(load_database(db_prefix), prefix)
        ring_dir = str(tmp_path / "ring")
        service = GraphService(max_in_flight=2, telemetry=TelemetryConfig(
            slow_ms=0.0, ring_dir=ring_dir))
        service.add_database("live", prefix=prefix)
        with serving(make_server(service, port=0)) as base:
            client = ServiceClient(base)
            client.query("live", "pagerank", params={"iterations": 3})
            client.update("live", {"ops": [["+", 0, 1, 1.0]]})
            body = client.query("live", "pagerank",
                                params={"iterations": 3}, query_id="pc")
        service.drain()
        record = {r["query_id"]: r for r in load_ring(ring_dir)}["pc"]
        assert record["snapshot_version"] == body["snapshot_version"] == 1
        phases = record["span"]["children"]
        assert [p["name"] for p in phases] == [
            "admission_wait", "queue_wait", "snapshot_pin",
            "gate_acquire", "engine", "service.http.serialize",
            "serialize"]
        get = check_engine_span(phases[4], body["num_rounds"])
        (build,) = get["children"]
        assert build["name"] == "core.plan.build"
        scan = {c["name"]: c for c in build["children"]}["scan"]
        assert any(c["name"] == "format.io.page"
                   for c in scan.get("children", []))

    def test_trace_deferred_at_submit_outlives_a_finished_query(self,
                                                               served):
        """The handler claims completion *at* submit: however quickly
        the worker finishes, the trace is still open when the handler
        comes back for it (it used to claim it after ``submit``
        returned, and a query quicker than the handler thread's next
        time slice completed its trace without the serialize span)."""
        service, _, ring_dir = served
        future = service.submit(
            QueryRequest("g", "bfs", params={"start": 0}, query_id="d1"),
            defer_trace=True)
        future.result()
        service.submit(QueryRequest("g", "bfs", params={"start": 0},
                                    query_id="d2")).result()
        service.drain()
        trace = service.telemetry.defer("d1")
        assert trace is not None
        assert service.telemetry.defer("d2") is None
        assert [r["query_id"] for r in load_ring(ring_dir)] == ["d2"]
        service.telemetry.complete(trace)
        assert sorted(r["query_id"] for r in load_ring(ring_dir)) == [
            "d1", "d2"]

    def test_metrics_endpoint(self, served):
        service, base, _ = served
        self.post(base, {"database": "g", "algorithm": "bfs",
                         "params": {"start": 0}})
        with urllib.request.urlopen(base + "/metrics",
                                    timeout=30) as response:
            assert response.headers["Content-Type"].startswith(
                "text/plain; version=0.0.4")
            parsed = validate_prometheus_text(
                response.read().decode("utf-8"))
        assert parsed["gts_service_completed_total"]["samples"][0][1] \
            >= 1.0
        assert "gts_service_window_latency_seconds" in parsed

    def test_deadline_body_carries_query_id(self, served):
        """...and the ring record is written before the 504 is sent: a
        client holding the answer finds it with no ``drain()`` between
        (the handler used to complete the trace after responding)."""
        service, base, ring_dir = served
        for attempt in range(50):
            query_id = "doomed-%d" % attempt
            request = urllib.request.Request(
                base + "/query",
                data=json.dumps({
                    "database": "g", "algorithm": "pagerank",
                    "params": {"iterations": 50},
                    "options": {"timeout_ms": 0.0001},
                    "query_id": query_id}).encode(),
                headers={"Content-Type": "application/json"})
            with pytest.raises(urllib.error.HTTPError) as info:
                urllib.request.urlopen(request, timeout=30)
            assert info.value.code == 504
            assert json.loads(info.value.read())["query_id"] == query_id
            doomed = [r for r in load_ring(ring_dir)
                      if r["query_id"] == query_id]
            assert doomed and doomed[0]["status"] == "deadline", attempt


# ----------------------------------------------------------------------
# Client retry (satellite)
# ----------------------------------------------------------------------
class _StubHandler(BaseHTTPRequestHandler):
    """Scripted responses: pops the next (status, headers, body)."""

    script = []
    seen = []

    def log_message(self, *args):
        pass

    def do_POST(self):
        length = int(self.headers.get("Content-Length") or 0)
        type(self).seen.append(json.loads(self.rfile.read(length)))
        status, headers, body = type(self).script.pop(0)
        payload = json.dumps(body).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        for key, value in headers.items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(payload)


@pytest.fixture()
def stub_server():
    handler = type("Stub", (_StubHandler,), {"script": [], "seen": []})
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.daemon_threads = True
    with serving(server) as base:
        yield handler, base


BUSY = {"error": "busy", "type": "AdmissionError", "queue_depth": 1,
        "in_flight": 1, "max_in_flight": 1, "max_queue": 0}


class TestClientRetry:
    def test_retries_429_honouring_retry_after(self, stub_server):
        handler, base = stub_server
        handler.script[:] = [
            (429, {"Retry-After": "2"}, BUSY),
            (429, {"Retry-After": "2"}, BUSY),
            (200, {}, {"algorithm": "bfs", "query_id": "q0"}),
        ]
        client = ServiceClient(base, retries=3, backoff_cap=5.0)
        sleeps = []
        client._sleep = sleeps.append
        result = client.query("g", "bfs")
        assert result["query_id"] == "q0"
        assert len(handler.seen) == 3
        # Retry-After=2 with doubling, capped at 5: 2, then 4.
        assert sleeps == [2.0, 4.0]

    def test_backoff_is_capped(self, stub_server):
        handler, base = stub_server
        handler.script[:] = [(429, {"Retry-After": "4"}, BUSY)] * 3 + [
            (200, {}, {"ok": True})]
        client = ServiceClient(base, retries=3, backoff_cap=5.0)
        sleeps = []
        client._sleep = sleeps.append
        client.query("g", "bfs")
        assert sleeps == [4.0, 5.0, 5.0]

    def test_retries_exhausted_raises_typed(self, stub_server):
        handler, base = stub_server
        handler.script[:] = [(429, {"Retry-After": "1"}, BUSY)] * 2
        client = ServiceClient(base, retries=1)
        client._sleep = lambda _s: None
        with pytest.raises(AdmissionError):
            client.query("g", "bfs")
        assert len(handler.seen) == 2

    def test_no_retry_on_503_draining(self, stub_server):
        handler, base = stub_server
        handler.script[:] = [
            (503, {}, {"error": "draining", "type": "ShutdownError"})]
        client = ServiceClient(base, retries=5)
        client._sleep = lambda _s: pytest.fail("slept on 503")
        with pytest.raises(ShutdownError):
            client.query("g", "bfs")
        assert len(handler.seen) == 1

    def test_default_is_fail_fast(self, stub_server):
        handler, base = stub_server
        handler.script[:] = [(429, {"Retry-After": "1"}, BUSY)]
        client = ServiceClient(base)
        with pytest.raises(AdmissionError):
            client.query("g", "bfs")
        assert len(handler.seen) == 1

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ServiceClient("http://x", retries=-1)
        with pytest.raises(ConfigurationError):
            ServiceClient("http://x", backoff_cap=0.0)


# ----------------------------------------------------------------------
# Telemetry front-end behaviours
# ----------------------------------------------------------------------
class TestServiceTelemetry:
    def test_head_sampling_cadence(self):
        tm = ServiceTelemetry(TelemetryConfig(sample_every=3))

        class Req:
            database = "g"
            algorithm = "bfs"

            def __init__(self, i):
                self.query_id = "q%d" % i

        sampled = [tm.new_trace(Req(i)).sampled for i in range(9)]
        assert sampled == [False, False, True] * 3

    def test_complete_is_idempotent(self, tmp_path):
        tm = ServiceTelemetry(TelemetryConfig(
            slow_ms=0.0, ring_dir=str(tmp_path / "ring")))

        class Req:
            database = "g"
            algorithm = "bfs"
            query_id = "q0"

        trace = tm.new_trace(Req())
        trace.set_status("ok")
        tm.complete(trace)
        tm.complete(trace)
        assert tm.requests == 1
        assert len(load_ring(str(tmp_path / "ring"))) == 1

    def test_defer_returns_none_after_completion(self):
        tm = ServiceTelemetry(TelemetryConfig())

        class Req:
            database = "g"
            algorithm = "bfs"
            query_id = "q0"

        trace = tm.new_trace(Req())
        assert tm.defer("q0") is trace
        trace.set_status("ok")
        tm.complete(trace)
        assert tm.defer("q0") is None
        assert tm.defer("missing") is None

    def test_rejections_recorded(self, db_prefix):
        stream = io.StringIO()
        service = make_service(
            db_prefix, telemetry=TelemetryConfig(log_stream=stream),
            max_queue=0)
        service.drain(wait=True)
        with pytest.raises(ShutdownError):
            service.query("g", "bfs", params={"start": 0})
        assert service.telemetry.rejections == 1
        events = [json.loads(line) for line in
                  stream.getvalue().splitlines()]
        assert events[-1]["event"] == "request_rejected"
        assert events[-1]["error_type"] == "ShutdownError"

    def test_bad_telemetry_argument_rejected(self):
        with pytest.raises(ConfigurationError):
            GraphService(telemetry="yes")
        with pytest.raises(ConfigurationError):
            TelemetryConfig(slow_ms=-1.0)
        with pytest.raises(ConfigurationError):
            TelemetryConfig(sample_every=-1)
