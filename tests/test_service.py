"""Service-layer tests: the determinism contract under concurrency.

The load-bearing property: N worker threads running mixed algorithms
against ONE shared database handle (shared plan cache, shared reduce
indexes, shared file page pool) must produce results
bit-identical — outputs AND simulated timings — to serial one-shot
``GTSEngine.run()`` calls against a private cold handle.  Everything
else here (admission control, graceful drain, typed rejections, the
HTTP front end, fault isolation) guards the operational envelope
around that property.
"""

import dataclasses
import json
import threading
import urllib.request

import numpy as np
import pytest

from repro.core import GTSEngine
from repro.core.algorithms import make_kernel
from repro.errors import (
    AdmissionError,
    ConfigurationError,
    ServiceError,
    ShutdownError,
)
from repro.format import PageFormatConfig, build_database
from repro.format.io import FileBackedDatabase, save_database
from repro.graphgen import generate_rmat
from repro.hardware.specs import scaled_workstation
from repro.obs import collect_service_metrics
from repro.service import (
    GraphService,
    QueryRequest,
    ServiceClient,
    make_server,
)
from repro.units import KB

#: Small pool, so queries share a page store that evicts and parses
#: again; every workload below fits the test graph.
POOL_PAGES = 8

#: (algorithm, params, options) — mixed read workloads, both
#: strategies, several start vertices.
WORKLOADS = [
    ("bfs", {"start": 0}, {}),
    ("bfs", {"start": 17}, {"strategy": "scalability"}),
    ("pagerank", {"iterations": 4}, {}),
    ("pagerank", {"iterations": 2}, {"strategy": "scalability"}),
    ("sssp", {"start": 3}, {}),
    ("cc", {}, {}),
    ("degree", {}, {"num_streams": 4}),
]


@pytest.fixture(scope="module")
def db_prefix(tmp_path_factory):
    """A saved, checksummed, weighted database on disk."""
    graph = generate_rmat(9, edge_factor=8, seed=11)
    graph = graph.with_random_weights(seed=11)
    db = build_database(graph,
                        PageFormatConfig(2, 2, 1 * KB, weight_bytes=4),
                        name="svc-graph")
    prefix = str(tmp_path_factory.mktemp("service") / "g")
    save_database(db, prefix)
    return prefix


def _one_shot(prefix, algorithm, params, options):
    """A cold, serial, private-handle reference run."""
    db = FileBackedDatabase(prefix, pool_pages=POOL_PAGES)
    machine = scaled_workstation(num_gpus=2, num_ssds=2)
    engine = GTSEngine(db, machine, **options)
    return engine.run(make_kernel(algorithm, params, db), dataset_name="g")


@pytest.fixture(scope="module")
def references(db_prefix):
    """Reference results for every workload, computed serially."""
    return [_one_shot(db_prefix, *w) for w in WORKLOADS]


def _assert_matches_reference(result, reference):
    """Bit-identical simulated behaviour; host-side fields may differ."""
    assert result.elapsed_seconds == reference.elapsed_seconds
    assert result.num_rounds == reference.num_rounds
    assert result.pages_streamed == reference.pages_streamed
    assert result.bytes_streamed == reference.bytes_streamed
    assert result.cache_hits == reference.cache_hits
    assert result.cache_misses == reference.cache_misses
    assert result.edges_traversed == reference.edges_traversed
    for key in reference.values:
        np.testing.assert_array_equal(result.values[key],
                                      reference.values[key])
    for mine, theirs in zip(result.rounds, reference.rounds):
        assert (dataclasses.asdict(mine)
                == dataclasses.asdict(theirs))


class TestConcurrentEquivalence:
    def test_concurrent_mixed_queries_bit_identical(self, db_prefix,
                                                    references):
        """The tentpole property: 64+ concurrent mixed queries against
        one shared handle reproduce serial one-shot runs exactly."""
        service = GraphService(max_in_flight=8, max_queue=256)
        service.add_database(
            "g", db=FileBackedDatabase(db_prefix,
                                       pool_pages=POOL_PAGES))
        repeats = 10  # 7 workloads x 10 = 70 concurrent queries
        futures = []
        for wave in range(repeats):
            for index, (algorithm, params, options) in enumerate(
                    WORKLOADS):
                futures.append((index, service.submit(QueryRequest(
                    "g", algorithm, params=params, options=options))))
        assert len(futures) >= 64
        for index, future in futures:
            _assert_matches_reference(future.result(timeout=120),
                                      references[index])
        stats = service.stats()
        assert stats["completed"] == len(futures)
        assert stats["failed"] == 0
        assert stats["peak_in_flight"] >= 2  # genuinely concurrent
        assert service.drain(wait=True, timeout=30)

    def test_warm_queries_book_identical_simulated_time(self, db_prefix,
                                                        references):
        """Query #2 runs warm (off the shared plan) yet books the
        same simulated clock and outputs as the cold reference."""
        service = GraphService(max_in_flight=2)
        service.add_database(
            "g", db=FileBackedDatabase(db_prefix,
                                       pool_pages=POOL_PAGES))
        algorithm, params, options = WORKLOADS[1]
        cold = service.query("g", algorithm, params=params,
                             options=options)
        warm = service.query("g", algorithm, params=params,
                             options=options)
        _assert_matches_reference(cold, references[1])
        _assert_matches_reference(warm, references[1])
        # The warm run was served the plan the cold one built.
        plans = service.stats()["databases"]["g"]["plan_cache"]
        assert plans["builds"] == 1
        service.drain()


class TestAdmissionControl:
    def test_rejects_past_capacity_with_typed_error(self, db_prefix):
        service = GraphService(max_in_flight=1, max_queue=0)
        db = service.add_database(
            "g", db=FileBackedDatabase(db_prefix,
                                       pool_pages=POOL_PAGES))
        assert db is not None
        # Hold the database gate so the admitted query parks inside
        # its worker, keeping in-flight occupancy deterministic.
        gate = service._entry("g").gate
        gate.acquire_write()
        try:
            first = service.submit(QueryRequest("g", "bfs",
                                                params={"start": 0}))
            with pytest.raises(AdmissionError) as excinfo:
                service.submit(QueryRequest("g", "bfs",
                                            params={"start": 0}))
            error = excinfo.value
            assert error.max_in_flight == 1
            assert error.max_queue == 0
            assert error.queue_depth + error.in_flight >= 1
        finally:
            gate.release_write()
        first.result(timeout=60)
        assert service.stats()["rejected_admission"] == 1
        service.drain()

    def test_rejections_cost_nothing(self, db_prefix):
        """A rejected query never reaches the executor: counters move,
        admitted/completed do not."""
        service = GraphService(max_in_flight=1, max_queue=0)
        service.add_database(
            "g", db=FileBackedDatabase(db_prefix,
                                       pool_pages=POOL_PAGES))
        gate = service._entry("g").gate
        gate.acquire_write()
        try:
            future = service.submit(QueryRequest("g", "cc"))
            for _ in range(5):
                with pytest.raises(AdmissionError):
                    service.submit(QueryRequest("g", "cc"))
        finally:
            gate.release_write()
        future.result(timeout=60)
        stats = service.stats()
        assert stats["admitted"] == 1
        assert stats["rejected_admission"] == 5
        assert stats["completed"] == 1
        service.drain()


class TestGracefulShutdown:
    def test_drain_completes_in_flight_then_rejects(self, db_prefix,
                                                    references):
        service = GraphService(max_in_flight=4)
        service.add_database(
            "g", db=FileBackedDatabase(db_prefix,
                                       pool_pages=POOL_PAGES))
        futures = [service.submit(QueryRequest("g", "pagerank",
                                               params={"iterations": 4}))
                   for _ in range(6)]
        assert service.drain(wait=True, timeout=60)
        for future in futures:
            _assert_matches_reference(future.result(timeout=1),
                                      references[2])
        with pytest.raises(ShutdownError):
            service.submit(QueryRequest("g", "bfs", params={"start": 0}))
        stats = service.stats()
        assert stats["draining"] is True
        assert stats["rejected_shutdown"] == 1

    def test_drain_is_idempotent(self, db_prefix):
        service = GraphService(max_in_flight=1)
        service.add_database(
            "g", db=FileBackedDatabase(db_prefix,
                                       pool_pages=POOL_PAGES))
        assert service.drain(wait=True, timeout=10)
        assert service.drain(wait=True, timeout=10)

    def test_remove_database_waits_for_running_query(self, db_prefix,
                                                     references):
        """``remove_database`` closes the store it opened only after
        the engines running on it drain: a query blocked mid-run while
        the removal is requested still completes with the reference
        answer, and the store is closed once it has."""
        service = GraphService(max_in_flight=2)
        service.add_database("g", prefix=db_prefix, pool_pages=POOL_PAGES)
        store = service._entry("g").db._base
        mid_run = threading.Event()
        resume = threading.Event()
        scan = store.topology_arrays

        def blocking_scan():
            mid_run.set()
            assert resume.wait(timeout=30)
            return scan()

        # The plan build is the run's one read of the store.
        store.topology_arrays = blocking_scan
        algorithm, params, options = WORKLOADS[1]
        future = service.submit(QueryRequest(
            "g", algorithm, params=params, options=options))
        assert mid_run.wait(timeout=30)
        remover = threading.Thread(target=service.remove_database,
                                   args=("g",))
        remover.start()
        remover.join(timeout=0.3)
        assert remover.is_alive()  # held at the gate by the reader
        assert store._fd is not None
        resume.set()
        _assert_matches_reference(future.result(timeout=60),
                                  references[1])
        remover.join(timeout=30)
        assert not remover.is_alive()
        assert store._fd is None
        assert service.database_names() == []
        service.drain()


class TestRequestValidation:
    def test_unknown_database_is_typed(self, db_prefix):
        service = GraphService()
        with pytest.raises(ServiceError):
            service.submit(QueryRequest("nope", "bfs"))

    def test_unknown_algorithm_is_typed(self, db_prefix):
        service = GraphService()
        service.add_database(
            "g", db=FileBackedDatabase(db_prefix,
                                       pool_pages=POOL_PAGES))
        # A kernel label is the paper tables' spelling, not a name here.
        for algorithm in ("mincut", "BFS"):
            with pytest.raises(ServiceError):
                service.submit(QueryRequest("g", algorithm))
        service.drain()

    def test_weighted_algorithm_on_unweighted_db(self):
        graph = generate_rmat(8, edge_factor=4, seed=5)
        db = build_database(graph, PageFormatConfig(2, 2, 1 * KB))
        service = GraphService()
        service.add_database("plain", db=db)
        with pytest.raises(ServiceError):
            service.submit(QueryRequest("plain", "sssp",
                                        params={"start": 0}))
        # A symmetric algorithm runs on the stored topology, warned.
        with pytest.warns(UserWarning, match="used as-is"):
            service.query("plain", "cc")
        service.drain()

    def test_bad_start_vertex_and_options(self, db_prefix):
        service = GraphService()
        service.add_database(
            "g", db=FileBackedDatabase(db_prefix,
                                       pool_pages=POOL_PAGES))
        # Out of range, or not an integer: a bool, a float, a string.
        for params in ({"start": 10 ** 9}, {"start": "abc"},
                       {"start": 1.7}, {"start": True},
                       {"iterations": "x"}, {"k": "2"}):
            with pytest.raises(ServiceError):
                service.submit(QueryRequest("g", "bfs", params=params))
        # Never-known and removed knobs alike are unknown options.
        for options in ({"warp_speed": True}, {"backend": "process"},
                        {"backend_workers": 2}, {"execution": "paged"},
                        {"execution": "auto"}):
            with pytest.raises(ServiceError):
                QueryRequest("g", "bfs", options=options)
        with pytest.raises(ServiceError):
            QueryRequest.from_dict({"database": "g"})
        with pytest.raises(ServiceError):
            QueryRequest.from_dict(["not", "a", "dict"])
        service.drain()

    def test_duplicate_registration_and_bad_config(self, db_prefix):
        service = GraphService()
        service.add_database(
            "g", db=FileBackedDatabase(db_prefix,
                                       pool_pages=POOL_PAGES))
        with pytest.raises(ServiceError):
            service.add_database(
                "g", db=FileBackedDatabase(db_prefix,
                                           pool_pages=POOL_PAGES))
        with pytest.raises(ServiceError):
            service.add_database("h")  # neither db nor prefix
        with pytest.raises(ServiceError):
            service.remove_database("missing")
        with pytest.raises(ConfigurationError):
            GraphService(max_in_flight=0)
        with pytest.raises(ConfigurationError):
            GraphService(max_queue=-1)
        service.drain()


class TestFaultIsolation:
    def test_fault_query_runs_exclusively_and_cannot_poison(
            self, db_prefix, references):
        """A query whose plan corrupts host reads takes the gate
        exclusively, recovers via checksum re-reads, and the pages it
        touched enter the page pool only in verified form — the next
        (warm) query is still bit-identical to the reference."""
        service = GraphService(max_in_flight=4)
        service.add_database(
            "g", db=FileBackedDatabase(db_prefix,
                                       pool_pages=POOL_PAGES))
        algorithm, params, options = WORKLOADS[1]
        faulted = service.query(
            "g", algorithm, params=params, options=options,
            faults={"host_corrupt_reads": {"0": 1, "2": 1}})
        # Corruption was injected, caught and recovered.
        assert faulted.fault_stats["integrity_retries"] >= 1
        _assert_matches_reference(faulted, references[1])
        entry_stats = service.stats()["databases"]["g"]
        assert entry_stats["exclusive_queries"] == 1
        # Warm follow-up reads through the page pool and still matches
        # the cold reference exactly.
        warm = service.query("g", algorithm, params=params,
                             options=options)
        _assert_matches_reference(warm, references[1])
        service.drain()


class TestHTTP:
    @pytest.fixture()
    def server(self, db_prefix):
        service = GraphService(max_in_flight=4)
        service.add_database(
            "g", db=FileBackedDatabase(db_prefix,
                                       pool_pages=POOL_PAGES))
        server = make_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever,
                                  daemon=True)
        thread.start()
        yield server
        server.shutdown()
        server.server_close()
        service.drain()

    def test_smoke_health_stats_query(self, server, references):
        client = ServiceClient(
            "http://127.0.0.1:%d" % server.server_address[1])
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["draining"] is False
        algorithm, params, options = WORKLOADS[0]
        result = client.query("g", algorithm, params=params,
                              options=options, include_values=True,
                              query_id="smoke-1")
        reference = references[0]
        assert result["elapsed_seconds"] == reference.elapsed_seconds
        assert result["num_rounds"] == reference.num_rounds
        assert result["query_id"] == "smoke-1"
        assert (result["values"]["level"]
                == np.asarray(reference.values["level"]).tolist())
        stats = client.stats()
        assert stats["completed"] == 1
        assert stats["databases"]["g"]["queries"] == 1

    def test_typed_errors_map_to_status_codes(self, server):
        client = ServiceClient(
            "http://127.0.0.1:%d" % server.server_address[1])
        with pytest.raises(ServiceError):
            client.query("g", "mincut")
        with pytest.raises(ServiceError):
            client.query("missing", "bfs")
        # Unknown paths and malformed bodies are 4xx, not crashes.
        base = "http://127.0.0.1:%d" % server.server_address[1]
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(base + "/nope")
        assert excinfo.value.code == 404
        request = urllib.request.Request(
            base + "/query", data=b"{broken",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400
        for bad in ({"options": {"backend": "process"}},
                    {"options": {"execution": "paged"}},
                    {"params": {"start": "abc"}}):
            request = urllib.request.Request(
                base + "/query",
                data=json.dumps(dict(database="g", algorithm="bfs",
                                     **bad)).encode(),
                headers={"Content-Type": "application/json"})
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request)
            assert excinfo.value.code == 400

    def test_draining_server_returns_503(self, server):
        server.service.drain(wait=True, timeout=30)
        client = ServiceClient(
            "http://127.0.0.1:%d" % server.server_address[1])
        with pytest.raises(ShutdownError):
            client.query("g", "bfs")
        assert client.healthz()["draining"] is True


class TestObservability:
    def test_stats_and_metrics_shapes(self, db_prefix):
        service = GraphService(max_in_flight=2)
        service.add_database(
            "g", db=FileBackedDatabase(db_prefix,
                                       pool_pages=POOL_PAGES))
        for algorithm, params, options in WORKLOADS[:3]:
            result = service.query("g", algorithm, params=params,
                                   options=options)
            assert result.query_id is not None
            payload = result.to_dict()
            assert payload["query_id"] == result.query_id
        stats = service.stats()
        latency = stats["latency_seconds"]
        assert latency["p50"] is not None
        assert latency["p99"] >= latency["p50"]
        assert stats["databases"]["g"]["plan_cache"]["builds"] >= 1
        assert "pool_locks" in stats["databases"]["g"]
        json.dumps(stats)  # snapshot must be JSON-clean
        registry = collect_service_metrics(service)
        assert registry["service.completed"].snapshot() == 3
        assert "service.db.g.plan_builds" in registry
        assert registry["service.latency_p50_seconds"].snapshot() \
            == latency["p50"]
        service.drain()
