"""The ledger's four workloads: inputs, measured procedures, output checks.

Everything here calls the program the way a default caller would --
``generate_rmat`` / ``build_database`` / ``save_database`` to make a
dataset, ``FileBackedDatabase(prefix, pool_pages=...)`` +
``GTSEngine(db, machine).run(kernel)`` for the engine workloads,
``GraphService`` + ``make_server`` + ``ServiceClient`` + ``UpdateBatch``
for ``serve_live`` -- and passes none of the ``execution=`` /
``backend=`` / ``mode=`` / ``io_merge=`` knobs, so the numbers are what a
caller gets by default and survive those knobs' deletion.

The seed only ever shapes the generated inputs (graph, weights, start
vertices, update batches); the program never sees it.
"""

import contextlib
import dataclasses
import hashlib
import json
import os
import platform
import queue
import resource
import threading
import time

import numpy as np

DEFAULT_SEED = 7
EDGE_FACTOR = 16
BATCH_EDGES = 64
NUM_STARTS = 4
#: Kept cold samples (one more is taken first and discarded: the first
#: cold run of a process read 2.41 s against 1.25 / 1.54 s after it).
COLD_SAMPLES = 5
SETUP_SAMPLES = 3
#: Share of the measured window given to cold samples.
COLD_SHARE = 0.2
EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected.json")


def _scan(starts):
    return [("pagerank", {"iterations": 10}), ("cc", {})]


def _traverse(starts):
    return [(algorithm, {"start": start}) for start in starts
            for algorithm in ("bfs", "sssp")]


def _outofcore(starts):
    return [("kcore", {"k": 2}),
            ("rwr", {"start": starts[0], "iterations": 2}),
            ("bc", {"start": starts[0]})]


def _serve_live(starts):
    return [("bfs", {"start": starts[0]}), ("pagerank", {"iterations": 5}),
            ("sssp", {"start": starts[1]}), ("cc", {}),
            ("bfs", {"start": starts[2]}), ("pagerank", {"iterations": 5}),
            ("sssp", {"start": starts[3]}), ("cc", {})]


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scale: int
    #: The program's page pool holds ``num_pages // pool_divisor`` pages.
    pool_divisor: int
    #: start vertices -> the fixed query list one pass runs.
    queries: object
    #: Served over loopback HTTP beside a committing writer.
    live: bool = False
    #: Threads the load generator runs (refused above ``nproc``).
    client_threads: int = 1
    min_passes: int = 5
    cold_samples: int = COLD_SAMPLES
    setup_samples: int = SETUP_SAMPLES

    def tiny(self):
        """The ``--selfcheck`` shape: rmat10, two passes, one sample."""
        return dataclasses.replace(self, scale=10, min_passes=2,
                                   cold_samples=1, setup_samples=1)


WORKLOADS = {w.name: w for w in [
    Workload(
        "scan", "PageRank(10)+WCC full scans on a fully pooled rmat15: "
        "warm time sits in process_batch and stream booking, cold time "
        "in the plan build; no page I/O when warm",
        scale=15, pool_divisor=1, queries=_scan),
    Workload(
        "traverse", "BFS+SSSP from 4 seeded starts on a fully pooled "
        "rmat15: partial rounds put the time in PagePlan.round_batch "
        "gathers, so a full-scan gain that taxes gathers shows here",
        scale=15, pool_divisor=1, queries=_traverse),
    Workload(
        "outofcore", "k-core+RWR+BC on rmat14 with the page pool at 1/8 "
        "of the pages: the per-page loop pays read+parse+evict in "
        "FileBackedDatabase.page, which scan/traverse never touch warm",
        scale=14, pool_divisor=8, queries=_outofcore),
    Workload(
        "serve_live", "closed loop over loopback HTTP on rmat14: one "
        "reader cycles bfs/pagerank/sssp/cc while one writer commits a "
        "64-edge batch per pass, so each pass pays one plan rebuild",
        scale=14, pool_divisor=1, queries=_serve_live, live=True,
        client_threads=2),
]}


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def page_format():
    from repro import PageFormatConfig
    return PageFormatConfig(page_id_bytes=4, slot_bytes=2, page_size=2048,
                            weight_bytes=4)


def make_graph(workload, seed):
    from repro import generate_rmat
    return generate_rmat(workload.scale, edge_factor=EDGE_FACTOR,
                         seed=seed).with_random_weights(seed=seed)


def build_dataset(workload, seed, prefix):
    """Generate + build + save; returns ``(seconds, graph, db)``."""
    from repro import build_database
    from repro.format.io import save_database
    began = time.perf_counter()
    graph = make_graph(workload, seed)
    db = build_database(graph, page_format())
    save_database(db, prefix)
    return time.perf_counter() - began, graph, db


def bfs_edges(graph, start):
    """Edges a BFS from ``start`` traverses (out-edges of every vertex
    it reaches)."""
    seen = np.zeros(graph.num_vertices, dtype=bool)
    seen[start] = True
    frontier = np.asarray([start], dtype=np.int64)
    edges = 0
    while len(frontier):
        begins = graph.indptr[frontier]
        counts = graph.indptr[frontier + 1] - begins
        total = int(counts.sum())
        edges += total
        offsets = np.repeat(begins - np.cumsum(counts) + counts, counts)
        neighbours = graph.targets[offsets + np.arange(total)]
        frontier = np.unique(neighbours[~seen[neighbours]])
        seen[frontier] = True
    return edges


def pick_starts(graph, seed, count=NUM_STARTS):
    """``count`` start vertices drawn by seed from those whose BFS
    traverses more than ``num_vertices`` edges.

    A uniformly random R-MAT vertex is often a sink (vertex 123850 at
    seed 7, rmat17, finishes in one round with zero edges), which would
    time an empty traversal.
    """
    starts = []
    for vertex in np.random.default_rng(seed).permutation(
            graph.num_vertices):
        if bfs_edges(graph, int(vertex)) > graph.num_vertices:
            starts.append(int(vertex))
            if len(starts) == count:
                return starts
    raise ValueError("graph has fewer than %d non-sink start vertices"
                     % count)


def update_batch(num_vertices, seed, index):
    """The ``index``-th 64-edge insert batch of a seeded run."""
    from repro.dynamic import UpdateBatch
    rng = np.random.default_rng([seed, index])
    batch = UpdateBatch()
    for _ in range(BATCH_EDGES):
        u, v = (int(x) for x in rng.integers(0, num_vertices, size=2))
        if u == v:
            v = (v + 1) % num_vertices
        batch.insert_edge(u, v, float(rng.uniform(1.0, 10.0)))
    return batch


def host_facts():
    return {"nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "load_1min": os.getloadavg()[0]}


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def digest(values):
    """Hex digest of a result's ``{name: array}`` values."""
    sha = hashlib.sha256()
    for key in sorted(values):
        array = np.ascontiguousarray(values[key])
        sha.update(key.encode())
        sha.update(str(array.dtype).encode())
        sha.update(array.tobytes())
    return sha.hexdigest()


class Tally:
    """Operations attempted and failed, with a line per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, ok, problem):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)
        return ok


def _label(index, query):
    return "%d:%s" % (index, query[0])


def check_fingerprints(tally, workload, seed, fingerprints):
    """Compare ``{label: [digest, elapsed]}`` with ``expected.json``.

    Only the default seed at full size has a golden record, keyed by
    NumPy version (summation order is NumPy's); other seeds skip it.
    Returns whether a comparison happened.
    """
    if seed != DEFAULT_SEED or workload != WORKLOADS[workload.name]:
        return False
    with open(EXPECTED_PATH) as handle:
        expected = json.load(handle).get(np.__version__, {})
    golden = expected.get(workload.name)
    if golden is None:
        return False
    tally.check(golden == fingerprints,
                "%s: values or simulated time differ from expected.json"
                % workload.name)
    return True


def check_reference(tally, graph, queries, results):
    """Engine values against ``repro.baselines.reference`` for the first
    query of each algorithm that has a reference on the database as
    built (tolerances as in the repo's kernel tests)."""
    from repro.baselines import reference
    seen = set()
    for (algorithm, params), values in zip(queries, results):
        if algorithm in seen:
            continue
        seen.add(algorithm)
        start = params.get("start")
        if algorithm == "pagerank":
            ok = np.allclose(values["rank"], reference.pagerank(
                graph, iterations=params["iterations"]), atol=1e-12)
        elif algorithm == "bfs":
            ok = np.array_equal(values["level"],
                                reference.bfs_levels(graph, start))
        elif algorithm == "sssp":
            ok = np.allclose(values["distance"],
                             reference.sssp_distances(graph, start),
                             rtol=1e-5, equal_nan=True)
        elif algorithm == "bc":
            ok = np.allclose(values["centrality"],
                             reference.betweenness_centrality(
                                 graph, (start,)), rtol=1e-9, atol=1e-9)
        elif algorithm == "rwr":
            ok = np.allclose(values["proximity"],
                             reference.random_walk_with_restart(
                                 graph, start, params["iterations"]),
                             atol=1e-12)
        else:
            continue
        tally.check(ok, "%s differs from baselines.reference" % algorithm)


# ----------------------------------------------------------------------
# Measured procedures
# ----------------------------------------------------------------------
def _kernel(query):
    from repro.service import ALGORITHMS
    algorithm, params = query
    return ALGORITHMS[algorithm][0](params, params.get("start", 0))


def _machine():
    from repro import scaled_workstation
    return scaled_workstation(num_gpus=2, num_ssds=2)


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: RunResult fields summed over one pass into the layer counters.
_RESULT_FIELDS = ("edges_traversed", "pages_streamed", "num_rounds",
                  "elapsed_seconds", "storage_bytes_read", "cache_hits",
                  "cache_misses", "pool_hits", "pool_misses",
                  "shared_hits", "shared_misses")


def _add_result(counters, result):
    for field in _RESULT_FIELDS:
        value = (result[field] if isinstance(result, dict)
                 else getattr(result, field))
        counters[field] = counters.get(field, 0) + value


def _more_cold(workload, cold, began, seconds):
    """Cold samples go on until the floor is met (plus the discarded
    first) and a fifth of the window is spent, so a cheap first answer
    gets more samples than an expensive one."""
    return (len(cold) <= workload.cold_samples
            or time.perf_counter() - began < COLD_SHARE * seconds)


def measure_engine(workload, dataset, seed, seconds, tracer):
    """Cold samples, then warm passes, on ``FileBackedDatabase`` +
    ``GTSEngine``; then the output checks, off the clock."""
    from repro import GTSEngine
    from repro.format.io import FileBackedDatabase

    prefix = dataset["prefix"]
    pool = dataset["pool_pages"]
    queries = workload.queries(dataset["starts"])
    machine = _machine()
    tally = Tally()
    began = time.perf_counter()

    cold = []
    first = None
    while _more_cold(workload, cold, began, seconds):
        sample = len(cold)
        tracer.phase = "cold" if sample else None
        started = time.perf_counter()
        db = FileBackedDatabase(prefix, pool_pages=pool)
        result = GTSEngine(db, machine).run(_kernel(queries[0]))
        cold.append(time.perf_counter() - started)
        tracer.phase = None
        db.close()
        mark = [digest(result.values), repr(result.elapsed_seconds)]
        first = first or mark
        tally.check(mark == first, "cold sample %d differs" % sample)
    cold = cold[1:]

    db = FileBackedDatabase(prefix, pool_pages=pool)
    engine = GTSEngine(db, machine)
    baseline = [engine.run(_kernel(query)) for query in queries]
    fingerprints = {
        _label(i, query): [digest(r.values), repr(r.elapsed_seconds)]
        for i, (query, r) in enumerate(zip(queries, baseline))}
    tally.check(fingerprints[_label(0, queries[0])] == first,
                "warm first answer differs from the cold one")
    io_before = db.host_bytes_read

    passes = []
    counters = {}
    while (len(passes) < workload.min_passes
           or time.perf_counter() - began < seconds):
        tracer.phase = "warm"
        started = time.perf_counter()
        results = [engine.run(_kernel(query)) for query in queries]
        passes.append(time.perf_counter() - started)
        tracer.phase = None
        for i, (query, result) in enumerate(zip(queries, results)):
            _add_result(counters, result)
            tally.check(
                [digest(result.values), repr(result.elapsed_seconds)]
                == fingerprints[_label(i, query)],
                "%s differs between passes" % _label(i, query))
    counters["host_bytes_read"] = db.host_bytes_read - io_before
    peak_rss = _peak_rss_mb()
    db.close()

    golden = check_fingerprints(tally, workload, seed, fingerprints)
    check_reference(tally, make_graph(workload, seed), queries,
                    [r.values for r in baseline])
    return {
        "tally": tally, "golden_compared": golden,
        "fingerprints": fingerprints,
        "samples": {"cold_first_answer_s": cold, "warm_pass_s": passes},
        "ops": len(queries) * len(passes), "peak_rss_mb": peak_rss,
        "counters": counters, "traced_wall_s": sum(cold) + sum(passes),
    }


@contextlib.contextmanager
def _serving(prefix, pool):
    """A fresh ``GraphService`` on ``prefix`` behind a loopback server;
    yields the service and a client factory (one per connection)."""
    from repro.service import GraphService, ServiceClient, make_server
    service = GraphService(max_in_flight=2)
    service.add_database("g", prefix=prefix, pool_pages=pool)
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        url = "http://127.0.0.1:%d" % server.server_address[1]
        yield service, lambda: ServiceClient(url)
    finally:
        server.shutdown()
        server.server_close()
        thread.join()
        service.remove_database("g")
        service.drain()


def _reply_values(reply):
    return {key: np.asarray(value) for key, value in
            reply["values"].items()}


def measure_service(workload, dataset, seed, seconds, tracer):
    """Cold samples (fresh service to first HTTP answer), then the live
    closed loop: one reader connection cycling the query list, one
    writer connection committing a batch once per pass, at the moment
    the reader's completed-query count passes ``8k+4`` -- a deterministic
    position that still lands beside an in-flight query."""
    from repro import GTSEngine
    from repro.dynamic import open_dynamic_database

    prefix = dataset["prefix"]
    pool = dataset["pool_pages"]
    queries = workload.queries(dataset["starts"])
    tally = Tally()
    began = time.perf_counter()

    cold = []
    while _more_cold(workload, cold, began, seconds):
        tracer.phase = "cold" if cold else None
        started = time.perf_counter()
        with _serving(prefix, pool) as (service, connect):
            try:
                connect().query("g", queries[0][0], params=queries[0][1])
                ok = True
            except Exception as error:  # any failure is a failed op
                ok = repr(error)
            cold.append(time.perf_counter() - started)
            tracer.phase = None
        tally.check(ok is True, "cold query failed: %s" % ok)
    cold = cold[1:]

    passes, latencies, versions, updates, sizes = [], [], [], [], []
    counters = {}
    commits = queue.Queue()
    facts = {"chain_length_max": 0, "delta_bytes": 0}
    with _serving(prefix, pool) as (service, connect):
        client = connect()
        fingerprints = {}
        for i, (algorithm, params) in enumerate(queries):
            reply = client.query("g", algorithm, params=params,
                                 include_values=True)
            fingerprints[_label(i, queries[i])] = [
                digest(_reply_values(reply)),
                repr(reply["elapsed_seconds"])]

        update_errors = []

        def writer():
            writer_client = connect()
            while True:
                batch = commits.get()
                if batch is None:
                    return
                started = time.perf_counter()
                try:
                    report = writer_client.update("g", batch)
                except Exception as error:  # any failure is a failed op
                    update_errors.append(repr(error))
                    continue
                updates.append(time.perf_counter() - started)
                facts["chain_length_max"] = max(
                    facts["chain_length_max"],
                    report["mvcc"]["version_chain_length"])
                facts["delta_bytes"] = report["delta_bytes"]

        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        tracer.phase = "warm"
        while (len(passes) < workload.min_passes
               or time.perf_counter() - began < seconds):
            index = len(passes)
            pass_started = time.perf_counter()
            for j, (algorithm, params) in enumerate(queries):
                query_id = "p%d.%d" % (index, j)
                started = time.perf_counter()
                try:
                    reply = client.query("g", algorithm, params=params,
                                         query_id=query_id)
                except Exception as error:
                    tally.check(False, "query %s failed: %r"
                                % (query_id, error))
                    continue
                latencies.append(time.perf_counter() - started)
                tally.attempted += 1
                versions.append((query_id, reply["snapshot_version"]))
                _add_result(counters, reply)
                if tracer.installed:
                    sizes.append(len(json.dumps(reply, sort_keys=True)))
                if j == len(queries) // 2 - 1:
                    commits.put(update_batch(dataset["num_vertices"],
                                             seed, index))
            passes.append(time.perf_counter() - pass_started)
        commits.put(None)
        writer_thread.join()
        tracer.phase = None
        tally.attempted += len(updates)
        for error in update_errors:
            tally.check(False, "update failed: %s" % error)
        peak_rss = _peak_rss_mb()

        # One query per algorithm at the final version, with values.
        final = {}
        for algorithm, params in queries:
            if algorithm not in final:
                final[algorithm] = (params, client.query(
                    "g", algorithm, params=params, include_values=True))
        stats = service.stats()

    # First response carrying each new snapshot version.
    post_commit, post_ids, seen = [], set(), 0
    for (query_id, version), latency in zip(versions, latencies):
        if version > seen:
            seen = version
            post_commit.append(latency)
            post_ids.add(query_id)

    # Durability: reopen through WAL replay and compare with the served
    # answers in values and simulated time.
    num_commits = len(updates)
    db = open_dynamic_database(prefix, pool_pages=pool)
    tally.check(db.topology_version == num_commits,
                "reopened topology_version %d != %d commits"
                % (db.topology_version, num_commits))
    tally.check(
        db.num_edges == dataset["num_edges"] + BATCH_EDGES * num_commits,
        "reopened edge count %d != base + %d x %d"
        % (db.num_edges, BATCH_EDGES, num_commits))
    engine = GTSEngine(db, _machine())
    for algorithm, (params, reply) in final.items():
        direct = engine.run(_kernel((algorithm, params)))
        served = _reply_values(reply)
        same = (reply["snapshot_version"] == num_commits
                and reply["elapsed_seconds"] == direct.elapsed_seconds
                and all(np.array_equal(served[key], direct.values[key])
                        for key in direct.values))
        tally.check(same, "%s over HTTP differs from a direct run on the "
                    "reopened store" % algorithm)
    golden = check_fingerprints(tally, workload, seed, fingerprints)

    db_stats = stats["databases"]["g"]
    facts.update({
        "update_latencies": updates, "post_commit": post_commit,
        "post_commit_ids": sorted(post_ids), "latencies": latencies,
        "response_bytes": sizes,
        "rejected": (stats["rejected_admission"]
                     + stats["rejected_shutdown"]),
        "peak_in_flight": stats["peak_in_flight"],
        "reclaimed_versions": db_stats["mvcc"]["reclaimed_versions"],
        "gate_wait_s": (db_stats["gate"]["reader_wait_seconds"]
                        + db_stats["gate"]["writer_wait_seconds"]),
        "plan_lock_wait_s": db_stats["plan_cache"]["lock"]["wait_seconds"],
        "admission_lock_wait_s": stats["admission_lock"]["wait_seconds"],
        "commits": num_commits,
    })
    return {
        "tally": tally, "golden_compared": golden,
        "fingerprints": fingerprints,
        "samples": {"cold_first_answer_s": cold, "warm_pass_s": passes,
                    "query_p50_s": latencies,
                    "post_commit_query_p50_s": post_commit,
                    "update_p50_s": updates},
        "ops": len(latencies) + num_commits, "peak_rss_mb": peak_rss,
        "counters": counters, "service": facts,
        "traced_wall_s": sum(latencies) + sum(updates),
    }
