"""Property test: batched and paged execution are indistinguishable.

The vectorized fast path is only allowed to change *wall-clock*, never
behaviour: for any graph, kernel, strategy, and page-serving store the
two paths must produce bit-identical algorithm output, simulated time,
per-round statistics, and cache counters.  Hypothesis drives random
graphs and configurations through both paths, including a file-backed
database whose page pool is small enough to force constant eviction.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import (
    BCKernel,
    BFSKernel,
    CrossEdgesKernel,
    DegreeKernel,
    EgonetKernel,
    GTSEngine,
    InducedSubgraphKernel,
    KCoreKernel,
    NeighborhoodKernel,
    PageRankKernel,
    RadiusKernel,
    RWRKernel,
    SSSPKernel,
    WCCKernel,
)
from repro.faults import FaultInjector, FaultPlan
from repro.format import PageFormatConfig, build_database
from repro.core.plan import PagePlan
from repro.format.io import (
    FileBackedDatabase,
    load_database,
    save_database,
)
from repro.graphgen import Graph
from repro.hardware.specs import scaled_workstation
from repro.units import KB


def _rng(start, num_vertices):
    return np.random.default_rng([start, num_vertices])


#: Every kernel, one table: name -> factory(start vertex, |V|).
KERNELS = {
    "pagerank": lambda start, n: PageRankKernel(iterations=4),
    "bfs": lambda start, n: BFSKernel(start_vertex=start),
    "sssp": lambda start, n: SSSPKernel(start_vertex=start),
    "wcc": lambda start, n: WCCKernel(),
    # Two sources, so the per-source state reset is crossed.
    "bc": lambda start, n: BCKernel(sources=(start, (start + 1) % n)),
    "kcore1": lambda start, n: KCoreKernel(k=1),
    "kcore3": lambda start, n: KCoreKernel(k=3),
    "rwr": lambda start, n: RWRKernel(query_vertex=start, iterations=3),
    "radius": lambda start, n: RadiusKernel(num_sketches=4, max_hops=4),
    "degree": lambda start, n: DegreeKernel(),
    "cross_edges": lambda start, n: CrossEdgesKernel(
        _rng(start, n).integers(0, 3, size=n)),
    "induced": lambda start, n: InducedSubgraphKernel(
        _rng(start, n).random(n) < 0.5, collect_edges=True),
    "egonet": lambda start, n: EgonetKernel(start, collect_edges=True),
    "neighborhood": lambda start, n: NeighborhoodKernel(start, hops=2),
}
#: Kernels defined on undirected input.
SYMMETRISED = {"wcc", "kcore1", "kcore3"}


def _random_graph(data, weighted):
    num_vertices = data.draw(st.integers(2, 120))
    num_edges = data.draw(st.integers(0, 400))
    seed = data.draw(st.integers(0, 10 ** 6))
    rng = np.random.default_rng(seed)
    graph = Graph.from_edges(
        num_vertices,
        rng.integers(0, num_vertices, size=num_edges),
        rng.integers(0, num_vertices, size=num_edges))
    if weighted:
        graph = graph.with_random_weights(seed=seed)
    return graph


def _kernel_graph(data, kernel_name):
    graph = _random_graph(data, weighted=kernel_name == "sssp")
    if kernel_name in SYMMETRISED:
        graph = graph.symmetrised()
    return graph


def _run_pair(db, machine, strategy, kernel_name, start, caching):
    results = []
    for execution in ("paged", "batched"):
        engine = GTSEngine(db, machine, strategy=strategy,
                           enable_caching=caching, execution=execution)
        results.append(engine.run(
            KERNELS[kernel_name](start, db.num_vertices)))
    return results


def _assert_identical(paged, batched):
    assert paged.execution == "paged"
    assert batched.execution == "batched"
    assert batched.elapsed_seconds == paged.elapsed_seconds
    assert batched.num_rounds == paged.num_rounds
    for key in paged.values:
        np.testing.assert_array_equal(batched.values[key],
                                      paged.values[key])
    paged_dict = paged.to_dict()
    batched_dict = batched.to_dict()
    for key in ("cache_hits", "cache_misses", "cache_hit_rate",
                "mm_buffer_hits", "mm_buffer_misses",
                "storage_bytes_read", "storage_pages_fetched",
                "pages_streamed", "bytes_to_gpu",
                "transfer_busy_seconds", "kernel_busy_seconds",
                "kernel_stream_seconds", "edges_traversed"):
        assert batched_dict.get(key) == paged_dict.get(key), key
    for round_paged, round_batched in zip(paged.rounds, batched.rounds):
        assert (dataclasses.asdict(round_batched)
                == dataclasses.asdict(round_paged))


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_batched_matches_paged_on_random_graphs(data):
    """Every kernel of the table on every generated graph (a 1 KB page
    makes large-page vertices and degree-0 records routine)."""
    graph = _random_graph(data, weighted=data.draw(st.booleans()))
    config = PageFormatConfig(2, 2, 1 * KB)
    db = build_database(graph, config)
    symmetric_db = build_database(graph.symmetrised(), config)
    machine = scaled_workstation(
        num_gpus=data.draw(st.sampled_from([1, 2, 3])),
        num_ssds=data.draw(st.sampled_from([1, 2])))
    strategy = data.draw(st.sampled_from(["performance", "scalability"]))
    caching = data.draw(st.booleans())
    start = data.draw(st.integers(0, graph.num_vertices - 1))
    for kernel_name in sorted(KERNELS):
        paged, batched = _run_pair(
            symmetric_db if kernel_name in SYMMETRISED else db,
            machine, strategy, kernel_name, start, caching)
        _assert_identical(paged, batched)


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_batched_matches_paged_under_pool_eviction(data, tmp_path_factory):
    """A file-backed page pool too small for the database must not
    perturb either path: the plan is built from one pass over the pages
    and the paged path re-reads through the pool, yet both must agree
    with each other bit for bit."""
    kernel_name = data.draw(st.sampled_from(sorted(KERNELS)))
    graph = _kernel_graph(data, kernel_name)
    db = build_database(graph, PageFormatConfig(2, 2, 1 * KB))
    prefix = str(tmp_path_factory.mktemp("pooled") / "db")
    save_database(db, prefix)
    pool_pages = max(1, db.num_pages // 4)
    lazy = FileBackedDatabase(prefix, pool_pages=pool_pages)
    machine = scaled_workstation(num_gpus=2, num_ssds=2)
    start = data.draw(st.integers(0, graph.num_vertices - 1))
    paged, batched = _run_pair(lazy, machine, "performance", kernel_name,
                               start, True)
    _assert_identical(paged, batched)
    assert lazy.resident_pages() <= pool_pages


#: How a parse reaches the store's bytes: the mapped bulk decode, or
#: the ``pread`` + ``from_bytes`` fallback forced by each of the two
#: conditions that select it in production.
STORE_PATHS = ("mapped", "injector", "damaged-mapping")

_COMPARED_COUNTERS = (
    "cache_hits", "cache_misses", "mm_buffer_hits", "mm_buffer_misses",
    "storage_bytes_read", "storage_pages_fetched", "pages_streamed",
    "bytes_to_gpu", "transfer_busy_seconds", "kernel_busy_seconds",
    "kernel_stream_seconds", "edges_traversed")


def _open_store(prefix, pool_pages, store_path):
    store = FileBackedDatabase(prefix, pool_pages=pool_pages)
    if store_path == "injector":
        # An attached injector (even one whose plan injects nothing)
        # routes every parse through the mutable copy path.
        store.attach_fault_injector(FaultInjector(FaultPlan()))
    elif store_path == "damaged-mapping":
        # Transient damage: every mapped region fails its CRC while the
        # file itself is clean, so each parse recovers by verified
        # re-read.
        damaged = store._mmap_view.copy()
        damaged[::store.config.page_size] ^= 0xFF
        store._mmap_view = damaged
    return store


def _assert_store_path_taken(store, store_path):
    assert store.mmap_hits + store.mmap_misses > 0
    if store_path == "mapped":
        assert store.integrity_retries == 0
    else:
        assert store.mmap_hits == 0
        assert store.host_reads == store.mmap_misses
    if store_path == "damaged-mapping":
        assert store.integrity_retries == store.mmap_misses


@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_store_path_never_perturbs_results(data, tmp_path_factory):
    """{paged, batched} x {mapped decode, copy fallback} is
    indistinguishable from the eager baseline: which path serves a
    page's bytes may only move host counters, never simulated time,
    values, or the compared statistics — so the bulk ``decode_pages``
    decode is checked against the ``from_bytes`` reference on every
    generated graph — and the flat arrays a plan is built from are the
    same whichever path decoded them."""
    kernel_name = data.draw(st.sampled_from(sorted(KERNELS)))
    graph = _kernel_graph(data, kernel_name)
    db = build_database(graph, PageFormatConfig(2, 2, 1 * KB))
    prefix = str(tmp_path_factory.mktemp("matrix") / "db")
    save_database(db, prefix)
    machine = scaled_workstation(num_gpus=2, num_ssds=2)
    start = data.draw(st.integers(0, graph.num_vertices - 1))
    kernel = lambda: KERNELS[kernel_name](start, db.num_vertices)
    baseline = GTSEngine(db, machine, execution="paged").run(kernel())
    baseline_dict = baseline.to_dict()
    pool_pages = max(1, db.num_pages // 2)
    # The generic per-page scan over the resident load is the reference
    # for the flat arrays each store path hands a plan.
    reference_plan = PagePlan(load_database(prefix))
    for execution in ("paged", "batched"):
        for store_path in STORE_PATHS:
            lazy = _open_store(prefix, pool_pages, store_path)
            try:
                result = GTSEngine(lazy, machine, execution=execution).run(
                    kernel())
                plan = PagePlan(lazy)
            finally:
                lazy.close()
            combo = (execution, store_path)
            _assert_store_path_taken(lazy, store_path)
            for name, array in vars(reference_plan).items():
                if isinstance(array, np.ndarray):
                    assert getattr(plan, name).dtype == array.dtype, (
                        combo, name)
                    np.testing.assert_array_equal(
                        getattr(plan, name), array,
                        err_msg=str((combo, name)))
            assert result.elapsed_seconds == baseline.elapsed_seconds, combo
            assert result.num_rounds == baseline.num_rounds, combo
            for key in baseline.values:
                np.testing.assert_array_equal(
                    result.values[key], baseline.values[key],
                    err_msg=str(combo))
            result_dict = result.to_dict()
            for key in _COMPARED_COUNTERS:
                assert result_dict.get(key) \
                    == baseline_dict.get(key), (combo, key)
            for base_round, this_round in zip(baseline.rounds,
                                              result.rounds):
                assert (dataclasses.asdict(this_round)
                        == dataclasses.asdict(base_round)), combo


@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_io_merge_changes_plan_but_not_results(data, tmp_path_factory):
    """``io_merge`` is the one opt-in host knob allowed to move the
    simulated I/O plan; the algorithm output must stay bit-identical,
    and under merge the (execution, store path) matrix must still agree
    with itself."""
    kernel_name = data.draw(st.sampled_from(["pagerank", "bfs"]))
    graph = _random_graph(data, weighted=False)
    db = build_database(graph, PageFormatConfig(2, 2, 1 * KB))
    prefix = str(tmp_path_factory.mktemp("merge") / "db")
    save_database(db, prefix)
    machine = scaled_workstation(num_gpus=2, num_ssds=2)
    start = data.draw(st.integers(0, graph.num_vertices - 1))
    kernel = lambda: KERNELS[kernel_name](start, db.num_vertices)
    plain = GTSEngine(db, machine).run(kernel())
    merged = {}
    for execution in ("paged", "batched"):
        for store_path in STORE_PATHS:
            lazy = _open_store(prefix, max(1, db.num_pages), store_path)
            try:
                merged[(execution, store_path)] = GTSEngine(
                    lazy, machine, execution=execution,
                    io_merge=True).run(kernel())
            finally:
                lazy.close()
            _assert_store_path_taken(lazy, store_path)
    reference = merged[("paged", "mapped")]
    for key in plain.values:
        np.testing.assert_array_equal(reference.values[key],
                                      plain.values[key])
    for combo, result in merged.items():
        assert result.elapsed_seconds \
            == reference.elapsed_seconds, combo
        for key in reference.values:
            np.testing.assert_array_equal(result.values[key],
                                          reference.values[key],
                                          err_msg=str(combo))


def test_every_registered_kernel_supports_batch():
    """The fast path is the default for every kernel a caller can
    reach: each class ``repro.core.kernels`` exports, each service
    algorithm, and each entry of the table above."""
    import repro.core.kernels as kernels
    from repro.dynamic.incremental import (IncrementalBFSKernel,
                                           IncrementalWCCKernel)
    from repro.service import ALGORITHMS

    exported = [getattr(kernels, name) for name in kernels.__all__]
    classes = [cls for cls in exported
               if isinstance(cls, type) and issubclass(cls, kernels.Kernel)
               and cls is not kernels.Kernel]
    assert {cls.name for cls in classes} >= {
        "BFS", "PageRank", "SSSP", "CC", "BC", "RWR", "Degree", "KCore",
        "Neighborhood", "CrossEdges", "Radius", "InducedSubgraph",
        "Egonet"}
    for cls in classes:
        assert cls.supports_batch(), cls.__name__
    for name, entry in ALGORITHMS.items():
        assert entry[0]({}, 0).supports_batch(), name
    for name, factory in KERNELS.items():
        assert factory(0, 8).supports_batch(), name
    # The incremental relaxers read the *live* value vector across the
    # pages of a round (a vertex improved by an earlier page relaxes
    # further within the same round), so one batch per round would
    # change their round count: they stay on the page loop.
    assert not IncrementalBFSKernel.supports_batch()
    assert not IncrementalWCCKernel.supports_batch()


def test_traced_runs_agree_with_untraced():
    """Tracing disables the inlined booking loops; the simulated clock
    must not notice."""
    graph = Graph.from_edges(
        50,
        np.random.default_rng(5).integers(0, 50, size=300),
        np.random.default_rng(6).integers(0, 50, size=300))
    db = build_database(graph, PageFormatConfig(2, 2, 1 * KB))
    machine = scaled_workstation(num_gpus=2, num_ssds=2)
    results = {}
    for execution in ("paged", "batched"):
        for tracing in (False, True):
            engine = GTSEngine(db, machine, tracing=tracing,
                               execution=execution)
            results[(execution, tracing)] = engine.run(
                PageRankKernel(iterations=3))
    baseline = results[("paged", False)]
    for key, result in results.items():
        assert result.elapsed_seconds == baseline.elapsed_seconds, key
        np.testing.assert_array_equal(result.values["rank"],
                                      baseline.values["rank"])


