"""Property tests: one executor, checked against the references.

Every kernel has one body (``process_batch``), so there is no second
implementation inside the engine to compare it with: hypothesis drives
random graphs and configurations through every entry of the kernel
table and checks the answers against ``repro.baselines.reference``
(exact for integer outputs, ``allclose`` for float) or, where no
reference exists, against a brute-force count over the edge list.
Values *and simulated times* frozen from the deleted per-page executor
are pinned separately (``tests/golden_runs.py``).  What may still vary
— which store path serves a page's bytes, tracing — must never move a
value or a simulated time.
"""

import dataclasses
import importlib
import inspect
import os
import pkgutil
import re

import numpy as np
from hypothesis import given, settings, strategies as st

import repro.core
from repro.baselines import reference
from repro.core import GTSEngine, PageRankKernel
from repro.core.plan import PagePlan
from repro.core.streams import StreamScheduler
from repro.faults import FaultInjector, FaultPlan
from repro.format import PageFormatConfig, build_database
from repro.format.io import (
    FileBackedDatabase,
    load_database,
    save_database,
)
from repro.graphgen import Graph
from repro.hardware.specs import scaled_workstation
from repro.obs.host import HostProfiler
from repro.spans import activate
from repro.units import KB

from . import test_properties as properties
from .golden_runs import KERNELS, RECOVERABLE, SYMMETRISED, _rng
from .test_extended_kernels import _naive_kcore


def _random_graph(data, weighted):
    graph = properties._random_graph(data)
    if weighted:
        graph = graph.with_random_weights(seed=graph.num_edges)
    return graph


def _kernel_graph(data, kernel_name):
    graph = _random_graph(data, weighted=kernel_name == "sssp")
    if kernel_name in SYMMETRISED:
        graph = graph.symmetrised()
    return graph


_equal = np.testing.assert_array_equal


def _close(got, want, rtol=1e-9):
    np.testing.assert_allclose(got, want, rtol=rtol, atol=1e-9)


def _check_radius(graph, start, values):
    sizes = values["neighbourhood_sizes"]
    assert np.all(np.diff(sizes, axis=0) >= 0)
    radius = values["effective_radius"]
    assert radius.min() >= 0 and radius.max() <= len(sizes) - 1
    assert values["estimated_diameter"][0] == radius.max()


def _check_cross_edges(graph, start, values):
    partition = _rng(start, graph.num_vertices).integers(
        0, 3, size=graph.num_vertices)
    sources, targets = graph.edge_list()
    crossing = partition[sources] != partition[targets]
    assert values["total_cross_edges"][0] == crossing.sum()
    _equal(values["cross_count"],
           np.bincount(sources[crossing], minlength=graph.num_vertices))


def _check_induced_edges(graph, member, values):
    sources, targets = graph.edge_list()
    inside = member[sources] & member[targets]
    _equal(values["member"], member)
    assert values["num_induced_edges"][0] == inside.sum()
    _equal(values["internal_degree"],
           np.bincount(sources[inside], minlength=graph.num_vertices))
    assert (sorted(map(tuple, values["edges"].tolist()))
            == sorted(zip(sources[inside].tolist(),
                          targets[inside].tolist())))


def _check_induced(graph, start, values):
    member = _rng(start, graph.num_vertices).random(
        graph.num_vertices) < 0.5
    _check_induced_edges(graph, member, values)


def _check_egonet(graph, start, values):
    member = np.zeros(graph.num_vertices, dtype=bool)
    member[start] = True
    member[graph.neighbors(start)] = True
    _check_induced_edges(graph, member, values)


def _check_neighborhood(graph, start, values):
    levels = reference.bfs_levels(graph, start)
    member = (levels >= 0) & (levels <= 2)
    _equal(values["member"], member)
    _equal(values["hop"][member], levels[member])


#: How each table entry's answer is checked: name -> check(graph,
#: start, values).
CHECKS = {
    "pagerank": lambda graph, start, values: _close(
        values["rank"], reference.pagerank(graph, iterations=4)),
    "bfs": lambda graph, start, values: _equal(
        values["level"], reference.bfs_levels(graph, start)),
    "sssp": lambda graph, start, values: _close(
        values["distance"], reference.sssp_distances(graph, start),
        rtol=1e-5),
    "wcc": lambda graph, start, values: _equal(
        values["component"],
        reference.weakly_connected_components(graph)),
    "bc": lambda graph, start, values: _close(
        values["centrality"], reference.betweenness_centrality(
            graph, (start, (start + 1) % graph.num_vertices))),
    "kcore1": lambda graph, start, values: _equal(
        values["in_kcore"], _naive_kcore(graph, 1)),
    "kcore3": lambda graph, start, values: _equal(
        values["in_kcore"], _naive_kcore(graph, 3)),
    "rwr": lambda graph, start, values: _close(
        values["proximity"], reference.random_walk_with_restart(
            graph, start, iterations=3)),
    "radius": _check_radius,
    "degree": lambda graph, start, values: (
        _equal(values["out_degree"], graph.out_degrees()),
        _equal(values["in_degree"], graph.in_degrees())),
    "cross_edges": _check_cross_edges,
    "induced": _check_induced,
    "egonet": _check_egonet,
    "neighborhood": _check_neighborhood,
}


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_every_kernel_matches_its_reference_on_random_graphs(data):
    """Every kernel of the table on every generated graph (a 1 KB page
    makes large-page vertices and degree-0 records routine), each under
    a drawn machine, strategy, stream count, micro technique and cache
    setting."""
    assert set(CHECKS) == set(KERNELS)
    weighted = data.draw(st.booleans())
    graph = _random_graph(data, weighted)
    config = PageFormatConfig(2, 2, 1 * KB,
                              weight_bytes=4 if weighted else 0)
    inputs = {False: (graph, build_database(graph, config))}
    inputs[True] = (graph.symmetrised(),
                    build_database(graph.symmetrised(), config))
    start = data.draw(st.integers(0, graph.num_vertices - 1))
    for kernel_name in sorted(KERNELS):
        kernel_graph, db = inputs[kernel_name in SYMMETRISED]
        result = properties._engine(db, data).run(
            KERNELS[kernel_name](start, graph.num_vertices))
        CHECKS[kernel_name](kernel_graph, start, result.values)


#: How a parse reaches the store's bytes: the mapped bulk decode, or
#: the ``pread`` + ``from_bytes`` fallback forced by each of the two
#: conditions that select it in production.
STORE_PATHS = ("mapped", "injector", "damaged-mapping")

#: ``RunResult.to_dict()`` statistics that must match the resident
#: baseline whichever path served the bytes.
_COMPARED_COUNTERS = (
    "cache_hits", "cache_misses", "mm_buffer_hits", "mm_buffer_misses",
    "storage_bytes_read", "pages_streamed", "bytes_streamed",
    "kernel_invocations", "transfer_busy_seconds", "kernel_busy_seconds",
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
    """{mapped decode, copy fallback} under a pool too small for the
    database is indistinguishable from the resident baseline: which
    path serves a page's bytes may only move host counters, never
    simulated time, values, or the compared statistics — so the bulk
    ``decode_pages`` decode is checked against the ``from_bytes``
    reference on every generated graph — and the flat arrays a plan is
    built from are the same whichever path decoded them."""
    kernel_name = data.draw(st.sampled_from(sorted(KERNELS)))
    graph = _kernel_graph(data, kernel_name)
    db = build_database(graph, PageFormatConfig(2, 2, 1 * KB))
    prefix = str(tmp_path_factory.mktemp("matrix") / "db")
    save_database(db, prefix)
    machine = scaled_workstation(num_gpus=2, num_ssds=2)
    start = data.draw(st.integers(0, graph.num_vertices - 1))
    kernel = lambda: KERNELS[kernel_name](start, db.num_vertices)
    baseline = GTSEngine(db, machine).run(kernel())
    baseline_dict = baseline.to_dict()
    pool_pages = max(1, db.num_pages // 2)
    # The generic per-page scan over the resident load is the reference
    # for the flat arrays each store path hands a plan.
    reference_plan = PagePlan(load_database(prefix))
    for store_path in STORE_PATHS:
        lazy = _open_store(prefix, pool_pages, store_path)
        try:
            result = GTSEngine(lazy, machine).run(kernel())
            plan = PagePlan(lazy)
        finally:
            lazy.close()
        _assert_store_path_taken(lazy, store_path)
        assert lazy.resident_pages() <= pool_pages
        for name, array in vars(reference_plan).items():
            if isinstance(array, np.ndarray):
                assert getattr(plan, name).dtype == array.dtype, (
                    store_path, name)
                np.testing.assert_array_equal(
                    getattr(plan, name), array,
                    err_msg=str((store_path, name)))
        assert result.elapsed_seconds == baseline.elapsed_seconds, store_path
        assert result.num_rounds == baseline.num_rounds, store_path
        for key in baseline.values:
            np.testing.assert_array_equal(
                result.values[key], baseline.values[key],
                err_msg=store_path)
        result_dict = result.to_dict()
        for key in _COMPARED_COUNTERS:
            assert result_dict[key] == baseline_dict[key], (store_path, key)
        assert ([dataclasses.asdict(r) for r in result.rounds]
                == [dataclasses.asdict(r) for r in baseline.rounds])


def test_every_kernel_has_one_body_and_the_core_reads_no_page():
    """The structure that makes bit-identity a property instead of a
    test burden: every kernel a caller can reach — each class
    ``repro.core.kernels`` exports, the incremental relaxers, each
    service algorithm, each entry of the table above — defines
    ``process_batch`` and carries no page kernel; no module under
    ``repro.core`` calls ``.page(`` or reaches into the buffer's or the
    storage array's state; and no module anywhere names a deleted
    booking variant."""
    import repro.core.kernels as kernels
    from repro.dynamic import incremental
    from repro.service import ALGORITHMS

    def kernel_classes(module, names):
        exported = [getattr(module, name) for name in names]
        return [cls for cls in exported
                if isinstance(cls, type) and issubclass(cls, kernels.Kernel)
                and cls is not kernels.Kernel]

    classes = kernel_classes(kernels, kernels.__all__)
    assert {cls.name for cls in classes} >= {
        "BFS", "PageRank", "SSSP", "CC", "BC", "RWR", "Degree", "KCore",
        "Neighborhood", "CrossEdges", "Radius", "InducedSubgraph",
        "Egonet"}
    relaxers = kernel_classes(incremental, ("IncrementalBFSKernel",
                                            "IncrementalWCCKernel"))
    assert len(relaxers) == 2
    classes += relaxers
    classes += [type(entry[0]({}, 0)) for entry in ALGORITHMS.values()]
    classes += [type(factory(0, 8)) for factory in KERNELS.values()]
    for cls in classes:
        assert cls.process_batch is not kernels.Kernel.process_batch, cls
        for gone in ("process_sp", "process_lp", "process_page",
                     "supports_batch"):
            assert not hasattr(cls, gone), (cls, gone)
    gone = re.compile(
        "_book_round_paged_order|per_page_fetch|bulk_ready|force_generic"
        "|_merge_round_io|_make_fetch|io_merge|fetch_range|ranged_fetches"
        "|adjacent_fetches"
        # One host-clock recorder, reached through repro.spans only.
        "|tracemalloc|track_memory|net_alloc_bytes|max_samples_per_phase"
        "|round_observer|round_marks|observe_round|host_profiler"
        r"|hp is not None|hp\.push|hp\.pop")
    core_only = re.compile(
        r"\.page\(|mm_buffer\._pages|storage\.channels|storage\._hash")
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        path = importlib.import_module(info.name).__file__
        with open(path) as handle:
            source = handle.read()
        assert not gone.search(source), info.name
        if (info.name.startswith("repro.core.")
                and os.path.basename(path) != "__init__.py"):
            assert not core_only.search(source), info.name
    assert "fetch" not in inspect.signature(
        StreamScheduler.dispatch_round).parameters


def test_traced_runs_agree_with_untraced(monkeypatch):
    """Every unfaulted round takes the one booking loop, whatever is
    watching: a traced, host-profiled, validated or injector-armed run
    makes no per-call booking and reads the bare run's clock; a run
    with faults books per call in its fallback rounds only."""
    graph = Graph.from_edges(
        50,
        np.random.default_rng(5).integers(0, 50, size=300),
        np.random.default_rng(6).integers(0, 50, size=300))
    db = build_database(graph, PageFormatConfig(2, 2, 1 * KB))
    machine = scaled_workstation(num_gpus=2, num_ssds=2)
    calls = []
    for name in ("dispatch_cached", "dispatch_streamed"):
        def spy(self, *args, _booked=getattr(StreamScheduler, name), **kw):
            calls.append(self)
            return _booked(self, *args, **kw)
        monkeypatch.setattr(StreamScheduler, name, spy)

    def run(recorder=None, **options):
        del calls[:]
        with activate(recorder):
            return GTSEngine(db, machine, mm_buffer_bytes=8 * KB,
                             **options).run(PageRankKernel(iterations=3))

    plain = run()
    assert not calls
    for options in ({"tracing": True}, {"recorder": HostProfiler()},
                    {"validate_simulation": True},
                    {"faults": FaultPlan(stall_rate=1e-12)}):
        watched = run(**options)
        assert not calls, options
        assert repr(watched.elapsed_seconds) == repr(plain.elapsed_seconds)
        np.testing.assert_array_equal(watched.values["rank"],
                                      plain.values["rank"])
    assert watched.fault_stats["fallback_rounds"] == 0
    faulted = run(faults=RECOVERABLE, fault_seed=0)
    fallbacks = faulted.fault_stats["fallback_rounds"]
    assert 0 < fallbacks < faulted.num_rounds
    # Strategy-P books each page of a full-scan round on one GPU.
    assert len(calls) == db.num_pages * fallbacks
