"""Cross-cutting property-based tests over the whole stack.

These are the highest-value hypothesis tests: arbitrary random graphs are
built into slotted pages, streamed through the full engine under randomly
chosen configurations, and the results must always equal the reference
algorithms.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.baselines import reference
from repro.core import BFSKernel, GTSEngine, PageRankKernel, WCCKernel
from repro.faults import FaultPlan, RetryPolicy
from repro.format import PageFormatConfig, build_database
from repro.graphgen import Graph
from repro.hardware.specs import scaled_workstation
from repro.units import KB


#: Recoverable copy errors and stalls, frequent enough to fire on the
#: few pages a small graph streams; twelve attempts keep a copy from
#: exhausting them (p = 0.3 ** 12 per copy).
_STALLS_AND_COPY_ERRORS = FaultPlan(copy_error_rate=0.3, stall_rate=0.5,
                                    stall_seconds=2e-4,
                                    retry=RetryPolicy(max_attempts=12))


def _random_graph(data, max_vertices=120, max_edges=400):
    num_vertices = data.draw(st.integers(2, max_vertices))
    num_edges = data.draw(st.integers(0, max_edges))
    seed = data.draw(st.integers(0, 10 ** 6))
    rng = np.random.default_rng(seed)
    sources = rng.integers(0, num_vertices, size=num_edges)
    targets = rng.integers(0, num_vertices, size=num_edges)
    return Graph.from_edges(num_vertices, sources, targets)


def _engine(db, data):
    machine = scaled_workstation(
        num_gpus=data.draw(st.sampled_from([1, 2, 3])),
        num_ssds=data.draw(st.sampled_from([1, 2])))
    return GTSEngine(
        db, machine,
        strategy=data.draw(st.sampled_from(["performance", "scalability"])),
        num_streams=data.draw(st.sampled_from([1, 4, 16])),
        micro_technique=data.draw(
            st.sampled_from(["edge", "vertex", "hybrid"])),
        enable_caching=data.draw(st.booleans()),
    )


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_bfs_always_matches_reference(data):
    graph = _random_graph(data)
    config = PageFormatConfig(2, 2, 1 * KB)
    db = build_database(graph, config)
    start = data.draw(st.integers(0, graph.num_vertices - 1))
    result = _engine(db, data).run(BFSKernel(start))
    assert np.array_equal(result.values["level"],
                          reference.bfs_levels(graph, start))


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_pagerank_always_matches_reference(data):
    graph = _random_graph(data)
    config = PageFormatConfig(2, 2, 1 * KB)
    db = build_database(graph, config)
    iterations = data.draw(st.integers(1, 6))
    result = _engine(db, data).run(PageRankKernel(iterations=iterations))
    expected = reference.pagerank(graph, iterations=iterations)
    assert np.allclose(result.values["rank"], expected, atol=1e-12)


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_wcc_always_matches_reference(data):
    graph = _random_graph(data, max_vertices=60, max_edges=150)
    sym = graph.symmetrised()
    config = PageFormatConfig(2, 2, 1 * KB)
    db = build_database(sym, config)
    result = _engine(db, data).run(WCCKernel())
    expected = reference.weakly_connected_components(graph)
    assert np.array_equal(result.values["component"], expected)


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_simulated_time_is_positive_and_finite(data):
    graph = _random_graph(data, max_vertices=60, max_edges=150)
    config = PageFormatConfig(2, 2, 1 * KB)
    db = build_database(graph, config)
    result = _engine(db, data).run(PageRankKernel(iterations=2))
    assert np.isfinite(result.elapsed_seconds)
    assert result.elapsed_seconds > 0
    # The elapsed time covers at least the busy time of the busiest
    # single resource (no resource can be over-committed).
    assert result.elapsed_seconds >= (
        result.kernel_busy_seconds / (result.num_gpus * 32) - 1e-12)


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_page_sizes_do_not_change_results(data):
    """Building the same graph with different page sizes is invisible to
    the algorithms."""
    graph = _random_graph(data, max_vertices=80, max_edges=250)
    start = data.draw(st.integers(0, graph.num_vertices - 1))
    machine = scaled_workstation()
    levels = []
    for page_size in (512, 2048, 8192):
        config = PageFormatConfig(2, 2, page_size)
        db = build_database(graph, config)
        result = GTSEngine(db, machine).run(BFSKernel(start))
        levels.append(result.values["level"])
    assert np.array_equal(levels[0], levels[1])
    assert np.array_equal(levels[1], levels[2])


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_every_random_schedule_passes_des_validation(data):
    """Property: any engine run under any configuration produces a
    schedule satisfying the DES invariants (no resource overlap, busy
    accounting, concurrency caps) — with or without a recoverable fault
    plan, whose copy errors, retries and stream stalls the audit reads
    off the copy-engine lanes."""
    graph = _random_graph(data, max_vertices=80, max_edges=250)
    config = PageFormatConfig(2, 2, 1 * KB)
    db = build_database(graph, config)
    machine = scaled_workstation(
        num_gpus=data.draw(st.sampled_from([1, 2, 3])))
    engine = GTSEngine(
        db, machine,
        strategy=data.draw(st.sampled_from(["performance",
                                            "scalability"])),
        num_streams=data.draw(st.sampled_from([1, 3, 16])),
        enable_caching=data.draw(st.booleans()),
        faults=data.draw(st.sampled_from([None, _STALLS_AND_COPY_ERRORS])),
        fault_seed=data.draw(st.integers(0, 99)),
        validate_simulation=True)
    kernel = data.draw(st.sampled_from([
        BFSKernel(0), PageRankKernel(iterations=2), WCCKernel()]))
    result = engine.run(kernel)  # raises SimulationError on violation
    assert result.elapsed_seconds > 0
