"""Correctness tests: every GTS kernel against the reference algorithms.

Each kernel runs through the full engine (streaming, strategies, caching)
and must produce exactly the same values as the straightforward NumPy
implementation on the CSR graph.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import reference
from repro.core import (
    BCKernel,
    BFSKernel,
    DegreeKernel,
    GTSEngine,
    PageRankKernel,
    RWRKernel,
    SSSPKernel,
    WCCKernel,
)
from repro.core.kernels import bc
from repro.core.plan import Frontier, RoundBatch
from repro.errors import ConfigurationError
from repro.format import PageFormatConfig, build_database
from repro.graphgen import generate_rmat
from repro.graphgen.random_graphs import generate_ring, generate_star
from repro.hardware.specs import scaled_workstation
from repro.units import KB

from .reference_bc import ReferenceBCKernel


def _run(db, machine, kernel, **kwargs):
    return GTSEngine(db, machine, **kwargs).run(kernel)


class TestBFS:
    def test_matches_reference(self, rmat_graph, rmat_db, machine):
        start = int(np.argmax(rmat_graph.out_degrees()))
        result = _run(rmat_db, machine, BFSKernel(start))
        expected = reference.bfs_levels(rmat_graph, start)
        assert np.array_equal(result.values["level"], expected)

    def test_unreachable_vertices_stay_unvisited(self, machine,
                                                 small_config):
        graph = generate_star(100)  # leaves have no out-edges
        db = build_database(graph, small_config)
        result = _run(db, machine, BFSKernel(start_vertex=5))
        levels = result.values["level"]
        assert levels[5] == 0
        assert (levels == -1).sum() == 99

    def test_ring_depth(self, machine, small_config):
        graph = generate_ring(50)
        db = build_database(graph, small_config)
        result = _run(db, machine, BFSKernel(0))
        assert result.values["level"].max() == 49
        assert result.num_rounds == 50

    def test_traversal_through_large_pages(self, machine, small_config):
        """A hub whose list spans several LPs must still expand fully."""
        graph = generate_star(4000)
        db = build_database(graph, small_config)
        assert db.num_large_pages >= 2
        result = _run(db, machine, BFSKernel(0))
        assert (result.values["level"] == 1).sum() == 3999

    def test_start_vertex_validated(self, rmat_db, machine):
        with pytest.raises(ConfigurationError):
            _run(rmat_db, machine, BFSKernel(start_vertex=10 ** 9))
        with pytest.raises(ConfigurationError):
            BFSKernel(start_vertex=-1)

    def test_rounds_match_reference_depth(self, rmat_graph, rmat_db,
                                          machine):
        start = int(np.argmax(rmat_graph.out_degrees()))
        result = _run(rmat_db, machine, BFSKernel(start))
        depth = reference.bfs_levels(rmat_graph, start).max()
        # One round per level that had a frontier.
        assert result.num_rounds == depth + 1


class TestPageRank:
    def test_matches_reference(self, rmat_graph, rmat_db, machine):
        result = _run(rmat_db, machine, PageRankKernel(iterations=10))
        expected = reference.pagerank(rmat_graph, iterations=10)
        assert np.allclose(result.values["rank"], expected, atol=1e-12)

    def test_custom_damping(self, rmat_graph, rmat_db, machine):
        result = _run(rmat_db, machine,
                      PageRankKernel(iterations=5, damping=0.5))
        expected = reference.pagerank(rmat_graph, iterations=5, damping=0.5)
        assert np.allclose(result.values["rank"], expected, atol=1e-12)

    def test_one_round_per_iteration(self, rmat_db, machine):
        result = _run(rmat_db, machine, PageRankKernel(iterations=7))
        assert result.num_rounds == 7

    def test_rank_mass_bounded(self, rmat_db, machine):
        result = _run(rmat_db, machine, PageRankKernel(iterations=10))
        total = result.values["rank"].sum()
        assert 0 < total <= 1.0 + 1e-9  # dangling mass leaks, never grows

    def test_large_page_vertex_divides_by_total_degree(self, machine,
                                                       small_config):
        graph = generate_star(4000)
        db = build_database(graph, small_config)
        result = _run(db, machine, PageRankKernel(iterations=3))
        expected = reference.pagerank(graph, iterations=3)
        assert np.allclose(result.values["rank"], expected, atol=1e-12)

    def test_validates_parameters(self):
        with pytest.raises(ConfigurationError):
            PageRankKernel(iterations=0)
        with pytest.raises(ConfigurationError):
            PageRankKernel(damping=1.5)


class TestSSSP:
    def test_matches_reference_weighted(self, weighted_graph, weighted_db,
                                        machine):
        start = int(np.argmax(weighted_graph.out_degrees()))
        result = _run(weighted_db, machine, SSSPKernel(start))
        expected = reference.sssp_distances(weighted_graph, start)
        assert np.allclose(result.values["distance"], expected,
                           rtol=1e-5, equal_nan=True)

    def test_unweighted_equals_bfs_depth(self, rmat_graph, rmat_db,
                                         machine):
        start = int(np.argmax(rmat_graph.out_degrees()))
        result = _run(rmat_db, machine, SSSPKernel(start))
        levels = reference.bfs_levels(rmat_graph, start)
        dist = result.values["distance"]
        reachable = levels >= 0
        assert np.allclose(dist[reachable], levels[reachable])
        assert np.all(np.isinf(dist[~reachable]))

    def test_max_rounds_caps_execution(self, weighted_db, machine):
        result = _run(weighted_db, machine,
                      SSSPKernel(start_vertex=0, max_rounds=2))
        assert result.num_rounds <= 2

    def test_start_validated(self, weighted_db, machine):
        with pytest.raises(ConfigurationError):
            _run(weighted_db, machine, SSSPKernel(start_vertex=10 ** 9))


class TestWCC:
    def test_matches_reference(self, rmat_graph, machine, small_config):
        sym = rmat_graph.symmetrised()
        db = build_database(sym, small_config)
        result = _run(db, machine, WCCKernel())
        expected = reference.weakly_connected_components(rmat_graph)
        assert np.array_equal(result.values["component"], expected)

    def test_disconnected_components(self, machine, small_config):
        # Two separate rings: labels must not mix.
        from repro.graphgen import Graph
        ring = generate_ring(10)
        sources, targets = ring.edge_list()
        graph = Graph.from_edges(
            20,
            np.concatenate([sources, sources + 10]),
            np.concatenate([targets, targets + 10]))
        db = build_database(graph.symmetrised(), small_config)
        result = _run(db, machine, WCCKernel())
        labels = result.values["component"]
        assert np.all(labels[:10] == 0)
        assert np.all(labels[10:] == 10)

    def test_max_rounds_validated(self):
        with pytest.raises(ConfigurationError):
            WCCKernel(max_rounds=0)


class TestBC:
    @settings(max_examples=30, deadline=None)
    @given(scale=st.integers(5, 8), seed=st.integers(0, 10 ** 6),
           symmetrised=st.booleans(),
           picks=st.lists(st.integers(0, 255), min_size=1, max_size=3),
           repeat=st.booleans(),
           strategy=st.sampled_from(["performance", "scalability"]),
           num_gpus=st.sampled_from([1, 2]), traced=st.booleans())
    def test_dag_record_is_the_rebuilt_dag(self, scale, seed, symmetrised,
                                           picks, repeat, strategy,
                                           num_gpus, traced):
        """Recording the DAG on the way down leaves every value (dtype
        and bytes), the simulated clock, every round's statistics and
        (traced) every trace event where the body that rebuilt it on
        the way back leaves them: R-MAT stores on 512-byte pages (large
        pages routine), directed or symmetrised, 1-3 sources, one of
        them possibly repeated."""
        graph = generate_rmat(scale, edge_factor=8, seed=seed)
        if symmetrised:
            graph = graph.symmetrised()
        db = build_database(graph, PageFormatConfig(2, 2, 512))
        sources = tuple(p % graph.num_vertices for p in picks)
        if repeat:
            sources += sources[:1]
        machine = scaled_workstation(num_gpus=num_gpus, num_ssds=2)
        new, old = (GTSEngine(db, machine, strategy=strategy,
                              tracing=traced).run(kernel(sources=sources))
                    for kernel in (BCKernel, ReferenceBCKernel))
        assert new.values.keys() == old.values.keys()
        for key, value in old.values.items():
            assert new.values[key].dtype == value.dtype
            assert new.values[key].tobytes() == value.tobytes()
        assert new.elapsed_seconds == old.elapsed_seconds
        assert new.rounds == old.rounds
        if traced:
            assert list(new.trace) == list(old.trace)

    def test_backward_rounds_read_the_forward_record(self, rmat_graph,
                                                     rmat_db, machine,
                                                     monkeypatch):
        """A backward round advances, filters and counts nothing, and
        its batch gathers nothing: it reads what its forward round
        recorded."""
        phase, calls = [], []

        def spy(owner, name):
            real = getattr(owner, name)

            def called(*args, **kwargs):
                calls.append((phase[-1], name))
                return real(*args, **kwargs)
            monkeypatch.setattr(owner, name, called)

        spy(RoundBatch, "advance")
        spy(Frontier, "filter")
        spy(bc, "frontier_batch_work")

        class Spied(BCKernel):
            def process_batch(self, batch, state, ctx):
                phase.append(state.phase)
                work = super().process_batch(batch, state, ctx)
                if state.phase == "backward":
                    assert not vars(batch).keys() - {"_plan", "pids",
                                                     "_whole"}
                return work

        start = int(np.argmax(rmat_graph.out_degrees()))
        _run(rmat_db, machine, Spied(sources=(start, start)))
        assert phase.count("backward") > 2
        assert {name for _, name in calls} == {
            "advance", "filter", "frontier_batch_work"}
        assert all(seen == "forward" for seen, _ in calls)

    def test_needs_a_source(self):
        with pytest.raises(ConfigurationError):
            BCKernel(sources=())

    def test_source_validated(self, rmat_db, machine):
        with pytest.raises(ConfigurationError):
            _run(rmat_db, machine, BCKernel(sources=(10 ** 9,)))


class TestRWR:
    def test_matches_reference(self, rmat_graph, rmat_db, machine):
        query = int(np.argmax(rmat_graph.out_degrees()))
        result = _run(rmat_db, machine,
                      RWRKernel(query_vertex=query, iterations=8))
        expected = reference.random_walk_with_restart(
            rmat_graph, query, iterations=8)
        assert np.allclose(result.values["proximity"], expected, atol=1e-12)

    def test_restart_mass_at_query(self, rmat_db, machine):
        result = _run(rmat_db, machine,
                      RWRKernel(query_vertex=3, iterations=5, restart=0.3))
        assert result.values["proximity"][3] >= 0.3

    def test_validates_parameters(self):
        with pytest.raises(ConfigurationError):
            RWRKernel(iterations=0)
        with pytest.raises(ConfigurationError):
            RWRKernel(restart=2.0)

    def test_negative_query_vertex_rejected(self):
        """Not a walk from the last vertex, as index -1 would read."""
        with pytest.raises(ConfigurationError):
            RWRKernel(query_vertex=-1)


class TestDegree:
    def test_matches_graph_degrees(self, rmat_graph, rmat_db, machine):
        result = _run(rmat_db, machine, DegreeKernel())
        out_expected, in_expected = reference.degree_counts(rmat_graph)
        assert np.array_equal(result.values["out_degree"], out_expected)
        assert np.array_equal(result.values["in_degree"], in_expected)

    def test_single_pass(self, rmat_db, machine):
        result = _run(rmat_db, machine, DegreeKernel())
        assert result.num_rounds == 1

    def test_star_degrees(self, machine, small_config):
        graph = generate_star(1000)
        db = build_database(graph, small_config)
        result = _run(db, machine, DegreeKernel())
        assert result.values["out_degree"][0] == 999
        assert result.values["in_degree"][0] == 0
        assert result.values["in_degree"][1:].sum() == 999
