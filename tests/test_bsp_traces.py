"""Tests for the instrumented BSP traces shared by the baselines."""

import numpy as np
import pytest

from repro.baselines import bsp, reference
from repro.graphgen import generate_rmat
from repro.graphgen.random_graphs import generate_ring


@pytest.fixture(scope="module")
def graph():
    return generate_rmat(9, edge_factor=8, seed=21)


@pytest.fixture(scope="module")
def start(graph):
    return int(np.argmax(graph.out_degrees()))


class TestBFSTrace:
    def test_values_match_reference(self, graph, start):
        run = bsp.trace_bfs(graph, start)
        assert np.array_equal(run.values["level"],
                              reference.bfs_levels(graph, start))

    def test_superstep_count_is_depth(self, graph, start):
        run = bsp.trace_bfs(graph, start)
        depth = reference.bfs_levels(graph, start).max()
        assert run.num_supersteps == depth + 1

    def test_active_vertices_sum_to_reachable(self, graph, start):
        run = bsp.trace_bfs(graph, start)
        reachable = (reference.bfs_levels(graph, start) >= 0).sum()
        assert sum(s.active_vertices for s in run.supersteps) == reachable

    def test_edges_are_frontier_out_edges(self, graph, start):
        run = bsp.trace_bfs(graph, start)
        degrees = graph.out_degrees()
        levels = reference.bfs_levels(graph, start)
        for step in run.supersteps:
            expected = degrees[levels == step.index].sum()
            assert step.edges_processed == expected

    def test_ring_trace(self):
        run = bsp.trace_bfs(generate_ring(12), 0)
        assert run.num_supersteps == 12
        assert all(s.active_vertices == 1 for s in run.supersteps)


class TestPageRankTrace:
    def test_values_match_reference(self, graph):
        run = bsp.trace_pagerank(graph, iterations=6)
        assert np.allclose(run.values["rank"],
                           reference.pagerank(graph, iterations=6))

    def test_every_superstep_processes_all_edges(self, graph):
        run = bsp.trace_pagerank(graph, iterations=4)
        assert run.num_supersteps == 4
        assert all(s.edges_processed == graph.num_edges
                   for s in run.supersteps)

    def test_total_and_peak_messages(self, graph):
        run = bsp.trace_pagerank(graph, iterations=3)
        assert run.total_messages() == 3 * graph.num_edges
        assert run.peak_messages() == graph.num_edges


class TestSSSPTrace:
    def test_values_match_reference(self, graph, start):
        weighted = graph.with_random_weights(seed=5)
        run = bsp.trace_sssp(weighted, start)
        expected = reference.sssp_distances(weighted, start)
        assert np.allclose(run.values["distance"], expected, rtol=1e-5,
                           equal_nan=True)

    def test_frontier_shrinks_to_zero(self, graph, start):
        run = bsp.trace_sssp(graph.with_random_weights(seed=5), start)
        assert run.supersteps[0].active_vertices == 1
        assert run.num_supersteps >= 2


class TestWCCTrace:
    def test_values_match_reference(self, graph):
        run = bsp.trace_wcc(graph)
        assert np.array_equal(run.values["component"],
                              reference.weakly_connected_components(graph))

    def test_runs_to_fixpoint(self, graph):
        run = bsp.trace_wcc(graph)
        assert run.num_supersteps >= 2


class TestBCTrace:
    def test_values_match_reference(self, graph, start):
        run = bsp.trace_bc(graph, sources=(start,))
        expected = reference.betweenness_centrality(graph, (start,))
        assert np.allclose(run.values["centrality"], expected, atol=1e-9)

    def test_forward_and_backward_supersteps(self, graph, start):
        run = bsp.trace_bc(graph, sources=(start,))
        depth = reference.bfs_levels(graph, start).max()
        # Forward: depth+1 levels (last one empty-ish); backward: depth.
        assert run.num_supersteps >= 2 * depth


class TestTraceCache:
    def test_identical_calls_share_a_trace(self, graph):
        a = bsp.cached_trace(graph, "bfs", {"start": 0})
        b = bsp.cached_trace(graph, "bfs", {"start": 0})
        assert a is b

    def test_different_params_differ(self, graph):
        a = bsp.cached_trace(graph, "bfs", {"start": 0})
        b = bsp.cached_trace(graph, "bfs", {"start": 1})
        assert a is not b

    def test_different_graphs_differ(self, graph):
        other = generate_rmat(7, edge_factor=4, seed=2)
        params = {"start": 0, "iterations": 2}
        a = bsp.cached_trace(graph, "pagerank", params)
        b = bsp.cached_trace(other, "pagerank", params)
        assert a is not b
