"""Tests for the graph generators (R-MAT, random, real-graph stand-ins)."""

import hashlib

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.graphgen import (
    generate_erdos_renyi,
    generate_ring,
    generate_rmat,
    generate_twitter_like,
    generate_uk2007_like,
    generate_yahooweb_like,
)
from repro.graphgen.random_graphs import generate_star
from repro.graphgen.realworld import REAL_GRAPH_STATS
from repro.graphgen.rmat import RMATParameters
from repro.baselines import reference


class TestRMAT:
    def test_vertex_and_edge_counts(self):
        graph = generate_rmat(10, edge_factor=16, seed=0)
        assert graph.num_vertices == 1024
        assert graph.num_edges == 1024 * 16

    def test_edge_factor(self):
        graph = generate_rmat(8, edge_factor=4, seed=0)
        assert graph.num_edges == 256 * 4

    def test_deterministic_under_seed(self):
        a = generate_rmat(9, seed=123)
        b = generate_rmat(9, seed=123)
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.targets, b.targets)

    def test_different_seeds_differ(self):
        a = generate_rmat(9, seed=1)
        b = generate_rmat(9, seed=2)
        assert not np.array_equal(a.targets, b.targets)

    def test_scale_zero_is_single_vertex(self):
        graph = generate_rmat(0, edge_factor=3, seed=0)
        assert graph.num_vertices == 1
        assert graph.num_edges == 3  # all self-loops

    def test_negative_scale_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_rmat(-1)

    def test_negative_edge_factor_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_rmat(4, edge_factor=-1)

    @pytest.mark.parametrize("scale, pinned", [
        (14, "10c601fe380dfd3b736e3ee37af2c764"
             "f2567cdcac9f38f3af47d5520f5e2d91"),
        (15, "aa8cca4c6cdffd538f96f859074a6ff0"
             "51df0be8a057e467366cf59bb240d094"),
    ])
    def test_ledger_graphs_are_pinned(self, scale, pinned):
        """The benchmark ledger's graphs stay bit for bit what every
        recorded number was measured on: per array, its dtype name then
        its bytes."""
        graph = generate_rmat(scale, edge_factor=16,
                              seed=7).with_random_weights(seed=7)
        digest = hashlib.sha256()
        for array in (graph.indptr, graph.targets, graph.weights):
            digest.update(str(array.dtype).encode())
            digest.update(array.tobytes())
        assert digest.hexdigest() == pinned

    def test_degree_distribution_is_skewed(self):
        """R-MAT's defining property: max degree far above the mean."""
        graph = generate_rmat(12, edge_factor=16, seed=5)
        degrees = graph.out_degrees()
        assert degrees.max() > 8 * degrees.mean()

    def test_deduplicate_reduces_edges(self):
        raw = generate_rmat(9, seed=3)
        dedup = generate_rmat(9, seed=3, deduplicate=True)
        assert dedup.num_edges < raw.num_edges

    def test_permutation_changes_layout_not_structure(self):
        plain = generate_rmat(9, seed=4, permute=False)
        permuted = generate_rmat(9, seed=4, permute=True)
        assert plain.num_edges == permuted.num_edges
        # Degree multiset is permutation-invariant.
        assert sorted(plain.out_degrees()) == sorted(permuted.out_degrees())

    def test_parameters_must_sum_to_one(self):
        with pytest.raises(ConfigurationError):
            RMATParameters(a=0.5, b=0.5, c=0.5, d=0.5)

    def test_parameters_must_be_nonnegative(self):
        with pytest.raises(ConfigurationError):
            RMATParameters(a=1.2, b=-0.2, c=0.0, d=0.0)

    def test_uniform_parameters_give_flat_distribution(self):
        params = RMATParameters(a=0.25, b=0.25, c=0.25, d=0.25)
        graph = generate_rmat(11, edge_factor=16, parameters=params, seed=6)
        degrees = graph.out_degrees()
        # Uniform quadrants = Erdos-Renyi-like: no extreme hubs.
        assert degrees.max() < 6 * max(degrees.mean(), 1)


class TestRandomGraphs:
    def test_erdos_renyi_counts(self):
        graph = generate_erdos_renyi(100, avg_degree=5, seed=0)
        assert graph.num_vertices == 100
        assert graph.num_edges == 500

    def test_erdos_renyi_deterministic(self):
        a = generate_erdos_renyi(50, 4, seed=9)
        b = generate_erdos_renyi(50, 4, seed=9)
        assert np.array_equal(a.targets, b.targets)

    def test_erdos_renyi_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            generate_erdos_renyi(0, 4)

    def test_erdos_renyi_rejects_negative_degree(self):
        with pytest.raises(ConfigurationError):
            generate_erdos_renyi(10, avg_degree=-1)

    def test_ring_has_full_diameter(self):
        graph = generate_ring(32)
        levels = reference.bfs_levels(graph, 0)
        assert levels.max() == 31

    def test_ring_hops(self):
        graph = generate_ring(10, hops=2)
        assert graph.num_edges == 20
        assert set(graph.neighbors(0)) == {1, 2}

    def test_ring_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            generate_ring(0)

    def test_star_degrees(self):
        graph = generate_star(10, center=3)
        degrees = graph.out_degrees()
        assert degrees[3] == 9
        assert degrees.sum() == 9

    def test_star_rejects_trivial(self):
        with pytest.raises(ConfigurationError):
            generate_star(1)


class TestRealWorldStandIns:
    def test_twitter_density_matches_real_graph(self):
        graph = generate_twitter_like(num_vertices=4096)
        target = (REAL_GRAPH_STATS["twitter"]["edges"]
                  / REAL_GRAPH_STATS["twitter"]["vertices"])
        assert abs(graph.density_ratio() - target) / target < 0.1

    def test_twitter_is_heavily_skewed(self):
        graph = generate_twitter_like(num_vertices=8192)
        degrees = graph.out_degrees()
        assert degrees.max() > 10 * degrees.mean()

    def test_uk2007_density(self):
        graph = generate_uk2007_like(num_vertices=8192)
        target = (REAL_GRAPH_STATS["uk2007"]["edges"]
                  / REAL_GRAPH_STATS["uk2007"]["vertices"])
        assert abs(graph.density_ratio() - target) / target < 0.1

    def test_yahooweb_is_sparse(self):
        graph = generate_yahooweb_like(num_vertices=16384)
        assert graph.density_ratio() < 6.0

    def test_yahooweb_diameter_exceeds_social_graph(self):
        """The defining trait: web stand-in BFS is much deeper."""
        yahoo = generate_yahooweb_like(num_vertices=8192)
        twitter = generate_twitter_like(num_vertices=8192)
        yahoo_depth = reference.bfs_levels(
            yahoo, int(np.argmax(yahoo.out_degrees()))).max()
        twitter_depth = reference.bfs_levels(
            twitter, int(np.argmax(twitter.out_degrees()))).max()
        assert yahoo_depth > 3 * twitter_depth

    def test_generators_deterministic(self):
        a = generate_uk2007_like(num_vertices=2048, seed=5)
        b = generate_uk2007_like(num_vertices=2048, seed=5)
        assert np.array_equal(a.targets, b.targets)

    def test_vertex_counts_round_to_nearest_pow2(self):
        # 5127 rounds down to 4096, not up to 8192.
        graph = generate_twitter_like(num_vertices=5127)
        assert graph.num_vertices == 4096
