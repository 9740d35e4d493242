"""Tests for the CSR Graph container."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import FormatError
from repro.graphgen import Graph


def _triangle():
    return Graph.from_edges(3, [0, 1, 2], [1, 2, 0])


class TestConstruction:
    def test_deduplicate_keeps_self_loops(self):
        graph = Graph.from_edges(2, [0, 0], [0, 0], deduplicate=True)
        assert graph.num_edges == 1
        assert list(graph.neighbors(0)) == [0]

    def test_empty_graph(self):
        graph = Graph.from_edges(4, [], [])
        assert graph.num_edges == 0
        assert graph.max_degree() == 0

    def test_rejects_out_of_range_target(self):
        with pytest.raises(FormatError):
            Graph.from_edges(2, [0], [5])

    def test_rejects_out_of_range_source(self):
        with pytest.raises(FormatError):
            Graph.from_edges(2, [7], [0])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(FormatError):
            Graph.from_edges(3, [0, 1], [1])

    def test_rejects_bad_indptr(self):
        with pytest.raises(FormatError):
            Graph(2, [0, 2, 1], [0, 1])

    def test_rejects_short_indptr(self):
        with pytest.raises(FormatError):
            Graph(3, [0, 1], [0])

    def test_rejects_misaligned_weights(self):
        with pytest.raises(FormatError):
            Graph.from_edges(2, [0], [1], weights=[1.0, 2.0])


class TestDegrees:
    def test_out_degrees(self):
        graph = Graph.from_edges(3, [0, 0, 1], [1, 2, 2])
        assert list(graph.out_degrees()) == [2, 1, 0]

    def test_in_degrees(self):
        graph = Graph.from_edges(3, [0, 0, 1], [1, 2, 2])
        assert list(graph.in_degrees()) == [0, 1, 2]

    def test_degree_sums_equal_edge_count(self, rmat_graph):
        assert rmat_graph.out_degrees().sum() == rmat_graph.num_edges
        assert rmat_graph.in_degrees().sum() == rmat_graph.num_edges

    def test_max_degree(self):
        graph = Graph.from_edges(3, [0, 0, 1], [1, 2, 2])
        assert graph.max_degree() == 2

    def test_density_ratio(self):
        graph = Graph.from_edges(4, [0, 1], [1, 2])
        assert graph.density_ratio() == 0.5


class TestTransformations:
    def test_symmetrised_contains_both_directions(self):
        graph = Graph.from_edges(3, [0], [1]).symmetrised()
        assert 1 in graph.neighbors(0)
        assert 0 in graph.neighbors(1)

    def test_symmetrised_deduplicates(self):
        graph = _triangle().symmetrised()
        # Triangle symmetrised: every vertex has exactly two neighbours.
        assert list(graph.out_degrees()) == [2, 2, 2]

    def test_symmetrised_is_idempotent(self, rmat_graph):
        once = rmat_graph.symmetrised()
        twice = once.symmetrised()
        assert np.array_equal(once.indptr, twice.indptr)
        assert np.array_equal(once.targets, twice.targets)

    def test_with_random_weights_deterministic(self, rmat_graph):
        a = rmat_graph.with_random_weights(seed=3)
        b = rmat_graph.with_random_weights(seed=3)
        assert np.array_equal(a.weights, b.weights)

    def test_with_random_weights_range(self, rmat_graph):
        weighted = rmat_graph.with_random_weights(low=2.0, high=5.0, seed=1)
        assert weighted.weights.min() >= 2.0
        assert weighted.weights.max() <= 5.0

    def test_edge_list_round_trip(self):
        graph = Graph.from_edges(4, [0, 1, 3], [2, 3, 0])
        sources, targets = graph.edge_list()
        rebuilt = Graph.from_edges(4, sources, targets)
        assert np.array_equal(rebuilt.indptr, graph.indptr)
        assert np.array_equal(rebuilt.targets, graph.targets)


class TestFootprint:
    def test_csr_bytes_unweighted(self):
        graph = Graph.from_edges(3, [0, 1], [1, 2])
        assert graph.csr_bytes(index_bytes=8) == 4 * 8 + 2 * 8

    def test_csr_bytes_weighted(self):
        graph = Graph.from_edges(3, [0, 1], [1, 2])
        plain = graph.csr_bytes(index_bytes=8)
        weighted = graph.csr_bytes(index_bytes=8, weight_bytes=4)
        assert weighted == plain + 2 * 4

    def test_repr_mentions_sizes(self, rmat_graph):
        text = repr(rmat_graph)
        assert str(rmat_graph.num_vertices) in text
        assert str(rmat_graph.num_edges) in text


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_from_edges_preserves_every_edge(data):
    """Property: the CSR holds every edge in ``np.lexsort((targets,
    sources))`` order, ties in input order; with ``deduplicate`` each
    pair's first occurrence survives.  Vertex counts past 2^16 give each
    key more than one 16-bit digit."""
    num_vertices = data.draw(st.integers(1, 40) | st.sampled_from(
        [(1 << 16) - 1, 1 << 16, (1 << 16) + 1, 1 << 20]))
    # Endpoints come from a small pool, so pairs repeat; some share their
    # low 16-bit digit and differ above it.
    vertex = st.integers(0, num_vertices - 1) | st.builds(
        lambda high, low: min(high << 16 | low, num_vertices - 1),
        st.integers(0, 16), st.integers(0, 2))
    pool = data.draw(st.lists(vertex, min_size=1, max_size=10))
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(pool),
                                         st.sampled_from(pool)),
                               max_size=120))
    deduplicate = data.draw(st.booleans())
    sources, targets = np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T
    weights = np.arange(len(pairs), dtype=np.float32)  # each edge's position
    graph = Graph.from_edges(num_vertices, sources, targets, weights=weights,
                             deduplicate=deduplicate)
    if deduplicate:
        _, order = np.unique(sources * num_vertices + targets,
                             return_index=True)
    else:
        order = np.lexsort((targets, sources))
    assert np.array_equal(graph.targets, targets[order])
    assert np.array_equal(graph.weights, weights[order])
    assert np.array_equal(graph.indptr, np.searchsorted(
        sources[order], np.arange(num_vertices + 1)))


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_symmetrised_has_symmetric_adjacency(data):
    num_vertices = data.draw(st.integers(2, 30))
    num_edges = data.draw(st.integers(1, 60))
    sources = data.draw(st.lists(
        st.integers(0, num_vertices - 1),
        min_size=num_edges, max_size=num_edges))
    targets = data.draw(st.lists(
        st.integers(0, num_vertices - 1),
        min_size=num_edges, max_size=num_edges))
    sym = Graph.from_edges(num_vertices, sources, targets).symmetrised()
    pairs = set(zip(*sym.edge_list()))
    assert all((t, s) in pairs for s, t in pairs)
