"""Tests for the X-Stream / GraphChi out-of-core baselines (Section 8)."""

import numpy as np
import pytest

from repro.baselines import reference
from repro.baselines.cpu import CPUHostSpec
from repro.baselines.outofcore import GraphChiEngine, XStreamEngine
from repro.errors import OutOfMemoryError
from repro.graphgen import generate_rmat
from repro.graphgen.random_graphs import generate_ring
from repro.hardware.specs import HDD_SPEC, SSD_SPEC


@pytest.fixture(scope="module")
def graph():
    return generate_rmat(9, edge_factor=8, seed=77)


class TestCorrectness:
    @pytest.mark.parametrize("engine_cls", [XStreamEngine, GraphChiEngine])
    def test_bfs_values_exact(self, engine_cls, graph):
        result = engine_cls().run("bfs", graph, {"start": 0})
        assert np.array_equal(result.values["level"],
                              reference.bfs_levels(graph, 0))

    @pytest.mark.parametrize("engine_cls", [XStreamEngine, GraphChiEngine])
    def test_pagerank_values_exact(self, engine_cls, graph):
        result = engine_cls().run("pagerank", graph, {"iterations": 3})
        assert np.allclose(result.values["rank"],
                           reference.pagerank(graph, iterations=3))

    def test_cc_and_sssp_supported(self, graph):
        engine = XStreamEngine()
        weighted = graph.with_random_weights(seed=1)
        assert np.array_equal(
            engine.run("cc", graph).values["component"],
            reference.weakly_connected_components(graph))
        assert np.allclose(
            engine.run("sssp", weighted, {"start": 0}).values["distance"],
            reference.sssp_distances(weighted, 0), rtol=1e-5,
            equal_nan=True)


class TestSection8Claims:
    def test_xstream_traversal_cost_scales_with_diameter(self):
        """Every BFS level costs a full edge-list scan: a deep graph of
        the same size is proportionally slower."""
        shallow = generate_rmat(10, edge_factor=8, seed=3)
        deep = generate_ring(shallow.num_edges // 2, hops=2)
        assert deep.num_edges == shallow.num_edges
        engine = XStreamEngine()
        start = {"start": int(np.argmax(shallow.out_degrees()))}
        shallow_time = engine.run("bfs", shallow, start).elapsed_seconds
        deep_time = engine.run("bfs", deep, {"start": 0}).elapsed_seconds
        shallow_depth = engine.run("bfs", shallow, start).num_rounds
        deep_depth = engine.run("bfs", deep, {"start": 0}).num_rounds
        assert deep_depth > 10 * shallow_depth
        assert deep_time > 10 * shallow_time

    def test_graphchi_slower_than_xstream(self, graph):
        """'GraphChi ... shows a worse performance than X-Stream.'"""
        for key in ("bfs", "pagerank"):
            params = {"start": 0, "iterations": 5}
            assert (GraphChiEngine().run(key, graph, params).elapsed_seconds
                    > XStreamEngine().run(key, graph, params).elapsed_seconds)

    def test_full_scan_per_level_even_with_tiny_frontier(self):
        """X-Stream's per-level cost is flat in frontier size."""
        ring = generate_ring(512)
        engine = XStreamEngine()
        result = engine.run("bfs", ring, {"start": 0})
        per_level = result.elapsed_seconds / result.num_rounds
        scan_floor = (ring.num_edges * engine.edge_bytes
                      / engine.storage_bandwidth())
        assert per_level >= scan_floor

    def test_more_disks_speed_up_streaming(self, graph):
        five = {"iterations": 5}
        one = XStreamEngine(num_disks=1).run("pagerank", graph, five)
        two = XStreamEngine(num_disks=2).run("pagerank", graph, five)
        assert two.elapsed_seconds < one.elapsed_seconds

    def test_hdd_much_slower_than_ssd(self, graph):
        five = {"iterations": 5}
        ssd = XStreamEngine(storage=SSD_SPEC).run("pagerank", graph, five)
        hdd = XStreamEngine(storage=HDD_SPEC).run("pagerank", graph, five)
        assert hdd.elapsed_seconds > 5 * ssd.elapsed_seconds


class TestMemoryModel:
    def test_vertex_state_must_fit(self, graph):
        host = CPUHostSpec(main_memory=1024)
        with pytest.raises(OutOfMemoryError):
            XStreamEngine(host=host).run("bfs", graph, {"start": 0})

    def test_edges_need_not_fit(self, graph):
        """Out-of-core engines only need vertex state resident."""
        host = CPUHostSpec(
            main_memory=graph.num_vertices * 64 + 4096)
        result = XStreamEngine(host=host).run("bfs", graph, {"start": 0})
        assert result.num_rounds > 0

    def test_graphchi_shard_count_grows_with_graph(self):
        small = generate_rmat(8, edge_factor=8, seed=1)
        large = generate_rmat(12, edge_factor=8, seed=1)
        host = CPUHostSpec(main_memory=large.num_edges * 4)
        engine = GraphChiEngine(host=host)
        assert engine.num_shards(large) > engine.num_shards(small)
