"""Tests for the distributed baseline engines (Figure 6 systems)."""

import numpy as np
import pytest

from repro.baselines import bsp, reference
from repro.baselines.distributed import (
    ClusterSpec,
    GiraphEngine,
    GraphXEngine,
    NaiadEngine,
    PowerGraphEngine,
)
from repro.core.kernels import BFSKernel, PageRankKernel
from repro.errors import OutOfMemoryError
from repro.graphgen import generate_rmat
from repro.units import GB


@pytest.fixture(scope="module")
def graph():
    return generate_rmat(9, edge_factor=8, seed=33)


@pytest.fixture(scope="module")
def cluster():
    return ClusterSpec()


ALL_ENGINES = [GraphXEngine, GiraphEngine, PowerGraphEngine, NaiadEngine]


class TestClusterSpec:
    def test_paper_shape(self, cluster):
        assert cluster.num_machines == 30
        assert cluster.total_cores == 480
        assert cluster.total_memory == 30 * 64 * GB

    def test_scaled_divides_memory_only(self):
        scaled = ClusterSpec().scaled(1024)
        assert scaled.memory_per_machine == 64 * GB // 1024
        assert scaled.total_cores == 480
        assert scaled.network_bandwidth == ClusterSpec().network_bandwidth


class TestCorrectness:
    @pytest.mark.parametrize("engine_cls", ALL_ENGINES)
    def test_bfs_values_exact(self, engine_cls, graph, cluster):
        result = engine_cls(cluster).run("bfs", graph, {"start": 0})
        assert np.array_equal(result.values["level"],
                              reference.bfs_levels(graph, 0))

    @pytest.mark.parametrize("engine_cls", ALL_ENGINES)
    def test_pagerank_values_exact(self, engine_cls, graph, cluster):
        result = engine_cls(cluster).run("pagerank", graph, {"iterations": 4})
        assert np.allclose(result.values["rank"],
                           reference.pagerank(graph, iterations=4))

    def test_sssp_values_exact(self, graph, cluster):
        weighted = graph.with_random_weights(seed=1)
        result = PowerGraphEngine(cluster).run("sssp", weighted, {"start": 0})
        assert np.allclose(result.values["distance"],
                           reference.sssp_distances(weighted, 0),
                           rtol=1e-5, equal_nan=True)

    def test_cc_values_exact(self, graph, cluster):
        result = GiraphEngine(cluster).run("cc", graph)
        assert np.array_equal(
            result.values["component"],
            reference.weakly_connected_components(graph))

    def test_bc_values_exact(self, graph, cluster):
        result = NaiadEngine(cluster).run("bc", graph, {"start": 0})
        assert np.allclose(
            result.values["centrality"],
            reference.betweenness_centrality(graph, (0,)), atol=1e-9)


class TestTimingModel:
    def test_result_metadata(self, graph, cluster):
        result = PowerGraphEngine(cluster).run(
            "bfs", graph, {"start": 0}, dataset_name="toy")
        assert result.engine == "PowerGraph"
        assert result.dataset == "toy"
        assert result.elapsed_seconds > 0
        assert result.num_rounds >= 1

    def test_more_iterations_cost_more(self, graph, cluster):
        engine = GraphXEngine(cluster)
        short = engine.run("pagerank", graph,
                           {"iterations": 2}).elapsed_seconds
        long = engine.run("pagerank", graph,
                          {"iterations": 8}).elapsed_seconds
        assert long > 3 * short

    def test_time_scale_divides_barriers(self, graph):
        plain = GiraphEngine(ClusterSpec(), time_scale=1.0)
        scaled = GiraphEngine(ClusterSpec(), time_scale=1000.0)
        assert (scaled.run("bfs", graph, {"start": 0}).elapsed_seconds
                < plain.run("bfs", graph, {"start": 0}).elapsed_seconds)

    def test_powergraph_reduces_wire_messages(self, graph, cluster):
        """The vertex-cut never sends more than raw Pregel messages."""
        engine = PowerGraphEngine(cluster)
        raw = graph.num_edges
        assert engine.wire_messages(raw, graph) <= raw

    def test_engine_performance_ordering_pagerank(self):
        """Paper: Giraph slowest, PowerGraph fastest (PageRank).

        Run at experiment scale (scaled barriers, larger graph) so the
        ordering reflects compute + communication, not toy-graph barrier
        constants."""
        big = generate_rmat(13, edge_factor=16, seed=5)
        times = {
            cls.name: cls(ClusterSpec().scaled(8192),
                          time_scale=8192).run(
                "pagerank", big, {"iterations": 5}).elapsed_seconds
            for cls in ALL_ENGINES
        }
        assert times["Giraph"] == max(times.values())
        assert times["PowerGraph"] < times["GraphX"]
        assert times["PowerGraph"] < times["Giraph"]


class TestMemoryLadder:
    def _tiny_cluster(self, total_bytes):
        return ClusterSpec(memory_per_machine=total_bytes // 30)

    def test_oom_raised_with_sizes(self, graph):
        cluster = self._tiny_cluster(30 * 1024)
        with pytest.raises(OutOfMemoryError) as exc:
            NaiadEngine(cluster).run("bfs", graph, {"start": 0})
        assert exc.value.required_bytes > exc.value.available_bytes

    def test_naiad_dies_first(self, graph):
        """Naiad's footprint exceeds every other engine's (the paper's
        'worst scalability')."""
        footprints = {}
        for cls in ALL_ENGINES:
            engine = cls(ClusterSpec())
            run = bsp.cached_trace(graph, "bfs", {"start": 0})
            footprints[cls.name] = engine.footprint(graph, BFSKernel(0), run)
        assert footprints["Naiad"] == max(footprints.values())

    def test_memory_scales_with_graph(self, cluster):
        small = generate_rmat(7, edge_factor=8, seed=1)
        large = generate_rmat(9, edge_factor=8, seed=1)
        engine = GiraphEngine(cluster)
        one = {"start": 0, "iterations": 1}
        small_run = bsp.cached_trace(small, "pagerank", one)
        large_run = bsp.cached_trace(large, "pagerank", one)
        pagerank = PageRankKernel(iterations=1)
        assert (engine.footprint(large, pagerank, large_run)
                > 3 * engine.footprint(small, pagerank, small_run))
