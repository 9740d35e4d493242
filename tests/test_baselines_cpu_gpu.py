"""Tests for the CPU (Figure 7) and GPU (Figure 8) baseline engines."""

import numpy as np
import pytest

from repro.baselines import reference
from repro.baselines.cpu import (
    CPUHostSpec,
    GaloisEngine,
    LigraEngine,
    LigraPlusEngine,
    MTGLEngine,
)
from repro.baselines.gpu import (
    CuShaEngine,
    MapGraphEngine,
    TOTEM_PARTITION_TABLE,
    TotemEngine,
)
from repro.core.kernels import BFSKernel, PageRankKernel
from repro.errors import OutOfMemoryError
from repro.graphgen import generate_rmat
from repro.hardware.specs import GPUSpec
from repro.units import GB, MB

CPU_ENGINES = [MTGLEngine, GaloisEngine, LigraEngine, LigraPlusEngine]


@pytest.fixture(scope="module")
def graph():
    return generate_rmat(9, edge_factor=8, seed=44)


class TestCPUHost:
    def test_paper_shape(self):
        host = CPUHostSpec()
        assert host.num_threads == 16
        assert host.main_memory == 128 * GB

    def test_scaled(self):
        host = CPUHostSpec().scaled(1024)
        assert host.main_memory == 128 * GB // 1024
        assert host.num_threads == 16


class TestCPUEngines:
    @pytest.mark.parametrize("engine_cls", CPU_ENGINES)
    def test_bfs_values_exact(self, engine_cls, graph):
        result = engine_cls().run("bfs", graph, {"start": 0})
        assert np.array_equal(result.values["level"],
                              reference.bfs_levels(graph, 0))

    @pytest.mark.parametrize("engine_cls", CPU_ENGINES)
    def test_pagerank_values_exact(self, engine_cls, graph):
        result = engine_cls().run("pagerank", graph, {"iterations": 3})
        assert np.allclose(result.values["rank"],
                           reference.pagerank(graph, iterations=3))

    def test_mtgl_is_slowest(self, graph):
        times = {cls.name: cls().run("pagerank", graph,
                                     {"iterations": 5}).elapsed_seconds
                 for cls in CPU_ENGINES}
        assert times["MTGL"] == max(times.values())

    def test_ligra_beats_galois(self, graph):
        start = {"start": int(np.argmax(graph.out_degrees()))}
        assert (LigraEngine().run("bfs", graph, start).elapsed_seconds
                < GaloisEngine().run("bfs", graph, start).elapsed_seconds)

    def test_ligra_plus_needs_less_memory(self, graph):
        bfs = BFSKernel(0)
        assert (LigraPlusEngine().footprint(graph, bfs, None)
                < LigraEngine().footprint(graph, bfs, None))

    def test_oom_on_tiny_host(self, graph):
        host = CPUHostSpec(main_memory=1024)
        with pytest.raises(OutOfMemoryError):
            LigraEngine(host).run("bfs", graph, {"start": 0})

    def test_cc_and_sssp_supported(self, graph):
        weighted = graph.with_random_weights(seed=2)
        engine = GaloisEngine()
        cc = engine.run("cc", graph)
        sssp = engine.run("sssp", weighted, {"start": 0})
        assert np.array_equal(
            cc.values["component"],
            reference.weakly_connected_components(graph))
        assert np.allclose(sssp.values["distance"],
                           reference.sssp_distances(weighted, 0),
                           rtol=1e-5, equal_nan=True)


class TestTotem:
    def test_values_exact(self, graph):
        result = TotemEngine().run("bfs", graph, {"start": 0})
        assert np.array_equal(result.values["level"],
                              reference.bfs_levels(graph, 0))

    def test_partition_from_table(self, graph):
        engine = TotemEngine()
        fraction = engine.resolve_partition(graph, "BFS",
                                            dataset_name="twitter")
        assert fraction == TOTEM_PARTITION_TABLE[("twitter", "BFS", 2)]

    def test_partition_auto_derived_from_memory(self, graph):
        # Device holds well under the graph's 8 B/edge GPU slice.
        tiny = TotemEngine(
            gpus=[GPUSpec(device_memory=graph.num_edges * 4)])
        fraction = tiny.resolve_partition(graph, "BFS")
        assert 0 < fraction < 0.95

    def test_explicit_partition_wins(self, graph):
        engine = TotemEngine(partition_ratio=0.42)
        assert engine.resolve_partition(graph, "BFS", "twitter") == 0.42

    def test_single_gpu_partition_differs(self, graph):
        one = TotemEngine(gpus=[GPUSpec()])
        assert one.resolve_partition(graph, "BFS", "twitter") \
            == TOTEM_PARTITION_TABLE[("twitter", "BFS", 1)]

    def test_needs_contiguous_main_memory(self, graph):
        host = CPUHostSpec(main_memory=1024)
        with pytest.raises(OutOfMemoryError):
            TotemEngine(host=host).run("bfs", graph, {"start": 0})

    def test_bigger_gpu_fraction_is_faster_for_pagerank(self, graph):
        five = {"iterations": 5}
        slow = TotemEngine(partition_ratio=0.1).run("pagerank", graph, five)
        fast = TotemEngine(partition_ratio=0.9).run("pagerank", graph, five)
        assert fast.elapsed_seconds < slow.elapsed_seconds


class TestDeviceMemoryOnlyEngines:
    def test_cusha_values_exact(self, graph):
        result = CuShaEngine().run("bfs", graph, {"start": 0})
        assert np.array_equal(result.values["level"],
                              reference.bfs_levels(graph, 0))

    def test_cusha_pagerank_needs_more_memory_than_bfs(self, graph):
        engine = CuShaEngine()
        assert (engine.footprint(graph, PageRankKernel(), None)
                > engine.footprint(graph, BFSKernel(0), None))

    def test_cusha_oom_when_graph_exceeds_device(self, graph):
        engine = CuShaEngine(gpus=[GPUSpec(device_memory=1024)])
        with pytest.raises(OutOfMemoryError):
            engine.run("bfs", graph, {"start": 0})

    def test_mapgraph_less_space_efficient_than_cusha(self, graph):
        bfs = BFSKernel(0)
        assert (MapGraphEngine().footprint(graph, bfs, None)
                > CuShaEngine().footprint(graph, bfs, None))

    def test_two_gpus_double_capacity(self, graph):
        one = CuShaEngine(gpus=[GPUSpec()])
        two = CuShaEngine(gpus=[GPUSpec(), GPUSpec()])
        assert two.total_gpu_memory() == 2 * one.total_gpu_memory()
