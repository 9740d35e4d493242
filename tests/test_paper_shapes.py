"""Regression locks on the paper's headline claims.

Every test here asserts one *qualitative* result of the evaluation —
an ordering, a crossover, an O.O.M. boundary — so that recalibrating any
constant cannot silently break the reproduction.  These run on the
scaled experiment datasets, so they are slower than unit tests but still
bounded (seconds each).
"""

import numpy as np
import pytest

from repro.baselines.cpu import CPUHostSpec, LigraEngine, MTGLEngine
from repro.baselines.distributed import (
    ALL_DISTRIBUTED_ENGINES,
    ClusterSpec,
)
from repro.baselines.gpu import CuShaEngine, MapGraphEngine, TotemEngine
from repro.baselines.outofcore import GraphChiEngine, XStreamEngine
from repro.bench.datasets import (
    SCALE_FACTOR,
    dataset_database,
    dataset_graph,
    default_start_vertex,
)
from repro.bench.experiments import (
    _gts_algorithm_run,
    _gts_run,
)
from repro.core import BFSKernel, PageRankKernel
from repro.errors import OutOfMemoryError
from repro.hardware.specs import scaled_workstation


@pytest.fixture(scope="module")
def twitter():
    return dataset_graph("twitter")


@pytest.fixture(scope="module")
def twitter_start(twitter):
    return default_start_vertex(twitter)


def _cluster_engine(cls):
    return cls(ClusterSpec().scaled(SCALE_FACTOR), time_scale=SCALE_FACTOR)


def _host_engine(cls):
    return cls(CPUHostSpec().scaled(SCALE_FACTOR), time_scale=SCALE_FACTOR)


def _gpu_engine(cls, **kwargs):
    machine = scaled_workstation()
    return cls(host=CPUHostSpec().scaled(SCALE_FACTOR),
               gpus=list(machine.gpus), pcie=machine.pcie,
               time_scale=SCALE_FACTOR, **kwargs)


class TestFigure6Claims:
    """GTS vs the distributed engines."""

    def test_gts_beats_every_distributed_engine_on_pagerank(
            self, twitter):
        gts = _gts_algorithm_run("PageRank", "twitter").elapsed_seconds
        for cls in ALL_DISTRIBUTED_ENGINES:
            baseline = _cluster_engine(cls).run(
                "pagerank", twitter, {"iterations": 10}).elapsed_seconds
            assert gts < baseline, cls.__name__

    def test_gts_beats_every_distributed_engine_on_twitter_bfs(
            self, twitter, twitter_start):
        gts = _gts_algorithm_run("BFS", "twitter").elapsed_seconds
        for cls in ALL_DISTRIBUTED_ENGINES:
            baseline = _cluster_engine(cls).run(
                "bfs", twitter, {"start": twitter_start}).elapsed_seconds
            assert gts < baseline, cls.__name__

    def test_only_gts_reaches_rmat32(self):
        graph = dataset_graph("rmat32")
        for cls in ALL_DISTRIBUTED_ENGINES:
            with pytest.raises(OutOfMemoryError):
                _cluster_engine(cls).run("pagerank", graph,
                                         {"iterations": 1})
        result = _gts_algorithm_run("PageRank", "rmat32", iterations=1)
        assert result.elapsed_seconds > 0

    def test_rmat32_pagerank_needs_strategy_s(self):
        result = _gts_algorithm_run("PageRank", "rmat32", iterations=1)
        assert result.strategy == "scalability"

    def test_cost_jumps_when_graph_leaves_main_memory(self):
        """Paper: "the processing time of GTS rapidly increases between
        RMAT30 and RMAT31"."""
        ladder = {
            name: _gts_algorithm_run("PageRank", name,
                                     iterations=5).elapsed_seconds
            for name in ("rmat29", "rmat30", "rmat31")
        }
        in_memory_step = ladder["rmat30"] / ladder["rmat29"]
        spill_step = ladder["rmat31"] / ladder["rmat30"]
        assert spill_step > in_memory_step


class TestFigure7Claims:
    """GTS vs the CPU engines."""

    def test_cpu_engines_win_small_bfs(self, twitter, twitter_start):
        gts = _gts_algorithm_run("BFS", "twitter").elapsed_seconds
        ligra = _host_engine(LigraEngine).run(
            "bfs", twitter, {"start": twitter_start}).elapsed_seconds
        assert ligra < gts

    def test_gts_wins_pagerank(self, twitter):
        gts = _gts_algorithm_run("PageRank", "twitter").elapsed_seconds
        ligra = _host_engine(LigraEngine).run(
            "pagerank", twitter, {"iterations": 10}).elapsed_seconds
        assert gts < ligra

    def test_cpu_engines_oom_on_yahooweb(self):
        graph = dataset_graph("yahooweb")
        for cls in (MTGLEngine, LigraEngine):
            with pytest.raises(OutOfMemoryError):
                _host_engine(cls).run("bfs", graph, {"start": 0})


class TestFigure8Claims:
    """GTS vs the GPU engines."""

    def test_mapgraph_cannot_hold_twitter(self, twitter):
        with pytest.raises(OutOfMemoryError):
            _gpu_engine(MapGraphEngine).run("bfs", twitter, {"start": 0})

    def test_cusha_holds_twitter_bfs_only(self, twitter, twitter_start):
        engine = _gpu_engine(CuShaEngine)
        assert engine.run("bfs", twitter,
                          {"start": twitter_start}).elapsed_seconds > 0
        with pytest.raises(OutOfMemoryError):
            engine.run("pagerank", twitter, {"iterations": 10})
        with pytest.raises(OutOfMemoryError):
            _gpu_engine(CuShaEngine).run("bfs", dataset_graph("rmat27"),
                                         {"start": 0})

    def test_totem_wins_small_pagerank_loses_bfs(self, twitter,
                                                 twitter_start):
        totem = _gpu_engine(TotemEngine)
        gts_pr = _gts_algorithm_run("PageRank", "twitter").elapsed_seconds
        gts_bfs = _gts_algorithm_run("BFS", "twitter").elapsed_seconds
        totem_pr = totem.run("pagerank", twitter, {"iterations": 10},
                             dataset_name="twitter").elapsed_seconds
        totem_bfs = totem.run("bfs", twitter, {"start": twitter_start},
                              dataset_name="twitter").elapsed_seconds
        assert totem_pr < gts_pr
        assert gts_bfs < totem_bfs

    def test_totem_loses_large_pagerank(self):
        graph = dataset_graph("rmat29")
        gts = _gts_algorithm_run("PageRank", "rmat29").elapsed_seconds
        totem = _gpu_engine(TotemEngine).run(
            "pagerank", graph, {"iterations": 10},
            dataset_name="rmat29").elapsed_seconds
        assert gts < totem

    def test_totem_oom_beyond_main_memory(self):
        graph = dataset_graph("rmat30")
        with pytest.raises(OutOfMemoryError):
            _gpu_engine(TotemEngine).run("pagerank", graph,
                                         {"iterations": 1})


class TestSection8Claims:
    def test_gts_beats_streaming_engines(self, twitter, twitter_start):
        kwargs = dict(time_scale=SCALE_FACTOR,
                      host=CPUHostSpec().scaled(SCALE_FACTOR), num_disks=2)
        db = dataset_database("twitter")
        gts = _gts_run(
            BFSKernel(twitter_start), "twitter",
            mm_buffer_bytes=int(0.2 * db.topology_bytes())
        ).elapsed_seconds
        start = {"start": twitter_start}
        xstream = XStreamEngine(**kwargs).run(
            "bfs", twitter, start).elapsed_seconds
        graphchi = GraphChiEngine(**kwargs).run(
            "bfs", twitter, start).elapsed_seconds
        assert gts < xstream < graphchi


class TestTable4Claims:
    def test_wa_to_topology_ratio_in_paper_band(self):
        for name in ("rmat28", "rmat30", "rmat32"):
            db = dataset_database(name)
            for kernel in (BFSKernel(0), PageRankKernel()):
                ratio = kernel.wa_bytes(db.num_vertices) \
                    / db.topology_bytes()
                assert 0.01 < ratio < 0.12, (name, kernel.name, ratio)
