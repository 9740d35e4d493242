"""Tests for degree-distribution analysis and the stream scheduler."""

import numpy as np
import pytest

from repro.core.cache import PageCache
from repro.core.result import RoundStats
from repro.core.streams import RoundOrder, StreamScheduler
from repro.errors import ConfigurationError
from repro.graphgen import Graph, generate_erdos_renyi, generate_rmat
from repro.graphgen.degree import (
    degree_histogram,
    gini_coefficient,
    power_law_exponent,
    summarize_degrees,
)
from repro.graphgen.random_graphs import generate_ring, generate_star
from repro.hardware.machine import MachineRuntime
from repro.hardware.specs import paper_workstation
from repro.hardware.trace import gpu_lanes
from repro.obs.events import TraceRecorder
from repro.units import MB


class TestDegreeHistogram:
    def test_counts_sum_to_vertices(self, rmat_graph):
        _, counts = degree_histogram(rmat_graph)
        assert counts.sum() == rmat_graph.num_vertices

    def test_ring_is_regular(self):
        degrees, counts = degree_histogram(generate_ring(10))
        assert list(degrees) == [1]
        assert list(counts) == [10]

    def test_star(self):
        degrees, counts = degree_histogram(generate_star(5))
        assert list(degrees) == [0, 4]
        assert list(counts) == [4, 1]

    def test_in_direction(self):
        degrees, counts = degree_histogram(generate_star(5),
                                           direction="in")
        assert list(degrees) == [0, 1]
        assert list(counts) == [1, 4]

    def test_bad_direction_rejected(self, rmat_graph):
        with pytest.raises(ConfigurationError):
            degree_histogram(rmat_graph, direction="sideways")


class TestPowerLawExponent:
    def test_rmat_in_scale_free_range(self):
        graph = generate_rmat(13, edge_factor=16, seed=1)
        alpha = power_law_exponent(graph, d_min=4)
        assert 1.3 < alpha < 3.5

    def test_er_has_larger_exponent_than_rmat(self):
        rmat = generate_rmat(12, edge_factor=16, seed=1)
        er = generate_erdos_renyi(4096, 16, seed=1)
        assert (power_law_exponent(er, d_min=8)
                > power_law_exponent(rmat, d_min=8))

    def test_insufficient_tail_is_nan(self):
        graph = Graph.from_edges(4, [0], [1])
        assert np.isnan(power_law_exponent(graph, d_min=5))

    def test_d_min_validated(self, rmat_graph):
        with pytest.raises(ConfigurationError):
            power_law_exponent(rmat_graph, d_min=0)


class TestGini:
    def test_regular_graph_is_zero(self):
        assert gini_coefficient(generate_ring(32)) == pytest.approx(0.0)

    def test_star_is_nearly_one(self):
        assert gini_coefficient(generate_star(200)) > 0.95

    def test_rmat_more_unequal_than_er(self):
        rmat = generate_rmat(12, edge_factor=16, seed=2)
        er = generate_erdos_renyi(4096, 16, seed=2)
        assert gini_coefficient(rmat) > gini_coefficient(er)

    def test_empty_graph(self):
        assert gini_coefficient(Graph.from_edges(3, [], [])) == 0.0


class TestSummary:
    def test_fields_consistent(self, rmat_graph):
        summary = summarize_degrees(rmat_graph)
        assert summary.num_vertices == rmat_graph.num_vertices
        assert summary.num_edges == rmat_graph.num_edges
        assert summary.mean_degree == pytest.approx(
            rmat_graph.num_edges / rmat_graph.num_vertices)
        assert summary.max_degree == rmat_graph.max_degree()

    def test_rmat_is_heavy_tailed(self, rmat_graph):
        assert summarize_degrees(rmat_graph).is_heavy_tailed()

    def test_ring_is_not_heavy_tailed(self):
        assert not summarize_degrees(generate_ring(64)).is_heavy_tailed()


class TestStreamScheduler:
    """``dispatch_round`` on hand-sized rounds; ``test_execution_plan``'s
    property pins it to the per-call oracle."""

    def _scheduler(self, num_streams=2):
        runtime = MachineRuntime(paper_workstation(),
                                 num_streams=num_streams,
                                 page_bytes=1 * MB,
                                 recorder=TraceRecorder())
        return StreamScheduler(runtime), runtime

    @staticmethod
    def _round(scheduler, per_gpu, copy_bytes=1 * MB, cached=False,
               round_start=0.0):
        """Book one round: ``per_gpu[g]`` pages on GPU ``g``, every one
        a cache hit (``cached``) or streamed from main memory."""
        pids = np.arange(sum(per_gpu))
        bounds = np.cumsum([0] + list(per_gpu))
        caches = [PageCache(len(pids)) for _ in per_gpu]
        for cache in caches:
            for pid in pids.tolist() if cached else ():
                cache.admit(pid)
        scheduler.runtime.mm_buffer.preload(pids)
        scheduler.dispatch_round(
            RoundOrder(pids, [np.arange(a, b)
                              for a, b in zip(bounds, bounds[1:])]),
            np.full(len(pids), copy_bytes), np.full(len(pids), 1e6), 24.0,
            caches, [0.0] * len(per_gpu), round_start, RoundStats(0, "r"))

    def test_round_robin_assignment(self):
        scheduler, runtime = self._scheduler(num_streams=2)
        self._round(scheduler, [4, 0], cached=True)
        slots = runtime.gpus[0].streams.slots
        assert slots[0].num_activities == 2
        assert slots[1].num_activities == 2

    def test_per_gpu_counters(self):
        scheduler, runtime = self._scheduler()
        self._round(scheduler, [1, 2], cached=True)
        assert [gpu.kernel_invocations for gpu in runtime.gpus] == [1, 2]

    def test_streamed_copy_precedes_kernel(self):
        scheduler, runtime = self._scheduler()
        self._round(scheduler, [1, 0], copy_bytes=6 * 1024 ** 3,
                    round_start=1.0)
        gpu = runtime.gpus[0]
        copies, kernels = [intervals for _, _, intervals in gpu_lanes(
            runtime.recorder, gpu)[:2]]
        (copy_start, copy_end), = copies
        (kernel_start, kernel_end), = kernels
        assert copy_start == 1.0 < copy_end <= kernel_start < kernel_end

    def test_copies_serialize_on_copy_engine(self):
        scheduler, runtime = self._scheduler(num_streams=4)
        self._round(scheduler, [3, 0], copy_bytes=6 * 1024 ** 3)
        ends = [end for _, end in gpu_lanes(runtime.recorder,
                                            runtime.gpus[0])[0][2]]
        # Each 1 GB-per-second-class copy waits for the previous one.
        assert ends[1] > ends[0]
        assert ends[2] > ends[1]
        assert runtime.gpus[0].copy_engine.num_activities == 3

    def test_cached_dispatch_skips_copy_engine(self):
        scheduler, runtime = self._scheduler()
        self._round(scheduler, [1, 0], cached=True)
        assert runtime.gpus[0].copy_engine.num_activities == 0
        assert runtime.gpus[0].kernel_invocations == 1
