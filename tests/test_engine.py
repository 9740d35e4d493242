"""Engine behaviour tests: equivalences, memory policy, O.O.M., stats.

The key invariant: algorithm *results* are a pure function of the graph
and kernel — strategies, stream counts, GPU counts, caching, storage and
micro-level techniques only change the simulated *timing*.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import (
    BFSKernel,
    GTSEngine,
    PageRankKernel,
    SSSPKernel,
)
from repro.errors import CapacityError, ConfigurationError, OutOfMemoryError
from repro.format import PageFormatConfig, build_database
from repro.graphgen import generate_rmat
from repro.hardware.specs import (
    GPUSpec,
    MachineSpec,
    PCIeSpec,
    SSD_SPEC,
    paper_workstation,
    scaled_workstation,
)
from repro.units import KB, MB


def _levels(db, machine, **kwargs):
    return GTSEngine(db, machine, **kwargs).run(
        BFSKernel(0)).values["level"]


def _ranks(db, machine, **kwargs):
    return GTSEngine(db, machine, **kwargs).run(
        PageRankKernel(iterations=5)).values["rank"]


class TestResultInvariance:
    def test_strategies_agree(self, rmat_db, machine):
        ranks_p = _ranks(rmat_db, machine, strategy="performance")
        ranks_s = _ranks(rmat_db, machine, strategy="scalability")
        assert np.allclose(ranks_p, ranks_s, atol=0)

    def test_stream_counts_agree(self, rmat_db, machine):
        base = _levels(rmat_db, machine, num_streams=1)
        for streams in (2, 8, 32):
            assert np.array_equal(
                base, _levels(rmat_db, machine, num_streams=streams))

    def test_gpu_counts_agree(self, rmat_db):
        results = [
            _ranks(rmat_db, scaled_workstation(num_gpus=n))
            for n in (1, 2, 4)
        ]
        assert np.allclose(results[0], results[1], atol=0)
        assert np.allclose(results[0], results[2], atol=0)

    def test_micro_techniques_agree(self, rmat_db, machine):
        base = _levels(rmat_db, machine, micro_technique="edge")
        for technique in ("vertex", "hybrid"):
            assert np.array_equal(
                base, _levels(rmat_db, machine,
                              micro_technique=technique))

    def test_caching_does_not_change_results(self, rmat_db, machine):
        assert np.array_equal(
            _levels(rmat_db, machine, enable_caching=True),
            _levels(rmat_db, machine, enable_caching=False))

    def test_storage_policy_does_not_change_results(self, rmat_db, machine):
        cold = _ranks(rmat_db, machine,
                      mm_buffer_bytes=2 * rmat_db.config.page_size)
        warm = _ranks(rmat_db, machine)
        assert np.allclose(cold, warm, atol=0)

    def test_runs_are_deterministic(self, rmat_db, machine):
        engine = GTSEngine(rmat_db, machine)
        first = engine.run(PageRankKernel(iterations=3))
        second = engine.run(PageRankKernel(iterations=3))
        assert np.allclose(first.values["rank"], second.values["rank"],
                           atol=0)
        assert first.elapsed_seconds == second.elapsed_seconds


class TestMemoryPolicy:
    def test_small_graph_preloads(self, rmat_db, machine):
        result = GTSEngine(rmat_db, machine).run(BFSKernel(0))
        assert result.notes == "preloaded"
        assert result.storage_bytes_read == 0

    def test_capped_buffer_reads_storage(self, rmat_db, machine):
        result = GTSEngine(
            rmat_db, machine,
            mm_buffer_bytes=2 * rmat_db.config.page_size,
        ).run(PageRankKernel(iterations=2))
        assert result.notes == "cold storage"
        assert result.storage_bytes_read > 0

    def test_no_storage_and_too_big_raises(self, rmat_db):
        machine = MachineSpec(
            gpus=(GPUSpec(),), storages=(),
            main_memory=rmat_db.topology_bytes() // 2)
        with pytest.raises(CapacityError):
            GTSEngine(rmat_db, machine).run(BFSKernel(0))

    def test_no_storage_but_fits_works(self, rmat_db):
        machine = MachineSpec(
            gpus=(GPUSpec(),), storages=(),
            main_memory=4 * rmat_db.topology_bytes())
        result = GTSEngine(rmat_db, machine).run(BFSKernel(0))
        assert result.num_rounds > 0

    def test_storage_capacity_checked(self, rmat_db):
        tiny_ssd = dataclasses.replace(
            SSD_SPEC, capacity=rmat_db.topology_bytes() // 4)
        machine = MachineSpec(
            gpus=(GPUSpec(),), storages=(tiny_ssd,),
            main_memory=rmat_db.topology_bytes() // 2)
        with pytest.raises(CapacityError):
            GTSEngine(rmat_db, machine).run(BFSKernel(0))

    def test_wa_too_big_for_strategy_p(self, rmat_db):
        """Strategy-P replicates WA: a tiny GPU cannot hold it (the
        paper's PageRank-beyond-RMAT30 O.O.M.)."""
        tiny_gpu = GPUSpec(device_memory=rmat_db.num_vertices * 4 // 2)
        machine = MachineSpec(
            gpus=(tiny_gpu, tiny_gpu), storages=(SSD_SPEC,),
            main_memory=1024 * MB)
        with pytest.raises(OutOfMemoryError):
            GTSEngine(rmat_db, machine, strategy="performance").run(
                PageRankKernel(iterations=1))

    def test_strategy_s_splits_wa_and_fits(self, rmat_db):
        """The same machine succeeds under Strategy-S (Section 4.2)."""
        wa_bytes = rmat_db.num_vertices * 4
        gpu = GPUSpec(device_memory=int(wa_bytes * 0.75)
                      + 64 * rmat_db.config.page_size)
        machine = MachineSpec(
            gpus=(gpu, gpu), storages=(SSD_SPEC,), main_memory=1024 * MB)
        result = GTSEngine(rmat_db, machine, strategy="scalability").run(
            PageRankKernel(iterations=1))
        assert result.strategy == "scalability"

    def test_caching_disabled_frees_device_memory(self, rmat_db, machine):
        result = GTSEngine(rmat_db, machine, enable_caching=False).run(
            BFSKernel(0))
        assert result.cache_hits == 0


class TestStatistics:
    def test_pages_streamed_counts_dispatches(self, rmat_db, machine):
        result = GTSEngine(rmat_db, machine).run(
            PageRankKernel(iterations=2))
        # Strategy-P: each page dispatched once per iteration.
        assert result.pages_streamed == 2 * rmat_db.num_pages

    def test_edges_traversed_full_scan(self, rmat_graph, rmat_db, machine):
        result = GTSEngine(rmat_db, machine).run(
            PageRankKernel(iterations=3))
        assert result.edges_traversed == 3 * rmat_graph.num_edges

    def test_round_stats_cover_run(self, rmat_db, machine):
        result = GTSEngine(rmat_db, machine).run(
            PageRankKernel(iterations=4))
        assert len(result.rounds) == 4
        assert result.rounds[-1].end_time == pytest.approx(
            result.elapsed_seconds)
        for earlier, later in zip(result.rounds, result.rounds[1:]):
            assert later.start_time >= earlier.end_time - 1e-12

    def test_mteps_positive(self, rmat_db, machine):
        result = GTSEngine(rmat_db, machine).run(BFSKernel(0))
        assert result.mteps() > 0

    def test_summary_mentions_engine_config(self, rmat_db, machine):
        result = GTSEngine(rmat_db, machine, num_streams=8).run(
            BFSKernel(0))
        summary = result.summary()
        assert "BFS" in summary
        assert "8 stream" in summary

    def test_wall_time_recorded(self, rmat_db, machine):
        result = GTSEngine(rmat_db, machine).run(BFSKernel(0))
        assert result.wall_seconds > 0

    def test_transfer_and_kernel_busy_positive(self, rmat_db, machine):
        result = GTSEngine(rmat_db, machine).run(
            PageRankKernel(iterations=1))
        assert result.transfer_busy_seconds > 0
        assert result.kernel_busy_seconds > 0
        assert result.kernel_stream_seconds > result.kernel_busy_seconds


class TestValidation:
    def test_stream_count_validated(self, rmat_db, machine):
        with pytest.raises(ConfigurationError):
            GTSEngine(rmat_db, machine, num_streams=0)

    def test_strategy_name_validated(self, rmat_db, machine):
        with pytest.raises(ConfigurationError):
            GTSEngine(rmat_db, machine, strategy="warp-speed")

    def test_micro_technique_validated(self, rmat_db, machine):
        with pytest.raises(ConfigurationError):
            GTSEngine(rmat_db, machine, micro_technique="psychic")

    @pytest.mark.parametrize("option", [
        {"cache_policy": "LRU"}, {"cache_bytes": -1},
        {"mm_buffer_bytes": -5}], ids=["policy", "cache", "buffer"])
    def test_cache_and_buffer_options_validated(self, rmat_db, machine,
                                                option):
        """Rejected when the engine is built, before any run sizes a
        device buffer with them."""
        with pytest.raises(ConfigurationError):
            GTSEngine(rmat_db, machine, **option)
