"""Tests for the cost-based configuration optimizer (Section 5)."""

import pytest

from repro.core import BFSKernel, GTSEngine, PageRankKernel
from repro.core.optimizer import (
    ConfigurationChoice,
    estimate_elapsed,
    recommend_configuration,
)
from repro.errors import CapacityError
from repro.hardware.specs import (
    GPUSpec,
    MachineSpec,
    SSD_SPEC,
    scaled_workstation,
)
from repro.units import MB


class TestEstimates:
    def test_more_streams_never_slower(self, rmat_db, machine):
        times = [estimate_elapsed(rmat_db, machine, PageRankKernel(),
                                  "performance", k)
                 for k in (1, 2, 4, 8, 16, 32)]
        for earlier, later in zip(times, times[1:]):
            assert later <= earlier + 1e-12

    def test_performance_beats_scalability(self, rmat_db, machine):
        p = estimate_elapsed(rmat_db, machine, PageRankKernel(),
                             "performance", 16)
        s = estimate_elapsed(rmat_db, machine, PageRankKernel(),
                             "scalability", 16)
        assert p < s

    def test_rounds_scale_linearly(self, rmat_db, machine):
        one = estimate_elapsed(rmat_db, machine, PageRankKernel(),
                               "performance", 16, rounds=1)
        ten = estimate_elapsed(rmat_db, machine, PageRankKernel(),
                               "performance", 16, rounds=10)
        assert ten == pytest.approx(10 * one, rel=0.15)

    def test_estimate_within_factor_of_engine(self, rmat_db, machine):
        """The analytic estimate should land within 4x of the DES for a
        full-scan workload (same bandwidth arithmetic, coarser pipeline
        model)."""
        estimate = estimate_elapsed(rmat_db, machine, PageRankKernel(),
                                    "performance", 32, rounds=5)
        measured = GTSEngine(rmat_db, machine, num_streams=32,
                             enable_caching=False).run(
            PageRankKernel(iterations=5)).elapsed_seconds
        assert estimate / 4 < measured < estimate * 4


class TestRecommendation:
    def test_matches_brute_force_winner(self, rmat_db, machine):
        recommendation = recommend_configuration(
            rmat_db, machine, PageRankKernel(), rounds=5)
        best = recommendation.best
        # Measure the recommended configuration and a deliberately bad
        # one; the recommendation must win.
        good = GTSEngine(rmat_db, machine, strategy=best.strategy,
                         num_streams=best.num_streams).run(
            PageRankKernel(iterations=5)).elapsed_seconds
        bad = GTSEngine(rmat_db, machine, strategy="scalability",
                        num_streams=1).run(
            PageRankKernel(iterations=5)).elapsed_seconds
        assert good < bad

    def test_prefers_strategy_p_when_wa_fits(self, rmat_db, machine):
        recommendation = recommend_configuration(
            rmat_db, machine, PageRankKernel())
        assert recommendation.best.strategy == "performance"

    def test_falls_back_to_strategy_s_when_wa_too_big(self, rmat_db):
        kernel = PageRankKernel()
        wa = kernel.wa_bytes(rmat_db.num_vertices)
        # Device memory sized so the full WA plus the single-stream
        # buffers overflow, but half the WA (Strategy-S on 2 GPUs) fits.
        max_records = int(rmat_db.directory.num_records.max())
        buffers = (max_records * kernel.ra_bytes_per_vertex
                   + 2 * rmat_db.config.page_size)
        gpu = GPUSpec(device_memory=wa // 2 + buffers + 64)
        machine = MachineSpec(gpus=(gpu, gpu), storages=(SSD_SPEC,),
                              main_memory=64 * MB)
        recommendation = recommend_configuration(
            rmat_db, machine, kernel, stream_choices=(1,))
        assert recommendation.best.strategy == "scalability"
        assert any(not c.feasible for c in recommendation.candidates
                   if c.strategy == "performance")

    def test_raises_when_nothing_fits(self, rmat_db):
        gpu = GPUSpec(device_memory=4 * rmat_db.config.page_size)
        machine = MachineSpec(gpus=(gpu,), storages=(SSD_SPEC,),
                              main_memory=64 * MB)
        with pytest.raises(CapacityError):
            recommend_configuration(rmat_db, machine, PageRankKernel(),
                                    stream_choices=(8, 16))

    def test_describe_lists_all_candidates(self, rmat_db, machine):
        recommendation = recommend_configuration(
            rmat_db, machine, BFSKernel(0), stream_choices=(1, 32))
        text = recommendation.describe()
        assert "recommendation" in text
        assert text.count("performance") == 2
        assert text.count("scalability") == 2

    def test_candidates_cover_the_grid(self, rmat_db, machine):
        recommendation = recommend_configuration(
            rmat_db, machine, BFSKernel(0), stream_choices=(2, 4))
        assert len(recommendation.candidates) == 4
        assert all(isinstance(c, ConfigurationChoice)
                   for c in recommendation.candidates)
