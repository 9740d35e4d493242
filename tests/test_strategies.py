"""Tests for Strategy-P / Strategy-S page assignment and synchronisation."""

import numpy as np
import pytest

from repro.core.strategies import (
    PerformanceStrategy,
    ScalabilityStrategy,
    make_strategy,
)
from repro.errors import ConfigurationError
from repro.hardware.machine import MachineRuntime
from repro.hardware.specs import paper_workstation
from repro.units import MB


def _runtime():
    return MachineRuntime(paper_workstation(), page_bytes=1 * MB)


class TestAssignment:
    def test_performance_partitions_pages(self):
        strategy = PerformanceStrategy()
        assert strategy.assign(0, 2) == (0,)
        assert strategy.assign(1, 2) == (1,)
        assert strategy.assign(2, 2) == (0,)

    def test_performance_balances_load(self):
        strategy = PerformanceStrategy()
        counts = [0, 0, 0]
        for pid in range(99):
            counts[strategy.assign(pid, 3)[0]] += 1
        assert counts == [33, 33, 33]

    def test_scalability_replicates_pages(self):
        strategy = ScalabilityStrategy()
        assert strategy.assign(5, 3) == (0, 1, 2)


    @pytest.mark.parametrize("strategy", [PerformanceStrategy(),
                                          ScalabilityStrategy()])
    @pytest.mark.parametrize("num_gpus", [1, 2, 3])
    def test_assign_batch_is_assign_per_page(self, strategy, num_gpus):
        """The vectorized round assignment is the per-page ``h(j)``,
        tuple for tuple, for arrays and lists alike."""
        page_ids = np.asarray([7, 0, 3, 3, 12, 5], dtype=np.int64)
        want = [strategy.assign(int(pid), num_gpus) for pid in page_ids]
        assert strategy.assign_batch(page_ids, num_gpus) == want
        assert strategy.assign_batch(page_ids.tolist(), num_gpus) == want
        assert strategy.assign_batch(page_ids[:0], num_gpus) == []


class TestWASizing:
    def test_performance_replicates_wa(self):
        assert PerformanceStrategy().wa_gpu_bytes(100, 4) == 100

    def test_scalability_partitions_wa(self):
        assert ScalabilityStrategy().wa_gpu_bytes(100, 4) == 25

    def test_scalability_rounds_up(self):
        assert ScalabilityStrategy().wa_gpu_bytes(10, 3) == 4


class TestBroadcast:
    def test_performance_broadcast_is_concurrent(self):
        runtime = _runtime()
        ready = PerformanceStrategy().book_wa_broadcast(runtime, 16 * MB)
        assert len(ready) == 2
        assert ready[0] == pytest.approx(ready[1])

    def test_scalability_broadcast_moves_chunks(self):
        runtime = _runtime()
        full = PerformanceStrategy().book_wa_broadcast(
            _runtime(), 16 * MB)[0]
        chunk = ScalabilityStrategy().book_wa_broadcast(
            runtime, 16 * MB)[0]
        assert chunk < full  # half the bytes per GPU


class TestSync:
    def test_performance_sync_uses_p2p_merge(self):
        runtime = _runtime()
        end = PerformanceStrategy().book_sync(
            runtime, 16 * MB, earliest=1.0, sync_full_wa=True)
        # (N-1) p2p copies land on the master GPU's copy engine.
        assert runtime.gpus[0].copy_engine.num_activities == 1
        assert runtime.host_bus.num_activities == 1
        assert end > 1.0

    def test_scalability_sync_serializes_chunks(self):
        runtime = _runtime()
        ScalabilityStrategy().book_sync(
            runtime, 16 * MB, earliest=0.0, sync_full_wa=True)
        assert runtime.host_bus.num_activities == 2

    def test_traversal_sync_is_cheap(self):
        runtime = _runtime()
        full = PerformanceStrategy().book_sync(
            _runtime(), 16 * MB, earliest=0.0, sync_full_wa=True)
        light = PerformanceStrategy().book_sync(
            runtime, 16 * MB, earliest=0.0, sync_full_wa=False)
        assert light < full


class TestFactory:
    def test_names(self):
        assert isinstance(make_strategy("performance"),
                          PerformanceStrategy)
        assert isinstance(make_strategy("scalability"),
                          ScalabilityStrategy)

    def test_short_names(self):
        assert isinstance(make_strategy("P"), PerformanceStrategy)
        assert isinstance(make_strategy("S"), ScalabilityStrategy)

    def test_instance_passthrough(self):
        strategy = PerformanceStrategy()
        assert make_strategy(strategy) is strategy

    def test_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            make_strategy("hyperspeed")
