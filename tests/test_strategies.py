"""Tests for Strategy-P / Strategy-S page assignment and synchronisation."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        per_gpu = PerformanceStrategy().assign_batch([0, 1, 2], 2)
        assert [seq.tolist() for seq in per_gpu] == [[0, 2], [1]]

    def test_performance_balances_load(self):
        per_gpu = PerformanceStrategy().assign_batch(range(99), 3)
        assert [len(seq) for seq in per_gpu] == [33, 33, 33]

    def test_scalability_replicates_pages(self):
        per_gpu = ScalabilityStrategy().assign_batch([5], 3)
        assert [seq.tolist() for seq in per_gpu] == [[0], [0], [0]]

    @pytest.mark.parametrize("strategy", [PerformanceStrategy(),
                                          ScalabilityStrategy()])
    @pytest.mark.parametrize("num_gpus", [1, 2, 3])
    @settings(max_examples=40, deadline=None)
    @given(page_ids=st.lists(st.integers(0, 500), unique=True))
    def test_assign_batch_is_assign_per_page(self, strategy, num_gpus,
                                             page_ids):
        """Each GPU's ascending positions are exactly the pages whose
        per-page ``h(j)`` names it: ``j mod N`` for Strategy-P, under
        every set of dead GPUs a dead GPU ``g``'s pages going to
        survivor ``g mod |survivors|``, and every GPU for Strategy-S
        (which a GPU loss ends, so it is given no dead ones); arrays and
        lists alike."""
        dead_sets = [()]
        if strategy.wa_replicated:
            dead_sets = [dead for size in range(num_gpus)
                         for dead in combinations(range(num_gpus), size)]
        for dead in dead_sets:
            survivors = [g for g in range(num_gpus) if g not in dead]
            want = [tuple(range(num_gpus)) if not strategy.wa_replicated
                    else (survivors[pid % num_gpus % len(survivors)]
                          if pid % num_gpus in dead else pid % num_gpus,)
                    for pid in page_ids]
            for ids in (np.asarray(page_ids, dtype=np.int64), page_ids):
                per_gpu = strategy.assign_batch(ids, num_gpus, set(dead))
                assert len(per_gpu) == num_gpus
                for seq in per_gpu:
                    assert seq.dtype == np.int64
                    assert (np.diff(seq) > 0).all()
                assert [tuple(g for g, seq in enumerate(per_gpu)
                              if j in seq)
                        for j in range(len(page_ids))] == want


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
