"""Tests for the DES invariant auditor."""

import pytest

from repro.core import BFSKernel, GTSEngine, PageRankKernel, SSSPKernel
from repro.errors import SimulationError
from repro.hardware.machine import MachineRuntime
from repro.hardware.specs import paper_workstation
from repro.hardware.validation import (
    check_gpu,
    check_resource,
    check_runtime,
)
from repro.hardware.clock import Resource
from repro.obs.events import TraceRecorder
from repro.units import MB

from .reference_booking import book_kernel


class TestCheckResource:
    def test_valid_schedule_passes(self):
        resource = Resource("r")
        intervals = [resource.book(0.0, 1.0), resource.book(5.0, 2.0)]
        assert check_resource(resource, intervals) == 2

    def test_untraced_resource_rejected(self):
        with pytest.raises(SimulationError):
            check_resource(Resource("r"), None)

    def test_overlap_detected(self):
        resource = Resource("r")
        resource.busy_time = 4.0
        with pytest.raises(SimulationError, match="overlap"):
            check_resource(resource, [(0.0, 2.0), (1.0, 3.0)])

    def test_negative_start_detected(self):
        resource = Resource("r")
        resource.busy_time = 2.0
        with pytest.raises(SimulationError, match="before time zero"):
            check_resource(resource, [(-1.0, 1.0)])

    def test_accounting_mismatch_detected(self):
        resource = Resource("r")
        resource.busy_time = 99.0
        with pytest.raises(SimulationError, match="busy_time"):
            check_resource(resource, [(0.0, 1.0)])

    def test_horizon_enforced(self):
        resource = Resource("r")
        intervals = [resource.book(0.0, 10.0)]
        with pytest.raises(SimulationError, match="after the clock"):
            check_resource(resource, intervals, horizon=5.0)


class TestCheckGPU:
    def test_real_bookings_pass(self):
        runtime = MachineRuntime(paper_workstation(), num_streams=4,
                                 page_bytes=1 * MB,
                                 recorder=TraceRecorder())
        gpu = runtime.gpus[0]
        for i in range(8):
            slot = gpu.streams.slots[i % 4]
            book_kernel(gpu, slot, 0.0, 1e8, 24.0, runtime.recorder)
        assert check_gpu(gpu, runtime.recorder) == 8


class TestEngineValidation:
    def test_engine_runs_validate_clean(self, rmat_db, machine):
        engine = GTSEngine(rmat_db, machine, validate_simulation=True)
        for kernel in (BFSKernel(0), PageRankKernel(iterations=3)):
            result = engine.run(kernel)
            assert result.elapsed_seconds > 0

    def test_validation_covers_storage_runs(self, rmat_db, machine):
        engine = GTSEngine(
            rmat_db, machine, validate_simulation=True,
            mm_buffer_bytes=4 * rmat_db.config.page_size)
        result = engine.run(PageRankKernel(iterations=2))
        assert result.storage_bytes_read > 0

    def test_validation_covers_both_strategies(self, weighted_db,
                                               machine):
        for strategy in ("performance", "scalability"):
            engine = GTSEngine(weighted_db, machine, strategy=strategy,
                               validate_simulation=True)
            engine.run(SSSPKernel(0))

    def test_untraced_runtime_rejected(self):
        runtime = MachineRuntime(paper_workstation(), page_bytes=1 * MB)
        with pytest.raises(SimulationError):
            check_runtime(runtime)
