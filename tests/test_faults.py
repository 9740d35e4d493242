"""Unit tests for repro.faults: plans, retry policies, the injector's
deterministic draws, fault-aware storage fetches, and page checksums."""

import json
import os
import zlib

import numpy as np
import pytest

from repro.errors import (ConfigurationError, DeviceLostError, FaultError,
                          GTSError, IntegrityError, RetryExhaustedError,
                          SimulationError)
from repro.faults import (DEFAULT_RETRY_POLICY, FaultInjector, FaultPlan,
                          READ_OK, RetryPolicy)
from repro.format.io import FileBackedDatabase, load_database, save_database
from repro.hardware.storage import StorageArray


class TestRetryPolicy:
    def test_backoff_grows_exponentially_and_caps(self):
        policy = RetryPolicy(max_attempts=5, backoff_seconds=1e-3,
                             multiplier=2.0, max_backoff_seconds=3e-3)
        assert policy.backoff(0) == pytest.approx(1e-3)
        assert policy.backoff(1) == pytest.approx(2e-3)
        assert policy.backoff(2) == pytest.approx(3e-3)  # 4e-3 capped
        assert policy.total_backoff(3) == pytest.approx(6e-3)

    @pytest.mark.parametrize("kwargs", [
        {"max_attempts": 0},
        {"backoff_seconds": -1e-3},
        {"max_backoff_seconds": -1.0},
        {"multiplier": 0.5},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            RetryPolicy(**kwargs)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigurationError, match="jitter"):
            RetryPolicy.from_dict({"max_attempts": 3, "jitter": 0.1})

    def test_dict_round_trip(self):
        policy = RetryPolicy(max_attempts=7, backoff_seconds=2e-4)
        assert RetryPolicy.from_dict(policy.to_dict()) == policy


class TestFaultPlan:
    def test_default_plan_is_inert(self):
        plan = FaultPlan()
        assert not plan.any_rates
        assert not plan.active

    @pytest.mark.parametrize("kwargs", [
        {"ssd_transient_rate": 1.0},
        {"ssd_corrupt_rate": -0.1},
        {"copy_error_rate": 2.0},
        {"stall_rate": 1.5},
        {"stall_seconds": -1.0},
        {"gpu_loss": {-1: 0.5}},
        {"ssd_loss": {0: -0.5}},
        {"host_corrupt_reads": {3: -1}},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            FaultPlan(**kwargs)

    def test_json_string_keys_coerced_to_int(self):
        plan = FaultPlan(gpu_loss={"1": 0.5},
                         host_corrupt_reads={"3": 2})
        assert plan.gpu_loss == {1: 0.5}
        assert plan.host_corrupt_reads == {3: 2}
        assert plan.active and not plan.any_rates

    def test_retry_dict_coerced_to_policy(self):
        plan = FaultPlan(retry={"max_attempts": 6})
        assert isinstance(plan.retry, RetryPolicy)
        assert plan.retry.max_attempts == 6

    def test_with_seed(self):
        plan = FaultPlan(seed=1, stall_rate=0.1)
        other = plan.with_seed(9)
        assert other.seed == 9
        assert other.stall_rate == plan.stall_rate
        assert plan.seed == 1  # original untouched

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigurationError, match="gpu_looss"):
            FaultPlan.from_dict({"gpu_looss": {0: 1.0}})

    def test_from_json_file_round_trip(self, tmp_path):
        path = tmp_path / "plan.json"
        plan = FaultPlan(seed=3, ssd_transient_rate=0.05,
                         gpu_loss={1: 0.25}, retry={"max_attempts": 5})
        path.write_text(json.dumps(plan.to_dict()))
        loaded = FaultPlan.from_json_file(str(path))
        assert loaded == plan

    def test_from_json_file_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            FaultPlan.from_json_file(str(path))
        path.write_text("[1, 2]")
        with pytest.raises(ConfigurationError, match="JSON object"):
            FaultPlan.from_json_file(str(path))


RATED_PLAN = FaultPlan(seed=11, ssd_transient_rate=0.15,
                       ssd_corrupt_rate=0.1, copy_error_rate=0.1,
                       stall_rate=0.2, stall_seconds=5e-4)


class TestFaultInjector:
    def test_seed_override(self):
        injector = FaultInjector(RATED_PLAN, seed=99)
        assert injector.plan.seed == 99
        assert RATED_PLAN.seed == 11

    def test_draws_are_deterministic(self):
        pids = list(range(200))
        outcomes = []
        for _ in range(2):
            injector = FaultInjector(RATED_PLAN)
            injector.begin_round(2)
            outcomes.append([injector.ssd_read_outcome(pid, 0)
                             for pid in pids])
        assert outcomes[0] == outcomes[1]
        assert any(o is not READ_OK for o in outcomes[0])

    def test_seed_changes_the_draws(self):
        pids = list(range(200))
        per_seed = []
        for seed in (0, 1):
            injector = FaultInjector(RATED_PLAN, seed=seed)
            injector.begin_round(0)
            per_seed.append([injector.ssd_read_outcome(pid, 0)
                             for pid in pids])
        assert per_seed[0] != per_seed[1]

    def test_probe_agrees_with_injection_points(self):
        """A clean probe guarantees every per-page draw is clean."""
        plan = FaultPlan(seed=7, ssd_transient_rate=0.01,
                         ssd_corrupt_rate=0.01, copy_error_rate=0.01,
                         stall_rate=0.02)
        pids = np.arange(8)
        assignments = [(int(pid) % 2,) for pid in pids]
        probe = FaultInjector(plan)
        verdicts = {}
        for r in range(40):
            probe.begin_round(r)
            verdicts[r] = probe.round_faulted(pids, assignments)
        assert any(verdicts.values()) and not all(verdicts.values())
        for r, faulted in verdicts.items():
            if faulted:
                continue
            check = FaultInjector(plan)
            check.begin_round(r)
            for pid, gpus in zip(pids, assignments):
                assert check.ssd_read_outcome(int(pid), 0) is READ_OK
                for g in gpus:
                    assert not check.copy_fault(g, int(pid), 0)
                    assert check.stall_seconds(g, int(pid)) == 0.0
            assert check.faults_injected == 0

    def test_empty_round_never_faults(self):
        injector = FaultInjector(RATED_PLAN)
        injector.begin_round(0)
        assert not injector.round_faulted(np.empty(0, dtype=np.int64), [])
        assert not FaultInjector(FaultPlan()).round_faulted([1, 2], [(0,),
                                                                     (0,)])

    def test_device_loss_schedules(self):
        plan = FaultPlan(gpu_loss={1: 0.5}, ssd_loss={0: 0.25})
        injector = FaultInjector(plan)
        assert injector.gpu_losses_by(0.4) == []
        assert injector.gpu_losses_by(0.5) == [1]
        assert injector.ssd_lost(0, 0.1) is None
        assert injector.ssd_lost(0, 0.3) == 0.25
        assert injector.ssd_lost(1, 9.0) is None

    def test_host_read_corruption_budget(self):
        injector = FaultInjector(FaultPlan(host_corrupt_reads={3: 2}))
        assert injector.host_read_corrupt(3)
        assert injector.host_read_corrupt(3)
        assert not injector.host_read_corrupt(3)
        assert not injector.host_read_corrupt(4)
        assert injector.host_corrupt_faults == 2

    def test_stats_snapshot(self):
        injector = FaultInjector(RATED_PLAN)
        injector.note_retry(1e-3)
        injector.note_fallback()
        injector.note_device_lost()
        stats = injector.stats()
        assert stats["seed"] == 11
        assert stats["retries"] == 1
        assert stats["backoff_seconds"] == pytest.approx(1e-3)
        assert stats["fallback_rounds"] == 1
        assert stats["devices_lost"] == 1


def _find_pid(plan, predicate, limit=2000):
    """First page ID whose attempt outcomes satisfy ``predicate``."""
    for pid in range(limit):
        probe = FaultInjector(plan)
        probe.begin_round(0)
        outcomes = [probe.ssd_read_outcome(pid, attempt)
                    for attempt in range(plan.retry.max_attempts
                                         if plan.retry else 4)]
        if predicate(outcomes):
            return pid
    raise AssertionError("no page matched within %d candidates" % limit)


class TestStorageFaults:
    def _array(self, machine):
        return StorageArray(machine.storages)

    def test_negative_fetch_size_rejected(self, machine):
        storage = self._array(machine)
        with pytest.raises(SimulationError, match="negative"):
            storage.fetch(0, -1, 0.0)

    def test_transient_fault_charges_read_plus_backoff(self, machine):
        plan = FaultPlan(seed=5, ssd_transient_rate=0.3,
                         retry={"max_attempts": 4})
        pid = _find_pid(plan, lambda o: o[0] is not READ_OK
                        and o[1] is READ_OK)
        storage = self._array(machine)
        device = storage.device_for_page(pid)
        num_bytes = 2048
        clean_duration = machine.storages[device].read_time(num_bytes)
        injector = FaultInjector(plan)
        injector.begin_round(0)
        storage.fault_injector = injector
        start, end = storage.fetch(pid, num_bytes, 0.0)
        backoff = plan.retry.backoff(0)
        # attempt 0 [0, d], backoff [d, d+b], attempt 1 [d+b, 2d+b]
        assert start == pytest.approx(clean_duration + backoff)
        assert end == pytest.approx(2 * clean_duration + backoff)
        assert storage.fetch_retries[device] == 1
        assert storage.faults_injected[device] == 1
        assert injector.retries == 1
        assert injector.backoff_seconds == pytest.approx(backoff)
        assert storage.pages_fetched == 1

    def test_retry_exhaustion_raises_typed_error(self, machine):
        plan = FaultPlan(seed=2, ssd_transient_rate=0.4,
                         retry={"max_attempts": 2})
        pid = _find_pid(plan,
                        lambda o: all(x is not READ_OK for x in o[:2]))
        storage = self._array(machine)
        injector = FaultInjector(plan)
        injector.begin_round(0)
        storage.fault_injector = injector
        with pytest.raises(RetryExhaustedError) as info:
            storage.fetch(pid, 2048, 0.0)
        error = info.value
        assert isinstance(error, FaultError)
        assert isinstance(error, GTSError)
        assert error.site == "ssd_read"
        assert error.attempts == 2
        assert error.page_id == pid

    def test_unrecoverable_faults_catchable_as_fault_error(self, machine):
        """Callers can catch the whole unrecoverable-fault family with
        one ``except FaultError`` clause."""
        plan = FaultPlan(seed=2, ssd_transient_rate=0.4,
                         retry={"max_attempts": 2})
        pid = _find_pid(plan,
                        lambda o: all(x is not READ_OK for x in o[:2]))
        storage = self._array(machine)
        injector = FaultInjector(plan)
        injector.begin_round(0)
        storage.fault_injector = injector
        with pytest.raises(FaultError):
            storage.fetch(pid, 2048, 0.0)

    def test_dead_ssd_raises_device_lost(self, machine):
        storage = self._array(machine)
        injector = FaultInjector(FaultPlan(ssd_loss={0: 0.5}))
        storage.fault_injector = injector
        # Device 0 still serves reads before its loss time...
        storage.fetch(0, 2048, 0.0)
        # ...and other devices survive it.
        storage.fetch(1, 2048, 1.0)
        with pytest.raises(DeviceLostError) as info:
            storage.fetch(0, 2048, 1.0)
        assert info.value.device == machine.storages[0].name
        assert info.value.lost_at == 0.5

    def test_reset_clears_fault_counters(self, machine):
        storage = self._array(machine)
        storage.fetch_retries[0] = 3
        storage.faults_injected[1] = 2
        storage.bytes_read = 99
        storage.reset()
        assert storage.fetch_retries == [0] * storage.num_devices
        assert storage.faults_injected == [0] * storage.num_devices
        assert storage.bytes_read == 0

    def test_clean_injected_fetch_matches_fault_free(self, machine):
        """With an injector installed but no fault drawn, the booking is
        bit-identical to the fault-free path."""
        plan = FaultPlan(seed=5, ssd_transient_rate=0.01,
                         ssd_corrupt_rate=0.01)
        pid = _find_pid(plan, lambda o: o[0] is READ_OK)
        plain = self._array(machine)
        faulted = self._array(machine)
        injector = FaultInjector(plan)
        injector.begin_round(0)
        faulted.fault_injector = injector
        assert faulted.fetch(pid, 2048, 0.125) == plain.fetch(
            pid, 2048, 0.125)


class TestChecksums:
    def _flip_byte(self, prefix, page_id, page_size, offset=17):
        path = prefix + ".pages"
        with open(path, "r+b") as handle:
            handle.seek(page_id * page_size + offset)
            byte = handle.read(1)
            handle.seek(-1, os.SEEK_CUR)
            handle.write(bytes([byte[0] ^ 0xFF]))

    def test_save_records_per_page_crc32(self, rmat_db, tmp_path):
        prefix = str(tmp_path / "db")
        meta_path, pages_path = save_database(rmat_db, prefix)
        with open(meta_path) as handle:
            metadata = json.load(handle)
        checksums = metadata["page_checksums"]
        assert len(checksums) == rmat_db.num_pages
        for page in rmat_db.pages[:8]:
            assert checksums[page.page_id] == zlib.crc32(page.to_bytes())

    def test_corruption_surfaces_as_integrity_error(self, rmat_db,
                                                    tmp_path):
        prefix = str(tmp_path / "db")
        save_database(rmat_db, prefix)
        victim = rmat_db.num_pages // 2
        self._flip_byte(prefix, victim, rmat_db.config.page_size)
        with pytest.raises(IntegrityError) as info:
            load_database(prefix)
        error = info.value
        assert error.page_id == victim
        assert "page %d" % victim in str(error)
        assert error.expected_crc != error.actual_crc
        assert error.expected_crc is not None

    def test_file_backed_corruption_detected(self, rmat_db, tmp_path):
        prefix = str(tmp_path / "db")
        save_database(rmat_db, prefix)
        self._flip_byte(prefix, 0, rmat_db.config.page_size)
        db = FileBackedDatabase(prefix, pool_pages=8)
        with pytest.raises(IntegrityError) as info:
            db.page(0)
        assert info.value.page_id == 0
        # Undamaged pages still load.
        db.page(1)

    def test_legacy_database_loads_with_a_warning(self, rmat_db,
                                                  tmp_path):
        prefix = str(tmp_path / "db")
        meta_path, _ = save_database(rmat_db, prefix)
        with open(meta_path) as handle:
            metadata = json.load(handle)
        del metadata["page_checksums"]
        with open(meta_path, "w") as handle:
            json.dump(metadata, handle)
        with pytest.warns(UserWarning, match="predates page checksums"):
            legacy = load_database(prefix)
        assert legacy.num_edges == rmat_db.num_edges
        with pytest.warns(UserWarning, match="predates page checksums"):
            lazy = FileBackedDatabase(prefix, pool_pages=8)
        lazy.page(0)
        # ... but corrupting host reads without checksums is refused:
        # silent corruption must never go undetected.
        injector = FaultInjector(FaultPlan(host_corrupt_reads={0: 1}))
        with pytest.raises(ConfigurationError, match="checksums"):
            lazy.attach_fault_injector(injector)

    def test_host_read_corruption_recovered_by_reread(self, rmat_db,
                                                      tmp_path):
        prefix = str(tmp_path / "db")
        save_database(rmat_db, prefix)
        db = FileBackedDatabase(prefix, pool_pages=8)
        injector = FaultInjector(FaultPlan(host_corrupt_reads={2: 1}))
        db.attach_fault_injector(injector)
        page = db.page(2)
        assert page.page_id == 2
        assert db.integrity_retries == 1
        assert injector.host_corrupt_faults == 1
        db.detach_fault_injector()
        assert db.fault_injector is None

    def test_persistent_host_corruption_raises(self, rmat_db, tmp_path):
        prefix = str(tmp_path / "db")
        save_database(rmat_db, prefix)
        db = FileBackedDatabase(prefix, pool_pages=8)
        # Budget beyond the retry allowance: every re-read corrupts too.
        injector = FaultInjector(
            FaultPlan(host_corrupt_reads={2: 50},
                      retry={"max_attempts": 3}))
        db.attach_fault_injector(injector)
        with pytest.raises(IntegrityError) as info:
            db.page(2)
        assert info.value.page_id == 2
        assert db.integrity_retries == 2  # attempts - 1 re-reads

    def test_save_fsyncs_files_and_directory(self, rmat_db, tmp_path,
                                             monkeypatch):
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync",
                            lambda fd: (synced.append(fd),
                                        real_fsync(fd))[1])
        save_database(rmat_db, str(tmp_path / "db"))
        # pages tmp + meta tmp + the parent directory after the renames.
        assert len(synced) >= 3


class TestFaultAccounting:
    """Who books a faulted round, and where host-read corruption fires."""

    @pytest.mark.parametrize("kernel_name", ["pagerank", "bfs", "kcore"])
    def test_host_corruption_fires_in_the_plan_build_only(
            self, rmat_db, machine, tmp_path, kernel_name):
        """A faulted round is booked per call but reads nothing: the
        host reads (and their corruption) happen where the plan is
        built.  Cold plan cache: 3 faults, 3 verified re-reads.  Warm
        shared plan: none, ``faults_injected`` lower by exactly that
        count — everything else, values and simulated time included,
        identical."""
        from repro import core
        make = {"pagerank": lambda: core.PageRankKernel(iterations=3),
                "bfs": lambda: core.BFSKernel(start_vertex=0),
                "kcore": lambda: core.KCoreKernel(k=2)}[kernel_name]
        prefix = str(tmp_path / "db")
        save_database(rmat_db, prefix)
        plan = FaultPlan(ssd_transient_rate=0.02, copy_error_rate=0.01,
                         stall_rate=0.03,
                         host_corrupt_reads={0: 1, 2: 1, 5: 1})
        engine = core.GTSEngine(
            FileBackedDatabase(prefix, pool_pages=16), machine,
            mm_buffer_bytes=64 * 1024, faults=plan, fault_seed=1)
        cold, warm = (engine.run(make()).to_dict(include_values=True)
                      for _ in range(2))
        stats, warm_stats = cold["fault_stats"], warm["fault_stats"]
        assert stats["host_corrupt_faults"] == 3
        assert stats["integrity_retries"] == 3
        assert stats["fallback_rounds"] > 0
        assert stats == dict(
            warm_stats, host_corrupt_faults=3, integrity_retries=3,
            faults_injected=warm_stats["faults_injected"] + 3)
        assert warm["elapsed_seconds"] == cold["elapsed_seconds"]
        assert warm["values"] == cold["values"]

    def test_fallback_rounds_count_every_kernel(self, rmat_db, machine):
        """``fallback_rounds`` is "rounds booked per call because a
        fault fires in them" for every kernel, the incremental relaxers
        included, and equals the ``fallback`` instants of the trace."""
        from repro.core import BFSKernel, GTSEngine
        from repro.dynamic import (DynamicGraphDatabase, UpdateBatch,
                                   incremental_bfs)
        db = DynamicGraphDatabase(rmat_db)
        prior = GTSEngine(db, machine).run(BFSKernel(0)).values["level"]
        batch = UpdateBatch()
        for v in range(0, 200, 7):
            batch.insert_edge(0, v)
        db.apply(batch)
        result = GTSEngine(
            db, machine, tracing=True, fault_seed=2,
            faults=FaultPlan(stall_rate=0.2, stall_seconds=1e-4)).run(
                incremental_bfs(db, prior, [batch]))
        fallbacks = result.fault_stats["fallback_rounds"]
        assert 0 < fallbacks <= result.num_rounds
        assert result.trace.counts()["fallback"] == fallbacks
        assert result.fault_stats["stream_stalls"] > 0
