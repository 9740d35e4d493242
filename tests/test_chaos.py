"""Chaos suite: whole-engine runs under injected faults.

The contract under test is the robustness invariant from the fault
subsystem's design: a run whose faults are all *recoverable* produces
**bit-identical algorithm output** to the fault-free run — faults cost
simulated time, never correctness — and an *unrecoverable* fault raises
a typed error instead of returning wrong answers.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import textwrap
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BFSKernel, GTSEngine, PageRankKernel
from repro.dynamic import (DynamicGraphDatabase, UpdateBatch,
                           open_dynamic_database)
from repro.errors import DeviceLostError
from repro.faults import FaultPlan
from repro.format import build_database
from repro.format.io import FileBackedDatabase, save_database
from repro.graphgen import Graph
from repro.obs import collect_run_metrics
from repro.units import KB

SEEDS = [0, 1, 2]

#: Rates low enough that every fault is survivable under the default
#: retry policy, high enough that every seed injects at least one.
RECOVERABLE = FaultPlan(ssd_transient_rate=0.02, ssd_corrupt_rate=0.01,
                        copy_error_rate=0.01, stall_rate=0.03,
                        stall_seconds=2e-4)


def _run(db, machine, kernel, **kwargs):
    kwargs.setdefault("mm_buffer_bytes", 64 * KB)
    return GTSEngine(db, machine, **kwargs).run(kernel)


def _assert_same_values(faulted, clean):
    assert set(faulted.values) == set(clean.values)
    for key, array in clean.values.items():
        assert np.array_equal(faulted.values[key], array), key


class TestRecoverableFaults:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("make_kernel", [
        lambda: PageRankKernel(iterations=3),
        lambda: BFSKernel(start_vertex=0),
    ], ids=["pagerank", "bfs"])
    def test_bit_identical_results_only_slower(self, rmat_db, machine,
                                               seed, make_kernel):
        clean = _run(rmat_db, machine, make_kernel())
        faulted = _run(rmat_db, machine, make_kernel(),
                       faults=RECOVERABLE, fault_seed=seed)
        _assert_same_values(faulted, clean)
        stats = faulted.fault_stats
        assert stats is not None
        assert stats["seed"] == seed
        assert stats["faults_injected"] > 0
        assert faulted.elapsed_seconds > clean.elapsed_seconds
        assert clean.fault_stats is None

    def test_fault_metrics_reach_the_registry(self, rmat_db, machine):
        result = _run(rmat_db, machine, PageRankKernel(iterations=3),
                      faults=RECOVERABLE, fault_seed=1)
        registry = collect_run_metrics(result)
        stats = result.fault_stats
        assert registry["faults.injected"].value == stats["faults_injected"]
        assert registry["faults.retries"].value == stats["retries"]
        assert (registry["faults.backoff_seconds"].value
                == stats["backoff_seconds"])

    def test_fault_stats_serialize_and_summarize(self, rmat_db, machine):
        result = _run(rmat_db, machine, BFSKernel(start_vertex=0),
                      faults=RECOVERABLE, fault_seed=2)
        payload = result.to_dict()
        assert payload["fault_stats"] == result.fault_stats
        assert "fault(s) injected" in result.summary()


class TestBatchedDegradation:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_faulted_rounds_fall_back_to_paged(self, rmat_db, machine,
                                               seed):
        """Only the *booking* of a faulted round degrades (to the
        per-call loop, where injection and retry live); its compute is
        the same ``process_batch``."""
        clean = _run(rmat_db, machine, PageRankKernel(iterations=3))
        faulted = _run(rmat_db, machine, PageRankKernel(iterations=3),
                       faults=RECOVERABLE, fault_seed=seed, tracing=True)
        _assert_same_values(faulted, clean)
        fallbacks = faulted.fault_stats["fallback_rounds"]
        assert 0 < fallbacks <= faulted.num_rounds
        assert faulted.trace.counts()["fallback"] == fallbacks
        assert faulted.elapsed_seconds > clean.elapsed_seconds


class TestDeviceLoss:
    def test_performance_strategy_survives_a_dead_gpu(self, rmat_db,
                                                      machine):
        clean = _run(rmat_db, machine, PageRankKernel(iterations=3),
                     strategy="performance")
        faulted = _run(rmat_db, machine, PageRankKernel(iterations=3),
                       strategy="performance",
                       faults=FaultPlan(gpu_loss={1: 0.0}))
        _assert_same_values(faulted, clean)
        assert faulted.fault_stats["dead_gpus"] == [1]
        assert faulted.fault_stats["devices_lost"] == 1

    def test_scalability_strategy_cannot_survive_gpu_loss(self, rmat_db,
                                                          machine):
        engine = GTSEngine(rmat_db, machine, strategy="scalability",
                           faults=FaultPlan(gpu_loss={1: 0.0}))
        with pytest.raises(DeviceLostError) as info:
            engine.run(PageRankKernel(iterations=3))
        assert info.value.device == "gpu:1"

    def test_losing_every_gpu_is_fatal(self, rmat_db, machine):
        engine = GTSEngine(rmat_db, machine, strategy="performance",
                           faults=FaultPlan(gpu_loss={0: 0.0, 1: 0.0}))
        with pytest.raises(DeviceLostError):
            engine.run(PageRankKernel(iterations=3))

    def test_ssd_loss_is_fatal(self, rmat_db, machine):
        engine = GTSEngine(rmat_db, machine, mm_buffer_bytes=64 * KB,
                           faults=FaultPlan(ssd_loss={0: 0.0}))
        with pytest.raises(DeviceLostError) as info:
            engine.run(PageRankKernel(iterations=3))
        assert info.value.lost_at == 0.0


class TestHostCorruption:
    def test_corrupt_host_reads_recovered_bit_identically(
            self, rmat_db, machine, tmp_path):
        prefix = str(tmp_path / "db")
        save_database(rmat_db, prefix)
        clean = _run(FileBackedDatabase(prefix), machine,
                     PageRankKernel(iterations=3))
        faulted_db = FileBackedDatabase(prefix)
        plan = FaultPlan(host_corrupt_reads={0: 1, 2: 1})
        faulted = _run(faulted_db, machine, PageRankKernel(iterations=3),
                       faults=plan)
        _assert_same_values(faulted, clean)
        assert faulted.fault_stats["host_corrupt_faults"] == 2
        assert faulted.fault_stats["integrity_retries"] == 2
        # The engine detaches its injector after the run.
        assert faulted_db.fault_injector is None


CRASH_SCRIPT = textwrap.dedent("""\
    import os
    import sys

    from repro.dynamic import compact, open_dynamic_database

    prefix = sys.argv[1]
    db = open_dynamic_database(prefix)

    def exploding_replace(src, dst):
        os._exit(17)  # power cut mid-save: no replace ever lands

    os.replace = exploding_replace
    compact(db, save_prefix=prefix)
    os._exit(0)  # unreachable
""")


class TestCrashConsistency:
    def test_crash_during_compaction_save_recovers_via_wal(
            self, tmp_path, small_config):
        vids = np.arange(5)
        graph = Graph.from_edges(6, vids, vids + 1)
        prefix = str(tmp_path / "crash")
        save_database(build_database(graph, small_config), prefix)
        db = open_dynamic_database(prefix)
        db.apply(UpdateBatch().insert_edge(0, 3))
        db.apply(UpdateBatch().add_vertices(1).insert_edge(6, 0))
        del db

        script = tmp_path / "crash_compact.py"
        script.write_text(CRASH_SCRIPT)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(os.path.dirname(
                os.path.abspath(__file__))), "src"),
             env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
        proc = subprocess.run([sys.executable, str(script), prefix],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 17, proc.stderr

        # The kill landed before any rename: base files and WAL are the
        # pre-compaction ones and the epoch guard replays the log.
        with open(prefix + ".meta.json") as handle:
            assert json.load(handle).get("wal_epoch", 0) == 0
        recovered = open_dynamic_database(prefix)
        assert 3 in recovered.effective_neighbors(0)
        assert list(recovered.effective_neighbors(6)) == [0]
        assert recovered.num_vertices == 7
        recovered.validate()


# ---------------------------------------------------------------------------
# Snapshot-isolated live updates (MVCC) under concurrency and crashes
# ---------------------------------------------------------------------------

CRASH_RECLAIM_SCRIPT = textwrap.dedent("""\
    import os
    import sys

    from repro.dynamic import (UpdateBatch, compact,
                               open_dynamic_database)

    prefix = sys.argv[1]
    db = open_dynamic_database(prefix)
    db.apply(UpdateBatch().insert_edge(0, 3))    # v1
    snap = db.pin()                              # reader pins v1
    db.apply(UpdateBatch().insert_edge(0, 4))    # v2 (head)

    real_replace = os.replace
    landed = []

    def crashing_replace(src, dst):
        real_replace(src, dst)
        landed.append(dst)
        if len(landed) == 2:
            # Both base files landed durably, but the process dies
            # before the WAL reset and before version reclamation —
            # exactly the crash-during-reclaim window, with a live pin.
            if sorted(snap.effective_neighbors(0)) != [1, 3]:
                os._exit(18)  # pinned view corrupted pre-crash
            os._exit(17)

    os.replace = crashing_replace
    compact(db, save_prefix=prefix)
    os._exit(0)  # unreachable
""")


class TestCrashDuringReclaim:
    def test_recovery_serves_post_commit_state_and_fresh_pins(
            self, tmp_path, small_config):
        """Crash after the compacted base lands but before the WAL
        reset/reclamation finishes, while a reader pins an old version.
        Pins are in-memory, so recovery owes the dead process nothing:
        the epoch guard discards the stale WAL, the reopened database
        serves the post-commit (compacted) state, and fresh pins
        isolate correctly against post-recovery commits."""
        vids = np.arange(5)
        graph = Graph.from_edges(6, vids, vids + 1)
        prefix = str(tmp_path / "reclaim")
        save_database(build_database(graph, small_config), prefix)

        script = tmp_path / "crash_reclaim.py"
        script.write_text(CRASH_RECLAIM_SCRIPT)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(os.path.dirname(
                os.path.abspath(__file__))), "src"),
             env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
        proc = subprocess.run([sys.executable, str(script), prefix],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 17, proc.stderr

        # The compacted base (epoch 1) is durable; the stale epoch-0
        # WAL must be discarded, not replayed over it.
        with open(prefix + ".meta.json") as handle:
            assert json.load(handle).get("wal_epoch", 0) == 1
        recovered = open_dynamic_database(prefix)
        assert sorted(recovered.effective_neighbors(0)) == [1, 3, 4]
        assert recovered.topology_version == 0
        assert recovered.mvcc_stats()["pinned_snapshots"] == 0

        # Post-recovery MVCC still isolates: a fresh pin survives a
        # fresh commit untouched.
        snap = recovered.pin()
        recovered.apply(UpdateBatch().insert_edge(0, 5))
        assert sorted(snap.effective_neighbors(0)) == [1, 3, 4]
        assert 5 in recovered.effective_neighbors(0)
        snap.release()
        recovered.validate()


#: Vertices in the property-test line graph (kept tiny: each hypothesis
#: example spins up a live service and replays references serially).
_PROP_V = 8


@st.composite
def _live_update_plan(draw):
    """Batches + reader mix + writer pacing for one interleaving.

    Batches stay valid under serial replay by construction: deletes
    only target initial line edges not yet deleted, inserts may
    reference vertices added by *earlier* ops (the apply path processes
    ops in order).
    """
    num_batches = draw(st.integers(1, 3))
    remaining = [(i, i + 1) for i in range(_PROP_V - 1)]
    extra = 0
    batches = []
    for _ in range(num_batches):
        batch = UpdateBatch()
        for _ in range(draw(st.integers(1, 4))):
            kind = draw(st.sampled_from(
                ("ins", "ins", "ins", "del", "vtx")))
            if kind == "del" and remaining:
                index = draw(st.integers(0, len(remaining) - 1))
                u, v = remaining.pop(index)
                batch.delete_edge(u, v)
            elif kind == "vtx":
                batch.add_vertices(1)
                extra += 1
            else:
                total = _PROP_V + extra
                u = draw(st.integers(0, total - 1))
                v = draw(st.integers(0, total - 1))
                if u == v:
                    v = (v + 1) % total
                batch.insert_edge(u, v)
        batches.append(batch)
    readers = draw(st.lists(
        st.tuples(st.sampled_from(("bfs", "pagerank")),
                  st.booleans(),          # inject recoverable faults?
                  st.integers(0, 3)),     # fault seed
        min_size=1, max_size=3))
    delays = draw(st.lists(st.sampled_from((0.0, 0.001, 0.005)),
                           min_size=num_batches, max_size=num_batches))
    return batches, readers, delays


def _reference_at(graph, config, batches, version, cache):
    """The serial-replay database at ``version`` (memoised)."""
    if version not in cache:
        db = DynamicGraphDatabase(build_database(graph, config))
        for batch in batches[:version]:
            db.apply(batch)
        cache[version] = db
    return cache[version]


def _kernel_for(algorithm):
    return (BFSKernel(0) if algorithm == "bfs"
            else PageRankKernel(iterations=2))


class TestConcurrentMutationProperty:
    """The MVCC serializability property: under ANY interleaving of
    concurrent queries and update batches — including fault-injecting
    queries and WAL crash replay — every query's result is bit-identical
    to a serial run against the topology at its pinned version."""

    @settings(max_examples=8, deadline=None)
    @given(plan=_live_update_plan())
    def test_any_interleaving_matches_serial_replay(self, plan,
                                                    small_config,
                                                    machine):
        from repro.service import GraphService
        batches, readers, delays = plan
        vids = np.arange(_PROP_V - 1)
        graph = Graph.from_edges(_PROP_V, vids, vids + 1)
        tmpdir = tempfile.mkdtemp(prefix="gts-live-")
        try:
            prefix = os.path.join(tmpdir, "g")
            save_database(build_database(graph, small_config), prefix)
            service = GraphService(max_in_flight=4)
            service.add_database("g", prefix=prefix)
            results, errors = [], []

            def run_reader(algorithm, faulted, seed):
                try:
                    kwargs = {"params": {"start": 0,
                                         "iterations": 2}}
                    if faulted:
                        kwargs["faults"] = RECOVERABLE
                        kwargs["fault_seed"] = seed
                    results.append(
                        (service.query("g", algorithm, **kwargs),
                         algorithm, faulted))
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=run_reader, args=spec)
                       for spec in readers]
            for thread in threads:
                thread.start()
            import time as _t
            for batch, delay in zip(batches, delays):
                if delay:
                    _t.sleep(delay)
                service.update("g", batch)
            for thread in threads:
                thread.join(timeout=120)
            assert not errors, errors
            service.remove_database("g")
            service.drain()

            # Per-query: bit-identical to a serial run at the version
            # the query pinned.  Faulted (exclusive) queries recover to
            # identical *values*; they book extra simulated time.
            reference_dbs = {}
            for result, algorithm, faulted in results:
                version = result.snapshot_version
                assert 0 <= version <= len(batches)
                ref_db = _reference_at(graph, small_config, batches,
                                       version, reference_dbs)
                expected = GTSEngine(ref_db, machine).run(
                    _kernel_for(algorithm))
                for key in expected.values:
                    np.testing.assert_array_equal(
                        result.values[key], expected.values[key],
                        err_msg="%s@v%d" % (algorithm, version))
                if not faulted:
                    assert (result.elapsed_seconds
                            == expected.elapsed_seconds), \
                        "%s@v%d" % (algorithm, version)

            # Crash replay: a fresh open recovers the full batch
            # sequence from the WAL and matches the serial replay.
            final = _reference_at(graph, small_config, batches,
                                  len(batches), reference_dbs)
            recovered = open_dynamic_database(prefix)
            assert recovered.num_vertices == final.num_vertices
            assert recovered.num_edges == final.num_edges
            for vid in range(recovered.num_vertices):
                np.testing.assert_array_equal(
                    np.sort(recovered.effective_neighbors(vid)),
                    np.sort(final.effective_neighbors(vid)),
                    err_msg="vertex %d" % vid)
            recovered.validate()
        finally:
            shutil.rmtree(tmpdir, ignore_errors=True)
