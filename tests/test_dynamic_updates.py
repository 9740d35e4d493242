"""The live overlay, crash recovery, compaction, and one property:
every retained version's spliced topology arrays equal an independent
per-vertex model (``overlay_model.py``), and a base database plus
``repro.dynamic`` batches must be indistinguishable (to every kernel)
from building the final graph from scratch."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.dynamic
from repro.core import BFSKernel, GTSEngine, PageRankKernel, WCCKernel
from repro.core.plan import ReduceIndex, RoundBatch
from repro.dynamic import (
    DynamicGraphDatabase,
    Snapshot,
    UpdateBatch,
    WriteAheadLog,
    compact,
    maybe_compact,
    materialise_graph,
    open_dynamic_database,
)
from repro.dynamic.edgelog import ext_capacity
from repro.errors import UpdateError
from repro.format import PageFormatConfig, build_database
from repro.format.io import save_database
from repro.graphgen import Graph, generate_rmat
from repro.hardware.specs import scaled_workstation

from .overlay_model import OverlayModel


def _line_db(small_config, num_vertices=6):
    vids = np.arange(num_vertices - 1)
    graph = Graph.from_edges(num_vertices, vids, vids + 1)
    return build_database(graph, small_config)


def _run_all(db, machine):
    engine = GTSEngine(db, machine)
    bfs = engine.run(BFSKernel(start_vertex=0))
    pr = engine.run(PageRankKernel(iterations=5))
    wcc = engine.run(WCCKernel())
    return bfs.values["level"], pr.values["rank"], wcc.values["component"]


class TestOverlaySemantics:
    def test_delete_missing_edge_rejected_before_wal(self, small_config, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "log.wal"))
        db = DynamicGraphDatabase(_line_db(small_config), wal=wal)
        with pytest.raises(UpdateError):
            db.apply(UpdateBatch().delete_edge(0, 5))
        # The failed batch must not reach the log.
        assert wal.records_appended == 0
        assert db.applied_batches == 0

    def test_endpoint_out_of_range_rejected(self, small_config):
        db = DynamicGraphDatabase(_line_db(small_config))
        with pytest.raises(UpdateError):
            db.apply(UpdateBatch().insert_edge(0, 6))
        with pytest.raises(UpdateError):
            db.apply(UpdateBatch().insert_edge(17, 0))

    def test_bulk_vertex_add_spans_pages(self, small_config):
        db = DynamicGraphDatabase(_line_db(small_config))
        capacity = ext_capacity(db.config)
        count = capacity * 3 + 1
        db.apply(UpdateBatch().add_vertices(count))
        assert db.num_vertices == 6 + count
        assert db.num_extension_pages == 4
        # Every new vertex resolves through vertex_page/RVT.
        for vid in (6, 6 + capacity, 6 + count - 1):
            pid = db.page_for_vertex(vid)
            start = db.directory.start_vid[pid]
            assert start <= vid < start + db.directory.num_records[pid]
        assert len(db.effective_neighbors(6 + count - 1)) == 0
        db.apply(UpdateBatch().insert_edge(6 + count - 1, 0))
        assert 0 in db.effective_neighbors(6 + count - 1)
        db.validate()

    def test_topology_version_bumps(self, small_config):
        db = DynamicGraphDatabase(_line_db(small_config))
        v0 = db.topology_version
        db.apply(UpdateBatch().insert_edge(0, 2))
        assert db.topology_version == v0 + 1
        db.apply(UpdateBatch().delete_edge(0, 2))
        assert db.topology_version == v0 + 2

    def test_dynamic_stats_shape(self, small_config):
        db = DynamicGraphDatabase(_line_db(small_config))
        db.apply(UpdateBatch().insert_edge(0, 2).delete_edge(1, 2)
                 .add_vertices(1))
        stats = db.dynamic_stats()
        assert stats["applied_batches"] == 1
        assert stats["inserted_edges"] == 1
        assert stats["deleted_edges"] == 1
        assert stats["added_vertices"] == 1
        assert stats["delta_bytes"] > 0
        assert stats["delta_pages"] >= 1


def test_the_overlay_builds_no_page():
    """Commits and splices work in arrays: no module of
    ``repro.dynamic`` names a page class or reads the base store's page
    pool."""
    root = os.path.dirname(repro.dynamic.__file__)
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name)) as handle:
                text = handle.read()
            for needle in ("SmallPage", "LargePage", "_base.page(",
                           "_base.prefetch("):
                assert needle not in text, (name, needle)


class TestEngineIntegration:
    def test_engine_reindexes_after_mutation(self, rmat_db, machine):
        """One engine observes results from both before and after apply."""
        db = DynamicGraphDatabase(rmat_db)
        engine = GTSEngine(db, machine)
        before = engine.run(WCCKernel()).values["component"]
        # Bridge two different components if any exist, else add a vertex.
        labels = np.unique(before)
        if len(labels) > 1:
            a = int(np.flatnonzero(before == labels[0])[0])
            b = int(np.flatnonzero(before == labels[1])[0])
            db.apply(UpdateBatch().insert_edge(a, b).insert_edge(b, a))
        else:
            db.apply(UpdateBatch().add_vertices(1))
        after = engine.run(WCCKernel()).values["component"]
        assert len(after) == db.num_vertices
        if len(labels) > 1:
            assert after[a] == after[b]


class TestCrashRecovery:
    def _saved_prefix(self, tmp_path, small_config):
        db = _line_db(small_config)
        prefix = str(tmp_path / "crash")
        save_database(db, prefix)
        return prefix

    def test_reopen_replays_wal(self, tmp_path, small_config):
        prefix = self._saved_prefix(tmp_path, small_config)
        db = open_dynamic_database(prefix)
        db.apply(UpdateBatch().insert_edge(0, 3))
        db.apply(UpdateBatch().add_vertices(1).insert_edge(6, 0))
        del db  # "crash": nothing but base files + WAL survive

        db2 = open_dynamic_database(prefix)
        assert 3 in db2.effective_neighbors(0)
        assert list(db2.effective_neighbors(6)) == [0]
        assert db2.num_vertices == 7
        db2.validate()

    def test_reopen_after_torn_tail(self, tmp_path, small_config):
        prefix = self._saved_prefix(tmp_path, small_config)
        db = open_dynamic_database(prefix)
        db.apply(UpdateBatch().insert_edge(0, 2))
        db.apply(UpdateBatch().insert_edge(0, 3))
        wal_path = prefix + ".wal"
        with open(wal_path, "r+b") as handle:
            handle.truncate(os.path.getsize(wal_path) - 3)

        db2 = open_dynamic_database(prefix)
        # First batch survives; the torn second one is truncated away.
        assert 2 in db2.effective_neighbors(0)
        assert 3 not in db2.effective_neighbors(0)
        # The repaired log keeps accepting work.
        db2.apply(UpdateBatch().insert_edge(0, 4))
        db3 = open_dynamic_database(prefix)
        assert 4 in db3.effective_neighbors(0)
        db3.validate()

    def test_crash_between_base_save_and_wal_reset(self, tmp_path,
                                                   small_config):
        """The compacted base reaches disk but the WAL reset does not:
        the stale log must be discarded, never replayed (its inserts
        would duplicate and its deletes would fail on the folded base).
        """
        prefix = self._saved_prefix(tmp_path, small_config)
        db = open_dynamic_database(prefix)
        db.apply(UpdateBatch().insert_edge(0, 3))
        db.apply(UpdateBatch().delete_edge(0, 1))
        new_base = build_database(materialise_graph(db), small_config)
        save_database(new_base, prefix, wal_epoch=db.base_epoch + 1)
        del db  # crash before wal.reset()

        reopened = open_dynamic_database(prefix)
        assert list(reopened.effective_neighbors(0)) == [3]
        assert reopened.num_edges == 5
        assert reopened.base_epoch == 1
        reopened.validate()
        # The discarded log was reset to the base's epoch; new batches
        # log and replay normally.
        reopened.apply(UpdateBatch().insert_edge(0, 4))
        again = open_dynamic_database(prefix)
        assert 4 in again.effective_neighbors(0)
        again.validate()

    def test_wal_ahead_of_base_is_rejected(self, tmp_path, small_config):
        prefix = self._saved_prefix(tmp_path, small_config)
        WriteAheadLog(prefix + ".wal", epoch=3)
        from repro.errors import WALError
        with pytest.raises(WALError, match="ahead of base epoch"):
            open_dynamic_database(prefix)

    def test_atomic_save_leaves_no_temp_files(self, tmp_path, small_config):
        db = _line_db(small_config)
        prefix = str(tmp_path / "atomic")
        save_database(db, prefix)
        leftovers = [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
        assert leftovers == []


class TestCompaction:
    def test_compact_folds_deltas(self, rmat_db, small_config, machine):
        db = DynamicGraphDatabase(rmat_db)
        rng = np.random.default_rng(3)
        n = db.num_vertices
        batch = UpdateBatch()
        for _ in range(25):
            batch.insert_edge(int(rng.integers(n)), int(rng.integers(n)))
        db.apply(batch)
        before_bfs, before_pr, before_wcc = _run_all(db, machine)

        report = compact(db)
        assert report.folded_bytes > 0
        assert db.num_delta_pages == 0
        assert db.num_extension_pages == 0
        assert db.dynamic_stats()["compactions"] == 1

        after_bfs, after_pr, after_wcc = _run_all(db, machine)
        np.testing.assert_array_equal(before_bfs, after_bfs)
        np.testing.assert_allclose(before_pr, after_pr, rtol=1e-10)
        np.testing.assert_array_equal(before_wcc, after_wcc)
        db.validate()

    def test_compact_persists_and_resets_wal(self, tmp_path, small_config):
        db = _line_db(small_config)
        prefix = str(tmp_path / "cmp")
        save_database(db, prefix)
        dyn = open_dynamic_database(prefix)
        dyn.apply(UpdateBatch().insert_edge(0, 3))
        report = compact(dyn, save_prefix=prefix)
        assert report.saved_prefix == prefix
        assert WriteAheadLog(prefix + ".wal").replay().num_batches == 0

        reopened = open_dynamic_database(prefix)
        assert 3 in reopened.effective_neighbors(0)
        assert reopened.num_delta_pages == 0
        reopened.validate()

    def test_compact_writes_what_a_fresh_build_saves(self, tmp_path,
                                                    weighted_db):
        """Compaction inherits ``save_database``'s write path: its files
        are byte for byte a save of a from-scratch build of the
        effective graph at the bumped epoch."""
        prefix = str(tmp_path / "live")
        save_database(weighted_db, prefix)
        dyn = open_dynamic_database(prefix)
        rng = np.random.default_rng(5)
        batch = UpdateBatch()
        for u, v in rng.integers(0, dyn.num_vertices, (40, 2)).tolist():
            batch.insert_edge(u, v, 0.5)
        dyn.apply(batch)
        graph = materialise_graph(dyn)
        compact(dyn, save_prefix=prefix)

        fresh = str(tmp_path / "fresh")
        save_database(build_database(graph, dyn.config, name=dyn.name),
                      fresh, wal_epoch=1)
        for extension in (".pages", ".meta.json"):
            with open(prefix + extension, "rb") as got, \
                    open(fresh + extension, "rb") as want:
                assert got.read() == want.read()

    def test_compact_bumps_epoch_in_base_and_wal(self, tmp_path,
                                                 small_config):
        db = _line_db(small_config)
        prefix = str(tmp_path / "epoch")
        save_database(db, prefix)
        dyn = open_dynamic_database(prefix)
        assert dyn.base_epoch == 0
        dyn.apply(UpdateBatch().insert_edge(0, 3))
        compact(dyn, save_prefix=prefix)
        assert dyn.base_epoch == 1
        assert WriteAheadLog(prefix + ".wal").epoch == 1

        reopened = open_dynamic_database(prefix)
        assert reopened.base_epoch == 1
        compact(reopened, save_prefix=prefix)
        assert open_dynamic_database(prefix).base_epoch == 2

    def test_inmemory_compact_keeps_wal(self, tmp_path, small_config):
        """Without a save_prefix the on-disk base never changes, so the
        WAL must keep its records — they are the only durable copy."""
        db = _line_db(small_config)
        prefix = str(tmp_path / "mem")
        save_database(db, prefix)
        dyn = open_dynamic_database(prefix)
        dyn.apply(UpdateBatch().insert_edge(0, 3))
        compact(dyn)  # folds in memory only
        assert dyn.num_delta_pages == 0
        assert WriteAheadLog(prefix + ".wal").replay().num_batches == 1

        reopened = open_dynamic_database(prefix)
        assert 3 in reopened.effective_neighbors(0)
        reopened.validate()

    def test_maybe_compact_threshold(self, small_config):
        db = DynamicGraphDatabase(_line_db(small_config))
        db.apply(UpdateBatch().insert_edge(0, 2))
        assert maybe_compact(db, threshold_bytes=1 << 30) is None
        assert db.num_delta_pages == 1
        report = maybe_compact(db, threshold_bytes=1)
        assert report is not None
        assert db.num_delta_pages == 0


class TestObservability:
    def test_collect_dynamic_metrics(self, small_config):
        from repro.obs import collect_dynamic_metrics
        db = DynamicGraphDatabase(_line_db(small_config))
        db.apply(UpdateBatch().insert_edge(0, 2))
        registry = collect_dynamic_metrics(db)
        snapshot = registry.as_dict()["metrics"]
        assert snapshot["dynamic.applied_batches"]["value"] == 1
        assert snapshot["dynamic.inserted_edges"]["value"] == 1
        assert snapshot["dynamic.delta_bytes"]["value"] > 0
        # One logged insert: a source, a target and a float32 weight.
        assert snapshot["dynamic.log_bytes"]["value"] == 8 + 8 + 4

    def test_apply_emits_trace_instants(self, small_config, tmp_path):
        from repro.obs import TraceRecorder
        recorder = TraceRecorder()
        wal = WriteAheadLog(str(tmp_path / "t.wal"), recorder=recorder)
        db = DynamicGraphDatabase(_line_db(small_config), wal=wal,
                                  recorder=recorder)
        db.apply(UpdateBatch().insert_edge(0, 2))
        counts = recorder.counts()
        assert counts.get("wal_append") == 1
        assert counts.get("delta_apply") == 1

    def test_dynamic_stats_report_epoch(self, small_config):
        db = DynamicGraphDatabase(_line_db(small_config))
        assert db.dynamic_stats()["base_epoch"] == 0


# ---------------------------------------------------------------------------
# Property: every retained version's spliced topology arrays equal an
# independent per-vertex model, and base + batches equal a rebuild.
# ---------------------------------------------------------------------------

class _Modelled(Snapshot):
    """A view of one version whose plan is built from the model's arrays."""

    def __init__(self, owner, state, arrays):
        super().__init__(owner, state, pinned=False)
        self._arrays = arrays

    def topology_arrays(self):
        return self._arrays


def _assert_arrays_equal(got, want):
    assert got.keys() == want.keys()
    for name, array in want.items():
        assert (got[name] is None) == (array is None), name
        if array is not None:
            assert got[name].dtype == array.dtype, name
            np.testing.assert_array_equal(got[name], array, err_msg=name)


def _assert_index_equals_rebuild(view):
    """The version's full-batch reduce index (spliced, when an ancestor
    built one) is a from-scratch sort's, array for array."""
    plan = view.page_plan()
    full = plan.full_batch()
    got = full._reduce_index
    want = ReduceIndex.build(RoundBatch(plan, full.pids))
    for name, a, b in zip(ReduceIndex.FIELDS, got.arrays(), want.arrays()):
        assert a.dtype == b.dtype == np.int64, name
        np.testing.assert_array_equal(a, b, err_msg=name)


def _batch(model, ops):
    """A valid batch from drawn ``(op, source, pick)`` triples: ``v``
    adds vertices (edges may name them at once), ``-`` deletes an edge
    the source has at that point of the batch, its own earlier inserts
    included; source 0 is the large-page hub."""
    batch, n, local = UpdateBatch(), len(model.vertex_page), {}
    for op, src, pick in ops:
        src %= n
        if op == "v":
            batch.add_vertices(1 + pick % 3)
            n += 1 + pick % 3
            continue
        targets = local.setdefault(
            src, model.neighbors(src) if src < len(model.vertex_page)
            else [])
        if op == "+":
            batch.insert_edge(src, pick % n,
                              None if pick % 3 else 0.5 + pick % 7)
            targets.append(pick % n)
        elif targets:
            dst = targets[pick % len(targets)]
            batch.delete_edge(src, dst)
            local[src] = [t for t in targets if t != dst]
    return batch


_STEP = st.one_of(
    st.lists(st.tuples(st.sampled_from("++-v"), st.integers(0, 80),
                       st.integers(0, 10 ** 6)), min_size=1, max_size=8),
    st.sampled_from(["read", "pin", "release", "compact", "reopen"]))


@settings(max_examples=30, deadline=None)
@given(steps=st.lists(_STEP, min_size=1, max_size=10),
       weighted=st.booleans(), pooled=st.booleans(),
       seed=st.integers(0, 2 ** 16))
def test_property_batches_equal_rebuild(steps, weighted, pooled, seed):
    """Every retained version's spliced arrays equal the model's, dtype
    for dtype (and so do BFS / PageRank values and simulated times run
    on either), its full-batch reduce index equals a from-scratch sort,
    the head's neighbours and counts are the model's, and the overlay
    equals a from-scratch rebuild — across versions never queried, old
    pins read after newer commits, compaction, and a reopen that
    replays the WAL."""
    config = PageFormatConfig(2, 2, 2048, weight_bytes=4 if weighted else 0)
    machine = scaled_workstation(num_gpus=1, num_ssds=1)
    graph = generate_rmat(6, edge_factor=8, seed=seed)
    hub = np.arange(1200) % graph.num_vertices  # vertex 0: large pages
    graph = Graph.from_edges(
        graph.num_vertices,
        np.concatenate([np.repeat(np.arange(graph.num_vertices),
                                  graph.out_degrees()), 0 * hub]),
        np.concatenate([graph.targets, hub]))
    if weighted:
        graph = graph.with_random_weights(seed=seed)

    with tempfile.TemporaryDirectory() as tmp:
        prefix = os.path.join(tmp, "prop")
        model = OverlayModel(build_database(graph, config))
        save_database(model.base, prefix)
        # The on-disk base, and the batches the WAL holds on top of it.
        disk_base, logged = model.base, []

        def reopen():
            model = OverlayModel(disk_base)
            for batch in logged:
                model.apply(batch)
            return (open_dynamic_database(
                prefix, pool_pages=4 if pooled else None), model)

        (db, model), pins = reopen(), []
        for step in steps:
            if isinstance(step, list):
                batch = _batch(model, step)
                report = db.apply(batch)
                assert (report.inserted_edges, report.deleted_edges,
                        report.added_vertices) == model.apply(batch)
                logged.append(batch)
                for src in {op[1] for op in batch.ops if op[0] != "v"}:
                    assert db.effective_neighbors(src).tolist() \
                        == model.neighbors(src)
            elif step == "read":
                for view in [snap for snap, _ in pins] + [db]:
                    _assert_index_equals_rebuild(view)
            elif step == "pin":
                pins.append((db.pin(), model.arrays()))
            elif step == "release" and pins:
                pins.pop(0)[0].release()
            elif step == "compact":
                durable = seed % 2
                compact(db, save_prefix=prefix if durable else None)
                model = model.compacted()
                if durable:
                    disk_base, logged = model.base, []
            elif step == "reopen":
                for snap, _ in pins:
                    snap.release()
                (db, model), pins = reopen(), []
            for view, arrays in pins + [(db, model.arrays())]:
                _assert_arrays_equal(view.topology_arrays(), arrays)
            np.testing.assert_array_equal(db.out_degrees, [
                len(model.neighbors(v)) for v in range(db.num_vertices)])
            assert db.num_edges == int(db.out_degrees.sum())

        pins.append((db.pin(), model.arrays()))
        for snap, arrays in (pins[0], pins[-1]):  # the oldest pin, the head
            _assert_index_equals_rebuild(snap)
            modelled = _Modelled(db, snap._state, arrays)
            for make in (lambda: BFSKernel(start_vertex=0),
                         lambda: PageRankKernel(iterations=3)):
                got = GTSEngine(snap, machine).run(make())
                want = GTSEngine(modelled, machine).run(make())
                assert got.elapsed_seconds == want.elapsed_seconds
                for key in want.values:
                    np.testing.assert_array_equal(got.values[key],
                                                  want.values[key])
        assert [db.effective_neighbors(v).tolist()
                for v in range(db.num_vertices)] == [
            model.neighbors(v) for v in range(db.num_vertices)]
        got = _run_all(db, machine)
        want = _run_all(build_database(materialise_graph(db), config),
                        machine)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_allclose(got[1], want[1], rtol=1e-10, atol=1e-12)
        np.testing.assert_array_equal(got[2], want[2])
        db.validate()
        for snap, _ in pins:
            snap.release()
