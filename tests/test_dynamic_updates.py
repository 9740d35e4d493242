"""Delta-page overlay, crash recovery, compaction, and one property:
every retained version's spliced topology arrays equal the per-page
walk, and a base database plus ``repro.dynamic`` batches must be
indistinguishable (to every kernel) from building the final graph from
scratch."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BFSKernel, GTSEngine, PageRankKernel, WCCKernel
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
from repro.errors import UpdateError
from repro.format import PageFormatConfig, build_database
from repro.format.database import page_rows, topology_from_rows
from repro.format.io import save_database
from repro.graphgen import Graph, generate_rmat
from repro.hardware.specs import scaled_workstation


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
    def test_insert_appears_in_page_and_neighbors(self, small_config):
        db = DynamicGraphDatabase(_line_db(small_config))
        report = db.apply(UpdateBatch().insert_edge(0, 4))
        assert report.inserted_edges == 1
        assert 4 in db.effective_neighbors(0)
        assert db.num_edges == 6
        assert db.out_degrees[0] == 2
        db.validate()

    def test_delete_removes_all_parallel_copies(self, small_config):
        vids = np.array([0, 0, 1])
        graph = Graph.from_edges(3, vids, np.array([1, 1, 2]))
        db = DynamicGraphDatabase(build_database(graph, small_config))
        report = db.apply(UpdateBatch().delete_edge(0, 1))
        assert report.deleted_edges == 2
        assert len(db.effective_neighbors(0)) == 0
        assert db.out_degrees[0] == 0
        assert db.num_edges == 1
        db.validate()

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

    def test_insert_then_delete_within_batch(self, small_config):
        db = DynamicGraphDatabase(_line_db(small_config))
        db.apply(UpdateBatch().insert_edge(0, 3).delete_edge(0, 3))
        assert 3 not in db.effective_neighbors(0)
        assert db.num_edges == 5
        db.validate()

    def test_new_vertices_get_extension_pages(self, small_config):
        db = DynamicGraphDatabase(_line_db(small_config))
        before = db.num_pages
        db.apply(UpdateBatch().add_vertices(2)
                 .insert_edge(6, 7).insert_edge(5, 6))
        assert db.num_vertices == 8
        assert db.num_pages > before
        assert db.num_extension_pages >= 1
        assert list(db.effective_neighbors(6)) == [7]
        assert 6 in db.effective_neighbors(5)
        db.validate()

    def test_bulk_vertex_add_spans_pages(self, small_config):
        db = DynamicGraphDatabase(_line_db(small_config))
        capacity = db._ext_capacity()
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

    def test_weighted_insert(self, weighted_config):
        vids = np.arange(3)
        graph = Graph.from_edges(
            4, vids, vids + 1, weights=np.array([1.0, 2.0, 3.0]))
        db = DynamicGraphDatabase(build_database(graph, weighted_config))
        db.apply(UpdateBatch().insert_edge(0, 3, weight=9.0))
        page = db.page(db.vertex_page[0])
        idx = int(np.where(page.adj_vids == 3)[0][0])
        assert page.adj_weights[idx] == 9.0
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
# Property: on every retained version the spliced topology arrays equal
# the per-page walk, and base + batches equal a from-scratch rebuild.
# ---------------------------------------------------------------------------

def _walk(db):
    """``db``'s topology arrays walked page by page through ``page()``."""
    rows = [page_rows(db.page(pid)) for pid in range(db.num_pages)]
    return topology_from_rows(
        *(np.array([len(row[i]) for row in rows], dtype=np.int64)
          for i in (0, 3)), rows)


class _Walked(Snapshot):
    """A view of one version whose plan comes from the per-page walk."""

    topology_arrays = _walk


def _assert_splice_equals_walk(view):
    got, want = view.topology_arrays(), _walk(view)
    assert got.keys() == want.keys()
    for name, array in want.items():
        assert (got[name] is None) == (array is None), name
        if array is not None:
            assert got[name].dtype == array.dtype, name
            np.testing.assert_array_equal(got[name], array, err_msg=name)


def _batch(db, ops):
    """A valid batch from drawn ``(op, source, pick)`` triples: ``v``
    adds vertices (edges may name them at once), ``-`` deletes an
    existing edge once; source 0 is the large-page hub."""
    batch, n, deleted = UpdateBatch(), db.num_vertices, set()
    for op, src, pick in ops:
        src %= n
        if op == "v":
            batch.add_vertices(1 + pick % 3)
            n += 1 + pick % 3
        elif op == "+":
            batch.insert_edge(src, pick % n)
        elif src < db.num_vertices:
            targets = db.effective_neighbors(src)
            edge = (src, int(targets[pick % len(targets)])) \
                if len(targets) else None
            if edge is not None and edge not in deleted:
                batch.delete_edge(*edge)
                deleted.add(edge)
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
    """Every retained version's spliced arrays equal the walk's, dtype
    for dtype (and so do BFS / PageRank values and simulated times), and
    the overlay equals a from-scratch rebuild — across versions never
    queried, old pins read after newer commits, compaction, and a
    reopen that replays the WAL."""
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
        save_database(build_database(graph, config), prefix)

        def reopen():
            return open_dynamic_database(prefix,
                                         pool_pages=4 if pooled else None)

        db, pins = reopen(), []
        for step in steps:
            if isinstance(step, list):
                db.apply(_batch(db, step))
            elif step == "read":
                db.topology_arrays()
            elif step == "pin":
                pins.append(db.pin())
            elif step == "release" and pins:
                pins.pop(0).release()
            elif step == "compact":
                compact(db, save_prefix=prefix if seed % 2 else None)
            elif step == "reopen":
                for snap in pins:
                    snap.release()
                db, pins = reopen(), []
            for view in pins + [db]:
                _assert_splice_equals_walk(view)

        pins.append(db.pin())
        for snap in (pins[0], pins[-1]):  # the oldest pin and the head
            walked = _Walked(db, snap._state, pinned=False)
            for make in (lambda: BFSKernel(start_vertex=0),
                         lambda: PageRankKernel(iterations=3)):
                got = GTSEngine(snap, machine).run(make())
                want = GTSEngine(walked, machine).run(make())
                assert got.elapsed_seconds == want.elapsed_seconds
                for key in want.values:
                    np.testing.assert_array_equal(got.values[key],
                                                  want.values[key])
        got = _run_all(db, machine)
        want = _run_all(build_database(materialise_graph(db), config),
                        machine)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_allclose(got[1], want[1], rtol=1e-10, atol=1e-12)
        np.testing.assert_array_equal(got[2], want[2])
        db.validate()
        for snap in pins:
            snap.release()
