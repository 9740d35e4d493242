"""Delta-page overlay, crash recovery, compaction, and the rebuild
equivalence property: a base database plus ``repro.dynamic`` batches
must be indistinguishable (to every kernel) from building the final
graph from scratch."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BFSKernel, GTSEngine, PageRankKernel, WCCKernel
from repro.dynamic import (
    DynamicGraphDatabase,
    UpdateBatch,
    WriteAheadLog,
    compact,
    maybe_compact,
    materialise_graph,
    open_dynamic_database,
)
from repro.errors import UpdateError
from repro.format import PageFormatConfig, build_database
from repro.format.io import save_database
from repro.graphgen import Graph, generate_rmat
from repro.hardware.specs import scaled_workstation


def _line_db(small_config, num_vertices=6):
    vids = np.arange(num_vertices - 1)
    graph = Graph.from_edges(num_vertices, vids, vids + 1)
    return build_database(graph, small_config)


def _rebuild_reference(db, config):
    """Build a from-scratch database over the dynamic DB's graph."""
    return build_database(materialise_graph(db), config)


def _run_all(db, machine):
    engine = GTSEngine(db, machine)
    bfs = engine.run(BFSKernel(start_vertex=0))
    pr = engine.run(PageRankKernel(iterations=5))
    wcc = engine.run(WCCKernel())
    return bfs.values["level"], pr.values["rank"], wcc.values["component"]


def assert_equivalent(dyn_db, machine, config):
    """Kernel results on the overlay == results on a clean rebuild."""
    ref_db = _rebuild_reference(dyn_db, config)
    got_bfs, got_pr, got_wcc = _run_all(dyn_db, machine)
    want_bfs, want_pr, want_wcc = _run_all(ref_db, machine)
    np.testing.assert_array_equal(got_bfs, want_bfs)
    np.testing.assert_allclose(got_pr, want_pr, rtol=1e-10, atol=1e-12)
    np.testing.assert_array_equal(got_wcc, want_wcc)


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
            entry = db.directory[db.page_for_vertex(vid)]
            assert entry.start_vid <= vid < (entry.start_vid
                                             + entry.num_records)
        assert len(db.effective_neighbors(6 + count - 1)) == 0
        db.apply(UpdateBatch().insert_edge(6 + count - 1, 0))
        assert 0 in db.effective_neighbors(6 + count - 1)
        db.validate()

    def test_edge_to_new_vertex_in_same_batch(self, small_config):
        db = DynamicGraphDatabase(_line_db(small_config))
        # Vertex 6 only exists once the 'v' op in this batch lands; the
        # trial validator must account for it.
        db.apply(UpdateBatch().add_vertices(1).insert_edge(0, 6))
        assert 6 in db.effective_neighbors(0)
        db.validate()

    def test_large_page_vertex_overlay(self, small_config):
        # Degree >> max_slot_number forces a large-page run for the hub.
        hub_deg = small_config.max_slot_number * 3
        sources = np.concatenate([np.zeros(hub_deg, dtype=np.int64), [1]])
        targets = np.concatenate([(np.arange(hub_deg) % 50) + 1, [2]])
        graph = Graph.from_edges(51, sources, targets)
        db = DynamicGraphDatabase(build_database(graph, small_config))
        assert any(not db.is_small(pid) for pid in range(db.num_pages))

        db.apply(UpdateBatch().insert_edge(0, 50))
        assert 50 in db.effective_neighbors(0)
        db.apply(UpdateBatch().delete_edge(0, 1))
        assert 1 not in db.effective_neighbors(0)
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
    def test_equivalence_after_mixed_batches(self, rmat_db, small_config,
                                             machine):
        db = DynamicGraphDatabase(rmat_db)
        rng = np.random.default_rng(7)
        n = db.num_vertices
        batch = UpdateBatch()
        for _ in range(40):
            batch.insert_edge(int(rng.integers(n)), int(rng.integers(n)))
        victims = [v for v in range(n) if db.out_degrees[v] > 0][:15]
        for v in victims:
            batch.delete_edge(v, int(db.effective_neighbors(v)[0]))
        batch.add_vertices(3).insert_edge(n, 0).insert_edge(0, n + 2)
        db.apply(batch)
        assert_equivalent(db, machine, small_config)

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

    def test_pagerank_with_deletes_on_rmat(self, rmat_db, small_config,
                                           machine):
        db = DynamicGraphDatabase(rmat_db)
        batch = UpdateBatch()
        hub = int(np.argmax(db.out_degrees))
        # delete_edge removes every parallel copy, so dedupe targets.
        for dst in np.unique(db.effective_neighbors(hub))[:5]:
            batch.delete_edge(hub, int(dst))
        db.apply(batch)
        ref = _rebuild_reference(db, small_config)
        got = GTSEngine(db, machine).run(PageRankKernel(iterations=5))
        want = GTSEngine(ref, machine).run(PageRankKernel(iterations=5))
        np.testing.assert_allclose(
            got.values["rank"], want.values["rank"], rtol=1e-10)


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
# Property: base + random batches == from-scratch rebuild, including
# through a simulated crash (WAL replay) and a compaction.
# ---------------------------------------------------------------------------

@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), crash=st.booleans())
def test_property_batches_equal_rebuild(seed, crash):
    rng = np.random.default_rng(seed)
    config = PageFormatConfig(2, 2, 2048)
    machine = scaled_workstation(num_gpus=1, num_ssds=1)

    graph = generate_rmat(7, edge_factor=8, seed=int(rng.integers(1 << 30)))
    base = build_database(graph, config)

    with tempfile.TemporaryDirectory() as tmp:
        prefix = os.path.join(tmp, "prop")
        save_database(base, prefix)
        db = open_dynamic_database(prefix)

        for _ in range(int(rng.integers(1, 4))):
            batch = UpdateBatch()
            n = db.num_vertices
            for _ in range(int(rng.integers(1, 12))):
                batch.insert_edge(int(rng.integers(n)), int(rng.integers(n)))
            # Delete a real edge when one exists.
            for v in rng.permutation(n)[:3]:
                nbrs = db.effective_neighbors(int(v))
                if len(nbrs):
                    batch.delete_edge(int(v), int(nbrs[0]))
                    break
            if rng.random() < 0.3:
                extra = int(rng.integers(1, 3))
                batch.add_vertices(extra).insert_edge(
                    int(rng.integers(n)), n)
            db.apply(batch)

        if crash:
            db = open_dynamic_database(prefix)  # replay from the WAL

        ref = build_database(materialise_graph(db), config)
        got = _run_all(db, machine)
        want = _run_all(ref, machine)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_allclose(got[1], want[1], rtol=1e-10, atol=1e-12)
        np.testing.assert_array_equal(got[2], want[2])

        # And the equivalence must survive folding deltas into the base.
        compact(db, save_prefix=prefix)
        folded = _run_all(db, machine)
        np.testing.assert_array_equal(folded[0], want[0])
        np.testing.assert_allclose(folded[1], want[1], rtol=1e-10,
                                   atol=1e-12)
        np.testing.assert_array_equal(folded[2], want[2])
        db.validate()
