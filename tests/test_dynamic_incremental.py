"""Incremental recomputation: affected-PID seeding must reproduce the
full-rerun answer while streaming strictly fewer pages for localised
insert batches."""

import numpy as np
import pytest

from repro.core import BFSKernel, GTSEngine, WCCKernel
from repro.dynamic import (
    DynamicGraphDatabase,
    UpdateBatch,
    incremental_bfs,
    incremental_wcc,
    insert_seeds,
)
from repro.errors import ConfigurationError, UpdateError
from repro.format import build_database
from repro.graphgen import Graph


def _path_db(small_config, num_vertices=32):
    vids = np.arange(num_vertices - 1)
    graph = Graph.from_edges(num_vertices, vids, vids + 1)
    return DynamicGraphDatabase(build_database(graph, small_config))


class TestSeeds:
    def test_insert_seeds_collects_sources(self):
        batches = [UpdateBatch().insert_edge(3, 4).insert_edge(7, 1),
                   UpdateBatch().insert_edge(3, 9).add_vertices(2)]
        assert sorted(insert_seeds(batches)) == [3, 7]

    def test_deletes_are_rejected(self):
        with pytest.raises(UpdateError, match="insert-only"):
            insert_seeds([UpdateBatch().delete_edge(0, 1)])
        with pytest.raises(UpdateError):
            incremental_bfs(None, np.zeros(4, dtype=np.int32),
                            [UpdateBatch().delete_edge(0, 1)])


class TestPriorVector:
    @pytest.mark.parametrize("make, dtype", [(incremental_bfs, np.int32),
                                             (incremental_wcc, np.int64)])
    def test_prior_longer_than_the_database_is_a_typed_error(
            self, small_config, machine, make, dtype):
        db = _path_db(small_config, num_vertices=9)
        batch = UpdateBatch().insert_edge(0, 5)
        db.apply(batch)
        kernel = make(db, np.zeros(50, dtype=dtype), [batch])
        with pytest.raises(ConfigurationError, match="50.*9"):
            GTSEngine(db, machine).run(kernel)


class TestIncrementalBFS:
    def test_matches_full_rerun(self, rmat_db, machine):
        db = DynamicGraphDatabase(rmat_db)
        engine = GTSEngine(db, machine)
        start = int(np.argmax(db.out_degrees))
        full = engine.run(BFSKernel(start_vertex=start))

        rng = np.random.default_rng(11)
        n = db.num_vertices
        batch = UpdateBatch()
        for _ in range(10):
            batch.insert_edge(int(rng.integers(n)), int(rng.integers(n)))
        db.apply(batch)

        inc = engine.run(incremental_bfs(db, full.values["level"], [batch]))
        rerun = engine.run(BFSKernel(start_vertex=start))
        np.testing.assert_array_equal(
            inc.values["level"], rerun.values["level"])

    def test_streams_fewer_pages_for_local_batch(self, rmat_db, machine):
        db = DynamicGraphDatabase(rmat_db)
        engine = GTSEngine(db, machine)
        start = int(np.argmax(db.out_degrees))
        full = engine.run(BFSKernel(start_vertex=start))

        # A batch touching a handful of vertices (far under 10% of the
        # graph) must not trigger a whole-database restream.
        batch = UpdateBatch().insert_edge(0, 1).insert_edge(2, 3)
        db.apply(batch)
        assert len(batch.touched_vertices()) < 0.1 * db.num_vertices

        inc = engine.run(incremental_bfs(db, full.values["level"], [batch]))
        rerun = engine.run(BFSKernel(start_vertex=start))
        np.testing.assert_array_equal(
            inc.values["level"], rerun.values["level"])
        assert inc.pages_streamed < rerun.pages_streamed

    def test_shortcut_edge_propagates(self, small_config, machine):
        db = _path_db(small_config)
        engine = GTSEngine(db, machine)
        full = engine.run(BFSKernel(start_vertex=0))
        assert full.values["level"][31] == 31

        db.apply(UpdateBatch().insert_edge(0, 30))
        inc = engine.run(incremental_bfs(db, full.values["level"],
                                         [UpdateBatch().insert_edge(0, 30)]))
        assert inc.values["level"][30] == 1
        assert inc.values["level"][31] == 2
        # Untouched prefix keeps its old levels.
        np.testing.assert_array_equal(
            inc.values["level"][:30], full.values["level"][:30])

    def test_edge_into_new_vertex(self, small_config, machine):
        db = _path_db(small_config, num_vertices=6)
        engine = GTSEngine(db, machine)
        full = engine.run(BFSKernel(start_vertex=0))

        batch = UpdateBatch().add_vertices(1).insert_edge(2, 6)
        db.apply(batch)
        inc = engine.run(incremental_bfs(db, full.values["level"], [batch]))
        rerun = engine.run(BFSKernel(start_vertex=0))
        np.testing.assert_array_equal(
            inc.values["level"], rerun.values["level"])
        assert inc.values["level"][6] == 3


class TestIncrementalWCC:
    def test_matches_full_rerun(self, rmat_db, machine):
        db = DynamicGraphDatabase(rmat_db)
        engine = GTSEngine(db, machine)
        full = engine.run(WCCKernel())

        rng = np.random.default_rng(5)
        n = db.num_vertices
        batch = UpdateBatch()
        for _ in range(8):
            batch.insert_edge(int(rng.integers(n)), int(rng.integers(n)))
        db.apply(batch)

        inc = engine.run(
            incremental_wcc(db, full.values["component"], [batch]))
        rerun = engine.run(WCCKernel())
        np.testing.assert_array_equal(
            inc.values["component"], rerun.values["component"])

    def test_bridge_merges_components(self, small_config, machine):
        # Two disjoint 3-cycles; a bridge edge must unify their labels.
        sources = np.array([0, 1, 2, 3, 4, 5])
        targets = np.array([1, 2, 0, 4, 5, 3])
        graph = Graph.from_edges(6, sources, targets)
        db = DynamicGraphDatabase(build_database(graph, small_config))
        engine = GTSEngine(db, machine)
        full = engine.run(WCCKernel())
        assert full.values["component"][0] != full.values["component"][3]

        batch = UpdateBatch().insert_edge(2, 3)
        db.apply(batch)
        inc = engine.run(
            incremental_wcc(db, full.values["component"], [batch]))
        rerun = engine.run(WCCKernel())
        np.testing.assert_array_equal(
            inc.values["component"], rerun.values["component"])
        assert inc.values["component"][0] == inc.values["component"][3]
