"""Tests for graph I/O and database persistence."""

import hashlib
import io
import json
import os
import zlib

import numpy as np
import pytest

from repro.errors import FormatError
from repro.format import PageFormatConfig, build_database
from repro.format import io as format_io
from repro.format.io import load_database, save_database
from repro.graphgen import Graph, generate_rmat
from repro.graphgen.io import (
    read_binary,
    read_edge_list,
    write_binary,
    write_edge_list,
)

from .reference_pages import reference_page_bytes


@pytest.fixture
def graph():
    return generate_rmat(8, edge_factor=8, seed=55)


@pytest.fixture
def weighted(graph):
    return graph.with_random_weights(seed=3)


class TestEdgeListText:
    def test_round_trip(self, graph, tmp_path):
        path = str(tmp_path / "graph.txt")
        write_edge_list(graph, path)
        loaded = read_edge_list(path, num_vertices=graph.num_vertices)
        assert np.array_equal(loaded.indptr, graph.indptr)
        assert np.array_equal(loaded.targets, graph.targets)

    def test_round_trip_weighted(self, weighted, tmp_path):
        path = str(tmp_path / "graph.txt")
        write_edge_list(weighted, path)
        loaded = read_edge_list(path)
        assert np.allclose(loaded.weights, weighted.weights, rtol=1e-4)

    def test_vertex_count_inferred(self, tmp_path):
        path = str(tmp_path / "graph.txt")
        with open(path, "w") as handle:
            handle.write("0 5\n3 1\n")
        loaded = read_edge_list(path)
        assert loaded.num_vertices == 6

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = str(tmp_path / "graph.txt")
        with open(path, "w") as handle:
            handle.write("# header\n\n% matrix market style\n0 1\n")
        assert read_edge_list(path).num_edges == 1

    def test_malformed_line_rejected(self, tmp_path):
        path = str(tmp_path / "graph.txt")
        with open(path, "w") as handle:
            handle.write("42\n")
        with pytest.raises(FormatError):
            read_edge_list(path)

    def test_mixed_weighting_rejected(self, tmp_path):
        path = str(tmp_path / "graph.txt")
        with open(path, "w") as handle:
            handle.write("0 1 2.5\n1 0\n")
        with pytest.raises(FormatError):
            read_edge_list(path)


class TestEdgeListBinary:
    def test_round_trip(self, graph, tmp_path):
        path = str(tmp_path / "graph.bin")
        write_binary(graph, path)
        loaded = read_binary(path)
        assert loaded.num_vertices == graph.num_vertices
        assert np.array_equal(loaded.targets, graph.targets)

    def test_round_trip_weighted(self, weighted, tmp_path):
        path = str(tmp_path / "graph.bin")
        write_binary(weighted, path)
        loaded = read_binary(path)
        assert np.array_equal(loaded.weights, weighted.weights)

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "junk.bin")
        with open(path, "wb") as handle:
            handle.write(b"NOPE" + b"\x00" * 32)
        with pytest.raises(FormatError):
            read_binary(path)


#: The file format is a compatibility contract: sha256 of the two files
#: :func:`golden_database` saves.  A change here is a format change.
GOLDEN_SHA256 = {
    ".pages": "0f8470d977cef2bcb51904b750d51d05d3d68f6af6039931adaf74e9e271b913",
    ".meta.json": "ac33ccbf09cd59383ddf654f05ca6851da40d4099f9fe2a5918e7fc3f303a6cf",
}


def golden_database():
    """Weighted rmat10, seed 7, under the benchmark ledger's page format
    (``benchmarks/ledger/workloads.py``: ``page_format()``, edge factor
    16): small pages, interleaved large-page runs, 4-byte weights."""
    graph = generate_rmat(10, edge_factor=16,
                          seed=7).with_random_weights(seed=7)
    return build_database(graph, PageFormatConfig(
        page_id_bytes=4, slot_bytes=2, page_size=2048, weight_bytes=4))


def _file_bytes(prefix):
    contents = []
    for extension in (".pages", ".meta.json"):
        with open(prefix + extension, "rb") as handle:
            contents.append(handle.read())
    return contents


def _unfit_offsets_database():
    """Builds, but cannot be saved: ``offset_bytes=1`` addresses 256 of
    a 2 KB page's bytes, and records start beyond that."""
    rng = np.random.default_rng(0)
    graph = Graph.from_edges(200, rng.integers(0, 200, 2000),
                             rng.integers(0, 200, 2000))
    return build_database(graph, PageFormatConfig(2, 2, 2048,
                                                  offset_bytes=1))


class TestSaveDatabase:
    def test_golden_bytes(self, tmp_path):
        db = golden_database()
        assert db.num_small_pages and db.num_large_pages
        prefix = str(tmp_path / "golden")
        save_database(db, prefix)
        digests = {
            extension: hashlib.sha256(content).hexdigest()
            for extension, content in zip(GOLDEN_SHA256,
                                          _file_bytes(prefix))}
        assert digests == GOLDEN_SHA256

    def test_pages_file_is_the_reference_encoding(self, weighted_db,
                                                  tmp_path):
        """Chunk boundaries leave no trace: the file is every page's
        per-byte reference encoding back to back, CRC for CRC."""
        prefix = str(tmp_path / "db")
        meta_path, _ = save_database(weighted_db, prefix)
        blobs = [reference_page_bytes(page) for page in weighted_db.pages]
        assert _file_bytes(prefix)[0] == b"".join(blobs)
        with open(meta_path) as handle:
            checksums = json.load(handle)["page_checksums"]
        assert checksums == [zlib.crc32(blob) for blob in blobs]

    def test_a_page_larger_than_the_chunk_budget_encodes_alone(
            self, graph, tmp_path, monkeypatch):
        db = build_database(graph, PageFormatConfig(2, 2, 2048))
        assert db.num_pages > 1
        save_database(db, str(tmp_path / "chunked"))
        monkeypatch.setattr(format_io, "_ENCODE_CHUNK_BYTES", 100)
        save_database(db, str(tmp_path / "alone"))
        assert (_file_bytes(str(tmp_path / "alone"))
                == _file_bytes(str(tmp_path / "chunked")))

    def test_metadata_bytes_are_json_dump_s(self, rmat_db, tmp_path):
        """``write(json.dumps(...))`` emits what ``json.dump`` streamed."""
        meta_path, _ = save_database(rmat_db, str(tmp_path / "db"))
        with open(meta_path) as handle:
            written = handle.read()
        streamed = io.StringIO()
        json.dump(json.loads(written), streamed)
        assert written == streamed.getvalue()

    def test_unfit_record_offset_is_a_format_error(self, tmp_path):
        with pytest.raises(FormatError,
                           match=r"OFF value \d+ does not fit in 1 byte"):
            save_database(_unfit_offsets_database(), str(tmp_path / "db"))
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("failing_write", ["pages", "metadata"])
    def test_failed_save_leaves_no_temp_and_the_old_pair(
            self, rmat_db, tmp_path, monkeypatch, failing_write):
        prefix = str(tmp_path / "db")
        save_database(rmat_db, prefix)
        before = _file_bytes(prefix)
        if failing_write == "pages":
            with pytest.raises(FormatError):
                save_database(_unfit_offsets_database(), prefix)
        else:
            def refuse(metadata):
                raise RuntimeError("disk full")
            monkeypatch.setattr(format_io.json, "dumps", refuse)
            with pytest.raises(RuntimeError, match="disk full"):
                save_database(rmat_db, prefix)
            monkeypatch.undo()
        assert sorted(os.listdir(tmp_path)) == ["db.meta.json", "db.pages"]
        assert _file_bytes(prefix) == before
        assert load_database(prefix).validate()


class TestDatabasePersistence:
    def test_round_trip_validates(self, rmat_db, tmp_path):
        prefix = str(tmp_path / "db")
        save_database(rmat_db, prefix)
        loaded = load_database(prefix)
        assert loaded.num_vertices == rmat_db.num_vertices
        assert loaded.num_edges == rmat_db.num_edges
        assert loaded.num_small_pages == rmat_db.num_small_pages
        assert loaded.num_large_pages == rmat_db.num_large_pages

    def test_round_trip_preserves_adjacency(self, rmat_db, tmp_path):
        prefix = str(tmp_path / "db")
        save_database(rmat_db, prefix)
        loaded = load_database(prefix)
        for original, restored in zip(rmat_db.pages, loaded.pages):
            assert np.array_equal(original.adj_vids, restored.adj_vids)

    def test_round_trip_preserves_weights(self, weighted_db, tmp_path):
        prefix = str(tmp_path / "db")
        save_database(weighted_db, prefix)
        loaded = load_database(prefix)
        for original, restored in zip(weighted_db.pages, loaded.pages):
            if original.adj_weights is not None:
                assert np.allclose(original.adj_weights,
                                   restored.adj_weights)

    def test_loaded_database_runs_algorithms(self, rmat_graph, rmat_db,
                                             machine, tmp_path):
        from repro.baselines import reference
        from repro.core import BFSKernel, GTSEngine
        prefix = str(tmp_path / "db")
        save_database(rmat_db, prefix)
        loaded = load_database(prefix)
        start = int(np.argmax(rmat_graph.out_degrees()))
        result = GTSEngine(loaded, machine).run(BFSKernel(start))
        assert np.array_equal(result.values["level"],
                              reference.bfs_levels(rmat_graph, start))

    def test_truncated_pages_file_rejected(self, rmat_db, tmp_path):
        prefix = str(tmp_path / "db")
        _, pages_path = save_database(rmat_db, prefix)
        with open(pages_path, "ab") as handle:
            handle.write(b"\x00")
        with pytest.raises(FormatError):
            load_database(prefix)

    def test_version_checked(self, rmat_db, tmp_path):
        prefix = str(tmp_path / "db")
        meta_path, _ = save_database(rmat_db, prefix)
        with open(meta_path) as handle:
            metadata = json.load(handle)
        metadata["version"] = 999
        with open(meta_path, "w") as handle:
            json.dump(metadata, handle)
        with pytest.raises(FormatError):
            load_database(prefix)


class TestFileBackedDatabase:
    def _open(self, rmat_db, tmp_path, pool_pages=32):
        from repro.format.io import FileBackedDatabase
        prefix = str(tmp_path / "db")
        save_database(rmat_db, prefix)
        return FileBackedDatabase(prefix, pool_pages=pool_pages)

    def test_metadata_matches(self, rmat_db, tmp_path):
        lazy = self._open(rmat_db, tmp_path)
        assert lazy.num_vertices == rmat_db.num_vertices
        assert lazy.num_edges == rmat_db.num_edges
        assert lazy.num_small_pages == rmat_db.num_small_pages
        assert lazy.num_large_pages == rmat_db.num_large_pages

    def test_pages_parse_on_demand(self, rmat_db, tmp_path):
        lazy = self._open(rmat_db, tmp_path, pool_pages=8)
        assert lazy.resident_pages() == 0
        page = lazy.page(0)
        assert lazy.resident_pages() == 1
        assert np.array_equal(page.adj_vids, rmat_db.page(0).adj_vids)

    def test_pool_bounded(self, rmat_db, tmp_path):
        lazy = self._open(rmat_db, tmp_path, pool_pages=4)
        for pid in range(min(20, lazy.num_pages)):
            lazy.page(pid)
        assert lazy.resident_pages() <= 4

    def test_pool_hits_counted(self, rmat_db, tmp_path):
        lazy = self._open(rmat_db, tmp_path)
        lazy.page(3)
        lazy.page(3)
        assert lazy.pool_hits == 1
        assert lazy.pool_misses == 1

    def test_validate_decodes_every_page(self, rmat_db, tmp_path):
        assert self._open(rmat_db, tmp_path).validate()

    def test_engine_runs_on_lazy_database(self, rmat_graph, rmat_db,
                                          machine, tmp_path):
        from repro.baselines import reference
        from repro.core import GTSEngine, PageRankKernel
        lazy = self._open(rmat_db, tmp_path, pool_pages=16)
        result = GTSEngine(lazy, machine).run(PageRankKernel(iterations=3))
        expected = reference.pagerank(rmat_graph, iterations=3)
        assert np.allclose(result.values["rank"], expected, atol=1e-12)

    def test_pool_size_validated(self, rmat_db, tmp_path):
        from repro.format.io import FileBackedDatabase
        prefix = str(tmp_path / "db")
        save_database(rmat_db, prefix)
        with pytest.raises(FormatError):
            FileBackedDatabase(prefix, pool_pages=0)

    def test_unknown_page_rejected(self, rmat_db, tmp_path):
        lazy = self._open(rmat_db, tmp_path)
        with pytest.raises(FormatError):
            lazy.page(10 ** 6)

    def test_closed_store_raises_typed_error(self, rmat_db, tmp_path):
        lazy = self._open(rmat_db, tmp_path)
        resident = lazy.page(0)
        lazy.close()
        lazy.close()  # idempotent
        for read in (lambda: lazy.page(1), lambda: lazy.prefetch([1, 2]),
                     lazy.validate):
            with pytest.raises(FormatError, match="store is closed"):
                read()
        # Pages decoded before the close stay valid and resident.
        assert lazy.page(0) is resident


class TestEnginePagePool:
    """The engine must see identical results through a page pool small
    enough to force evictions, and surface the pool's hit rate.  What
    reads the pool is the plan build over a dynamic overlay carrying
    deltas (it merges base pages); a bare store hands the plan its
    flat arrays and pools nothing."""

    def _open(self, rmat_db, tmp_path, pool_pages):
        from repro.format.io import FileBackedDatabase
        prefix = str(tmp_path / "pooled")
        save_database(rmat_db, prefix)
        return FileBackedDatabase(prefix, pool_pages=pool_pages)

    def _overlay(self, base, edges=((0, 1), (2, 3))):
        from repro.dynamic import DynamicGraphDatabase, UpdateBatch
        overlay = DynamicGraphDatabase(base)
        batch = UpdateBatch()
        for u, v in edges:
            batch.insert_edge(u, v)
        overlay.apply(batch)
        return overlay

    def test_results_identical_under_eviction_pressure(self, rmat_db,
                                                       machine, tmp_path):
        from repro.core import BFSKernel, GTSEngine, PageRankKernel
        from repro.dynamic import UpdateBatch

        # A pool far smaller than the database forces constant eviction
        # during every plan build; each commit forces a rebuild.
        pool_pages = max(2, rmat_db.num_pages // 8)
        lazy = self._open(rmat_db, tmp_path, pool_pages)
        start = int(np.argmax(rmat_db.out_degrees))
        overlays = [self._overlay(rmat_db), self._overlay(lazy)]
        eager_engine, lazy_engine = (GTSEngine(overlay, machine)
                                     for overlay in overlays)
        for kernel_factory in (lambda: BFSKernel(start_vertex=start),
                               lambda: PageRankKernel(iterations=4)):
            want = eager_engine.run(kernel_factory())
            got = lazy_engine.run(kernel_factory())
            for key in want.values:
                np.testing.assert_array_equal(got.values[key],
                                              want.values[key])
            assert got.elapsed_seconds == want.elapsed_seconds
            for overlay in overlays:
                overlay.apply(UpdateBatch().insert_edge(start, 5))

        # Eviction really happened: the pool stayed at capacity and
        # pages were re-read after being dropped.
        assert lazy.resident_pages() <= pool_pages
        assert lazy.pool_misses > lazy.num_pages

    def test_run_result_reports_pool_hit_rate(self, rmat_db, machine,
                                              tmp_path):
        from repro.core import GTSEngine, KCoreKernel

        lazy = self._open(rmat_db, tmp_path, pool_pages=16)
        result = GTSEngine(self._overlay(lazy), machine).run(
            KCoreKernel(k=2))
        assert result.pool_hits + result.pool_misses > 0
        assert 0.0 <= result.pool_hit_rate <= 1.0
        assert "page-pool hit rate" in result.summary()
        payload = result.to_dict()
        assert payload["pool_hits"] == result.pool_hits
        assert payload["pool_misses"] == result.pool_misses

    def test_counters_are_per_run_deltas(self, rmat_db, machine, tmp_path):
        from repro.core import GTSEngine, KCoreKernel

        lazy = self._open(rmat_db, tmp_path, pool_pages=16)
        engine = GTSEngine(self._overlay(lazy), machine)
        first = engine.run(KCoreKernel(k=2))
        second = engine.run(KCoreKernel(k=2))
        # Each RunResult carries only its own run's pool traffic, not
        # the database's cumulative counters.
        assert second.pool_hits + second.pool_misses < (
            lazy.pool_hits + lazy.pool_misses)
        assert first.pool_misses > 0

    def test_batched_run_touches_no_pool(self, rmat_db, machine, tmp_path):
        from repro.core import GTSEngine, PageRankKernel

        # The plan reads the store's flat arrays: every region is read
        # and verified once, and no page object is ever pooled.
        lazy = self._open(rmat_db, tmp_path, pool_pages=16)
        result = GTSEngine(lazy, machine).run(PageRankKernel(iterations=3))
        assert result.pool_hits == 0 and result.pool_misses == 0
        assert lazy.resident_pages() == 0
        assert result.mmap_misses == lazy.num_pages
        assert result.mmap_hits == 0
        assert lazy.host_bytes_read == lazy.num_pages * lazy.config.page_size
