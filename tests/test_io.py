"""Tests for graph I/O and database persistence."""

import hashlib
import io
import json
import os
import re
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dynamic import DynamicGraphDatabase, UpdateBatch
from repro.dynamic.edgelog import ext_capacity
from repro.errors import FormatError
from repro.format import PageFormatConfig, build_database
from repro.format.database import PageDirectory
from repro.format import io as format_io
from repro.format.io import FileBackedDatabase, load_database, save_database
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


#: The file format is a compatibility contract: sha256 of the files
#: :func:`golden_database` saves.  A change here is a format change.
GOLDEN_SHA256 = {
    ".pages": "0f8470d977cef2bcb51904b750d51d05d3d68f6af6039931adaf74e9e271b913",
    ".meta.json": "ac33ccbf09cd59383ddf654f05ca6851da40d4099f9fe2a5918e7fc3f303a6cf",
    ".plan": "b60d1d1a05f8ee83f127a017af2d986e1dde84bfdbfcca4eee6a3574f7478445",
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
    for extension in GOLDEN_SHA256:
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
        blobs = [reference_page_bytes(weighted_db.page(pid))
                 for pid in range(weighted_db.num_pages)]
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
            def refuse(*args, **kwargs):
                raise RuntimeError("disk full")
            monkeypatch.setattr(format_io.json, "dumps", refuse)
            with pytest.raises(RuntimeError, match="disk full"):
                save_database(rmat_db, prefix)
            monkeypatch.undo()
        assert sorted(os.listdir(tmp_path)) == [
            "db.meta.json", "db.pages", "db.plan"]
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
        for pid in range(rmat_db.num_pages):
            assert np.array_equal(rmat_db.page(pid).adj_vids,
                                  loaded.page(pid).adj_vids)

    def test_round_trip_preserves_weights(self, weighted_db, tmp_path):
        prefix = str(tmp_path / "db")
        save_database(weighted_db, prefix)
        loaded = load_database(prefix)
        assert np.array_equal(weighted_db.topology_arrays()["adj_weights"],
                              loaded.topology_arrays()["adj_weights"])

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

    @pytest.mark.parametrize("case", [
        "truncated", "no_vertex_page", "version", "pages_size",
        "pool_none", "pool_zero"])
    def test_malformed_store_is_a_typed_error(self, rmat_db, tmp_path,
                                              case):
        """Truncated or incomplete metadata, an unknown version, a pages
        file of the wrong size and a pool size that is not a positive
        count raise FormatError naming the file — from the store and
        (the pool aside) from the eager loader."""
        prefix = str(tmp_path / "db")
        meta_path, pages_path = save_database(rmat_db, prefix)
        with open(meta_path) as handle:
            metadata = json.load(handle)
        if case == "no_vertex_page":
            del metadata["vertex_page"]
        metadata["version"] = 999 if case == "version" else 1
        text = json.dumps(metadata)
        with open(meta_path, "w") as handle:
            handle.write(text[:len(text) // 2] if case == "truncated"
                         else text)
        with open(pages_path, "ab") as handle:
            handle.write(b"\x00" if case == "pages_size" else b"")
        pool = {"pool_none": None, "pool_zero": 0}.get(case, 1)
        opens = [lambda: FileBackedDatabase(prefix, pool_pages=pool)]
        if pool == 1:
            opens.append(lambda: load_database(prefix))
        for open_store in opens:
            with pytest.raises(FormatError, match=re.escape(
                    meta_path if pool == 1 and case != "pages_size"
                    else pages_path)):
                open_store()


def _assert_same(want, got, where):
    """Equal, and of the same type all the way down (arrays: dtype)."""
    assert type(got) is type(want), where
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype, where
        np.testing.assert_array_equal(got, want, err_msg=str(where))
    elif isinstance(want, (list, dict)):
        _assert_same(len(want), len(got), where)
        for key, (w, g) in enumerate(zip(want, got)):
            if isinstance(want, dict):  # keys, key types and order
                _assert_same(w, g, where)
                w, g = want[w], got[g]
            _assert_same(w, g, (where, key))
    elif hasattr(want, "__dict__"):
        _assert_same(vars(want), vars(got), where)
    else:
        assert got == want, where


class TestFileBackedDatabase:
    def test_sidecar_open_equals_the_decode_open(self, tmp_path):
        """A store opened from the ``.plan`` sidecar equals the same
        store opened by parsing the JSON and decoding pages, field for
        field and dtype for dtype (directory columns included), and so
        do the flat
        arrays its plans are built from — served by one host read of
        the sidecar's own bytes that books no page region."""
        prefix = str(tmp_path / "db")
        save_database(golden_database(), prefix)
        warm = FileBackedDatabase(prefix)
        os.remove(prefix + ".plan")
        cold = FileBackedDatabase(prefix)
        skip = {"_plan_topology", "_pool_lock", "_io_lock", "plan_memo",
                "_fd", "_mmap", "_mmap_view"}
        assert warm._plan_topology is not None
        assert cold._plan_topology is None
        _assert_same(*({key: value for key, value in vars(store).items()
                        if key not in skip} for store in (cold, warm)),
                     "store")
        arrays = warm.topology_arrays()
        _assert_same(cold.topology_arrays(), arrays, "topology")
        assert not warm._verified.any() and warm.mmap_misses == 0
        assert warm.host_reads == 1
        payload = sum(array.nbytes for array in arrays.values())
        assert payload <= warm.host_bytes_read < payload + 64 * len(arrays)

    def _open(self, rmat_db, tmp_path, pool_pages=32):
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


#: Page formats for the directory property: roomy and tiny pages, a
#: one-byte slot number, and weights.
DIRECTORY_FORMATS = [
    PageFormatConfig(2, 2, 1024),
    PageFormatConfig(2, 2, 256),
    PageFormatConfig(2, 1, 512),
    PageFormatConfig(4, 2, 2048, weight_bytes=4),
]


def _directory_of_pages(db):
    """The directory rebuilt row by row from ``db``'s served pages."""
    pages = [db.page(pid) for pid in range(db.num_pages)]
    return PageDirectory(*zip(*(
        (page.kind.value == "LP", page.start_vid, len(page.vids()),
         page.num_edges, page.used_bytes()) for page in pages)))


def _assert_directory(want, db):
    """``db``'s directory columns and page IDs equal ``want``'s columns
    and ``flatnonzero`` of its mask, value and dtype."""
    for expected, got in zip(
            want.columns() + (np.flatnonzero(~want.is_large),
                              np.flatnonzero(want.is_large)),
            db.directory.columns() + (db.small_page_ids(),
                                      db.large_page_ids())):
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_directory_columns_agree_across_producers(data, tmp_path_factory):
    """Property: one page directory, whoever produced it.  The builder's
    rows describe its pages (each within ``page_size``), and a sidecar
    open, a JSON open (sidecar deleted) and ``load_database`` give the
    same columns.  An overlay's rows describe its served pages after
    insert and add-vertex commits, while a snapshot pinned before them
    keeps the base's; its large-page runs are the per-page walk's."""
    config = data.draw(st.sampled_from(DIRECTORY_FORMATS))
    num_vertices = data.draw(st.integers(2, 300))
    rng = np.random.default_rng(data.draw(st.integers(0, 10 ** 6)))
    degrees = rng.integers(0, 6, size=num_vertices)
    hubs = rng.integers(0, num_vertices, size=data.draw(st.integers(0, 3)))
    degrees[hubs] = rng.integers(1, 3 * config.large_page_capacity(),
                                 size=len(hubs))
    graph = Graph.from_edges(
        num_vertices, np.repeat(np.arange(num_vertices), degrees),
        rng.integers(0, num_vertices, size=int(degrees.sum())))
    db = build_database(graph, config)
    _assert_directory(_directory_of_pages(db), db)
    assert (db.directory.used_bytes <= config.page_size).all()

    prefix = str(tmp_path_factory.mktemp("directory") / "db")
    save_database(db, prefix)
    sidecar = FileBackedDatabase(prefix)
    stores = [sidecar, load_database(prefix)]
    os.remove(prefix + ".plan")
    stores.append(FileBackedDatabase(prefix))
    for store in stores:
        _assert_directory(db.directory, store)

    runs = {}
    for pid in db.large_page_ids().tolist():
        runs.setdefault(int(db.rvt.start_vids[pid]), []).append(pid)
    overlay = DynamicGraphDatabase(sidecar)
    firsts, lengths = overlay._head.layout.lp_runs
    assert firsts.dtype == lengths.dtype == np.int64
    assert firsts.tolist() == [run[0] for run in runs.values()]
    assert lengths.tolist() == [len(run) for run in runs.values()]
    assert [int(db.rvt.start_vids[first]) for first in firsts] == list(runs)
    before = overlay.pin()
    batch = UpdateBatch()
    for src, dst in rng.integers(0, num_vertices, size=(6, 2)).tolist():
        batch.insert_edge(src, dst)
    overlay.apply(batch)
    added = data.draw(st.integers(1, 2 * ext_capacity(config)))
    overlay.apply(UpdateBatch().add_vertices(added)
                  .insert_edge(num_vertices + added - 1, 0).add_vertices(2))
    overlay.validate()
    _assert_directory(_directory_of_pages(overlay), overlay)
    _assert_directory(db.directory, before)
    before.release()
    sidecar.close()
    stores[2].close()


class TestEnginePagePool:
    """The engine must see identical results through a page pool far
    smaller than the pages a run or a writer touches, and surface the
    pool's hit rate.  Plan builds read no page and an overlay's writer
    reads none either; the pool's one reader is a faulted scan, whose
    plan build parses page by page."""

    def _open(self, rmat_db, tmp_path, pool_pages):
        prefix = str(tmp_path / "pooled")
        save_database(rmat_db, prefix)
        os.remove(prefix + ".plan")  # plan builds decode pages
        return FileBackedDatabase(prefix, pool_pages=pool_pages)

    def _faulted_engine(self, db, machine):
        from repro.core import GTSEngine
        from repro.faults import FaultPlan
        return GTSEngine(db, machine,
                         faults=FaultPlan(host_corrupt_reads={0: 1}))

    def test_results_identical_under_eviction_pressure(self, rmat_db,
                                                       machine, tmp_path):
        from repro.core import BFSKernel, GTSEngine, PageRankKernel
        from repro.dynamic import DynamicGraphDatabase, UpdateBatch

        # Each batch's sources span twice the pool's pages; the writer
        # reads none of them (a commit counts edges from its log, and
        # the post-commit splice decodes dirty pages off the mapping).
        pool_pages = max(2, rmat_db.num_pages // 8)
        lazy = self._open(rmat_db, tmp_path, pool_pages)
        start = int(np.argmax(rmat_db.out_degrees))
        sources = rmat_db.directory.start_vid[
            rmat_db.small_page_ids()][::3][:2 * pool_pages].tolist()
        touched = {int(rmat_db.vertex_page[v]) for v in sources}
        overlays = [DynamicGraphDatabase(base) for base in (rmat_db, lazy)]
        engines = [GTSEngine(overlay, machine) for overlay in overlays]
        for kernel_factory in (lambda: BFSKernel(start_vertex=start),
                               lambda: PageRankKernel(iterations=4)):
            batch = UpdateBatch()
            for source in sources:
                batch.insert_edge(int(source), start)
            for overlay in overlays:
                overlay.apply(batch)
            want, got = (engine.run(kernel_factory()) for engine in engines)
            for key in want.values:
                np.testing.assert_array_equal(got.values[key],
                                              want.values[key])
            assert got.elapsed_seconds == want.elapsed_seconds
            assert got.pool_hits == got.pool_misses == 0  # parsed no page
        assert pool_pages < len(touched)
        assert lazy.resident_pages() == lazy.pool_hits == lazy.pool_misses == 0

    def test_run_result_reports_pool_hit_rate(self, rmat_db, machine,
                                              tmp_path):
        from repro.core import KCoreKernel

        lazy = self._open(rmat_db, tmp_path, pool_pages=16)
        result = self._faulted_engine(lazy, machine).run(KCoreKernel(k=2))
        assert result.pool_hits + result.pool_misses > 0
        assert 0.0 <= result.pool_hit_rate <= 1.0
        assert "page-pool hit rate" in result.summary()
        payload = result.to_dict()
        assert payload["pool_hits"] == result.pool_hits
        assert payload["pool_misses"] == result.pool_misses

    def test_counters_are_per_run_deltas(self, rmat_db, machine, tmp_path):
        from repro.core import KCoreKernel

        lazy = self._open(rmat_db, tmp_path, pool_pages=16)
        engine = self._faulted_engine(lazy, machine)
        first = engine.run(KCoreKernel(k=2))
        second = engine.run(KCoreKernel(k=2))
        # Each RunResult carries only its own run's pool traffic: the
        # second run reuses the first one's plan and reads nothing.
        assert first.pool_misses > 0
        assert second.pool_hits == second.pool_misses == 0
        assert lazy.pool_hits + lazy.pool_misses == (
            first.pool_hits + first.pool_misses)

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
