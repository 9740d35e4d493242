"""Property tests for the mapped page store.

The store's read path is only allowed to change *host* costs: for any
saved database the pages it decodes — from the mapping, or through the
copy fallback — the run results they produce, and every simulated
counter must be bit-identical to the database that was saved and to the
eager :func:`~repro.format.io.load_database` result — under dynamic WAL
overlays, under pool eviction pressure, and under injected corruption
(a checksum failure must recover through a verified re-read or raise a
typed :class:`~repro.errors.IntegrityError`; a damaged view must never
decode).
"""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import GTSEngine, PageRankKernel, SSSPKernel
from repro.core.plan import PagePlan
from repro.errors import IntegrityError
from repro.faults import FaultInjector, FaultPlan
from repro.format import PageFormatConfig, build_database
from repro.format.io import FileBackedDatabase, load_database, save_database
from repro.graphgen import Graph
from repro.hardware.specs import scaled_workstation
from repro.units import KB

from .golden_runs import KERNELS


def _random_database(data, weighted=False):
    num_vertices = data.draw(st.integers(2, 120))
    num_edges = data.draw(st.integers(0, 400))
    seed = data.draw(st.integers(0, 10 ** 6))
    rng = np.random.default_rng(seed)
    graph = Graph.from_edges(
        num_vertices,
        rng.integers(0, num_vertices, size=num_edges),
        rng.integers(0, num_vertices, size=num_edges))
    if weighted:
        graph = graph.with_random_weights(seed=seed)
    config = PageFormatConfig(2, 2, 1 * KB,
                              weight_bytes=4 if weighted else 0)
    return build_database(graph, config, name="mmap-prop"), graph


def _open_fallback(prefix, pool_pages):
    """A store whose every parse takes the ``pread`` + ``from_bytes``
    fallback: an attached injector (here with an inert plan) is one of
    the two conditions that select it."""
    store = FileBackedDatabase(prefix, pool_pages=pool_pages)
    store.attach_fault_injector(FaultInjector(FaultPlan()))
    return store


def _assert_pages_equal(expected, actual):
    assert type(expected) is type(actual)
    assert expected.page_id == actual.page_id
    assert expected.start_vid == actual.start_vid
    for attr in ("adj_pids", "adj_slots", "adj_vids"):
        np.testing.assert_array_equal(getattr(expected, attr),
                                      getattr(actual, attr), err_msg=attr)
    if expected.adj_weights is None:
        assert actual.adj_weights is None
    else:
        np.testing.assert_array_equal(expected.adj_weights,
                                      actual.adj_weights)
    if hasattr(expected, "adj_indptr"):  # SmallPage
        np.testing.assert_array_equal(expected.adj_indptr,
                                      actual.adj_indptr)
    else:  # LargePage
        assert expected.total_degree == actual.total_degree
        assert expected.chunk_index == actual.chunk_index


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_mmap_pages_match_eager_load(data, tmp_path_factory):
    """Every page decoded from the mapping equals the page that was
    saved, its ``from_bytes`` (copy fallback) decode and its eagerly
    loaded counterpart, field for field, and the decoded arrays never
    alias the mapping (they survive close())."""
    weighted = data.draw(st.booleans())
    db, _ = _random_database(data, weighted=weighted)
    prefix = str(tmp_path_factory.mktemp("mmap") / "db")
    save_database(db, prefix)
    eager = load_database(prefix)
    mapped = FileBackedDatabase(prefix, pool_pages=4)
    pages = [mapped.page(pid) for pid in range(mapped.num_pages)]
    fallback = _open_fallback(prefix, pool_pages=4)
    for pid in range(eager.num_pages):
        _assert_pages_equal(db.pages[pid], pages[pid])
        _assert_pages_equal(fallback.page(pid), pages[pid])
        _assert_pages_equal(eager.pages[pid], pages[pid])
    assert mapped.mmap_misses == mapped.num_pages  # first touches
    assert fallback.mmap_hits == 0
    fallback.close()
    mapped.close()
    # Materialised arrays must outlive the mapping.
    for pid in range(eager.num_pages):
        _assert_pages_equal(eager.pages[pid], pages[pid])


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_mmap_run_results_match_eager(data, tmp_path_factory):
    """Engine runs over the mapped store are bit-identical to eager
    loads — simulated time, values, and counters — even with a pool too
    small for the database (constant eviction re-decodes from the
    mapping)."""
    weighted = data.draw(st.booleans())
    db, graph = _random_database(data, weighted=weighted)
    prefix = str(tmp_path_factory.mktemp("mmap") / "db")
    save_database(db, prefix)
    machine = scaled_workstation(num_gpus=2, num_ssds=2)
    start = data.draw(st.integers(0, graph.num_vertices - 1))
    kernel = (lambda: SSSPKernel(start_vertex=start)) if weighted \
        else (lambda: PageRankKernel(iterations=3))
    eager = GTSEngine(load_database(prefix), machine).run(kernel())
    pool_pages = data.draw(st.sampled_from(
        [1, max(1, db.num_pages // 4), 256]))
    mapped_db = FileBackedDatabase(prefix, pool_pages=pool_pages)
    mapped = GTSEngine(mapped_db, machine).run(kernel())
    assert mapped.elapsed_seconds == eager.elapsed_seconds
    assert mapped.num_rounds == eager.num_rounds
    for key in eager.values:
        np.testing.assert_array_equal(mapped.values[key],
                                      eager.values[key])
    eager_dict, mapped_dict = eager.to_dict(), mapped.to_dict()
    for key in ("cache_hits", "cache_misses", "storage_bytes_read",
                "pages_streamed", "bytes_to_gpu", "edges_traversed"):
        assert mapped_dict.get(key) == eager_dict.get(key), key
    # The store is host-side: only the mmap counters may move.
    assert mapped_dict["mmap_hits"] + mapped_dict["mmap_misses"] > 0
    assert eager_dict["mmap_hits"] == eager_dict["mmap_misses"] == 0
    assert mapped_db.resident_pages() <= pool_pages
    mapped_db.close()


@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_mmap_dynamic_overlay_matches_copy_mode(data, tmp_path_factory):
    """A WAL overlay behaves the same on every base: the mapped store,
    the store's copy fallback, and the eager resident load.  Overlay
    pages are rebuilt objects, so only untouched base pages are served
    from the mapping."""
    from repro.dynamic import UpdateBatch, open_dynamic_database

    db, graph = _random_database(data)
    prefix_dir = tmp_path_factory.mktemp("overlay")
    seed = data.draw(st.integers(0, 10 ** 6), label="overlay-seed")
    rng = np.random.default_rng(seed)
    edges = [(int(rng.integers(0, graph.num_vertices)),
              int(rng.integers(0, graph.num_vertices)))
             for _ in range(8)]
    results = []
    for base in ("mapped", "fallback", "eager"):
        prefix = str(prefix_dir / ("db-" + base))
        save_database(db, prefix)
        dyn = open_dynamic_database(
            prefix, pool_pages=None if base == "eager" else 8)
        if base == "fallback":
            dyn._base.attach_fault_injector(FaultInjector(FaultPlan()))
        batch = UpdateBatch()
        for src, dst in edges:
            batch.insert_edge(src, dst)
        dyn.apply(batch)
        machine = scaled_workstation(num_gpus=2, num_ssds=1)
        results.append(GTSEngine(dyn, machine).run(
            PageRankKernel(iterations=3)))
    mapped_run = results[0]
    for other in results[1:]:
        assert other.elapsed_seconds == mapped_run.elapsed_seconds
        np.testing.assert_array_equal(other.values["rank"],
                                      mapped_run.values["rank"])


def _save_small(tmp_path, num_vertices=40, num_edges=160, seed=7):
    rng = np.random.default_rng(seed)
    graph = Graph.from_edges(
        num_vertices,
        rng.integers(0, num_vertices, size=num_edges),
        rng.integers(0, num_vertices, size=num_edges))
    db = build_database(graph, PageFormatConfig(2, 2, 1 * KB),
                        name="small")
    prefix = str(tmp_path / "db")
    save_database(db, prefix)
    return prefix, db


#: How a test reads every page of a store: one ``page()`` call each,
#: one ``prefetch`` of the whole chunk, or the plan's flat-array scan.
READ_PATHS = ("page", "prefetch", "plan")


def _save_chunk(tmp_path, read_path):
    """A database of a dozen pages, so a page can sit mid-chunk."""
    (tmp_path / read_path).mkdir()
    prefix, db = _save_small(tmp_path / read_path, num_vertices=300,
                             num_edges=2400)
    assert db.num_pages >= 8
    return prefix, db, db.num_pages // 2


def _assert_reads_clean(store, db, read_path):
    """Everything ``read_path`` yields from ``store`` equals the
    database that was saved."""
    if read_path == "plan":
        got, want = PagePlan(store), PagePlan(db)
        for name, array in vars(want).items():
            if isinstance(array, np.ndarray):
                np.testing.assert_array_equal(getattr(got, name), array,
                                              err_msg=name)
        return
    if read_path == "prefetch":
        assert store.prefetch(range(store.num_pages)) == store.num_pages
    for pid in range(store.num_pages):
        _assert_pages_equal(db.pages[pid], store.page(pid))


def test_injected_corruption_recovers_through_copy_path(tmp_path):
    """With a fault injector attached, parses re-route through the
    mutable copy path — page by page, even when a whole chunk was asked
    for: the injected corruption is caught by the checksum, retried
    clean, and the decoded pages equal the clean ones — the damaged
    bytes never decode."""
    for read_path in READ_PATHS:
        prefix, db, middle = _save_chunk(tmp_path, read_path)
        mapped = FileBackedDatabase(prefix, pool_pages=64)
        mapped.attach_fault_injector(
            FaultInjector(FaultPlan(host_corrupt_reads={middle: 1})))
        _assert_reads_clean(mapped, db, read_path)
        assert mapped.integrity_retries == 1
        assert mapped.fault_injector.host_corrupt_faults == 1
        # Every re-route is booked as a miss; nothing came off the
        # mapping.
        assert mapped.mmap_hits == 0
        assert mapped.mmap_misses == mapped.num_pages
        assert not mapped._verified.any()
        mapped.close()


def test_persistent_damage_raises_never_decodes(tmp_path):
    """Bytes damaged on disk fail the mapped region's first-touch
    verification *and* the copy re-read: the typed IntegrityError
    names the page and no poisoned view is ever decoded — not by a
    single parse, not inside a prefetched chunk, not inside the plan
    scan."""
    for read_path in READ_PATHS:
        prefix, db, middle = _save_chunk(tmp_path, read_path)
        page_size = db.config.page_size
        with open(prefix + ".pages", "r+b") as handle:
            handle.seek(middle * page_size)
            first = handle.read(1)
            handle.seek(middle * page_size)
            handle.write(bytes([first[0] ^ 0xFF]))
        mapped = FileBackedDatabase(prefix, pool_pages=64)
        with pytest.raises(IntegrityError) as excinfo:
            _assert_reads_clean(mapped, db, read_path)
        assert excinfo.value.page_id == middle
        assert not mapped._verified[middle]
        # Undamaged pages keep working through the same handle.
        for pid in (middle - 1, middle + 1):
            _assert_pages_equal(db.pages[pid], mapped.page(pid))
        assert os.path.getsize(prefix + ".pages") == \
            mapped.num_pages * page_size
        mapped.close()


def test_damaged_mapped_region_recovers_by_verified_reread(tmp_path):
    """Transient damage — the mapped bytes fail their first-touch CRC
    while the file is clean — recovers through the copy path's verified
    re-read: the page decodes clean, the retry is booked, and the
    region is never marked verified.  Its chunk mates, handed back to
    page-by-page parsing with it, still decode from the mapping."""
    for read_path in READ_PATHS:
        prefix, db, middle = _save_chunk(tmp_path, read_path)
        store = FileBackedDatabase(prefix, pool_pages=64)
        damaged = store._mmap_view.copy()
        damaged[middle * db.config.page_size] ^= 0xFF
        store._mmap_view = damaged
        _assert_reads_clean(store, db, read_path)
        assert store.integrity_retries == 1
        assert store.mmap_hits == 0
        assert store.mmap_misses == store.num_pages
        assert not store._verified[middle]
        assert store._verified.sum() == store.num_pages - 1
        # One copy read for the damaged region, one first touch per
        # mate.
        assert store.host_reads == store.num_pages
        store.close()


def test_inert_fault_plan_leaves_a_run_alone(tmp_path):
    """A fault plan that is attached but never fires sends every page
    of the plan build's prefetched chunks through the copy path, and
    changes nothing the run reports: values, simulated time and
    ``fault_stats`` equal the resident database's under the same
    plan."""
    from repro.core import KCoreKernel

    prefix, db, _ = _save_chunk(tmp_path, "inert")
    machine = scaled_workstation(num_gpus=2, num_ssds=2)
    plan = FaultPlan(seed=3, host_corrupt_reads={0: 0})
    assert plan.active
    want = GTSEngine(db, machine, faults=plan).run(KCoreKernel(k=3))
    store = FileBackedDatabase(prefix, pool_pages=4)
    got = GTSEngine(store, machine, faults=plan).run(KCoreKernel(k=3))
    assert got.elapsed_seconds == want.elapsed_seconds
    assert got.fault_stats == want.fault_stats
    for key, array in want.values.items():
        np.testing.assert_array_equal(got.values[key], array)
    assert store.mmap_hits == 0 and store.host_reads == store.mmap_misses
    assert store.fault_injector is None  # detached after the run
    store.close()


def test_all_kernels_bit_identical_on_every_store_path(tmp_path):
    """Values and simulated time of every kernel on every store path
    — mapped decode, copy fallback, eager ``load_database``, and a
    dynamic overlay on each — equal the resident baseline's on the
    database that was saved; an overlay carrying deltas (a different
    graph) agrees with the resident database built from the same
    mutated graph."""
    from repro.dynamic import (DynamicGraphDatabase, UpdateBatch,
                               open_dynamic_database)

    rng = np.random.default_rng(11)
    num_vertices = 96
    graph = Graph.from_edges(
        num_vertices,
        rng.integers(0, num_vertices, size=500),
        rng.integers(0, num_vertices, size=500)
    ).symmetrised().with_random_weights(seed=11)
    db = build_database(graph, PageFormatConfig(2, 2, 1 * KB,
                                                weight_bytes=4))
    prefix = str(tmp_path / "db")
    save_database(db, prefix)
    kernels = {name: (lambda make=make: make(3, num_vertices))
               for name, make in KERNELS.items()}

    def overlay(pool_pages, fallback=False):
        dyn = open_dynamic_database(prefix, pool_pages=pool_pages)
        if fallback:
            dyn._base.attach_fault_injector(FaultInjector(FaultPlan()))
        return dyn

    def delta_batch():
        batch = UpdateBatch()
        for u, v in ((3, 90), (90, 3), (7, 7), (40, 41)):
            batch.insert_edge(u, v, 2.5)
        return batch.delete_edge(3, int(graph.neighbors(3)[0]))

    def overlay_with_deltas():
        dyn = DynamicGraphDatabase(
            FileBackedDatabase(prefix, pool_pages=3))
        dyn.apply(delta_batch())
        return dyn

    stores = {
        "mapped": lambda: FileBackedDatabase(prefix, pool_pages=3),
        "fallback": lambda: _open_fallback(prefix, pool_pages=3),
        "eager": lambda: load_database(prefix),
        "overlay/mapped": lambda: overlay(3),
        "overlay/fallback": lambda: overlay(3, fallback=True),
        "overlay/eager": lambda: overlay(None),
        "overlay/deltas": overlay_with_deltas,
    }
    machine = scaled_workstation(num_gpus=2, num_ssds=2)
    # The overlay's deltas, applied to a resident copy of the database.
    mutated = DynamicGraphDatabase(db)
    mutated.apply(delta_batch())
    for kernel_name, make_kernel in kernels.items():
        expected = GTSEngine(db, machine).run(make_kernel())
        with_deltas = GTSEngine(mutated, machine).run(make_kernel())
        for store_name, open_store in stores.items():
            result = GTSEngine(open_store(), machine).run(make_kernel())
            want = (with_deltas if store_name == "overlay/deltas"
                    else expected)
            combo = (kernel_name, store_name)
            assert result.elapsed_seconds == want.elapsed_seconds, combo
            assert result.num_rounds == want.num_rounds, combo
            assert set(result.values) == set(want.values), combo
            for key, array in want.values.items():
                np.testing.assert_array_equal(
                    result.values[key], array, err_msg=str(combo))


def _tamper_layout(prefix, **overrides):
    meta_path = prefix + ".meta.json"
    with open(meta_path) as handle:
        metadata = json.load(handle)
    metadata["pages_layout"].update(overrides)
    with open(meta_path, "w") as handle:
        json.dump(metadata, handle)


def test_pages_layout_mismatch_refuses_to_map(tmp_path):
    """A wrong ``pages_layout`` stanza (stride, count, checksum algo or
    endianness) raises the typed IntegrityError before any byte of the
    pages file is interpreted — by the store and by the eager loader
    derived from it."""
    prefix, _ = _save_small(tmp_path)
    for overrides in ({"stride": 512}, {"count": 1},
                      {"checksum": "md5"}, {"endianness": "big"}):
        _tamper_layout(prefix, **overrides)
        with pytest.raises(IntegrityError):
            FileBackedDatabase(prefix, pool_pages=4)
        with pytest.raises(IntegrityError):
            load_database(prefix)
        # Restore the stanza for the next override.
        _tamper_layout(prefix, stride=1 * KB, checksum="crc32",
                       endianness="little",
                       count=len(json.load(
                           open(prefix + ".meta.json"))["directory"]))


def test_legacy_metadata_without_layout_still_loads(tmp_path):
    """Databases saved before the stanza existed load unchanged."""
    prefix, _ = _save_small(tmp_path)
    meta_path = prefix + ".meta.json"
    with open(meta_path) as handle:
        metadata = json.load(handle)
    del metadata["pages_layout"]
    with open(meta_path, "w") as handle:
        json.dump(metadata, handle)
    db = FileBackedDatabase(prefix, pool_pages=4)
    assert db.page(0) is not None
    db.close()


def test_mmap_counters_surface_in_run_summary(tmp_path):
    """RunResult carries the store's hit/miss counters: present in
    summary() and to_dict(), moving for a file-backed run, zero for a
    resident database."""
    prefix, db = _save_small(tmp_path)
    machine = scaled_workstation(num_gpus=2, num_ssds=1)
    mapped_db = FileBackedDatabase(prefix, pool_pages=2)
    mapped = GTSEngine(mapped_db, machine).run(PageRankKernel(iterations=3))
    resident = GTSEngine(db, machine).run(PageRankKernel(iterations=3))
    assert "mmap" in mapped.summary()
    mapped_dict = mapped.to_dict()
    assert mapped_dict["mmap_hits"] + mapped_dict["mmap_misses"] > 0
    assert 0.0 <= mapped_dict["mmap_hit_rate"] <= 1.0
    resident_dict = resident.to_dict()
    assert resident_dict["mmap_hits"] == 0
    assert resident_dict["mmap_misses"] == 0
    assert mapped.elapsed_seconds == resident.elapsed_seconds
    mapped_db.close()
