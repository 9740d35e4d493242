"""Persist slotted-page databases to disk and load them back.

GTS stores its slotted pages on SSDs; this module gives the reproduction
the same durable artefact: :func:`save_database` writes every page in its
exact byte layout into one pages file plus a JSON metadata sidecar, and
:func:`load_database` reconstructs a fully usable
:class:`~repro.format.database.GraphDatabase` (pages are parsed from
their serialized bytes and re-linked through the RVT, exercising the real
decode path end to end).

For graphs whose decoded pages should not all live in Python memory at
once, :class:`FileBackedDatabase` opens the same files *lazily*: pages
are parsed on demand and kept in a bounded LRU pool, so the engine's
page requests hit the real storage file exactly the way GTS's MMBuf
misses hit the SSD.

Layout on disk::

    <prefix>.meta.json   format config, directory, RVT, degrees
    <prefix>.pages       page 0 bytes, page 1 bytes, ... (fixed stride)
    <prefix>.wal         dynamic-update write-ahead log (optional; only
                         present once :mod:`repro.dynamic` has mutated
                         the database).  Layout: 8-byte magic
                         ``GTSWAL02`` plus an 8-byte LE *epoch*, then
                         length/CRC32-framed JSON update batches — see
                         :mod:`repro.dynamic.wal`.  Folded into
                         ``.meta.json``/``.pages`` (and emptied) by
                         compaction, which bumps the epoch recorded in
                         both files; a log whose epoch is behind its
                         base is stale (crash mid-compaction) and is
                         discarded on open, never replayed.

Both base files are written to temporaries and moved into place with
``os.replace``, so a crash mid-save leaves the previous pair intact
rather than a torn half-write.
"""

import contextlib
import json
import mmap
import os
import warnings
import zlib
from collections import OrderedDict

import numpy as np

from repro.concurrency import InstrumentedLock
from repro.errors import ConfigurationError, FormatError, IntegrityError
from repro.format.config import PageFormatConfig
from repro.format.database import GraphDatabase, PageDirectoryEntry
from repro.format.page import (
    LargePage,
    PageKind,
    SmallPage,
    decode_pages,
    encode_page_objects,
)
from repro.format.rvt import RecordVertexTable
from repro.spans import span

#: Bumped whenever the on-disk layout changes.
FORMAT_VERSION = 1

#: Pages per vectorized decode when a caller streams many pages (whole
#: file scans, large prefetches): big enough to amortise the NumPy call
#: overhead, small enough that a chunk's temporaries stay cache-sized.
_CHUNK_PAGES = 64

#: Bytes of pages per vectorized encode in :func:`save_database`.  A
#: byte budget, not a page count: ``page_size`` defaults to 64 MB, where
#: ``_CHUNK_PAGES`` pages would be a 4 GB buffer.  A page larger than
#: the budget encodes alone.
_ENCODE_CHUNK_BYTES = 1 << 19


def _fsync_directory(path):
    """fsync the directory holding ``path``, making renames durable.

    ``os.replace`` is atomic but not durable: the new directory entry
    can still be lost on power failure until the directory itself is
    synced.  Best-effort — platforms that cannot open a directory for
    reading (e.g. Windows) simply skip it.
    """
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def save_database(db, prefix, wal_epoch=None):
    """Write ``db`` under ``<prefix>.meta.json`` / ``<prefix>.pages``.

    Returns the pair of paths written.  Pages are serialized a chunk at
    a time — :func:`~repro.format.page.encode_page_objects` lays up to
    ``_ENCODE_CHUNK_BYTES`` of pages into one buffer in a vectorized
    pass, each page region of it is checksummed, and the chunk is
    written once — so compaction and the CLI, which save through here,
    pay no per-edge Python work.  Any field that does not fit its
    configured width, or a page whose contents overflow ``page_size``,
    raises :class:`~repro.errors.FormatError`.

    The write is atomic per file: content goes to ``<path>.tmp`` first
    and is renamed into place with ``os.replace``, pages before
    metadata — a crash can leave a stale temp file behind but never a
    corrupt or mismatched pair (the metadata always describes a fully
    written pages file).  A save that *raises* removes its temp files
    and leaves the live pair as it was.  After both renames the parent
    directory is fsynced, so a crash immediately after a successful
    save cannot roll the pair back to the old version (the WAL epoch
    protocol depends on a saved base staying saved).

    Every page's CRC32 is recorded in the metadata
    (``page_checksums``), which readers verify on every page load —
    bit-rot or a torn write surfaces as a typed
    :class:`~repro.errors.IntegrityError` naming the page instead of a
    silently wrong topology.

    ``wal_epoch`` pairs the base with its ``<prefix>.wal`` (see the
    layout note above); ``None`` carries over ``db.wal_epoch`` when the
    database has one, else 0.  Compaction passes the bumped epoch here.
    """
    meta_path = prefix + ".meta.json"
    pages_path = prefix + ".pages"
    config = db.config
    if wal_epoch is None:
        wal_epoch = getattr(db, "wal_epoch", 0)
    metadata = {
        "version": FORMAT_VERSION,
        "wal_epoch": wal_epoch,
        "name": db.name,
        "num_vertices": db.num_vertices,
        "num_edges": db.num_edges,
        "config": {
            "page_id_bytes": config.page_id_bytes,
            "slot_bytes": config.slot_bytes,
            "page_size": config.page_size,
            "vid_bytes": config.vid_bytes,
            "offset_bytes": config.offset_bytes,
            "adjlist_size_bytes": config.adjlist_size_bytes,
            "weight_bytes": config.weight_bytes,
        },
        "directory": [
            {
                "page_id": entry.page_id,
                "kind": entry.kind,
                "start_vid": entry.start_vid,
                "num_records": entry.num_records,
                "num_edges": entry.num_edges,
                "used_bytes": entry.used_bytes,
            }
            for entry in db.directory
        ],
        "rvt": {
            "start_vids": db.rvt.start_vids.tolist(),
            "lp_ranges": db.rvt.lp_ranges.tolist(),
        },
        "out_degrees": db.out_degrees.tolist(),
        "vertex_page": db.vertex_page.tolist(),
        "lp_total_degrees": {
            str(page.page_id): page.total_degree
            for page in db.pages if page.kind.value == "LP"
        },
        # Physical layout contract for the pages file.  Readers validate
        # this before memory-mapping: a stride or endianness mismatch
        # must surface as a typed IntegrityError, never a garbled parse
        # of a file whose geometry the loader guessed wrong.
        "pages_layout": {
            "stride": config.page_size,
            "count": len(db.pages),
            "checksum": "crc32",
            "endianness": "little",
        },
    }
    page_size = config.page_size
    per_chunk = max(1, _ENCODE_CHUNK_BYTES // page_size)
    checksums = []
    pages_tmp, meta_tmp = pages_path + ".tmp", meta_path + ".tmp"
    try:
        with open(pages_tmp, "wb") as handle:
            for lo in range(0, len(db.pages), per_chunk):
                chunk = memoryview(encode_page_objects(
                    db.pages[lo:lo + per_chunk], config))
                checksums.extend(
                    zlib.crc32(chunk[base:base + page_size])
                    for base in range(0, len(chunk), page_size))
                handle.write(chunk)
            handle.flush()
            os.fsync(handle.fileno())
        # Index i is the checksum of page i (page IDs are dense, so the
        # directory index and the page ID coincide).
        metadata["page_checksums"] = checksums
        with open(meta_tmp, "w") as handle:
            # One ``dumps``: the C encoder.  ``json.dump`` would stream
            # the same bytes through the pure-Python ``_iterencode``.
            handle.write(json.dumps(metadata))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(pages_tmp, pages_path)
        os.replace(meta_tmp, meta_path)
    except BaseException:
        # Only this call's temp files; the live pair is never touched.
        for path in (pages_tmp, meta_tmp):
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        raise
    _fsync_directory(meta_path)
    return meta_path, pages_path


def _checksums_from_metadata(metadata, source):
    """The ``page_checksums`` list, or ``None`` (with a warning) for
    databases saved before checksums existed."""
    checksums = metadata.get("page_checksums")
    if checksums is None:
        warnings.warn(
            "%s predates page checksums; integrity verification is "
            "disabled for this database (re-save it to add checksums)"
            % source, stacklevel=3)
        return None
    return checksums


def _validate_pages_layout(metadata, config, num_pages, source):
    """Check the ``pages_layout`` stanza against the loader's geometry.

    Databases saved before the stanza existed pass (legacy layout is the
    current layout); a *present but wrong* stanza raises a typed
    :class:`IntegrityError` so the mismatch is caught before any byte of
    the pages file is interpreted — mapping a file at the wrong stride
    would otherwise decode as plausible-looking garbage.
    """
    layout = metadata.get("pages_layout")
    if layout is None:
        return
    expected = {
        "stride": config.page_size,
        "count": num_pages,
        "checksum": "crc32",
        "endianness": "little",
    }
    for key, want in expected.items():
        got = layout.get(key)
        if got != want:
            raise IntegrityError(
                "%s: pages_layout %s mismatch (metadata says %r, loader "
                "expects %r); refusing to interpret the pages file"
                % (source, key, got, want))


def _verify_page_bytes(data, page_id, expected_crc, source):
    """Raise :class:`IntegrityError` unless ``data`` matches its CRC."""
    actual = zlib.crc32(data)
    if actual != expected_crc:
        raise IntegrityError(
            "page %d in %s failed checksum verification "
            "(expected CRC32 0x%08x, got 0x%08x)"
            % (page_id, source, expected_crc, actual),
            page_id=page_id, expected_crc=expected_crc,
            actual_crc=actual)


def load_database(prefix):
    """Load a database previously written by :func:`save_database`.

    The resident :class:`GraphDatabase` is derived from the one page
    store: open a :class:`FileBackedDatabase`, decode every page through
    its verified chunk path (a chunk of regions is checksummed, then
    decoded in one vectorized pass), close it, validate.  The three
    steps report as ``load_meta`` / ``load_pages`` / ``load_validate``
    spans (:mod:`repro.spans`).
    """
    with span("load_meta"):
        store = FileBackedDatabase(prefix, pool_pages=1)
    with span("load_pages"):
        try:
            pages = list(store._parse_pages(range(store.num_pages)))
        finally:
            store.close()

    db = GraphDatabase(
        pages=pages,
        directory=store.directory,
        rvt=store.rvt,
        config=store.config,
        num_vertices=store.num_vertices,
        num_edges=store.num_edges,
        out_degrees=store.out_degrees,
        vertex_page=store.vertex_page,
        name=store.name,
    )
    db.wal_epoch = store.wal_epoch
    with span("load_validate"):
        db.validate()
    return db


def _read_metadata(prefix):
    meta_path = prefix + ".meta.json"
    with open(meta_path) as handle:
        metadata = json.load(handle)
    if metadata.get("version") != FORMAT_VERSION:
        raise FormatError(
            "%s: unsupported database version %r"
            % (meta_path, metadata.get("version")))
    return metadata


class FileBackedDatabase(GraphDatabase):
    """A GraphDatabase whose pages load lazily from the pages file.

    Metadata (directory, RVT, degrees) is resident; page payloads are
    parsed from disk on first use and cached in an LRU pool of
    ``pool_pages`` entries.  Everything the engine needs —
    :meth:`page`, :meth:`page_for_vertex`, the ID lists, the statistics
    — behaves identically to the eager database, so GTS runs unchanged
    on top of it; only this process's memory footprint differs.

    Thread safety: the pool (probe, LRU refresh, eviction, insert) and
    the host-I/O counters are guarded by instrumented locks so the
    service layer can run many queries against one handle.  Page parses
    happen *outside* the pool lock — two threads missing on the same
    page at worst parse it twice, and the second inserter adopts the
    first's resident instance.  When a
    :class:`~repro.core.cache.SharedPageCache` is attached
    (``self.shared_cache``), pool misses consult it before touching the
    pages file and populate it after a checksum-verified parse, so warm
    queries skip the disk read and the byte-level decode entirely.

    The read path: the pages file is memory-mapped read-only once at
    open, and pages decode in *chunks* straight from a NumPy view over
    the mapping — one vectorized
    :func:`~repro.format.page.decode_pages` pass per chunk, whether the
    caller wants page objects (:meth:`page`, :meth:`prefetch`,
    :func:`load_database`, :meth:`validate`) or the flat arrays a plan
    is built from (:meth:`topology_arrays`).  Each page-sized region is
    checksum-verified exactly once, on first touch (the ``_verified``
    bitmap), before any byte of it is interpreted, and that first touch
    books the host-I/O counters — later touches are zero-copy
    ``mmap_hits``.  Decoded arrays are fresh (nothing aliases the
    mapping), so the shared cache never holds mapped views and pages
    and plans outlive :meth:`close`.

    A chunk goes back to page-by-page parsing on two conditions the
    store observes itself: a fault injector is attached (injected
    corruption needs mutable bytes, so every page takes ``os.pread``
    plus the reference per-byte ``from_bytes`` parsers), or one of its
    mapped regions fails its checksum (that page takes the copy path —
    a verified re-read recovers transient damage, persistent damage
    raises :class:`IntegrityError`, never a poisoned view — and its
    undamaged neighbours decode from the mapping one by one).
    """

    def __init__(self, prefix, pool_pages=256):
        metadata = _read_metadata(prefix)
        config = PageFormatConfig(**metadata["config"])
        rvt = RecordVertexTable(metadata["rvt"]["start_vids"],
                                metadata["rvt"]["lp_ranges"])
        directory = [PageDirectoryEntry(**record)
                     for record in metadata["directory"]]
        super().__init__(
            pages=[None] * len(directory),
            directory=directory,
            rvt=rvt,
            config=config,
            num_vertices=metadata["num_vertices"],
            num_edges=metadata["num_edges"],
            out_degrees=np.asarray(metadata["out_degrees"],
                                   dtype=np.int64),
            vertex_page=np.asarray(metadata["vertex_page"],
                                   dtype=np.int64),
            name=metadata["name"],
        )
        self.wal_epoch = metadata.get("wal_epoch", 0)
        self._pages_path = prefix + ".pages"
        expected = len(directory) * config.page_size
        actual = os.path.getsize(self._pages_path)
        if actual != expected:
            raise FormatError(
                "%s: expected %d bytes of pages, found %d"
                % (self._pages_path, expected, actual))
        self._lp_total_degrees = {
            int(k): v for k, v in metadata["lp_total_degrees"].items()}
        #: Slots to decode per page (a large page holds exactly one).
        self._dir_records = np.asarray(
            [entry.num_records if entry.kind == "SP" else 1
             for entry in directory], dtype=np.int64)
        self._page_checksums = _checksums_from_metadata(
            metadata, prefix + ".meta.json")
        _validate_pages_layout(metadata, config, len(directory),
                               prefix + ".meta.json")
        if pool_pages < 1:
            raise FormatError("page pool needs at least one slot")
        self._pool_pages = pool_pages
        #: Public pool capacity; bounds :attr:`prefetch_chunk` so a
        #: warm-ahead never evicts its own pages.
        self.pool_capacity = pool_pages
        self._pool = OrderedDict()
        self.pool_hits = 0
        self.pool_misses = 0
        #: Guards the pool's probe/refresh/evict/insert and its hit
        #: counters; parses run outside it (see the class docstring).
        self._pool_lock = InstrumentedLock()
        #: Guards the real-I/O counters and the ``_verified`` bitmap.
        self._io_lock = InstrumentedLock()
        #: Optional :class:`~repro.faults.FaultInjector`; when attached,
        #: host page reads consult its ``host_corrupt_reads`` budget.
        self.fault_injector = None
        #: Host reads that failed verification and were re-read clean.
        self.integrity_retries = 0
        #: Real-I/O accounting (always on — three integer updates per
        #: first touch or fallback read): bytes read, reads issued, and
        #: reads whose page immediately follows the previous one.
        self.host_bytes_read = 0
        self.host_reads = 0
        self.host_adjacent_reads = 0
        self._last_read_pid = -2
        #: ``mmap_hits`` counts parses served zero-copy from an
        #: already-verified mapped region; ``mmap_misses`` counts parses
        #: that paid first-touch verification or fell back to the copy
        #: path.
        self.mmap_hits = 0
        self.mmap_misses = 0
        self._fd = os.open(self._pages_path, os.O_RDONLY)
        self._mmap = None
        self._mmap_view = None
        self._verified = np.zeros(len(directory), dtype=bool)
        if actual > 0:  # an empty file cannot be mapped (and has no page)
            self._mmap = mmap.mmap(self._fd, 0, access=mmap.ACCESS_READ)
            self._mmap_view = np.frombuffer(self._mmap, dtype=np.uint8)

    # ------------------------------------------------------------------
    def close(self):
        """Release the mapping and the file descriptor (idempotent).

        Pages already decoded (pool, shared cache, plan arrays) hold
        only materialised arrays, so they stay valid after close; a
        parse attempted afterwards raises :class:`FormatError`.
        """
        self._mmap_view = None
        if self._mmap is not None:
            try:
                self._mmap.close()
            except BufferError:
                # A live traceback still references a mapped view (a
                # decode raised); the mapping is released with it.
                pass
            self._mmap = None
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __del__(self):  # best-effort; close() is the real API
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    def attach_fault_injector(self, injector):
        """Route this database's host page reads through ``injector``.

        Refuses plans that corrupt host reads when the database has no
        checksums to catch them — silently wrong topology is the one
        outcome the fault model must never produce.
        """
        if (injector.plan.host_corrupt_reads
                and self._page_checksums is None):
            raise ConfigurationError(
                "fault plan corrupts host page reads but this database "
                "predates page checksums; corruption would go "
                "undetected (re-save the database first)")
        self.fault_injector = injector

    def detach_fault_injector(self):
        self.fault_injector = None

    # ------------------------------------------------------------------
    def page(self, page_id):
        if page_id < 0 or page_id >= len(self.directory):
            raise FormatError("unknown page ID %d" % page_id)
        with self._pool_lock:
            page = self._pool.get(page_id)
            if page is not None:
                self._pool.move_to_end(page_id)
                self.pool_hits += 1
                return page
            self.pool_misses += 1
        # Pool miss: consult the cross-query shared cache (if the
        # service attached one) before paying the disk read and the
        # parse.  It stores only checksum-verified decoded pages keyed
        # by topology version, so a warm hit is exactly the object a
        # fresh parse would produce.
        shared = self.shared_cache
        page = shared.get(page_id, self.topology_version) \
            if shared is not None else None
        if page is None:
            # The span sits on the parse path only; pool and
            # shared-cache hits stay dict probes no matter what.
            with span("format.io.page"):
                page = self._parse_page(page_id)
            if shared is not None:
                # Only verified parses reach this line (_parse_page
                # raises on persistent checksum mismatch), so injected
                # or real corruption can never poison the shared cache;
                # and the decoded arrays never alias the mapping.
                shared.put(page_id, self.topology_version, page)
        return self._pool_insert(page_id, page)

    def _pool_insert(self, page_id, page):
        """Insert a parsed page into the pool (evicting LRU entries).

        Returns the resident instance: when another thread parsed the
        same page meanwhile, callers adopt its object instead.
        """
        with self._pool_lock:
            racer = self._pool.get(page_id)
            if racer is not None:
                self._pool.move_to_end(page_id)
                return racer
            while len(self._pool) >= self._pool_pages:
                self._pool.popitem(last=False)
            self._pool[page_id] = page
        return page

    def prefetch(self, page_ids):
        """Warm the pool with ``page_ids`` ahead of per-page use.

        Pages (deduplicated, in request order) that miss both the pool
        and the shared cache are decoded together through the chunk
        path — one checksum pass over their mapped regions, one
        vectorized decode, then split into page objects — so a run of
        misses costs one NumPy pass instead of one parse per page.
        First-touch verification, fault injection and retry semantics
        are those of :meth:`page` (a chunk the mapping cannot serve is
        parsed page by page), and the pool hit/miss and shared-cache
        accounting per page matches what per-page :meth:`page` calls
        would record.  Returns the number of pages actually read.
        """
        pending = []
        with self._pool_lock:
            for pid in page_ids:
                pid = int(pid)
                if pid < 0 or pid >= len(self.directory):
                    raise FormatError("unknown page ID %d" % pid)
                if pid in self._pool:
                    self._pool.move_to_end(pid)
                    self.pool_hits += 1
                else:
                    self.pool_misses += 1
                    pending.append(pid)
        shared = self.shared_cache
        disk = []
        for pid in dict.fromkeys(pending):
            page = shared.get(pid, self.topology_version) \
                if shared is not None else None
            if page is not None:
                self._pool_insert(pid, page)
            else:
                disk.append(pid)
        if not disk:
            return 0
        # Same span as :meth:`page`: it covers reads and decodes only,
        # never the pool/shared-cache dict probes above.
        with span("format.io.page"):
            for page in self._parse_pages(disk):
                if shared is not None:
                    shared.put(page.page_id, self.topology_version, page)
                self._pool_insert(page.page_id, page)
        return len(disk)

    def pool_lock_stats(self):
        """Pool and I/O-counter lock contention (service stats)."""
        return {"pool": self._pool_lock.stats(),
                "io": self._io_lock.stats()}

    def _read_page_bytes(self, page_id):
        """One raw page read; a fault injector may corrupt the result.

        ``os.pread`` on the persistent descriptor: offset-explicit, so
        concurrent reader threads never race on a seek position.
        """
        data = os.pread(self._fd, self.config.page_size,
                        page_id * self.config.page_size)
        with self._io_lock:
            self.host_bytes_read += len(data)
            self.host_reads += 1
            if page_id == self._last_read_pid + 1:
                self.host_adjacent_reads += 1
            self._last_read_pid = page_id
        injector = self.fault_injector
        if injector is not None and injector.host_read_corrupt(page_id):
            data = bytes([data[0] ^ 0xFF]) + data[1:]
        return data

    def _decode_chunk(self, page_ids):
        """The chunk path: verify, book and decode ``page_ids`` at once.

        ``page_ids`` are distinct.  Every region not yet verified is
        checked against ``page_checksums`` before a byte of the chunk is
        interpreted; the counters then move exactly as page-by-page
        parses would move them (one ``mmap_hit`` per verified region,
        one ``mmap_miss`` plus one booked host read per first touch,
        under one ``_io_lock`` hold), and the whole chunk decodes in one
        :func:`~repro.format.page.decode_pages` pass.

        Returns that function's arrays — or ``None``, having booked
        nothing, when the mapping cannot serve the chunk: a fault
        injector is attached, or a region failed its checksum.  The
        caller then parses page by page (:meth:`_parse_page`).
        """
        if self._fd is None:
            raise FormatError("%s: store is closed" % self._pages_path)
        if self.fault_injector is not None:
            return None
        pids = np.asarray(page_ids, dtype=np.int64)
        size = self.config.page_size
        view = self._mmap_view
        fresh = pids[~self._verified[pids]]
        if self._page_checksums is not None:
            checksums = self._page_checksums
            for pid in fresh.tolist():
                if zlib.crc32(view[pid * size:(pid + 1) * size]) \
                        != checksums[pid]:
                    return None
        with self._io_lock:
            self.mmap_hits += len(pids) - len(fresh)
            self.mmap_misses += len(fresh)
            # First touch: verify once, book the host I/O once (a racing
            # thread may have booked some of these regions meanwhile).
            booked = fresh[~self._verified[fresh]]
            if len(booked):
                self._verified[booked] = True
                self.host_bytes_read += size * len(booked)
                self.host_reads += len(booked)
                previous = np.concatenate(
                    ([self._last_read_pid], booked[:-1]))
                self.host_adjacent_reads += int(
                    np.count_nonzero(booked == previous + 1))
                self._last_read_pid = int(booked[-1])
        return decode_pages(view, pids * size, self._dir_records[pids],
                            self.config)

    def _chunk_pages(self, page_ids, decoded):
        """Split one :meth:`_decode_chunk` result into page objects."""
        rec_vids, degrees, adj_pids, adj_slots, adj_weights = decoded
        # Re-derive the logical neighbour IDs through the RVT (the
        # serialized form stores only physical IDs).
        adj_vids = self.rvt.translate(adj_pids, adj_slots)
        edge_ends = np.concatenate(([0], np.cumsum(degrees)))
        pages = []
        rec_lo = 0
        for pid in page_ids:
            rec_hi = rec_lo + int(self._dir_records[pid])
            edge_lo, edge_hi = int(edge_ends[rec_lo]), int(edge_ends[rec_hi])
            edges = slice(edge_lo, edge_hi)
            # A page without records reports VID 0, as ``from_bytes`` does.
            start_vid = int(rec_vids[rec_lo]) if rec_hi > rec_lo else 0
            # Copies, not views: a page owns its arrays, so evicting it
            # frees them whatever happened to the rest of its chunk.
            weights = (None if adj_weights is None
                       else adj_weights[edges].copy())
            if self.directory[pid].kind == "SP":
                page = SmallPage(
                    pid, start_vid, edge_ends[rec_lo:rec_hi + 1] - edge_lo,
                    adj_pids[edges].copy(), adj_slots[edges].copy(),
                    adj_vids[edges].copy(), self.config,
                    adj_weights=weights)
            else:
                page = LargePage(
                    pid, start_vid, int(self.rvt.lp_ranges[pid]),
                    adj_pids[edges].copy(), adj_slots[edges].copy(),
                    adj_vids[edges].copy(), self.config,
                    adj_weights=weights,
                    total_degree=self._lp_total_degrees.get(pid))
            pages.append(page)
            rec_lo = rec_hi
        return pages

    def _parse_pages(self, page_ids):
        """Yield the decoded page for each of ``page_ids`` (distinct),
        a chunk at a time: the chunk path split into page objects, or
        page-by-page parses of a chunk the mapping cannot serve."""
        page_ids = list(page_ids)
        for lo in range(0, len(page_ids), _CHUNK_PAGES):
            chunk = page_ids[lo:lo + _CHUNK_PAGES]
            # A chunk of one is a page parse.
            decoded = self._decode_chunk(chunk) if len(chunk) > 1 else None
            if decoded is not None:
                yield from self._chunk_pages(chunk, decoded)
            else:
                for pid in chunk:
                    yield self._parse_page(pid)

    def _parse_page(self, page_id):
        """Decode one page: a chunk of one off the mapping, or the copy
        fallback when the mapping cannot serve it."""
        decoded = self._decode_chunk([page_id])
        if decoded is not None:
            return self._chunk_pages([page_id], decoded)[0]
        with self._io_lock:
            self.mmap_misses += 1
            if self.fault_injector is None:
                # The mapped bytes are damaged.  A copy re-read goes
                # through the kernel read path and may observe clean
                # bytes (transient page-cache damage); persistent file
                # damage raises the typed IntegrityError from the copy
                # path's verify loop.  Either way no caller ever decodes
                # the poisoned view.
                self.integrity_retries += 1
        return self._parse_page_copy(page_id)

    def _parse_page_copy(self, page_id):
        data = self._read_page_bytes(page_id)
        if self._page_checksums is not None:
            # Transient corruption on the host read path (bit flips in
            # transit, bad cable, cosmic ray in the page cache) is
            # recoverable: the checksum catches it and a re-read gets a
            # clean copy.  Persistent mismatch means the file itself is
            # damaged — surface the typed error.
            injector = self.fault_injector
            attempts = (injector.retry.max_attempts
                        if injector is not None else 2)
            expected = self._page_checksums[page_id]
            for attempt in range(attempts):
                try:
                    _verify_page_bytes(data, page_id, expected,
                                       self._pages_path)
                    break
                except IntegrityError:
                    if attempt + 1 >= attempts:
                        raise
                    with self._io_lock:
                        self.integrity_retries += 1
                    data = self._read_page_bytes(page_id)
        # The copy path decodes with the per-byte reference parsers.
        if self.directory[page_id].kind == "SP":
            page = SmallPage.from_bytes(
                data, page_id, self.directory[page_id].num_records,
                self.config)
        else:
            page = LargePage.from_bytes(
                data, page_id, int(self.rvt.lp_ranges[page_id]),
                self.config,
                total_degree=self._lp_total_degrees.get(page_id))
        page.adj_vids = self.rvt.translate(page.adj_pids, page.adj_slots)
        return page

    def is_small(self, page_id):
        return self.directory[page_id].kind == "SP"

    def topology_arrays(self):
        """The flat arrays of :meth:`GraphDatabase.topology_arrays`,
        decoded chunk by chunk off the mapping.

        No page object is built and the pool is not touched, so a plan
        build never fills the pool with pages the run will not read
        again.  A chunk the mapping cannot serve (fault injector
        attached, damaged region) sends the scan to the generic
        per-page body, whose :meth:`prefetch` / :meth:`page` calls take
        the copy fallback.
        """
        # Same span as :meth:`page` and :meth:`prefetch`.
        with span("format.io.page"):
            chunks = []
            for lo in range(0, self.num_pages, _CHUNK_PAGES):
                decoded = self._decode_chunk(
                    range(lo, min(lo + _CHUNK_PAGES, self.num_pages)))
                if decoded is None:
                    chunks = None
                    break
                chunks.append(decoded)
        if not chunks:
            return super().topology_arrays()
        rec_vids, degrees, adj_pids, adj_slots = (
            np.concatenate(parts) for parts in list(zip(*chunks))[:4])
        rec_counts = self._dir_records
        rec_starts = np.cumsum(rec_counts) - rec_counts
        edge_ends = np.concatenate(([0], np.cumsum(degrees)))
        # A large page's one record divides by the vertex's degree
        # across its whole run of large pages, not by this chunk's.
        rec_divisor = degrees.copy()
        lp_pids = np.fromiter(self._lp_total_degrees, dtype=np.int64)
        rec_divisor[rec_starts[lp_pids]] = np.fromiter(
            self._lp_total_degrees.values(), dtype=np.int64)
        return {
            "rec_counts": rec_counts,
            "edge_counts": (edge_ends[rec_starts + rec_counts]
                            - edge_ends[rec_starts]),
            "degrees": degrees,
            "rec_vids": rec_vids,
            "rec_divisor": rec_divisor,
            "adj_vids": self.rvt.translate(adj_pids, adj_slots),
            "adj_pids": adj_pids,
            "adj_weights": (np.concatenate([c[4] for c in chunks])
                            if self.config.weight_bytes else None),
        }

    def validate(self):
        """Validate through the lazy loader (every page decodes once,
        a chunk at a time; nothing is kept)."""
        covered = 0
        total_edges = 0
        for page in self._parse_pages(range(self.num_pages)):
            if page.kind is PageKind.SMALL:
                covered += page.num_records
            elif page.chunk_index == 0:
                covered += 1
            total_edges += page.num_edges
        if covered != self.num_vertices:
            raise FormatError(
                "pages cover %d vertices, expected %d"
                % (covered, self.num_vertices))
        if total_edges != self.num_edges:
            raise FormatError(
                "pages hold %d edges, expected %d"
                % (total_edges, self.num_edges))
        return True

    def resident_pages(self):
        """Pages currently decoded in the pool."""
        return len(self._pool)
