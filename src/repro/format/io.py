"""Persist slotted-page databases to disk and load them back.

GTS stores its slotted pages on SSDs; this module gives the reproduction
the same durable artefact: :func:`save_database` encodes a database's
flat topology arrays, page by page in their exact byte layout, into one
pages file plus a JSON metadata sidecar, and :func:`load_database`
decodes every page back into the arrays of a fully usable
:class:`~repro.format.database.GraphDatabase` (logical neighbour IDs
re-derived from the physical ones through the RVT, exercising the real
decode path end to end).

For graphs whose topology should not be decoded up front,
:class:`FileBackedDatabase` opens the same files *lazily*: its plan
arrays come from the ``.plan`` sidecar or one decode of the mapped
pages, and single pages are parsed on demand into a bounded LRU pool.

Layout on disk::

    <prefix>.meta.json   format config, directory, RVT, degrees, page
                         CRC32s — the authoritative description
    <prefix>.pages       page 0 bytes, page 1 bytes, ... (fixed stride)
    <prefix>.plan        the same store as flat arrays (see below); a
                         cache of the other two, never authoritative
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

The ``.plan`` sidecar lets a fresh process open warm: it holds the
metadata columns (directory, RVT, degrees, vertex pages, large-page
total degrees, page CRC32s) and the eight flat arrays of
:meth:`~repro.format.database.GraphDatabase.topology_arrays`, so an open
parses no JSON and a plan build decodes no page.  Layout: the magic
``GTSPLAN1``, the header's length and CRC32 (two LE ``uint32``), the
header — sorted-key JSON of the scalars, the CRC32 of the ``.meta.json``
bytes it was written beside, and each field's dtype, length, offset and
CRC32 — then every field as one 64-byte-aligned region.  The sidecar is
used only when its header and regions verify and its recorded CRC32
matches the ``.meta.json`` on disk; a missing, older, damaged, truncated
or foreign sidecar, or an attached fault injector, sends the store back
to parsing the JSON and decoding pages, with identical results.

All three files are written to temporaries and moved into place with
``os.replace``, so a crash mid-save leaves the previous files intact
rather than a torn half-write.
"""

import contextlib
import json
import mmap
import numbers
import os
import struct
import warnings
import zlib
from collections import OrderedDict

import numpy as np

from repro.concurrency import InstrumentedLock
from repro.errors import ConfigurationError, FormatError, IntegrityError
from repro.format.config import PageFormatConfig
from repro.format.database import (
    GraphDatabase,
    PageDirectory,
    page_rows,
    topology_from_rows,
)
from repro.format.page import LargePage, SmallPage, decode_pages, encode_pages
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

#: ``.plan`` sidecar framing: magic, then the header's length and CRC32.
_PLAN_MAGIC = b"GTSPLAN1"
_PLAN_PREFIX = struct.Struct("<8sII")

#: Sidecar regions start on this boundary (relative to the first one),
#: so every field is an aligned view of the buffer it is read into.
_PLAN_ALIGN = 64

#: Top-level ``.meta.json`` keys the sidecar header carries verbatim
#: (the last two are absent from older saves).
_PLAN_SCALARS = ("version", "name", "num_vertices", "num_edges", "config",
                 "wal_epoch", "pages_layout")

#: A ``.meta.json`` directory row's keys; column ``"dir_" + key`` of
#: the metadata (``kind``: 1 for a large page).  Past the page ID, the
#: :class:`~repro.format.database.PageDirectory` columns in order.
_DIRECTORY_FIELDS = ("page_id", "kind", "start_vid", "num_records",
                     "num_edges", "used_bytes")

#: The metadata columns both sources produce and an open reads.
_PLAN_META = tuple("dir_" + field for field in _DIRECTORY_FIELDS) + (
    "rvt_start_vids", "rvt_lp_ranges", "out_degrees", "vertex_page",
    "lp_pids", "lp_total_degrees", "page_checksums")

#: The :meth:`GraphDatabase.topology_arrays` fields, read by a plan build.
_PLAN_TOPOLOGY = ("rec_counts", "edge_counts", "degrees", "rec_vids",
                  "rec_divisor", "adj_vids", "adj_pids", "adj_weights")

#: Sidecar field dtypes other than ``<i8``.
_PLAN_DTYPES = {"page_checksums": "<u4", "adj_weights": "<f4"}


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


def _align(offset):
    return -(-offset // _PLAN_ALIGN) * _PLAN_ALIGN


def _topology_fields(rvt, rec_counts, columns, lp_pids, lp_totals):
    """The :meth:`GraphDatabase.topology_arrays` rows of a run of pages
    (``rec_counts`` holds each one's slot count), given their
    :func:`~repro.format.page.decode_pages` ``columns``.  ``lp_pids``
    are the positions of the large ones among them and ``lp_totals``
    their vertices' total degrees: a large page's one record divides by
    the vertex's degree across its whole run of large pages, not by this
    page's share.
    """
    rec_vids, degrees, adj_pids, adj_slots, adj_weights = columns
    rec_starts = np.cumsum(rec_counts) - rec_counts
    edge_ends = np.concatenate(([0], np.cumsum(degrees)))
    rec_divisor = degrees.copy()
    rec_divisor[rec_starts[lp_pids]] = lp_totals
    return {
        "rec_counts": rec_counts,
        "edge_counts": (edge_ends[rec_starts + rec_counts]
                        - edge_ends[rec_starts]),
        "degrees": degrees,
        "rec_vids": rec_vids,
        "rec_divisor": rec_divisor,
        "adj_vids": rvt.translate(adj_pids, adj_slots),
        "adj_pids": adj_pids,
        "adj_weights": adj_weights,
    }


def _write_plan(handle, scalars, regions, meta_crc):
    """Write the ``.plan`` sidecar into the open binary ``handle``: the
    framed header binding it to ``.meta.json`` bytes of CRC32
    ``meta_crc``, then each of ``regions`` (name -> values, in order)
    as one aligned, CRC32-checked region."""
    fields, blobs, offset = {}, [], 0
    for name, values in regions.items():
        dtype = _PLAN_DTYPES.get(name, "<i8")
        data = np.ascontiguousarray(values, dtype=dtype)
        fields[name] = {"crc32": "%08x" % zlib.crc32(data), "dtype": dtype,
                        "length": len(data), "offset": offset}
        blobs.append((offset, data))
        offset = _align(offset + data.nbytes)
    header = json.dumps({"fields": fields, "meta_crc32": "%08x" % meta_crc,
                         "scalars": scalars}, sort_keys=True).encode("ascii")
    base = _align(_PLAN_PREFIX.size + len(header))
    handle.write(_PLAN_PREFIX.pack(_PLAN_MAGIC, len(header),
                                   zlib.crc32(header)) + header)
    written = _PLAN_PREFIX.size + len(header)
    for at, data in blobs:
        handle.write(bytes(base + at - written))
        handle.write(data)
        written = base + at + data.nbytes


def save_database(db, prefix, wal_epoch=None):
    """Write ``db`` under ``<prefix>.meta.json`` / ``.pages`` / ``.plan``.

    Returns the ``.meta.json`` and ``.pages`` paths.  Pages are
    serialized a chunk at a time from slices of ``db.topology_arrays()``
    — :func:`~repro.format.page.encode_pages` lays up to
    ``_ENCODE_CHUNK_BYTES`` of pages into one buffer in a vectorized
    pass, each page region of it is checksummed, and the chunk is
    written once — so compaction and the CLI, which save through here,
    pay no per-edge Python work.  The ``.plan`` sidecar (see the module
    docstring) is written straight from the same arrays.  Any field that
    does not fit its configured width, or a page whose contents overflow
    ``page_size``, raises :class:`~repro.errors.FormatError`.

    The write is atomic per file: content goes to ``<path>.tmp`` first,
    is fsynced, and is renamed into place with ``os.replace`` — pages,
    then metadata, then the sidecar.  A crash can leave a stale temp
    file behind but never a corrupt or mismatched pair (the metadata
    always describes a fully written pages file), and a sidecar left
    over from the previous save is bound to the previous metadata's
    CRC32, so readers ignore it.  A save that *raises* removes its temp
    files and leaves the live files as they were.  After the renames the
    parent directory is fsynced, so a crash immediately after a
    successful save cannot roll the files back to the old version (the
    WAL epoch protocol depends on a saved base staying saved).

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
    plan_path = prefix + ".plan"
    config = db.config
    if wal_epoch is None:
        wal_epoch = getattr(db, "wal_epoch", 0)
    arrays = db.topology_arrays()
    num_pages = db.num_pages
    rec_at = np.concatenate(([0], np.cumsum(arrays["rec_counts"])))
    edge_at = np.concatenate(([0], np.cumsum(arrays["edge_counts"])))
    lp_pids = db.large_page_ids()
    lp_totals = arrays["rec_divisor"][rec_at[lp_pids]]
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
            {"page_id": pid, "kind": "LP" if large else "SP",
             "start_vid": start, "num_records": records,
             "num_edges": edges, "used_bytes": used}
            for pid, (large, start, records, edges, used) in enumerate(zip(
                *(column.tolist() for column in db.directory.columns())))
        ],
        "rvt": {
            "start_vids": db.rvt.start_vids.tolist(),
            "lp_ranges": db.rvt.lp_ranges.tolist(),
        },
        "out_degrees": db.out_degrees.tolist(),
        "vertex_page": db.vertex_page.tolist(),
        "lp_total_degrees": {
            str(pid): total
            for pid, total in zip(lp_pids.tolist(), lp_totals.tolist())},
        # Physical layout contract for the pages file.  Readers validate
        # this before memory-mapping: a stride or endianness mismatch
        # must surface as a typed IntegrityError, never a garbled parse
        # of a file whose geometry the loader guessed wrong.
        "pages_layout": {
            "stride": config.page_size,
            "count": num_pages,
            "checksum": "crc32",
            "endianness": "little",
        },
    }
    page_size = config.page_size
    per_chunk = max(1, _ENCODE_CHUNK_BYTES // page_size)
    weights = arrays["adj_weights"]
    checksums = []
    temps = [pages_path + ".tmp", meta_path + ".tmp", plan_path + ".tmp"]
    try:
        with open(temps[0], "wb") as handle:
            for lo in range(0, num_pages, per_chunk):
                hi = min(lo + per_chunk, num_pages)
                recs = slice(rec_at[lo], rec_at[hi])
                edges = slice(edge_at[lo], edge_at[hi])
                adj_vids = arrays["adj_vids"][edges]
                adj_pids = arrays["adj_pids"][edges]
                chunk = memoryview(encode_pages(
                    arrays["rec_vids"][recs], arrays["degrees"][recs],
                    adj_pids, adj_vids - db.rvt.start_vids[adj_pids],
                    None if weights is None else weights[edges],
                    arrays["rec_counts"][lo:hi], config,
                    page_ids=range(lo, hi)))
                checksums.extend(
                    zlib.crc32(chunk[base:base + page_size])
                    for base in range(0, len(chunk), page_size))
                handle.write(chunk)
            handle.flush()
            os.fsync(handle.fileno())
        # Index i is the checksum of page i (page IDs are dense, so the
        # directory index and the page ID coincide).
        metadata["page_checksums"] = checksums
        # One ``dumps``: the C encoder.  ``json.dump`` would stream the
        # same bytes through the pure-Python ``_iterencode``.
        meta_bytes = json.dumps(metadata).encode("ascii")
        regions = dict(zip(("dir_" + key for key in _DIRECTORY_FIELDS),
                           (np.arange(num_pages), *db.directory.columns())))
        regions.update(
            rvt_start_vids=db.rvt.start_vids, rvt_lp_ranges=db.rvt.lp_ranges,
            out_degrees=db.out_degrees, vertex_page=db.vertex_page,
            lp_pids=lp_pids, lp_total_degrees=lp_totals,
            page_checksums=checksums)
        regions.update((name, arrays[name]) for name in _PLAN_TOPOLOGY)
        if not (config.weight_bytes and num_pages):
            # Absent without weights, as the decode path returns None.
            del regions["adj_weights"]
        with open(temps[2], "wb") as handle:
            _write_plan(handle, {key: metadata[key] for key in _PLAN_SCALARS},
                        regions, zlib.crc32(meta_bytes))
            handle.flush()
            os.fsync(handle.fileno())
        with open(temps[1], "wb") as handle:
            handle.write(meta_bytes)
            handle.flush()
            os.fsync(handle.fileno())
        for path in (pages_path, meta_path, plan_path):
            os.replace(path + ".tmp", path)
    except BaseException:
        # Only this call's temp files; the live files are never touched.
        for path in temps:
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
    return checksums.tolist()


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

    The resident :class:`GraphDatabase` holds the arrays decoded from
    the one page store: open a :class:`FileBackedDatabase`, decode every
    page through its verified chunk path (a chunk of regions is
    checksummed, then decoded in one vectorized pass — never read from
    the ``.plan`` sidecar), close it, validate.  The three steps report
    as ``load_meta`` / ``load_pages`` / ``load_validate`` spans
    (:mod:`repro.spans`).
    """
    with span("load_meta"):
        store = FileBackedDatabase(prefix, pool_pages=1)
    with span("load_pages"):
        try:
            topology = store._decoded_arrays()
        finally:
            store.close()

    db = GraphDatabase(
        topology=topology,
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


def _read_regions(fd, base, fields):
    """Read ``fields`` (header entries) off the sidecar ``fd`` into one
    private buffer (``preadv``: a positional ``readinto``) and verify
    each region's CRC32.

    Returns ``(views, bytes read)`` — ``views`` maps each name to an
    array over the buffer (nothing aliases a mapping or the file) — or
    ``None`` when the file is short or a region fails its CRC32.
    """
    spans = {name: (field["offset"], field["offset"] + field["length"]
                    * np.dtype(field["dtype"]).itemsize)
             for name, field in fields.items()}
    lo = min((start for start, _ in spans.values()), default=0)
    hi = max((end for _, end in spans.values()), default=0)
    buffer = np.empty(hi - lo, dtype=np.uint8)
    got = 0
    while got < len(buffer):
        # Positional, like the page reads: threads share the descriptor.
        count = os.preadv(fd, [buffer[got:]], base + lo + got)
        if not count:
            return None
        got += count
    views = {}
    for name, (start, end) in spans.items():
        region = buffer[start - lo:end - lo]
        if zlib.crc32(region) != int(fields[name]["crc32"], 16):
            return None
        views[name] = region.view(fields[name]["dtype"])
    return views, len(buffer)


def _read_plan(path, meta_crc):
    """Open the ``.plan`` sidecar at ``path`` if it is bound to
    ``.meta.json`` bytes of CRC32 ``meta_crc`` and verifies.

    Returns ``(columns, topology)``: the scalars and the verified
    :data:`_PLAN_META` columns, and ``(handle, base, fields)`` for the
    :data:`_PLAN_TOPOLOGY` regions, which a plan build reads later
    through the kept handle.  Returns ``None`` — closing the file — for
    a sidecar that is missing, from another layout or format version,
    damaged, truncated, or written beside other metadata.
    """
    try:
        handle = open(path, "rb", buffering=0)
    except OSError:
        return None
    head = handle.read(_PLAN_PREFIX.size)
    if len(head) == _PLAN_PREFIX.size:
        magic, length, crc = _PLAN_PREFIX.unpack(head)
        # Bounded by the file: a damaged length must not size a buffer.
        header = (handle.read(length) if magic == _PLAN_MAGIC and length
                  <= os.fstat(handle.fileno()).st_size else b"")
        # A verified header is the writer's own: its keys are trusted.
        if len(header) == length and zlib.crc32(header) == crc:
            header = json.loads(header)
            fields = header["fields"]
            base = _align(_PLAN_PREFIX.size + length)
            meta = None
            if (int(header["meta_crc32"], 16) == meta_crc
                    and header["scalars"]["version"] == FORMAT_VERSION):
                meta = _read_regions(handle.fileno(), base, {
                    name: fields[name] for name in _PLAN_META})
            if meta is not None:
                return dict(header["scalars"], **meta[0]), (
                    handle, base, {name: fields[name]
                                   for name in _PLAN_TOPOLOGY
                                   if name in fields})
    handle.close()
    return None


def _json_columns(raw, meta_path):
    """The metadata columns :func:`_read_plan` returns, parsed from the
    ``.meta.json`` bytes ``raw`` — the fallback source.  Malformed JSON
    or a missing key raises :class:`FormatError` naming the file."""
    try:
        metadata = json.loads(raw)
        if metadata.get("version") != FORMAT_VERSION:
            raise FormatError(
                "%s: unsupported database version %r"
                % (meta_path, metadata.get("version")))
        lp_total_degrees = metadata["lp_total_degrees"]
        checksums = metadata.get("page_checksums")
        columns = dict(
            {key: metadata[key] for key in _PLAN_SCALARS[:-2]},
            wal_epoch=metadata.get("wal_epoch", 0),
            pages_layout=metadata.get("pages_layout"),
            rvt_start_vids=np.asarray(metadata["rvt"]["start_vids"],
                                      dtype=np.int64),
            rvt_lp_ranges=np.asarray(metadata["rvt"]["lp_ranges"],
                                     dtype=np.int64),
            out_degrees=np.asarray(metadata["out_degrees"], dtype=np.int64),
            vertex_page=np.asarray(metadata["vertex_page"], dtype=np.int64),
            lp_pids=np.array([int(pid) for pid in lp_total_degrees],
                             dtype=np.int64),
            lp_total_degrees=np.array(list(lp_total_degrees.values()),
                                      dtype=np.int64),
            page_checksums=(None if checksums is None
                            else np.asarray(checksums, dtype=np.uint32)),
            **{"dir_" + key: np.array(
                [row[key] == "LP" if key == "kind" else row[key]
                 for row in metadata["directory"]], dtype=np.int64)
               for key in _DIRECTORY_FIELDS})
        return columns
    except (ArithmeticError, AttributeError, KeyError, TypeError,
            ValueError) as error:
        raise FormatError("%s: malformed metadata (%s: %s)"
                          % (meta_path, type(error).__name__, error)) \
            from error


def _read_metadata(prefix):
    """The store's metadata: one columns dict — the scalars and the
    :data:`_PLAN_META` columns — whichever file it comes from, plus the
    sidecar's topology regions.

    The ``.plan`` sidecar serves it when it is bound to these
    ``.meta.json`` bytes and verifies; otherwise the JSON is parsed and
    the topology is ``None`` (plans decode the pages).
    """
    meta_path = prefix + ".meta.json"
    with open(meta_path, "rb") as handle:
        raw = handle.read()
    return (_read_plan(prefix + ".plan", zlib.crc32(raw))
            or (_json_columns(raw, meta_path), None))


class FileBackedDatabase(GraphDatabase):
    """A GraphDatabase whose pages load lazily from the pages file.

    Metadata (directory, RVT, degrees) is resident — read from the
    ``.plan`` sidecar when it verifies against ``.meta.json``, else
    parsed from the JSON (see :func:`_read_metadata`, and
    :meth:`topology_arrays` for the plan's arrays); page payloads are
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
    first's resident instance.  The pool is the one host-side page
    cache: a miss goes straight to a checksum-verified parse.

    The read path: the pages file is memory-mapped read-only once at
    open, and pages decode in *chunks* straight from a NumPy view over
    the mapping — one vectorized
    :func:`~repro.format.page.decode_pages` pass per chunk, whether the
    caller wants page objects (:meth:`page`, :meth:`prefetch`) or the
    flat arrays (:func:`load_database`, :meth:`validate`, and a plan
    built without a usable sidecar).  Each page-sized region is
    checksum-verified exactly once, on first touch (the ``_verified``
    bitmap), before any byte of it is interpreted, and that first touch
    books the host-I/O counters — later touches are zero-copy
    ``mmap_hits``.  Decoded arrays are fresh (nothing aliases the
    mapping), so the pool never holds mapped views and pages and plans
    outlive :meth:`close`.

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
        self._pages_path = prefix + ".pages"
        if not isinstance(pool_pages, numbers.Integral) or pool_pages < 1:
            raise FormatError(
                "%s: page pool needs at least one slot, got %r"
                % (self._pages_path, pool_pages))
        columns, self._plan_topology = _read_metadata(prefix)
        config = PageFormatConfig(**columns["config"])
        rvt = RecordVertexTable(columns["rvt_start_vids"],
                                columns["rvt_lp_ranges"])
        directory = PageDirectory(columns["dir_kind"].astype(bool), *(
            columns["dir_" + key] for key in _DIRECTORY_FIELDS[2:]))
        super().__init__(
            topology=None,
            directory=directory,
            rvt=rvt,
            config=config,
            num_vertices=columns["num_vertices"],
            num_edges=columns["num_edges"],
            out_degrees=columns["out_degrees"],
            vertex_page=columns["vertex_page"],
            name=columns["name"],
        )
        self.wal_epoch = columns["wal_epoch"]
        expected = len(directory) * config.page_size
        actual = os.path.getsize(self._pages_path)
        if actual != expected:
            raise FormatError(
                "%s: expected %d bytes of pages, found %d"
                % (self._pages_path, expected, actual))
        #: Large pages, ascending, and their vertices' total degrees.
        self._lp_pids = columns["lp_pids"]
        self._lp_totals = columns["lp_total_degrees"]
        #: Slots to decode per page (a large page holds exactly one).
        self._dir_records = np.where(directory.is_large, 1,
                                     directory.num_records)
        self._page_checksums = _checksums_from_metadata(
            columns, prefix + ".meta.json")
        _validate_pages_layout(columns, config, len(directory),
                               prefix + ".meta.json")
        self._pool_pages = pool_pages
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

        Pages already decoded (pool, plan arrays) hold
        only materialised arrays, so they stay valid after close; a
        parse attempted afterwards raises :class:`FormatError`.
        """
        topology = getattr(self, "_plan_topology", None)
        if topology is not None:  # first: __init__ may not have finished
            topology[0].close()
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
        # The span sits on the parse path only; pool hits stay dict
        # probes no matter what.  Only verified parses return
        # (_parse_page raises on persistent checksum mismatch), so
        # corruption never reaches the pool.
        with span("format.io.page"):
            page = self._parse_page(page_id)
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

        Pages (deduplicated, in request order) that miss the pool are
        decoded together through the chunk path — one checksum pass
        over their mapped regions, one vectorized decode, then split
        into page objects — so a run of misses costs one NumPy pass
        instead of one parse per page.  First-touch verification, fault
        injection and retry semantics are those of :meth:`page` (a
        chunk the mapping cannot serve is parsed page by page), and the
        pool hit/miss accounting per page matches what per-page
        :meth:`page` calls would record.  Returns the number of pages
        actually read.
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
        disk = list(dict.fromkeys(pending))
        if not disk:
            return 0
        # Same span as :meth:`page`: it covers reads and decodes only,
        # never the pool's dict probes above.
        with span("format.io.page"):
            for page in self._parse_pages(disk):
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
            if not self.directory.is_large[pid]:
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
                    total_degree=self._total_degree(pid))
            pages.append(page)
            rec_lo = rec_hi
        return pages

    def _total_degree(self, page_id):
        """The total degree of large page ``page_id``'s vertex."""
        return int(self._lp_totals[np.searchsorted(self._lp_pids, page_id)])

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
        if not self.directory.is_large[page_id]:
            page = SmallPage.from_bytes(
                data, page_id, int(self.directory.num_records[page_id]),
                self.config)
        else:
            page = LargePage.from_bytes(
                data, page_id, int(self.rvt.lp_ranges[page_id]),
                self.config, total_degree=self._total_degree(page_id))
        page.adj_vids = self.rvt.translate(page.adj_pids, page.adj_slots)
        return page

    def topology_arrays(self):
        """The flat arrays of :meth:`GraphDatabase.topology_arrays`.

        From the ``.plan`` sidecar when the store opened from one: one
        host read of its topology regions into a private buffer, each
        region CRC32-checked, returned as views of that buffer — no page
        decodes and no page region is booked.  Otherwise — no sidecar,
        a fault injector attached (fault semantics stay those of the
        page reads), or a region that fails its CRC32 — the arrays of
        :meth:`_decoded_arrays`.  Either way nothing aliases a mapping,
        so a plan outlives :meth:`close`.
        """
        if self._fd is None:
            raise FormatError("%s: store is closed" % self._pages_path)
        topology = self._plan_topology
        if topology is None or self.fault_injector is not None:
            return self._decoded_arrays()
        # Same span as :meth:`page` and :meth:`prefetch`: the store's
        # host reads, whichever file serves them.
        with span("format.io.page"):
            read = _read_regions(topology[0].fileno(), *topology[1:])
        if read is None:
            return self._decoded_arrays()
        arrays, nbytes = read
        with self._io_lock:
            self.host_bytes_read += nbytes
            self.host_reads += 1
        arrays.setdefault("adj_weights", None)
        return arrays

    def topology_rows(self, page_ids):
        """The rows of ``page_ids`` (ascending, distinct), decoded off
        the mapping in one chunk — or parsed one by one when the mapping
        cannot serve it — without touching the pool."""
        pids = np.asarray(page_ids, dtype=np.int64)
        with span("format.io.page"):
            decoded = self._decode_chunk(pids) if len(pids) else None
            if decoded is None:
                pages = [self._parse_page(pid) for pid in pids.tolist()]
                return topology_from_rows(
                    self._dir_records[pids],
                    np.asarray([page.num_edges for page in pages],
                               dtype=np.int64),
                    [page_rows(page) for page in pages])
        large = np.flatnonzero(self.directory.is_large[pids])
        return _topology_fields(
            self.rvt, self._dir_records[pids], decoded, large,
            self._lp_totals[np.searchsorted(self._lp_pids, pids[large])])

    def _decoded_arrays(self):
        """The flat topology arrays decoded from every verified page,
        chunk by chunk off the mapping; no page object is built and the
        pool is not touched.  A chunk the mapping cannot serve (fault
        injector attached, damaged region) sends the scan to
        :meth:`_walk_pages`, whose copy-fallback parses recover or raise
        :class:`IntegrityError`."""
        chunks = []
        with span("format.io.page"):
            for lo in range(0, self.num_pages, _CHUNK_PAGES):
                decoded = self._decode_chunk(
                    range(lo, min(lo + _CHUNK_PAGES, self.num_pages)))
                if decoded is None:
                    chunks = None
                    break
                chunks.append(decoded)
        if not chunks:
            return self._walk_pages()
        return _topology_fields(
            self.rvt, self._dir_records,
            [np.concatenate(parts) for parts in list(zip(*chunks))[:4]]
            + [np.concatenate([c[4] for c in chunks])
               if self.config.weight_bytes else None],
            self._lp_pids, self._lp_totals)

    def _walk_pages(self):
        """The flat topology arrays walked through :meth:`page`, a
        pool-sized chunk :meth:`prefetch`-ed ahead (so a warm-ahead never
        evicts its own pages): the copy fallback's scan."""
        num_pages = self.num_pages
        chunk = min(_CHUNK_PAGES, self._pool_pages)
        rows = []
        edge_counts = np.zeros(num_pages, dtype=np.int64)
        for pid in range(num_pages):
            if pid % chunk == 0:
                self.prefetch(range(pid, min(pid + chunk, num_pages)))
            page = self.page(pid)
            rows.append(page_rows(page))
            edge_counts[pid] = page.num_edges
        return topology_from_rows(self._dir_records, edge_counts, rows)

    def validate(self):
        """Validate the arrays decoded from every verified page (see
        :meth:`GraphDatabase._check_topology`); nothing is kept."""
        self._check_topology(self._decoded_arrays())
        return True

    def resident_pages(self):
        """Pages currently decoded in the pool."""
        return len(self._pool)
