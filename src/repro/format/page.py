"""Slotted pages: the fixed-size on-storage units GTS streams to GPUs.

Two page kinds exist (Section 2, Figure 1):

* :class:`SmallPage` — many low-degree vertices.  Each vertex occupies one
  slot (``VID``, ``OFF``) at the back of the page and one record
  (``ADJLIST_SZ``, ``ADJLIST``) at the front.
* :class:`LargePage` — one chunk of a single high-degree vertex's adjacency
  list.  A vertex whose list does not fit in one page is split over a run of
  consecutive large pages.

Adjacency entries are *physical record IDs*: ``(ADJ_PID, ADJ_OFF)`` pairs
pointing at the page and slot where the neighbour lives.  Kernels translate
them back to logical vertex IDs through the RVT (Appendix A).

Pages carry their data as NumPy arrays for kernel execution.  The exact
byte layout (records growing forward, slots growing backward) is written
once per direction, for a *set* of pages at a time: :func:`encode_pages`
lays flat per-record / per-edge arrays into one buffer and
:func:`decode_pages` reads them back, every field at *page base + in-page
offset*, a large page being a one-record small page; ``to_bytes`` is a
one-page call of the encoder.  The per-byte ``from_bytes`` parsers stay as
the tests' reference and the copy fallback's decoder; the per-byte encoder
they mirror lives in ``tests/reference_pages.py``.
"""

import enum
import struct

import numpy as np

from repro.errors import FormatError


class PageKind(enum.Enum):
    """Discriminates small pages from large pages."""

    SMALL = "SP"
    LARGE = "LP"


def _check_fits(name, values, width):
    """Raise :class:`FormatError` on the first value outside ``width`` bytes."""
    if len(values) and (int(values.min()) < 0
                        or int(values.max()) >> (8 * width)):
        bad = next(v for v in values.tolist() if v < 0 or v >> (8 * width))
        raise FormatError(
            "%s value %d does not fit in %d byte(s)" % (name, bad, width))


def _decode_le(data, offsets, width):
    """Vectorized little-endian integer decode.

    Reads ``width`` bytes starting at every position in ``offsets`` from
    the ``uint8`` array ``data`` and assembles them as unsigned
    little-endian integers — exactly what ``int.from_bytes`` computes in
    the per-byte reference parsers, for any of the format's odd field
    widths (the widest field, a 6-byte VID, fits int64 comfortably).
    One flat gather per byte position: faster than one two-dimensional
    gather of all the bytes.
    """
    out = data[offsets].astype(np.int64)
    for k in range(1, width):
        out |= data[offsets + k].astype(np.int64) << (8 * k)
    return out


def _encode_le(buf, pos, values, width, name):
    """The inverse of :func:`_decode_le`: stores ``values[i]`` as ``width``
    little-endian bytes at ``buf[pos[i]]``, one strided store per byte
    position.  The store keeps only the low bytes, so the range check
    comes first: a value that does not fit is a :class:`FormatError`
    naming the field, never a silent truncation."""
    _check_fits(name, values, width)
    for k in range(width):
        buf[pos + k] = (values >> (8 * k)).astype(np.uint8)


def _ranges(counts):
    """``(owner, index, first)`` of every item when segment ``i`` owns
    ``counts[i]`` consecutive items: the owning segment, the item's
    position inside it, and the position of the segment's first item."""
    owner = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    first = (np.cumsum(counts) - counts)[owner]
    return owner, np.arange(len(owner), dtype=np.int64) - first, first


def decode_pages(data, page_bases, num_records, config):
    """Vectorized decode of a *set* of pages off one ``uint8`` view.

    ``data`` is ``bytes`` or a ``uint8`` array (typically the view over
    a memory-mapped pages file), ``page_bases[i]`` the byte offset of
    the ``i``-th requested page inside it (any subset, any order) and
    ``num_records[i]`` its slot count from the page directory.  Every
    field sits at *page base + in-page offset*, so one pass decodes the
    whole set; a large page is byte-for-byte a one-record small page
    whose record starts at offset 0, so there is no kind branch.

    Returns ``(rec_vids, degrees, adj_pids, adj_slots, adj_weights)``:
    the slot VIDs and ``ADJLIST_SZ`` values per record and the adjacency
    arrays per edge, all page-major in request order (``adj_weights`` is
    ``None`` without ``weight_bytes``).  Every array is freshly
    materialised — nothing aliases ``data`` — so results outlive a
    mapping that is later closed.

    Makes the checks of the per-byte :meth:`SmallPage.from_bytes`
    reference plus the two bounds a vectorized gather needs: slot VIDs
    consecutive within each page, every record's ``ADJLIST_SZ`` field
    inside its page, every adjacency list inside its page — each a
    :class:`FormatError`.
    """
    cfg = config
    u8 = (data if isinstance(data, np.ndarray)
          else np.frombuffer(data, dtype=np.uint8))
    page_bases = np.asarray(page_bases, dtype=np.int64)
    num_records = np.asarray(num_records, dtype=np.int64)
    if len(page_bases) and (
            int(page_bases.min()) < 0
            or int(page_bases.max()) + cfg.page_size > len(u8)):
        raise FormatError("serialized page has wrong size")
    # Slots from the back: slot i lives at page_size - (i + 1) * entry.
    rec_page, rec_slot, rec_first = _ranges(num_records)
    rec_base = page_bases[rec_page]
    slot_pos = rec_base + cfg.page_size - (rec_slot + 1) * cfg.slot_entry_bytes
    rec_vids = _decode_le(u8, slot_pos, cfg.vid_bytes)
    offsets = _decode_le(u8, slot_pos + cfg.vid_bytes, cfg.offset_bytes)
    # Slot i of a page holds the VID of its slot 0, plus i.
    if not np.array_equal(rec_vids, rec_vids[rec_first] + rec_slot):
        raise FormatError("slot VIDs are not consecutive")
    if len(offsets) and int(offsets.max()) + cfg.adjlist_size_bytes > cfg.page_size:
        raise FormatError("record offset overruns page")
    degrees = _decode_le(u8, rec_base + offsets, cfg.adjlist_size_bytes)
    entry = cfg.adjacency_entry_bytes
    # Checked per record, before any per-edge array is sized from it.
    if len(degrees) and int(
            (offsets + degrees * entry).max()
    ) + cfg.adjlist_size_bytes > cfg.page_size:
        raise FormatError("adjacency record overruns page")
    edge_rec, edge_slot, _ = _ranges(degrees)
    edge_pos = ((rec_base + offsets)[edge_rec] + cfg.adjlist_size_bytes
                + edge_slot * entry)
    adj_pids = _decode_le(u8, edge_pos, cfg.page_id_bytes)
    adj_slots = _decode_le(u8, edge_pos + cfg.page_id_bytes, cfg.slot_bytes)
    adj_weights = None
    if cfg.weight_bytes:
        # ``struct.unpack('<f', ...)``: the little-endian 32-bit pattern
        # reinterpreted as an IEEE single.
        adj_weights = _decode_le(
            u8, edge_pos + cfg.record_id_bytes, 4
        ).astype(np.uint32).view(np.float32)
    return rec_vids, degrees, adj_pids, adj_slots, adj_weights


def encode_pages(rec_vids, degrees, adj_pids, adj_slots, adj_weights,
                 num_records, config, page_ids=None):
    """Vectorized encode of a *set* of pages: :func:`decode_pages` reversed.

    Takes the five arrays that function returns plus ``num_records[i]``,
    the slot count of the ``i``-th page, and returns a fresh ``uint8``
    array holding the pages back to back, ``page_size`` bytes each — so
    ``encode_pages(*decode_pages(b, bases, n, cfg), n, cfg)`` is ``b``.
    A record's offset is the in-page exclusive ``cumsum`` of the record
    sizes, slots grow backward from the page's end, weights are stored
    by their ``float32`` bit pattern, and ``adj_weights=None`` under
    ``weight_bytes`` leaves the weight bytes zero.

    Makes every check of the per-byte reference encoder, each as one
    array test raising :class:`FormatError`: contents that overflow
    ``page_size`` (naming the first such page — ``page_ids[i]`` when
    given, else its position — and its used bytes), and any
    ``ADJLIST_SZ`` / ``VID`` / ``OFF`` / ``ADJ_PID`` / ``ADJ_OFF`` value
    that does not fit its configured width.
    """
    cfg = config
    rec_vids, degrees, adj_pids, adj_slots, num_records = (
        np.asarray(a, dtype=np.int64)
        for a in (rec_vids, degrees, adj_pids, adj_slots, num_records))
    # Checked first: the whole layout is computed from the degrees.
    _check_fits("ADJLIST_SZ", degrees, cfg.adjlist_size_bytes)
    if not (len(rec_vids) == len(degrees) == int(num_records.sum())
            and len(adj_pids) == len(adj_slots) == int(degrees.sum())):
        raise FormatError("page arrays inconsistent with their counts")
    rec_page, rec_slot, rec_first = _ranges(num_records)
    rec_bytes = cfg.record_bytes(degrees)
    rec_ends = np.cumsum(rec_bytes)
    offsets = rec_ends - rec_bytes
    offsets -= offsets[rec_first]
    page_ends = np.concatenate(([0], rec_ends))[np.cumsum(num_records)]
    used = np.diff(page_ends, prepend=0) + num_records * cfg.slot_entry_bytes
    over = np.flatnonzero(used > cfg.page_size)
    if len(over):
        first = int(over[0])
        raise FormatError(
            "page %d contents (%d B) overflow page size %d B"
            % (first if page_ids is None else page_ids[first],
               used[first], cfg.page_size))
    buf = np.zeros(len(num_records) * cfg.page_size, dtype=np.uint8)
    # Slots from the back: slot i lives at page_size - (i + 1) * entry.
    rec_base = rec_page * cfg.page_size
    slot_pos = rec_base + cfg.page_size - (rec_slot + 1) * cfg.slot_entry_bytes
    _encode_le(buf, slot_pos, rec_vids, cfg.vid_bytes, "VID")
    _encode_le(buf, slot_pos + cfg.vid_bytes, offsets, cfg.offset_bytes, "OFF")
    rec_pos = rec_base + offsets
    _encode_le(buf, rec_pos, degrees, cfg.adjlist_size_bytes, "ADJLIST_SZ")
    edge_rec, edge_slot, _ = _ranges(degrees)
    edge_pos = (rec_pos[edge_rec] + cfg.adjlist_size_bytes
                + edge_slot * cfg.adjacency_entry_bytes)
    _encode_le(buf, edge_pos, adj_pids, cfg.page_id_bytes, "ADJ_PID")
    _encode_le(buf, edge_pos + cfg.page_id_bytes, adj_slots, cfg.slot_bytes,
               "ADJ_OFF")
    if cfg.weight_bytes and adj_weights is not None:
        # By bit pattern: the IEEE single's 32 bits, little-endian.
        bits = np.asarray(adj_weights, dtype=np.float32).view(np.uint32)
        _encode_le(buf, edge_pos + cfg.record_id_bytes, bits, 4, "WEIGHT")
    return buf


def encode_page_objects(pages, config):
    """:func:`encode_pages` over a non-empty list of page objects, small
    and large mixed freely; a page without weights stores zeros."""
    weights = np.concatenate([
        page.adj_weights if page.adj_weights is not None
        else np.zeros(page.num_edges, dtype=np.float32)
        for page in pages]) if config.weight_bytes else None
    return encode_pages(
        np.concatenate([page.vids() for page in pages]),
        np.concatenate([page.degrees() for page in pages]),
        np.concatenate([page.adj_pids for page in pages]),
        np.concatenate([page.adj_slots for page in pages]),
        weights, [page.num_records for page in pages], config,
        page_ids=[page.page_id for page in pages])


class SmallPage:
    """A slotted page holding several low-degree vertices.

    Parameters
    ----------
    page_id:
        This page's ID in the database's page numbering.
    start_vid:
        Logical ID of the first vertex stored here.  Vertex IDs are
        consecutive within a page (Section 2), so slot ``i`` holds vertex
        ``start_vid + i``.
    adj_indptr:
        ``int64`` array of length ``num_records + 1``; record ``i``'s
        adjacency entries occupy ``adj_pids[indptr[i]:indptr[i+1]]``.
    adj_pids / adj_slots:
        Physical IDs of neighbours (page ID and slot number halves).
    adj_vids:
        Pre-translated logical neighbour IDs.  Semantically this is derived
        data — kernels conceptually compute it through the RVT — but it is
        materialised once at build time so NumPy kernels stay vectorised.
    adj_weights:
        Optional ``float32`` edge weights aligned with the adjacency arrays.
    config:
        The :class:`~repro.format.config.PageFormatConfig` this page obeys.
    """

    kind = PageKind.SMALL

    def __init__(self, page_id, start_vid, adj_indptr, adj_pids, adj_slots,
                 adj_vids, config, adj_weights=None):
        self.page_id = page_id
        self.start_vid = start_vid
        self.adj_indptr = np.asarray(adj_indptr, dtype=np.int64)
        self.adj_pids = np.asarray(adj_pids, dtype=np.int64)
        self.adj_slots = np.asarray(adj_slots, dtype=np.int64)
        self.adj_vids = np.asarray(adj_vids, dtype=np.int64)
        self.adj_weights = (
            None if adj_weights is None else np.asarray(adj_weights, dtype=np.float32)
        )
        self.config = config
        if len(self.adj_pids) != self.adj_indptr[-1]:
            raise FormatError("adjacency arrays inconsistent with indptr")

    # ------------------------------------------------------------------
    @property
    def num_records(self):
        """Number of vertices (slots / records) stored in this page."""
        return len(self.adj_indptr) - 1

    @property
    def num_edges(self):
        """Total adjacency entries stored in this page."""
        return int(self.adj_indptr[-1])

    def vids(self):
        """Logical vertex IDs stored here, in slot order."""
        return np.arange(self.start_vid, self.start_vid + self.num_records,
                         dtype=np.int64)

    def degrees(self):
        """Per-record adjacency list sizes (``ADJLIST_SZ`` values)."""
        return np.diff(self.adj_indptr)

    def used_bytes(self):
        """Bytes of page space consumed by records plus slots."""
        cfg = self.config
        records = (
            self.num_records * cfg.adjlist_size_bytes
            + self.num_edges * cfg.adjacency_entry_bytes
        )
        slots = self.num_records * cfg.slot_entry_bytes
        return records + slots

    # ------------------------------------------------------------------
    # Byte serialization (records forward, slots backward)
    # ------------------------------------------------------------------
    def to_bytes(self):
        """Serialize to the on-storage layout, padded to ``page_size``;
        :class:`FormatError` if the contents overflow the page or any
        field exceeds its configured width."""
        return encode_page_objects([self], self.config).tobytes()

    @classmethod
    def from_bytes(cls, data, page_id, num_records, config):
        """Parse a serialized small page back into arrays.

        ``num_records`` comes from page metadata (the database knows how
        many slots each page holds); the byte layout itself is headerless,
        matching the original format.
        """
        cfg = config
        if len(data) != cfg.page_size:
            raise FormatError("serialized page has wrong size")
        # Read slots from the back.
        back = cfg.page_size
        vids = []
        offsets = []
        for _ in range(num_records):
            back -= cfg.slot_entry_bytes
            vid = int.from_bytes(data[back:back + cfg.vid_bytes], "little")
            off = int.from_bytes(
                data[back + cfg.vid_bytes:back + cfg.slot_entry_bytes], "little")
            vids.append(vid)
            offsets.append(off)
        if vids and vids != list(range(vids[0], vids[0] + num_records)):
            raise FormatError("slot VIDs are not consecutive")
        start_vid = vids[0] if vids else 0
        indptr = [0]
        pids = []
        slots = []
        weights = [] if cfg.weight_bytes else None
        for off in offsets:
            cursor = off
            degree = int.from_bytes(
                data[cursor:cursor + cfg.adjlist_size_bytes], "little")
            cursor += cfg.adjlist_size_bytes
            for _ in range(degree):
                pid = int.from_bytes(
                    data[cursor:cursor + cfg.page_id_bytes], "little")
                cursor += cfg.page_id_bytes
                slot = int.from_bytes(
                    data[cursor:cursor + cfg.slot_bytes], "little")
                cursor += cfg.slot_bytes
                pids.append(pid)
                slots.append(slot)
                if cfg.weight_bytes:
                    weights.append(struct.unpack("<f", data[cursor:cursor + 4])[0])
                    cursor += cfg.weight_bytes
            indptr.append(len(pids))
        # adj_vids must be re-derived through an RVT by the caller; fill a
        # placeholder so the object is structurally complete.
        placeholder_vids = np.full(len(pids), -1, dtype=np.int64)
        return cls(page_id, start_vid, indptr, pids, slots, placeholder_vids,
                   cfg, adj_weights=weights)


class LargePage:
    """One chunk of a single high-degree vertex's adjacency list.

    Attributes mirror :class:`SmallPage` where they overlap; the differences
    are that exactly one vertex is represented, ``ADJLIST_SZ`` counts only
    the entries stored *in this page*, and ``chunk_index`` records this
    page's position in the vertex's run of large pages.
    """

    kind = PageKind.LARGE

    def __init__(self, page_id, vid, chunk_index, adj_pids, adj_slots,
                 adj_vids, config, adj_weights=None, total_degree=None):
        self.page_id = page_id
        self.vid = vid
        self.chunk_index = chunk_index
        self.adj_pids = np.asarray(adj_pids, dtype=np.int64)
        self.adj_slots = np.asarray(adj_slots, dtype=np.int64)
        self.adj_vids = np.asarray(adj_vids, dtype=np.int64)
        self.adj_weights = (
            None if adj_weights is None else np.asarray(adj_weights, dtype=np.float32)
        )
        self.config = config
        #: The vertex's degree across *all* of its large pages; the PageRank
        #: LP kernel divides by this (Appendix B.2 uses ``v.ADJLIST_SZ`` of
        #: the whole vertex).
        self.total_degree = (
            total_degree if total_degree is not None else len(self.adj_pids)
        )

    @property
    def start_vid(self):
        """The single vertex stored here (mirrors ``SmallPage.start_vid``)."""
        return self.vid

    @property
    def num_records(self):
        return 1

    @property
    def num_edges(self):
        return len(self.adj_pids)

    def vids(self):
        """The single vertex as a one-element array (SP-compatible)."""
        return np.asarray([self.vid], dtype=np.int64)

    def degrees(self):
        return np.asarray([self.num_edges], dtype=np.int64)

    def used_bytes(self):
        cfg = self.config
        return (
            cfg.slot_entry_bytes
            + cfg.adjlist_size_bytes
            + self.num_edges * cfg.adjacency_entry_bytes
        )

    def to_bytes(self):
        """Serialize with the same record/slot layout as a small page."""
        return encode_page_objects([self], self.config).tobytes()

    @classmethod
    def from_bytes(cls, data, page_id, chunk_index, config, total_degree=None):
        """Parse a serialized large page back into arrays: byte for
        byte a one-record small page."""
        record = SmallPage.from_bytes(data, page_id, 1, config)
        return cls(page_id, record.start_vid, chunk_index, record.adj_pids,
                   record.adj_slots, record.adj_vids, config,
                   adj_weights=record.adj_weights, total_degree=total_degree)
