"""Tests for small/large slotted pages, including byte round-trips."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import FormatError
from repro.format import PageFormatConfig
from repro.format.page import (
    LargePage,
    PageKind,
    SmallPage,
    decode_pages,
    encode_page_objects,
    encode_pages,
)
from repro.units import KB

from .reference_pages import reference_page_bytes


def _config(weight_bytes=0, page_size=2 * KB):
    return PageFormatConfig(page_id_bytes=2, slot_bytes=2,
                            page_size=page_size, weight_bytes=weight_bytes)


def _small_page(config=None):
    """Three records: degrees 2, 0, 1."""
    config = config or _config()
    return SmallPage(
        page_id=0, start_vid=10,
        adj_indptr=[0, 2, 2, 3],
        adj_pids=[0, 1, 0],
        adj_slots=[0, 3, 2],
        adj_vids=[10, 99, 12],
        config=config,
    )


class TestSmallPage:
    def test_counts(self):
        page = _small_page()
        assert page.num_records == 3
        assert page.num_edges == 3
        assert page.kind is PageKind.SMALL

    def test_vids_are_consecutive(self):
        assert list(_small_page().vids()) == [10, 11, 12]

    def test_degrees(self):
        assert list(_small_page().degrees()) == [2, 0, 1]

    def test_used_bytes(self):
        page = _small_page()
        config = page.config
        records = 3 * config.adjlist_size_bytes + 3 * config.adjacency_entry_bytes
        slots = 3 * config.slot_entry_bytes
        assert page.used_bytes() == records + slots

    def test_inconsistent_indptr_rejected(self):
        with pytest.raises(FormatError):
            SmallPage(0, 0, [0, 5], [1], [1], [1], _config())

    def test_serialization_round_trip(self):
        page = _small_page()
        data = page.to_bytes()
        assert len(data) == page.config.page_size
        parsed = SmallPage.from_bytes(data, 0, page.num_records, page.config)
        assert parsed.start_vid == page.start_vid
        assert np.array_equal(parsed.adj_indptr, page.adj_indptr)
        assert np.array_equal(parsed.adj_pids, page.adj_pids)
        assert np.array_equal(parsed.adj_slots, page.adj_slots)

    def test_serialization_with_weights(self):
        config = _config(weight_bytes=4)
        page = SmallPage(0, 0, [0, 2], [1, 2], [0, 0], [5, 9], config,
                         adj_weights=[1.5, 2.5])
        parsed = SmallPage.from_bytes(page.to_bytes(), 0, 1, config)
        assert np.allclose(parsed.adj_weights, [1.5, 2.5])

    def test_overflowing_page_rejected_on_serialize(self):
        config = _config(page_size=2 * KB)
        degree = config.max_degree_in_one_page() + 50
        page = SmallPage(0, 0, [0, degree],
                         np.zeros(degree), np.zeros(degree),
                         np.zeros(degree), config)
        with pytest.raises(FormatError):
            page.to_bytes()

    def test_field_overflow_rejected(self):
        config = _config()
        page = SmallPage(0, 0, [0, 1], [999999], [0], [1], config)
        with pytest.raises(FormatError):
            page.to_bytes()  # 999999 does not fit a 2-byte page ID


class TestLargePage:
    def _large(self, config=None, degree=5, total=12):
        config = config or _config()
        return LargePage(
            page_id=7, vid=3, chunk_index=1,
            adj_pids=list(range(degree)),
            adj_slots=[0] * degree,
            adj_vids=list(range(degree)),
            config=config, total_degree=total)

    def test_counts(self):
        page = self._large()
        assert page.num_records == 1
        assert page.num_edges == 5
        assert page.kind is PageKind.LARGE

    def test_vids_matches_small_page_interface(self):
        assert list(self._large().vids()) == [3]

    def test_total_degree_spans_chunks(self):
        page = self._large(degree=5, total=12)
        assert page.total_degree == 12

    def test_total_degree_defaults_to_chunk_size(self):
        config = _config()
        page = LargePage(0, 1, 0, [2], [0], [2], config)
        assert page.total_degree == 1

    def test_serialization_round_trip(self):
        page = self._large()
        parsed = LargePage.from_bytes(page.to_bytes(), 7, 1, page.config,
                                      total_degree=12)
        assert parsed.vid == 3
        assert np.array_equal(parsed.adj_pids, page.adj_pids)
        assert np.array_equal(parsed.adj_slots, page.adj_slots)
        assert parsed.total_degree == 12

    def test_used_bytes(self):
        page = self._large(degree=5)
        config = page.config
        assert page.used_bytes() == (config.slot_entry_bytes
                                     + config.adjlist_size_bytes
                                     + 5 * config.adjacency_entry_bytes)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_small_page_round_trip_property(data):
    """Property: serialize/parse preserves any in-capacity small page."""
    config = _config()
    num_records = data.draw(st.integers(1, 20))
    degrees = data.draw(st.lists(st.integers(0, 10),
                                 min_size=num_records,
                                 max_size=num_records))
    indptr = np.concatenate([[0], np.cumsum(degrees)])
    num_edges = int(indptr[-1])
    pids = data.draw(st.lists(st.integers(0, 65535),
                              min_size=num_edges, max_size=num_edges))
    slots = data.draw(st.lists(st.integers(0, 65535),
                               min_size=num_edges, max_size=num_edges))
    start_vid = data.draw(st.integers(0, 10000))
    page = SmallPage(0, start_vid, indptr, pids, slots,
                     np.zeros(num_edges, dtype=np.int64), config)
    parsed = SmallPage.from_bytes(page.to_bytes(), 0, num_records, config)
    assert parsed.start_vid == start_vid
    assert np.array_equal(parsed.adj_indptr, page.adj_indptr)
    assert np.array_equal(parsed.adj_pids, page.adj_pids)
    assert np.array_equal(parsed.adj_slots, page.adj_slots)


# ----------------------------------------------------------------------
# The bulk decoder and encoder against the per-byte references
# ----------------------------------------------------------------------
def _draw_config(data):
    """One of the format's width combinations, odd widths included."""
    return PageFormatConfig(
        page_id_bytes=data.draw(st.sampled_from([2, 3, 4])),
        slot_bytes=data.draw(st.sampled_from([1, 2, 3])),
        page_size=512,
        vid_bytes=data.draw(st.sampled_from([3, 4, 5, 6])),
        offset_bytes=data.draw(st.sampled_from([2, 3, 4])),
        adjlist_size_bytes=data.draw(st.sampled_from([2, 4])),
        weight_bytes=data.draw(st.sampled_from([0, 4])))


def _draw_page(data, page_id, config, min_records=0):
    """A small page (possibly empty, possibly with zero-degree records)
    or one large-page chunk, with contents that fit ``config``."""
    max_pid = config.max_page_id - 1
    max_slot = config.max_slot_number - 1

    def adjacency(count):
        pids = data.draw(st.lists(st.integers(0, max_pid),
                                  min_size=count, max_size=count))
        slots = data.draw(st.lists(st.integers(0, max_slot),
                                   min_size=count, max_size=count))
        weights = None
        # A page may carry no weights under ``weight_bytes``: zero bytes.
        if config.weight_bytes and data.draw(st.booleans(), label="weights"):
            weights = data.draw(st.lists(
                st.floats(-1e6, 1e6, width=32),
                min_size=count, max_size=count))
        return pids, slots, np.zeros(count, dtype=np.int64), weights

    start_vid = data.draw(st.integers(0, config.max_vertex_id - 16))
    if min_records == 0 and data.draw(st.booleans(), label="large"):
        pids, slots, vids, weights = adjacency(
            data.draw(st.integers(0, 20)))
        return LargePage(page_id, start_vid, data.draw(st.integers(0, 3)),
                         pids, slots, vids, config, adj_weights=weights,
                         total_degree=77)
    degrees = data.draw(st.lists(st.integers(0, 5), min_size=min_records,
                                 max_size=6))
    pids, slots, vids, weights = adjacency(sum(degrees))
    return SmallPage(page_id, start_vid,
                     np.concatenate([[0], np.cumsum(degrees)]),
                     pids, slots, vids, config, adj_weights=weights)


def _reference(page, blob, config):
    """``from_bytes`` of ``page``'s serialized form."""
    if page.kind is PageKind.SMALL:
        return SmallPage.from_bytes(blob, page.page_id, page.num_records,
                                    config)
    return LargePage.from_bytes(blob, page.page_id, page.chunk_index,
                                config)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_bulk_decode_equals_from_bytes(data):
    """Property: for pages serialized back to back, the bulk decode of
    any subset of page IDs in any order equals the per-byte ``from_bytes``
    reference field by field and dtype by dtype."""
    config = _draw_config(data)
    pages = [_draw_page(data, pid, config)
             for pid in range(data.draw(st.integers(1, 6)))]
    blobs = [page.to_bytes() for page in pages]
    image = b"".join(blobs)
    chosen = data.draw(st.lists(st.integers(0, len(pages) - 1),
                                unique=True, min_size=1))
    rec_vids, degrees, adj_pids, adj_slots, adj_weights = decode_pages(
        image, [pid * config.page_size for pid in chosen],
        [pages[pid].num_records for pid in chosen], config)
    for array in (rec_vids, degrees, adj_pids, adj_slots):
        assert array.dtype == np.int64
    if config.weight_bytes:
        assert adj_weights.dtype == np.float32
    else:
        assert adj_weights is None
    rec = edge = 0
    for pid in chosen:
        want = _reference(pages[pid], blobs[pid], config)
        rec_hi = rec + want.num_records
        edge_hi = edge + want.num_edges
        np.testing.assert_array_equal(rec_vids[rec:rec_hi], want.vids())
        np.testing.assert_array_equal(degrees[rec:rec_hi], want.degrees())
        np.testing.assert_array_equal(adj_pids[edge:edge_hi], want.adj_pids)
        np.testing.assert_array_equal(adj_slots[edge:edge_hi],
                                      want.adj_slots)
        assert want.adj_pids.dtype == want.adj_slots.dtype == np.int64
        if config.weight_bytes:
            assert want.adj_weights.dtype == np.float32
            np.testing.assert_array_equal(adj_weights[edge:edge_hi],
                                          want.adj_weights)
        rec, edge = rec_hi, edge_hi
    assert rec == len(rec_vids) == len(degrees) and edge == len(adj_pids)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_bulk_decode_keeps_the_structural_checks(data):
    """Each structural check still fires when the bytes it guards are
    tampered in the *middle* page of a chunk, and the intact chunk
    decodes."""
    config = _draw_config(data)
    pages = [_draw_page(data, pid, config, min_records=2)
             for pid in range(3)]
    image = b"".join(page.to_bytes() for page in pages)
    bases = [pid * config.page_size for pid in range(3)]
    records = [page.num_records for page in pages]
    decode_pages(image, bases, records, config)

    middle_end = 2 * config.page_size
    slot0 = middle_end - config.slot_entry_bytes
    slot1 = slot0 - config.slot_entry_bytes
    offset1 = slot1 + config.vid_bytes
    record1 = config.page_size + int.from_bytes(
        image[offset1:offset1 + config.offset_bytes], "little")
    tampered = {
        # Slot 1's VID no longer follows slot 0's.
        "slot VIDs are not consecutive": (
            slot1, bytes([image[slot1] ^ 0x01])),
        # Slot 1's record offset points past the end of the page.
        "record offset overruns page": (
            offset1, b"\xff" * config.offset_bytes),
        # Record 1 claims more adjacency entries than a page can hold.
        "adjacency record overruns page": (
            record1, b"\xff" * config.adjlist_size_bytes),
    }
    for message, (position, patch) in tampered.items():
        damaged = bytearray(image)
        damaged[position:position + len(patch)] = patch
        with pytest.raises(FormatError, match=message):
            decode_pages(bytes(damaged), bases, records, config)
        # The check is the middle page's: its neighbours still decode.
        decode_pages(bytes(damaged), [bases[0], bases[2]],
                     [records[0], records[2]], config)


def _flatten(pages):
    """The five arrays ``decode_pages`` returns for ``pages``, built from
    the page objects (absent weights read back as zeros)."""
    weighted = pages[0].config.weight_bytes
    return (
        np.concatenate([page.vids() for page in pages]),
        np.concatenate([page.degrees() for page in pages]),
        np.concatenate([page.adj_pids for page in pages]),
        np.concatenate([page.adj_slots for page in pages]),
        np.concatenate([
            page.adj_weights if page.adj_weights is not None
            else np.zeros(page.num_edges, dtype=np.float32)
            for page in pages]) if weighted else None)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_bulk_encode_equals_reference_and_inverts_decode(data):
    """Property: the vectorized encode of any subset of pages in any
    order is the per-byte reference's bytes back to back; decoding those
    bytes returns the encoder's inputs dtype for dtype, and encoding
    what was decoded returns the bytes."""
    config = _draw_config(data)
    pages = [_draw_page(data, pid, config)
             for pid in range(data.draw(st.integers(1, 6)))]
    chosen = [pages[pid] for pid in data.draw(st.lists(
        st.integers(0, len(pages) - 1), unique=True, min_size=1))]
    encoded = encode_page_objects(chosen, config)
    assert encoded.dtype == np.uint8
    image = encoded.tobytes()
    assert image == b"".join(reference_page_bytes(page) for page in chosen)
    for page in chosen:
        assert page.to_bytes() == reference_page_bytes(page)

    records = [page.num_records for page in chosen]
    bases = np.arange(len(chosen)) * config.page_size
    decoded = decode_pages(image, bases, records, config)
    for got, want in zip(decoded, _flatten(chosen)):
        if want is None:
            assert got is None
        else:
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
    assert encode_pages(*decoded, records, config).tobytes() == image
    # And from the far side: decode any order, encode, same regions.
    order = data.draw(st.permutations(range(len(chosen))))
    shuffled = encode_pages(
        *decode_pages(image, bases[order], [records[i] for i in order],
                      config),
        [records[i] for i in order], config).tobytes()
    size = config.page_size
    assert shuffled == b"".join(image[i * size:(i + 1) * size]
                                for i in order)


def _error_of(encode):
    try:
        encode()
    except FormatError as error:
        return str(error)
    return None


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_encode_raises_exactly_when_the_reference_does(data):
    """Property: with field values drawn past their widths (and below
    zero), record offsets past ``offset_bytes`` and contents past
    ``page_size``, a page encodes iff the reference encodes it and a
    chunk encodes iff the reference encodes every page of it — a masked
    store never truncates silently."""
    config = PageFormatConfig(
        page_id_bytes=2, slot_bytes=1,
        page_size=data.draw(st.sampled_from([256, 2048])),
        vid_bytes=3, offset_bytes=data.draw(st.sampled_from([1, 2])),
        adjlist_size_bytes=1,
        weight_bytes=data.draw(st.sampled_from([0, 4])))

    def field(limit):
        return st.one_of(st.integers(0, limit - 1),
                         st.integers(-2, limit + 2))

    pages = []
    for pid in range(data.draw(st.integers(1, 4))):
        start_vid = data.draw(field(config.max_vertex_id))
        degrees = data.draw(st.lists(
            st.one_of(st.integers(0, 12), st.integers(250, 300)),
            max_size=5))
        count = sum(degrees)
        # Draw the head of a long adjacency list; the tail is zeros.
        drawn = min(count, 16)
        adj_pids = data.draw(st.lists(
            field(config.max_page_id), min_size=drawn, max_size=drawn)
        ) + [0] * (count - drawn)
        adj_slots = data.draw(st.lists(
            field(config.max_slot_number), min_size=drawn, max_size=drawn)
        ) + [0] * (count - drawn)
        vids = np.zeros(count, dtype=np.int64)
        if len(degrees) == 1 and data.draw(st.booleans(), label="large"):
            pages.append(LargePage(pid, start_vid, 0, adj_pids, adj_slots,
                                   vids, config))
        else:
            pages.append(SmallPage(
                pid, start_vid, np.concatenate([[0], np.cumsum(degrees)]),
                adj_pids, adj_slots, vids, config))
    wanted = [_error_of(lambda: reference_page_bytes(page))
              for page in pages]
    # Which of a page's several violations is reported depends on the
    # order fields are visited in; that one is reported does not.
    for page, want in zip(pages, wanted):
        assert (_error_of(page.to_bytes) is None) == (want is None)
    got = _error_of(lambda: encode_page_objects(pages, config))
    assert (got is None) == all(want is None for want in wanted)


@pytest.mark.parametrize("field, message", [
    ("ADJLIST_SZ", "ADJLIST_SZ value 256 does not fit in 1 byte"),
    ("ADJ_PID", "ADJ_PID value 65536 does not fit in 2 byte"),
    ("ADJ_OFF", "ADJ_OFF value 256 does not fit in 1 byte"),
    ("VID", "VID value 16777216 does not fit in 3 byte"),
    ("OFF", "OFF value 257 does not fit in 1 byte"),
    ("overflow", r"page 1 contents \(2051 B\) overflow page size 2048 B"),
])
def test_each_encode_check_names_its_field(field, message):
    """One case per check, the bad page in the middle of a chunk: the
    vectorized path and the reference raise the same typed error."""
    config = PageFormatConfig(page_id_bytes=2, slot_bytes=1, page_size=2048,
                              vid_bytes=3, offset_bytes=1,
                              adjlist_size_bytes=1)

    def page(page_id, start_vid=0, degrees=(2, 1), pid=7, slot=7):
        count = sum(degrees)
        return SmallPage(page_id, start_vid,
                         np.concatenate([[0], np.cumsum(degrees)]),
                         [pid] * count, [slot] * count, [0] * count, config)

    bad = {
        "ADJLIST_SZ": dict(degrees=(256,)),
        "ADJ_PID": dict(pid=65536),
        "ADJ_OFF": dict(slot=256),
        # The second slot's VID is the first that does not fit.
        "VID": dict(start_vid=(1 << 24) - 1),
        # Record 2 starts at 1 + 64 * 3 + 1 + 21 * 3 = 257.
        "OFF": dict(degrees=(64, 21, 0)),
        # 4 + 677 * 3 record bytes + 4 * 4 slot bytes = 2051.
        "overflow": dict(degrees=(200, 200, 200, 77)),
    }[field]
    chunk = [page(0), page(1, **bad), page(2)]
    with pytest.raises(FormatError, match=message):
        reference_page_bytes(chunk[1])
    with pytest.raises(FormatError, match=message):
        chunk[1].to_bytes()
    with pytest.raises(FormatError, match=message):
        encode_page_objects(chunk, config)
    encode_page_objects([chunk[0], chunk[2]], config)


def test_encode_rejects_arrays_that_disagree_with_their_counts():
    config = _config()
    with pytest.raises(FormatError, match="inconsistent"):
        encode_pages([1, 2], [1, 1], [0], [0], None, [2], config)
    with pytest.raises(FormatError, match="inconsistent"):
        encode_pages([1, 2], [1, 1], [0, 0], [0, 0], None, [3], config)
