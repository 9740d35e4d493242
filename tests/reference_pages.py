"""The per-byte page encoder: the oracle for ``format.page.encode_pages``.

This is the loop ``SmallPage.to_bytes`` / ``LargePage.to_bytes`` ran
before the vectorized encoder replaced it — one ``int.to_bytes`` /
``struct.pack`` per field, one range check per value — kept here so the
tests can require the two to agree byte for byte and error for error.
A large page is a one-record small page (its record at offset 0), so one
loop serves both kinds.
"""

import struct

from repro.errors import FormatError


def _check_fits(name, value, width_bytes):
    if value < 0 or value >= (1 << (8 * width_bytes)):
        raise FormatError(
            "%s value %d does not fit in %d byte(s)"
            % (name, value, width_bytes))


def reference_page_bytes(page):
    """``page`` in its on-storage layout, padded to ``page_size``."""
    cfg = page.config
    if page.used_bytes() > cfg.page_size:
        raise FormatError(
            "page %d contents (%d B) overflow page size %d B"
            % (page.page_id, page.used_bytes(), cfg.page_size))
    buf = bytearray(cfg.page_size)
    # Records grow forward from offset 0.
    cursor = 0
    edge = 0
    offsets = []
    for degree in page.degrees().tolist():
        offsets.append(cursor)
        _check_fits("ADJLIST_SZ", degree, cfg.adjlist_size_bytes)
        buf[cursor:cursor + cfg.adjlist_size_bytes] = degree.to_bytes(
            cfg.adjlist_size_bytes, "little")
        cursor += cfg.adjlist_size_bytes
        for j in range(edge, edge + degree):
            pid = int(page.adj_pids[j])
            slot = int(page.adj_slots[j])
            _check_fits("ADJ_PID", pid, cfg.page_id_bytes)
            _check_fits("ADJ_OFF", slot, cfg.slot_bytes)
            buf[cursor:cursor + cfg.page_id_bytes] = pid.to_bytes(
                cfg.page_id_bytes, "little")
            cursor += cfg.page_id_bytes
            buf[cursor:cursor + cfg.slot_bytes] = slot.to_bytes(
                cfg.slot_bytes, "little")
            cursor += cfg.slot_bytes
            if cfg.weight_bytes:
                weight = 0.0 if page.adj_weights is None else float(
                    page.adj_weights[j])
                buf[cursor:cursor + 4] = struct.pack("<f", weight)
                cursor += cfg.weight_bytes
        edge += degree
    # Slots grow backward from the end of the page.
    back = cfg.page_size
    for vid, offset in zip(page.vids().tolist(), offsets):
        _check_fits("VID", vid, cfg.vid_bytes)
        _check_fits("OFF", offset, cfg.offset_bytes)
        back -= cfg.slot_entry_bytes
        buf[back:back + cfg.vid_bytes] = vid.to_bytes(cfg.vid_bytes, "little")
        buf[back + cfg.vid_bytes:back + cfg.slot_entry_bytes] = (
            offset.to_bytes(cfg.offset_bytes, "little"))
    return bytes(buf)
