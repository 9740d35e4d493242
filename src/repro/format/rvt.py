"""The RID-to-VID mapping table (RVT) of Appendix A.

Adjacency lists store *physical* record IDs; graph algorithms need *logical*
vertex IDs.  The RVT holds one tuple per page — ``(START_VID, LP_RANGE)`` —
and translates a physical ID ``(ADJ_PID, ADJ_OFF)`` to a logical ID by
computing ``RVT[ADJ_PID].START_VID + ADJ_OFF`` (Figure 12).

For a small page, ``START_VID`` is the VID of slot 0 and ``LP_RANGE`` is -1.
For large pages, ``START_VID`` is the (single) vertex's VID and ``LP_RANGE``
is the page's position within that vertex's run of large pages, so the run
can be enumerated.
"""

import numpy as np

from repro.errors import FormatError


class RecordVertexTable:
    """Vectorised RVT: per-page ``START_VID`` and ``LP_RANGE`` columns."""

    def __init__(self, start_vids, lp_ranges):
        self.start_vids = np.asarray(start_vids, dtype=np.int64)
        self.lp_ranges = np.asarray(lp_ranges, dtype=np.int64)
        if self.start_vids.shape != self.lp_ranges.shape:
            raise FormatError("RVT columns must have equal length")

    def __len__(self):
        return len(self.start_vids)

    def translate(self, adj_pids, adj_slots):
        """Translate physical IDs to logical VIDs.

        Accepts scalars or arrays; returns the same shape.  This is the
        ``RVT[ADJ_PID].START_VID + ADJ_OFF`` computation of Appendix A.
        """
        pids = np.asarray(adj_pids, dtype=np.int64)
        if np.any(pids < 0) or np.any(pids >= len(self.start_vids)):
            raise FormatError("physical ID references unknown page")
        return self.start_vids[pids] + np.asarray(adj_slots, dtype=np.int64)

    def is_large(self, page_id):
        """True when ``page_id`` is a large page (``LP_RANGE`` >= 0)."""
        return bool(self.lp_ranges[page_id] >= 0)
