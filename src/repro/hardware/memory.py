"""Main-memory page buffer (MMBuf) with its buffered-page map.

Algorithm 1 keeps a main-memory buffer: when the whole graph fits
(``|G| < MMBuf``) it is loaded up front and no storage I/O happens during
the run; otherwise pages fetched from SSD are kept in the buffer
(``bufferPIDMap``), so re-streamed pages often avoid a second storage
read — this "page buffering mechanism" is the paper's explanation for
measured times beating the naive bandwidth arithmetic in Section 7.5.

The buffer *pins*: first-fetched pages stay resident, and once it is
full later pages pass through unbuffered.  Full-scan algorithms stream
pages in the same ascending order every iteration, which makes plain LRU
evict each page moments before its next use (classic sequential
flooding) and deliver zero hits at any buffer size below 100 %.  Pinning
a stable prefix yields the ``capacity / topology`` hit fraction per
iteration that the paper's arithmetic implies.  Because nothing is ever
evicted, admitting one page never changes whether another is resident.
"""

import numpy as np

from repro.errors import ConfigurationError


class MainMemoryBuffer:
    """Page buffer of a fixed byte capacity (see module docstring): a
    residency bitmap over page IDs plus the resident count."""

    def __init__(self, capacity_bytes, page_bytes, recorder=None):
        if page_bytes <= 0:
            raise ConfigurationError("page size must be positive")
        self.capacity_bytes = capacity_bytes
        self.page_bytes = page_bytes
        self.capacity_pages = max(0, int(capacity_bytes // page_bytes))
        self._resident = np.zeros(0, dtype=bool)
        self._count = 0
        #: Optional TraceRecorder; probes with a known simulated time
        #: become ``mm_buffer_hit`` / ``mm_buffer_miss`` instants.
        self.recorder = recorder
        self.hits = 0
        self.misses = 0

    def __contains__(self, page_id):
        return page_id < len(self._resident) and bool(
            self._resident[page_id])

    def __len__(self):
        return self._count

    def _cover(self, page_ids):
        """Grow the bitmap to cover every one of ``page_ids``."""
        top = int(page_ids.max()) + 1
        if top > len(self._resident):
            self._resident = np.concatenate(
                [self._resident, np.zeros(top - len(self._resident), bool)])

    def lookup_many(self, page_ids, ts=None):
        """The residency of an int64 array of page ids (one bitmap
        gather), counted as hits and misses; ``ts``, the probe's
        simulated time, stamps a traced probe's hit/miss instants."""
        if not len(page_ids):
            return np.zeros(0, dtype=bool)
        self._cover(page_ids)
        resident = self._resident[page_ids]
        hits = int(np.count_nonzero(resident))
        self.hits += hits
        self.misses += len(page_ids) - hits
        if self.recorder is not None and ts is not None:
            self.recorder.block(
                "host", "mm buffer",
                np.where(resident, "mm_buffer_hit", "mm_buffer_miss"),
                np.full(len(page_ids), ts), page=page_ids)
        return resident

    def preload(self, page_ids):
        """Bulk-load pages (the ``|G| < MMBuf`` full-load path): the
        first distinct ids not yet resident, in arrival order, as many
        as fit.  Returns the number admitted."""
        if not isinstance(page_ids, np.ndarray):
            page_ids = np.fromiter(page_ids, dtype=np.int64)
        room = self.capacity_pages - self._count
        if room <= 0 or not len(page_ids):
            return 0
        self._cover(page_ids)
        fresh = page_ids[~self._resident[page_ids]]
        _, first = np.unique(fresh, return_index=True)
        admitted = fresh[np.sort(first)[:room]]
        self._resident[admitted] = True
        self._count += len(admitted)
        return len(admitted)

    def hit_rate(self):
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
