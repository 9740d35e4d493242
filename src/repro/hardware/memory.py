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

import itertools

import numpy as np

from repro.errors import ConfigurationError


class MainMemoryBuffer:
    """Page buffer of a fixed byte capacity (see module docstring)."""

    def __init__(self, capacity_bytes, page_bytes, recorder=None):
        if page_bytes <= 0:
            raise ConfigurationError("page size must be positive")
        self.capacity_bytes = capacity_bytes
        self.page_bytes = page_bytes
        self.capacity_pages = max(0, int(capacity_bytes // page_bytes))
        self._pages = {}  # page_id -> None, in admission order
        #: Optional TraceRecorder; probes with a known simulated time
        #: become ``mm_buffer_hit`` / ``mm_buffer_miss`` instants.
        self.recorder = recorder
        self.hits = 0
        self.misses = 0

    def __contains__(self, page_id):
        return page_id in self._pages

    def __len__(self):
        return len(self._pages)

    def lookup(self, page_id, ts=None):
        """Check residency and update the hit/miss counters.

        ``ts`` is the simulated time of the probe; when tracing is on it
        timestamps the emitted hit/miss instant.
        """
        if page_id in self._pages:
            self.hits += 1
            if self.recorder is not None and ts is not None:
                self.recorder.instant("mm_buffer_hit", "host", "mm buffer",
                                      ts, page=page_id)
            return True
        self.misses += 1
        if self.recorder is not None and ts is not None:
            self.recorder.instant("mm_buffer_miss", "host", "mm buffer",
                                  ts, page=page_id)
        return False

    def lookup_many(self, page_ids, ts=None):
        """:meth:`lookup` over an int64 array of page ids; returns their
        residency as a boolean array.

        With no recorder asking for the per-page instants this is one
        bitmap probe instead of a Python-level lookup per page.
        """
        if self.recorder is not None:
            return np.fromiter(
                (self.lookup(pid, ts) for pid in page_ids.tolist()),
                dtype=bool, count=len(page_ids))
        if not (self._pages and len(page_ids)):
            self.misses += len(page_ids)
            return np.zeros(len(page_ids), dtype=bool)
        pages = np.fromiter(self._pages, dtype=np.int64,
                            count=len(self._pages))
        bitmap = np.zeros(max(pages.max(), page_ids.max()) + 1, dtype=bool)
        bitmap[pages] = True
        resident = bitmap[page_ids]
        hits = int(np.count_nonzero(resident))
        self.hits += hits
        self.misses += len(page_ids) - hits
        return resident

    def admit(self, page_id):
        """Insert a fetched page; a full buffer lets it pass through."""
        if len(self._pages) < self.capacity_pages:
            self._pages[page_id] = None

    def preload(self, page_ids):
        """Bulk-load pages (the ``|G| < MMBuf`` full-load path).

        Loads as many pages as fit; returns the number admitted.
        """
        if not self._pages:
            # Nothing resident to probe: the first ``capacity_pages``
            # distinct ids, in arrival order, in one insert (the engine
            # pays this at the start of every run).
            self._pages = dict.fromkeys(itertools.islice(
                dict.fromkeys(page_ids), self.capacity_pages))
            return len(self._pages)
        admitted = 0
        for page_id in page_ids:
            if len(self._pages) >= self.capacity_pages:
                break
            if page_id not in self._pages:
                self._pages[page_id] = None
                admitted += 1
        return admitted

    def hit_rate(self):
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def resident_bytes(self):
        """Bytes currently buffered (a gauge for the metrics registry)."""
        return len(self._pages) * self.page_bytes

    def reset_counters(self):
        self.hits = 0
        self.misses = 0
