"""Main-memory page buffer (MMBuf) with its buffered-page map.

Algorithm 1 keeps a main-memory buffer: when the whole graph fits
(``|G| < MMBuf``) it is loaded up front and no storage I/O happens during
the run; otherwise pages fetched from SSD are kept in the buffer
(``bufferPIDMap``), so re-streamed pages often avoid a second storage
read — this "page buffering mechanism" is the paper's explanation for
measured times beating the naive bandwidth arithmetic in Section 7.5.

Two replacement policies are provided:

* ``"pin"`` (default) — first-fetched pages stay resident; once full,
  later pages pass through unbuffered.  Full-scan algorithms stream pages
  in the same ascending order every iteration, which makes plain LRU
  evict each page moments before its next use (classic sequential
  flooding) and deliver zero hits at any buffer size below 100 %.
  Pinning a stable prefix yields the ``capacity / topology`` hit fraction
  per iteration that the paper's arithmetic implies.
* ``"lru"`` — least-recently-used, for workloads with temporal locality.
"""

import itertools
from collections import OrderedDict

from repro.errors import ConfigurationError

_POLICIES = ("pin", "lru")


class MainMemoryBuffer:
    """Page buffer of a fixed byte capacity (see module docstring)."""

    def __init__(self, capacity_bytes, page_bytes, policy="pin",
                 recorder=None):
        if page_bytes <= 0:
            raise ConfigurationError("page size must be positive")
        if policy not in _POLICIES:
            raise ConfigurationError(
                "unknown buffer policy %r (expected one of %s)"
                % (policy, ", ".join(_POLICIES)))
        self.capacity_bytes = capacity_bytes
        self.page_bytes = page_bytes
        self.policy = policy
        self.capacity_pages = max(0, int(capacity_bytes // page_bytes))
        self._pages = OrderedDict()  # page_id -> None, LRU order
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
        """Check residency, update recency and hit/miss counters.

        ``ts`` is the simulated time of the probe; when tracing is on it
        timestamps the emitted hit/miss instant.
        """
        if page_id in self._pages:
            if self.policy == "lru":
                self._pages.move_to_end(page_id)
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

    def admit(self, page_id):
        """Insert a fetched page, subject to the replacement policy."""
        if self.capacity_pages == 0:
            return
        if page_id in self._pages:
            if self.policy == "lru":
                self._pages.move_to_end(page_id)
            return
        if len(self._pages) >= self.capacity_pages:
            if self.policy == "pin":
                return  # resident set is stable once full
            while len(self._pages) >= self.capacity_pages:
                self._pages.popitem(last=False)
        self._pages[page_id] = None

    def preload(self, page_ids):
        """Bulk-load pages (the ``|G| < MMBuf`` full-load path).

        Loads as many pages as fit; returns the number admitted.
        """
        if not self._pages:
            # Nothing resident to probe: the first ``capacity_pages``
            # distinct ids, in arrival order, in one insert (the engine
            # pays this at the start of every run).
            self._pages = OrderedDict.fromkeys(itertools.islice(
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
