"""Page caches: the per-run GPU ``cachedPIDMap`` and the cross-query
shared host cache.

After WABuf / RABuf / SPBuf / LPBuf are allocated, leftover device memory
caches topology pages so BFS-like algorithms that revisit pages across
levels skip the PCI-E copy.  The paper's naive hit-rate approximation for
a cache of ``B`` pages over ``S + L`` total pages is ``B / (S + L)``
(random-graph assumption); Figure 11 sweeps the cache size.

"GTS basically adopts the LRU algorithm for the caching algorithm, but
other algorithms can be used as well" (Section 3.3) — so the replacement
policy is pluggable here:

* ``"lru"`` (default) — least recently used.
* ``"fifo"`` — evict in admission order; cheaper bookkeeping on a GPU.
* ``"clock"`` — the classic second-chance approximation of LRU.
* ``"pin"`` — first-streamed pages stay resident (scan-resistant: a
  level-synchronous sweep in ascending page order floods LRU/FIFO).

Two cache classes live here, on opposite sides of the simulation/host
split:

* :class:`PageCache` is the **simulated** per-GPU cache.  Its hit/miss
  decisions depend only on the probe order and the policy, never on
  wall-clock or on other runs — which is exactly what makes engine runs
  deterministic.  Every run builds fresh instances.
* :class:`SharedPageCache` is the **host-side** cross-query cache the
  service layer (:mod:`repro.service`) keeps alive between queries: a
  thread-safe LRU of *decoded page objects* keyed by
  ``(page_id, topology_version)``.  It sits behind
  :meth:`repro.format.io.FileBackedDatabase.page` — a warm query skips
  the disk read and the byte-level parse, not any simulated work — so
  sharing it across queries changes host wall-clock and the shared
  hit-rate counters *only*.  Simulated timings and algorithm outputs of
  a warm run stay bit-identical to a cold one-shot run; that
  determinism contract is what lets the service hand one cache to
  thousands of concurrent queries.
"""

from collections import OrderedDict

from repro.concurrency import InstrumentedLock
from repro.errors import ConfigurationError

_POLICIES = ("lru", "fifo", "clock", "pin")


class PageCache:
    """A fixed-capacity page cache for one GPU (``cachedPIDMap_i``)."""

    def __init__(self, capacity_pages, policy="lru", recorder=None,
                 gpu_index=None):
        if capacity_pages < 0:
            raise ConfigurationError("cache capacity cannot be negative")
        if policy not in _POLICIES:
            raise ConfigurationError(
                "unknown cache policy %r (expected one of %s)"
                % (policy, ", ".join(_POLICIES)))
        self.capacity_pages = capacity_pages
        self.policy = policy
        #: Optional TraceRecorder; probes and admissions carrying a
        #: simulated time become cache_hit/miss/admit/evict instants on
        #: this GPU's "page cache" lane.
        self.recorder = recorder
        self.lane = "gpu%d" % gpu_index if gpu_index is not None else "gpu"
        self._pages = OrderedDict()   # page_id -> referenced bit
        self.hits = 0
        self.misses = 0

    def __contains__(self, page_id):
        return page_id in self._pages

    def __len__(self):
        return len(self._pages)

    def lookup(self, page_id, ts=None):
        """Probe the cache (Algorithm 1 line 16); counts hits/misses.

        ``ts`` is the simulated time of the probe, used only to
        timestamp trace instants when a recorder is attached.
        """
        if self.capacity_pages == 0:
            self.misses += 1
            self._instant("cache_miss", page_id, ts)
            return False
        if page_id in self._pages:
            if self.policy == "lru":
                self._pages.move_to_end(page_id)
            elif self.policy == "clock":
                self._pages[page_id] = True  # referenced bit
            self.hits += 1
            self._instant("cache_hit", page_id, ts)
            return True
        self.misses += 1
        self._instant("cache_miss", page_id, ts)
        return False

    def resolve_round(self, page_ids, ts=None, assume_distinct=False):
        """Replay one round's lookup/admit sequence in bulk.

        Replacement decisions depend only on the probe order and the
        policy — never on simulated time — so the scheduler can
        resolve a whole round's hits up front and keep the booking
        loop free of cache bookkeeping.  Returns a per-page hit list;
        counters and trace instants are identical to interleaved
        :meth:`lookup` / :meth:`admit` calls.  ``assume_distinct``
        promises that ``page_ids`` has no duplicates (the engine's
        rounds are deduped), unlocking the sequential-flooding shortcut.
        """
        if (self.recorder is None and self.capacity_pages
                and self.policy in ("lru", "fifo", "pin")):
            if (assume_distinct and self.policy != "pin"
                    and len(page_ids) > self.capacity_pages
                    and len(self._pages) == self.capacity_pages
                    and list(self._pages) == page_ids[-self.capacity_pages:]):
                # Sequential flooding in steady state: a full-scan round
                # larger than the cache whose tail is exactly the current
                # resident set (what the previous identical round left
                # behind).  Every probe misses — each resident page is
                # evicted before its own probe comes around — and the
                # final resident set is again the round's tail, i.e. the
                # OrderedDict ends bit-identical to how it started, so
                # only the counters need touching.
                self.misses += len(page_ids)
                return [False] * len(page_ids)
            # Inlined lookup+admit for the untraced common policies: same
            # decisions and counters as the generic loop below, without
            # two method calls per page.
            pages = self._pages
            capacity = self.capacity_pages
            lru = self.policy == "lru"
            pin = self.policy == "pin"
            hits = []
            hit_count = miss_count = 0
            for page_id in page_ids:
                if page_id in pages:
                    if lru:
                        pages.move_to_end(page_id)
                    hit_count += 1
                    hits.append(True)
                else:
                    miss_count += 1
                    hits.append(False)
                    if len(pages) >= capacity:
                        if pin:
                            continue  # resident set is stable once full
                        pages.popitem(last=False)
                    pages[page_id] = False
            self.hits += hit_count
            self.misses += miss_count
            return hits
        hits = []
        for page_id in page_ids:
            hit = self.lookup(page_id, ts=ts)
            if not hit:
                self.admit(page_id, ts=ts)
            hits.append(hit)
        return hits

    def admit(self, page_id, ts=None):
        """Cache a page just streamed in; returns the evicted victim."""
        if self.capacity_pages == 0:
            return None
        if page_id in self._pages:
            if self.policy == "lru":
                self._pages.move_to_end(page_id)
            return None
        victim = None
        if len(self._pages) >= self.capacity_pages:
            if self.policy == "pin":
                return None  # resident set is stable once full
            victim = self._evict()
            if victim is not None:
                self._instant("cache_evict", victim, ts)
        self._pages[page_id] = False
        self._instant("cache_admit", page_id, ts)
        return victim

    def _instant(self, name, page_id, ts):
        if self.recorder is not None and ts is not None:
            self.recorder.instant(name, self.lane, "page cache", ts,
                                  page=page_id, policy=self.policy)

    def _evict(self):
        if self.policy == "clock":
            # Second chance: clear referenced bits until an unreferenced
            # page comes to hand.
            while True:
                page_id, referenced = next(iter(self._pages.items()))
                if referenced:
                    self._pages.move_to_end(page_id)
                    self._pages[page_id] = False
                else:
                    del self._pages[page_id]
                    return page_id
        # LRU and FIFO both evict the head (lookup refreshes order only
        # under LRU, which is exactly their difference).
        page_id, _ = self._pages.popitem(last=False)
        return page_id

    def hit_rate(self):
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def page_ids(self):
        """Snapshot of cached page IDs (copied back to MM in Algorithm 1)."""
        return list(self._pages)

    @staticmethod
    def naive_hit_rate(capacity_pages, total_pages):
        """The paper's ``B / (S + L)`` random-graph approximation."""
        if total_pages <= 0:
            return 0.0
        return min(1.0, capacity_pages / total_pages)


class SharedPageCache:
    """A thread-safe cross-query cache of decoded host pages.

    One instance serves every query the service runs against a
    database: :meth:`repro.format.io.FileBackedDatabase.page` probes it
    after its (small) per-database pool misses and before it touches the
    pages file, and populates it after a verified parse.  Entries are
    keyed ``(page_id, topology_version)`` so a dynamic-update batch or a
    compaction never serves stale topology — old-version entries age
    out of the LRU naturally.

    Determinism contract
    --------------------
    The shared cache lives strictly on the *host* side of the
    simulation/host split: it stores decoded, immutable page objects
    and is never consulted by the simulated machine (the per-GPU
    :class:`PageCache`, the MM buffer and the storage channels replay
    their decisions from probe order alone).  A query served warm from
    this cache therefore books bit-identical simulated times and
    produces bit-identical outputs to its cold one-shot equivalent —
    only ``hits``/``misses`` here and the host wall-clock move.  Pages
    are inserted only after checksum verification succeeds, so an
    injected (or real) corrupt read can never poison the shared state.

    Interaction with the mapped page store: this cache must never
    double-cache mmap *views* — an entry aliasing the
    file mapping would pin the mapping alive through the LRU and turn
    into a dangling view once the database handle is closed.  The
    invariant is upheld at decode time, not here: the bulk decoder
    (:func:`repro.format.page.decode_pages`) materialises every output
    array fresh (nothing aliases the buffer it decodes from) and every
    page split off a chunk owns its arrays, so what the mapped read
    path inserts is
    the same self-contained page object the copy fallback produces, safe to
    outlive :meth:`~repro.format.io.FileBackedDatabase.close` and
    serving warm queries without touching the mapping at all.

    ``capacity_pages=None`` means unbounded (the service default for
    databases that fit host memory); ``0`` disables caching but keeps
    the accounting, which gives benchmarks a per-run-rebuild baseline
    with identical code paths.
    """

    def __init__(self, capacity_pages=None):
        if capacity_pages is not None and capacity_pages < 0:
            raise ConfigurationError(
                "shared cache capacity cannot be negative")
        self.capacity_pages = capacity_pages
        self._pages = OrderedDict()   # (pid, version) -> page object
        self._lock = InstrumentedLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.insertions = 0

    def __len__(self):
        return len(self._pages)

    def get(self, page_id, version):
        """The decoded page for ``(page_id, version)``, or ``None``."""
        key = (page_id, version)
        with self._lock:
            page = self._pages.get(key)
            if page is not None:
                self._pages.move_to_end(key)
                self.hits += 1
                return page
            self.misses += 1
            return None

    def put(self, page_id, version, page):
        """Insert a verified decoded page; evicts LRU entries past
        capacity.  Idempotent for concurrent inserters."""
        if self.capacity_pages == 0:
            return
        key = (page_id, version)
        with self._lock:
            if key in self._pages:
                self._pages.move_to_end(key)
                return
            self._pages[key] = page
            self.insertions += 1
            if self.capacity_pages is not None:
                while len(self._pages) > self.capacity_pages:
                    self._pages.popitem(last=False)
                    self.evictions += 1

    def hit_rate(self):
        """Cross-query hit rate (exact: counters mutate under the lock)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def contention(self):
        """Lock-contention counters for the service stats endpoint."""
        return self._lock.stats()

    def stats(self):
        """JSON-ready snapshot of the cache counters."""
        return {
            "resident_pages": len(self._pages),
            "capacity_pages": self.capacity_pages,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate(),
            "insertions": self.insertions,
            "evictions": self.evictions,
            "lock": self.contention(),
        }

    def drop_version(self, version):
        """Evict every entry cached under ``version``.

        The MVCC reclamation path calls this when a topology version
        (or a retired file-backed base after an in-place compaction)
        loses its last pin: the entries can never be probed again, so
        aging them out of the LRU would only waste capacity.  Returns
        the number of entries dropped.
        """
        with self._lock:
            stale = [key for key in self._pages if key[1] == version]
            for key in stale:
                del self._pages[key]
            self.evictions += len(stale)
            return len(stale)

    def clear(self):
        """Drop every entry (keeps counters; used by tests and drains)."""
        with self._lock:
            self._pages.clear()
