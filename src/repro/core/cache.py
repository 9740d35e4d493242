"""The per-run GPU page cache, ``cachedPIDMap``.

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

:class:`PageCache` is *simulated*: its hit/miss decisions depend only on
the probe order and the policy, never on wall-clock or on other runs —
which is exactly what makes engine runs deterministic.  Every run builds
fresh instances.  The one host-side page cache is the file store's pool
(:class:`~repro.format.io.FileBackedDatabase`).
"""

from collections import OrderedDict

import numpy as np

from repro.errors import ConfigurationError

_POLICIES = ("lru", "fifo", "clock", "pin")

#: Up to this many decreasing depth runs an LRU round counts run by run
#: (one sort per run); past it, by a merge sort over the runs (one sort
#: per ``log2`` of the run count).
_MAX_DEPTH_RUNS = 8


def check_policy(policy):
    """Raise :class:`~repro.errors.ConfigurationError` unless
    ``policy`` names a replacement policy."""
    if policy not in _POLICIES:
        raise ConfigurationError(
            "unknown cache policy %r (expected one of %s)"
            % (policy, ", ".join(_POLICIES)))


class PageCache:
    """A fixed-capacity page cache for one GPU (``cachedPIDMap_i``).

    The resident set is one int64 array in eviction order: the head is
    the next victim, the tail the page most recently admitted (under
    LRU, used).  ``clock`` keeps a referenced bit beside each page.
    """

    def __init__(self, capacity_pages, policy="lru", recorder=None,
                 gpu_index=None):
        if capacity_pages < 0:
            raise ConfigurationError("cache capacity cannot be negative")
        check_policy(policy)
        self.capacity_pages = capacity_pages
        self.policy = policy
        #: Optional TraceRecorder; probes and admissions carrying a
        #: simulated time become cache_hit/miss/admit/evict instants on
        #: this GPU's "page cache" lane.
        self.recorder = recorder
        self.lane = "gpu%d" % gpu_index if gpu_index is not None else "gpu"
        self._resident = np.empty(0, dtype=np.int64)
        self._referenced = np.empty(0, dtype=bool)
        self.hits = 0
        self.misses = 0

    def __contains__(self, page_id):
        return bool((self._resident == page_id).any())

    def __len__(self):
        return len(self._resident)

    def lookup(self, page_id, ts=None):
        """Probe the cache (Algorithm 1 line 16); counts hits/misses.

        ``ts`` is the simulated time of the probe, used only to
        timestamp trace instants when a recorder is attached.
        """
        pages = self._open()
        hit = self._lookup(pages, page_id, ts)
        self._close(pages)
        return hit

    def admit(self, page_id, ts=None):
        """Cache a page just streamed in; returns the evicted victim."""
        pages = self._open()
        victim = self._admit(pages, page_id, ts)
        self._close(pages)
        return victim

    def resolve_round(self, page_ids, ts=None):
        """Replay one round's lookup/admit sequence in bulk.

        Replacement decisions depend only on the probe order and the
        policy — never on simulated time — so the scheduler can
        resolve a whole round's hits up front and keep the booking
        loop free of cache bookkeeping.  Returns a boolean hit array
        aligned with ``page_ids`` (non-negative page IDs); counters,
        resident order and trace instants are identical to interleaved
        :meth:`lookup` / :meth:`admit` calls.  An untraced LRU or pin
        round of distinct pages is decided in arrays
        (:meth:`_resolve_arrays`), however its depths interleave; FIFO,
        clock, a traced cache and a round with repeats replay page by
        page.
        """
        page_ids = np.asarray(page_ids, dtype=np.int64)
        if self.recorder is None and self.policy in ("lru", "pin"):
            hits = self._resolve_arrays(page_ids)
            if hits is not None:
                return hits
        pages = self._open()
        hits = np.zeros(len(page_ids), dtype=bool)
        for i, page_id in enumerate(page_ids.tolist()):
            if self._lookup(pages, page_id, ts):
                hits[i] = True
            else:
                self._admit(pages, page_id, ts)
        self._close(pages)
        return hits

    def _resolve_arrays(self, page_ids):
        """:meth:`resolve_round` for an untraced LRU or pin cache, or
        None when the round probes a page twice (it is then replayed
        page by page).

        A probe can only hit a page resident when the round starts
        (the probes are distinct).  Under pin that is the whole rule,
        and the first ``C - L`` misses are admitted (capacity ``C``,
        ``L`` resident).  LRU holds the ``C`` most recently used
        distinct pages, so probe ``i`` of a page at depth ``G`` (0 is
        the MRU page) hits iff fewer than ``C`` distinct pages were used
        since: the ``i`` earlier probes, plus the ``G`` pages above it
        that no earlier probe touched, i.e. ``i + G - #{earlier probes
        of residents with depth < G} < C``.  The new resident set is
        the untouched residents, in order, then the round's probes,
        keeping the last ``C``.
        """
        capacity = self.capacity_pages
        resident = self._resident
        k, size = len(page_ids), len(resident)
        if not k:
            return np.zeros(0, dtype=bool)
        # Each page's position in the resident set through one dense
        # map (-2: probed, not resident); a repeated probe sends the
        # round to the replay.
        top = int(max(page_ids.max(), resident.max() if size else 0)) + 1
        slot = np.full(top, -1, dtype=np.int64)
        slot[page_ids] = -2
        if np.count_nonzero(slot == -2) != k:
            return None
        slot[resident] = np.arange(size)
        position = slot[page_ids]
        probes = np.flatnonzero(position >= 0)
        hits = np.zeros(k, dtype=bool)
        if self.policy == "pin":
            hits[probes] = True
            admitted = page_ids[~hits][:capacity - size]
            self._resident = np.concatenate([resident, admitted])
        else:
            depth = size - 1 - position[probes]
            earlier = _earlier_smaller(depth)
            hits[probes[probes + depth - earlier < capacity]] = True
            untouched = np.ones(size, dtype=bool)
            untouched[position[probes]] = False
            order = np.concatenate([resident[untouched], page_ids])
            self._resident = order[max(0, len(order) - capacity):]
        self._referenced = np.zeros(len(self._resident), dtype=bool)
        hit_count = int(np.count_nonzero(hits))
        self.hits += hit_count
        self.misses += k - hit_count
        return hits

    def _open(self):
        """The resident set as an ``OrderedDict`` (page -> referenced
        bit) for a page-by-page replay."""
        return OrderedDict(zip(self._resident.tolist(),
                               self._referenced.tolist()))

    def _close(self, pages):
        self._resident = np.fromiter(pages, dtype=np.int64,
                                     count=len(pages))
        self._referenced = np.fromiter(pages.values(), dtype=bool,
                                       count=len(pages))

    def _lookup(self, pages, page_id, ts):
        if self.capacity_pages and page_id in pages:
            if self.policy == "lru":
                pages.move_to_end(page_id)
            elif self.policy == "clock":
                pages[page_id] = True  # referenced bit
            self.hits += 1
            self._instant("cache_hit", page_id, ts)
            return True
        self.misses += 1
        self._instant("cache_miss", page_id, ts)
        return False

    def _admit(self, pages, page_id, ts):
        if self.capacity_pages == 0:
            return None
        if page_id in pages:
            if self.policy == "lru":
                pages.move_to_end(page_id)
            return None
        victim = None
        if len(pages) >= self.capacity_pages:
            if self.policy == "pin":
                return None  # resident set is stable once full
            victim = self._evict(pages)
            self._instant("cache_evict", victim, ts)
        pages[page_id] = False
        self._instant("cache_admit", page_id, ts)
        return victim

    def _instant(self, name, page_id, ts):
        if self.recorder is not None and ts is not None:
            self.recorder.instant(name, self.lane, "page cache", ts,
                                  page=page_id, policy=self.policy)

    def _evict(self, pages):
        if self.policy == "clock":
            # Second chance: clear referenced bits until an unreferenced
            # page comes to hand.
            while True:
                page_id, referenced = next(iter(pages.items()))
                if referenced:
                    pages.move_to_end(page_id)
                    pages[page_id] = False
                else:
                    del pages[page_id]
                    return page_id
        # LRU and FIFO both evict the head (lookup refreshes order only
        # under LRU, which is exactly their difference).
        page_id, _ = pages.popitem(last=False)
        return page_id

    def hit_rate(self):
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def page_ids(self):
        """Snapshot of cached page IDs (copied back to MM in Algorithm 1),
        in eviction order."""
        return self._resident.tolist()

    @staticmethod
    def naive_hit_rate(capacity_pages, total_pages):
        """The paper's ``B / (S + L)`` random-graph approximation."""
        if total_pages <= 0:
            return 0.0
        return min(1.0, capacity_pages / total_pages)


def _earlier_smaller(depth):
    """For each entry of ``depth`` (distinct non-negative values), how
    many earlier entries are smaller.

    Inside a maximal decreasing run no earlier entry of the same run is
    smaller.  Up to :data:`_MAX_DEPTH_RUNS` runs, each run after the
    first needs one ``searchsorted`` against the sorted entries before
    it.  Past that, a natural merge sort counts in ``O(k)`` memory: the
    runs, reversed, are the first sorted blocks, and each pass merges
    block pairs with one stable sort of the ``pair * span + value``
    keys, where every right-block entry counts the left-block entries
    it lands past.
    """
    k = len(depth)
    starts = np.flatnonzero(np.diff(depth) > 0) + 1
    earlier = np.zeros(k, dtype=np.int64)
    if len(starts) < _MAX_DEPTH_RUNS:
        for start, end in zip(starts.tolist(),
                              starts[1:].tolist() + [k]):
            earlier[start:end] = np.searchsorted(np.sort(depth[:start]),
                                                 depth[start:end])
        return earlier
    bounds = np.concatenate([[0], starts, [k]])
    position = np.arange(k)
    block = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
    # order[p]: the entry at position p, each block in ascending order.
    order = bounds[block] + bounds[block + 1] - 1 - position
    span = int(depth.max()) + 1
    while len(bounds) > 2:
        lengths = np.diff(bounds)
        pair = block >> 1
        # Each pair's keys are two ascending runs: a stable sort merges
        # them, and a right-block entry lands past its smaller
        # left-block entries.
        merge = np.argsort(pair * span + depth[order], kind="stable")
        destination = np.empty_like(merge)
        destination[merge] = position
        earlier[order] += (block & 1) * (
            destination - position + lengths[block - 1])
        order = order[merge]
        block = pair
        bounds = np.append(bounds[:-1:2], k)
    return earlier
