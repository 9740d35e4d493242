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

#: Trace row names by :meth:`PageCache._record_round`'s codes.
_ROW_NAMES = np.array(["cache_hit", "cache_miss", "cache_evict",
                       "cache_admit"])


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
        pages, rows = self._open(), []
        hit = self._lookup(pages, page_id, rows)
        self._close(pages, rows, ts)
        return hit

    def admit(self, page_id, ts=None):
        """Cache a page just streamed in; returns the evicted victim."""
        pages, rows = self._open(), []
        victim = self._admit(pages, page_id, rows)
        self._close(pages, rows, ts)
        return victim

    def resolve_round(self, page_ids, ts=None):
        """Replay one round's lookup/admit sequence in bulk.

        Replacement decisions depend only on the probe order and the
        policy — never on simulated time — so the scheduler can
        resolve a whole round's hits up front and keep the booking
        loop free of cache bookkeeping.  Returns a boolean hit array
        aligned with ``page_ids`` (non-negative page IDs); counters,
        resident order and trace instants are identical to interleaved
        :meth:`lookup` / :meth:`admit` calls.  An LRU or pin round of
        distinct pages is decided in arrays (:meth:`_resolve_arrays`),
        however its depths interleave and whether or not it is traced;
        FIFO, clock and a round with repeats replay page by page.
        """
        page_ids = np.asarray(page_ids, dtype=np.int64)
        if self.policy in ("lru", "pin"):
            hits = self._resolve_arrays(page_ids, ts)
            if hits is not None:
                return hits
        pages, rows = self._open(), []
        hits = np.zeros(len(page_ids), dtype=bool)
        for i, page_id in enumerate(page_ids.tolist()):
            if self._lookup(pages, page_id, rows):
                hits[i] = True
            else:
                self._admit(pages, page_id, rows)
        self._close(pages, rows, ts)
        return hits

    def _resolve_arrays(self, page_ids, ts):
        """:meth:`resolve_round` for an LRU or pin cache, or None when
        the round probes a page twice (it is then replayed page by
        page).

        A probe can only hit a page resident when the round starts
        (the probes are distinct).  Under pin that is the whole rule,
        and the first ``C - L`` misses are admitted (capacity ``C``,
        ``L`` resident).  LRU holds the ``C`` most recently used
        distinct pages, so probe ``i`` of a page at depth ``G`` (0 is
        the MRU page) hits iff fewer than ``C`` distinct pages were used
        since: the ``i`` earlier probes, plus the ``G`` pages above it
        that no earlier probe touched, i.e. ``i + G - #{earlier probes
        of residents with depth < G} < C``.  Every miss is admitted; the
        residents no probe hits (one whose probe misses was evicted
        before it), then the probes, keeping the last ``C``, are the new
        resident set, and the ones cut off the victims, in order.
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
            admitted = np.flatnonzero(~hits)[:capacity - size]
            victims = page_ids[:0]
            self._resident = np.concatenate([resident, page_ids[admitted]])
        else:
            depth = size - 1 - position[probes]
            earlier = _earlier_smaller(depth)
            hit_probes = probes[probes + depth - earlier < capacity]
            hits[hit_probes] = True
            admitted = np.flatnonzero(~hits)[:k if capacity else 0]
            kept = np.ones(size, dtype=bool)
            kept[position[hit_probes]] = False
            order = np.concatenate([resident[kept], page_ids])
            cut = max(0, len(order) - capacity)
            victims = order[:cut if capacity else 0]
            self._resident = order[cut:]
        self._referenced = np.zeros(len(self._resident), dtype=bool)
        hit_count = int(np.count_nonzero(hits))
        self.hits += hit_count
        self.misses += k - hit_count
        if self.recorder is not None and ts is not None:
            self._record_round(page_ids, hits, admitted, victims, ts)
        return hits

    def _record_round(self, page_ids, hits, admitted, victims, ts):
        """Record an array-decided round as its replay would: per probe
        a hit, or a miss, the victim it evicts (the last ``len(victims)``
        admissions evict) and its admission (when admitted)."""
        keep = np.zeros((len(page_ids), 3), dtype=bool)
        keep[:, 0] = True
        keep[admitted[len(admitted) - len(victims):], 1] = True
        keep[admitted, 2] = True
        codes = np.tile([0, 2, 3], (len(page_ids), 1))
        codes[:, 0] = ~hits
        pages = np.repeat(page_ids[:, None], 3, axis=1)
        pages[keep[:, 1], 1] = victims
        self._record(_ROW_NAMES[codes[keep]], pages[keep], ts)

    def _record(self, names, page_ids, ts):
        """One block of probe/admission instants at ``ts``."""
        if self.recorder is not None and ts is not None:
            self.recorder.block(self.lane, "page cache", names,
                                [ts] * len(page_ids), page=page_ids,
                                policy=self.policy)

    def _open(self):
        """The resident set as an ``OrderedDict`` (page -> referenced
        bit) for a page-by-page replay."""
        return OrderedDict(zip(self._resident.tolist(),
                               self._referenced.tolist()))

    def _close(self, pages, rows, ts):
        """Keep a replay's resident set; record its (name, page) rows."""
        self._resident = np.fromiter(pages, dtype=np.int64,
                                     count=len(pages))
        self._referenced = np.fromiter(pages.values(), dtype=bool,
                                       count=len(pages))
        if rows:
            names, page_ids = zip(*rows)
            self._record(names, page_ids, ts)

    def _lookup(self, pages, page_id, rows):
        if self.capacity_pages and page_id in pages:
            if self.policy == "lru":
                pages.move_to_end(page_id)
            elif self.policy == "clock":
                pages[page_id] = True  # referenced bit
            self.hits += 1
            rows.append(("cache_hit", page_id))
            return True
        self.misses += 1
        rows.append(("cache_miss", page_id))
        return False

    def _admit(self, pages, page_id, rows):
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
            rows.append(("cache_evict", victim))
        pages[page_id] = False
        rows.append(("cache_admit", page_id))
        return victim

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
