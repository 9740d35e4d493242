"""Per-run page plans: precomputed arrays for vectorized round execution.

A round executed page object by page object would re-derive degrees, RA
sizing and a sorted scatter order on every dispatch, so host wall-clock
would scale with *page count* rather than with NumPy throughput.  This
module hoists all of that page-shaped metadata into flat, page-major
arrays built **once** per topology — the only thing the engine and the
kernels read:

* :class:`PagePlan` — the concatenated view of the whole database:
  per-record degrees and vertex IDs, the global adjacency CSR
  (``adj_vids`` / ``adj_pids`` / optional weights), and a *global
  sorted-scatter index* (every page's stable argsort of its adjacency
  targets, concatenated) so full-scan kernels run one ``reduceat`` over
  the multi-edge ``(page, target)`` segments + one ``ufunc.at`` over
  the entire round (:meth:`RoundBatch.reduce_into`).
* :class:`RoundBatch` — a lazy view of the plan over one round's page
  set, in the exact SP-first order the engine dispatches: each field is
  gathered with vectorized range concatenation (no per-page Python
  loop) the first time a kernel reads it.
* :class:`Frontier` — what :meth:`RoundBatch.advance` hands a frontier
  kernel: the active records' edges alone, as one more lazy view, with
  the traversal step's operators (``filter`` / ``from_sources`` /
  ``pages``).
* :func:`page_mask` / :func:`page_set` — ``nextPIDSet`` as a page
  *bitmap*: kernels, the engine's barrier merge and its large-page-run
  expansion all name page sets through it, so no round sorts an
  edge-length array to learn which pages come next.
* :class:`RoundPlanCache` — keyed by the database's
  ``topology_version`` so dynamic updates (WAL batches, compaction)
  invalidate the plan and the next run rebuilds it.

Everything here is *derived* data: the plan never mutates kernel state
and holds only the flat arrays its database hands it
(:meth:`~repro.format.database.GraphDatabase.topology_arrays` — the
page scan is the database's: a resident database walks its pages, a
file-backed store decodes its mapped bytes in bulk and builds no page
objects) plus one global argsort over them, and roughly doubles the
resident topology footprint — the classic space-for-time trade behind
GTS's own "prepare once, stream many times" design.
"""

import functools
import itertools
import threading
import weakref

import numpy as np

from repro.concurrency import InstrumentedLock
from repro.spans import span


def take_ranges(starts, counts):
    """Concatenate ``arange(starts[i], starts[i] + counts[i])`` for all
    ``i`` without a Python loop (the standard repeat/cumsum trick)."""
    starts = np.asarray(starts, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(counts)
    offsets = np.repeat(starts - (ends - counts), counts)
    return offsets + np.arange(total, dtype=np.int64)


def _indptr(counts):
    out = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


class RoundBatch:
    """One round's pages as flat page-major arrays: a lazy view over
    ``(plan, pids)``.

    The batch has three spaces.  Only the record space is gathered up
    front; every other field is gathered on first read and memoised on
    the instance, so a kernel pays for what its body reads and nothing
    else:

    * **record space** — ``rec_indptr`` (len pages+1) delimits each
      page's records; ``degrees`` / ``rec_vids`` are per record.  Every
      kernel needs these for its lane steps.  ``rec_divisor`` (the
      PageRank divisor: the record's degree for SP records, the
      vertex's *total* degree for LP chunks) is lazy.
    * **edge space** — ``edge_indptr`` (len pages+1) delimits each
      page's adjacency entries; ``edge_rec`` maps every edge to its
      record index *within the batch*; ``adj_vids`` / ``adj_pids`` /
      ``adj_weights`` are per edge.  Frontier kernels never build it:
      :meth:`advance` gathers only the active records' edges.
    * **scatter space** — ``scatter_order`` permutes the batch's edges
      into per-page stable target order; ``seg_starts`` delimits the
      ``(page, target vertex)`` *segments* inside that permutation, so
      a segment-wise reduction followed by a page-major combine
      accumulates every target page by page; ``seg_targets`` gives each
      segment's target VID; ``seg_indptr`` (len pages+1) delimits each
      page's segments.  Kernels reach it through :meth:`reduce_into`,
      whose index is built on its first call.

    Segment boundaries are local to the batch; ``scatter_order`` and
    ``seg_starts`` index into the batch's edge space and, with
    ``edge_rec``, feed only that index, so they are not memoised.  A
    batch covering every page in pid order takes the plan's own arrays
    without a copy.

    Concurrent readers may race on a memo (the full batch is shared
    across service threads), but both compute the same array from
    immutable inputs and attribute assignment is atomic, so the worst
    case is one duplicated gather — never a wrong or torn value.
    """

    def __init__(self, plan, pids):
        self._plan = plan
        self.pids = pids
        # Plan-wide record index of each batch record; None when the
        # batch *is* the plan (every page, in pid order).
        self._rec_sel = None
        if len(pids) != plan.num_pages or not np.array_equal(
                pids, np.arange(plan.num_pages, dtype=np.int64)):
            self._rec_sel = take_ranges(plan.rec_indptr[pids],
                                        plan.rec_counts[pids])
        self.rec_indptr = self._page_indptr(plan.rec_indptr, plan.rec_counts)
        self.degrees = self._records(plan.degrees)
        self.rec_vids = self._records(plan.rec_vids)

    # -- gathers -------------------------------------------------------
    def _page_indptr(self, indptr, counts):
        return indptr if self._rec_sel is None else _indptr(
            counts[self.pids])

    def _records(self, per_record):
        return (per_record if self._rec_sel is None
                else per_record[self._rec_sel])

    def _edges(self, per_edge):
        return (per_edge if self._rec_sel is None
                else per_edge[self._edge_sel])

    def _segments(self, per_segment):
        return (per_segment if self._rec_sel is None
                else per_segment[self._seg_sel])

    @functools.cached_property
    def _edge_sel(self):
        plan = self._plan
        return take_ranges(plan.edge_indptr[self.pids],
                           plan.edge_counts[self.pids])

    @functools.cached_property
    def _seg_sel(self):
        plan = self._plan
        return take_ranges(plan.seg_indptr[self.pids],
                           plan.seg_counts[self.pids])

    # -- record space (lazy part) --------------------------------------
    @functools.cached_property
    def rec_divisor(self):
        return self._records(self._plan.rec_divisor)

    # -- edge space ----------------------------------------------------
    @functools.cached_property
    def edge_indptr(self):
        return self._page_indptr(self._plan.edge_indptr,
                                 self._plan.edge_counts)

    @property
    def edge_rec(self):
        return np.repeat(
            np.arange(len(self.degrees), dtype=np.int64), self.degrees)

    @functools.cached_property
    def adj_vids(self):
        return self._edges(self._plan.adj_vids)

    @functools.cached_property
    def adj_pids(self):
        return self._edges(self._plan.adj_pids)

    @functools.cached_property
    def adj_weights(self):
        weights = self._plan.adj_weights
        return None if weights is None else self._edges(weights)

    # -- scatter space -------------------------------------------------
    @property
    def scatter_order(self):
        return self._edges(self._plan.order_local) + np.repeat(
            self.edge_indptr[:-1], self.edges_per_page())

    @functools.cached_property
    def seg_indptr(self):
        return self._page_indptr(self._plan.seg_indptr, self._plan.seg_counts)

    @property
    def seg_starts(self):
        return self._segments(self._plan.seg_starts_local) + np.repeat(
            self.edge_indptr[:-1], np.diff(self.seg_indptr))

    @functools.cached_property
    def seg_targets(self):
        return self._segments(self._plan.seg_targets)

    @functools.cached_property
    def _reduce_index(self):
        """``(seg_src, multi_rec, multi_starts)``: a one-edge segment's
        source is its edge's record, the ``k``-th multi-edge segment's is
        ``num_records + k``, reduced over ``multi_rec`` at ``multi_starts``."""
        starts = self.seg_starts
        edges = np.diff(starts, append=self.num_edges)
        sorted_rec = self.edge_rec[self.scatter_order]
        multi = np.flatnonzero(edges > 1)
        seg_src = sorted_rec[starts]
        seg_src[multi] = self.num_records + np.arange(len(multi))
        multi_rec = sorted_rec[take_ranges(starts[multi], edges[multi])]
        return seg_src, multi_rec, _indptr(edges[multi])[:-1]

    # ------------------------------------------------------------------
    @property
    def num_pages(self):
        return len(self.pids)

    @property
    def num_records(self):
        return len(self.degrees)

    @property
    def num_edges(self):
        return int(self.edge_indptr[-1])

    @property
    def num_segments(self):
        return int(self.seg_indptr[-1])

    def reduce_into(self, ufunc, out, per_record):
        """Combine one value (or row) per record along its edges into
        ``out`` at their targets: bit for bit ``ufunc.at(out, seg_targets,
        ufunc.reduceat(per_record[edge_rec][scatter_order], seg_starts))``.

        ``reduceat`` over one element returns it unchanged, so a one-edge
        segment (~90 % on R-MAT) reads its record's value directly and
        ``reduceat`` runs over the multi-edge segments alone, each
        reducing the same elements in the same order.  ``ufunc.at`` gets
        the same ``(target, value)`` sequence, page-major: a float ``add``
        accumulates each target page by page, in the batch's order."""
        if self.num_segments:
            seg_src, multi_rec, multi_starts = self._reduce_index
            values = np.concatenate([per_record, ufunc.reduceat(
                per_record[multi_rec], multi_starts)])
            ufunc.at(out, self.seg_targets, values[seg_src])

    def records_per_page(self):
        return np.diff(self.rec_indptr)

    def edges_per_page(self):
        return np.diff(self.edge_indptr)

    def segment_sum(self, per_record_values, dtype=np.int64):
        """Per-page sums of a per-record vector (``reduceat`` with
        empty-segment handling)."""
        return segment_sum(per_record_values, self.rec_indptr, dtype)

    def edge_segment_sum(self, per_edge_values, dtype=np.int64):
        """Per-page sums of a per-edge vector."""
        return segment_sum(per_edge_values, self.edge_indptr, dtype)

    def one_page_batches(self):
        """The batch's pages as one-page batches, in batch order: what
        a kernel that must see its own writes between pages walks."""
        for k in range(self.num_pages):
            yield RoundBatch(self._plan, self.pids[k:k + 1])

    # -- advance -------------------------------------------------------
    def advance(self, active):
        """The edges leaving the ``active`` records (Gunrock's *advance*
        over a per-record frontier mask) as one lazy :class:`Frontier`.

        Only the record-proportional part is computed here — the active
        records' plan-wide rows, their degrees and their edges' plan-wide
        indices; every per-edge field is gathered straight off the plan's
        flat arrays the first time the kernel reads it, so the work is
        proportional to the frontier's edges *and* to what the kernel's
        body reads, and the page-wide edge space is never built.
        """
        plan = self._plan
        rows = np.flatnonzero(active)
        if self._rec_sel is not None:
            rows = self._rec_sel[rows]
        degrees = plan.degrees[rows]
        return Frontier(self, active, rows, degrees,
                        take_ranges(plan.rec_edge_start[rows], degrees))

    def active_edges_per_page(self, active):
        """Per-page count of the edges :meth:`advance` returns, from the
        record space alone."""
        return self.segment_sum(np.where(active, self.degrees, 0))


class Frontier:
    """The edges leaving one round's active records: a lazy view.

    ``batch.advance(active)`` builds it.  ``rows`` / ``degrees`` are the
    active records' plan-wide indices and degrees, ``edges`` the
    plan-wide index of every edge in the view, in page-major record
    order.  The per-edge fields are gathered on first read and memoised,
    like the batch's own spaces, so a kernel pays for what it reads:

    * ``targets`` / ``target_pids`` / ``weights`` (``None`` on an
      unweighted plan) — bit for bit ``adj_vids[m]``, ``adj_pids[m]``,
      ``adj_weights[m]`` of the batch with ``m = active[edge_rec]``;
    * ``sources`` — the source VID of every edge,
      ``rec_vids[edge_rec[m]]``.

    Three operators (Gunrock's advance / **filter** split, on one view):

    * :meth:`filter` narrows the view to the edges a mask keeps by
      compressing the edge index once; later gathers cost the survivors
      only.  Filter *before* reading a field the round needs only for
      the survivors (BFS never gathers a visited target's page id).
    * :meth:`from_sources` reads a per-vertex vector at every edge's
      source by gathering per *record* and repeating by degree.
    * :meth:`pages` names the pages the (masked) edges point into —
      the round's ``nextPIDSet`` — through a ``num_pages`` bitmap
      instead of a sort over an edge-length array.
    """

    def __init__(self, batch, active, rows, degrees, edges, parent=None,
                 keep=None):
        self.batch = batch
        self._plan = batch._plan
        #: Per-record mask over the batch this view advanced from.
        self.active = active
        self.rows = rows
        self.degrees = degrees
        self.edges = edges
        # A filtered view reads its sources off its parent's, under the
        # mask; every other field it gathers through ``edges``.
        self._parent = parent
        self._keep = keep

    @functools.cached_property
    def targets(self):
        return self._plan.adj_vids[self.edges]

    @functools.cached_property
    def target_pids(self):
        return self._plan.adj_pids[self.edges]

    @functools.cached_property
    def weights(self):
        weights = self._plan.adj_weights
        return None if weights is None else weights[self.edges]

    @functools.cached_property
    def _row_vids(self):
        return self._plan.rec_vids[self.rows]

    @functools.cached_property
    def sources(self):
        if self._parent is not None:
            return self._parent.sources[self._keep]
        return np.repeat(self._row_vids, self.degrees)

    def from_sources(self, vector):
        """``vector[sources]``, bit for bit."""
        if self._parent is not None:
            return vector[self.sources]
        return np.repeat(vector[self._row_vids], self.degrees)

    def filter(self, mask):
        """The view over the edges ``mask`` keeps (every field of the
        result is that field of this view ``[mask]``)."""
        return Frontier(self.batch, self.active, self.rows, self.degrees,
                        self.edges[mask], parent=self, keep=mask)

    def pages(self, mask=None):
        """Sorted unique ``int64`` ids of the pages the edges (under
        ``mask``) point into: exactly ``np.unique(target_pids[mask])``."""
        pids = self.target_pids
        return page_set(pids if mask is None else pids[mask],
                        self._plan.num_pages)


def page_mask(pids, num_pages):
    """``nextPIDSet`` as the paper keeps it: a ``num_pages`` bitmap with
    the bit of every page in ``pids`` set."""
    mask = np.zeros(num_pages, dtype=bool)
    mask[pids] = True
    return mask


def page_set(pids, num_pages):
    """The sorted unique ``int64`` page ids in ``pids`` — what
    ``np.unique(pids)`` returns, read off the bitmap instead of sorted
    out of an array that may be edge-length."""
    return np.flatnonzero(page_mask(pids, num_pages))


def segment_sum(values, indptr, dtype=np.int64):
    """Sum ``values`` over the segments delimited by ``indptr``.

    Unlike raw ``np.add.reduceat`` this returns 0 for empty segments
    (reduceat would return ``values[start]`` instead).
    """
    values = np.asarray(values)
    if values.dtype == bool:
        # reduceat on bools computes logical-or, not a count.
        values = values.astype(np.int64)
    counts = np.diff(indptr)
    out = np.zeros(len(counts), dtype=dtype)
    nonempty = counts > 0
    if values.size and nonempty.any():
        starts = indptr[:-1][nonempty]
        out[nonempty] = np.add.reduceat(values, starts).astype(
            dtype, copy=False)
    return out


class PagePlan:
    """Flat page-major arrays for one topology snapshot of a database.

    Built from ``db.topology_arrays()`` — this constructor reads no page
    and warms no pool — plus the derived global sorted-scatter index.
    The arrays never alias a store's mapping, so a plan outlives the
    handle it was built from.
    """

    def __init__(self, db):
        self.topology_version = getattr(db, "topology_version", 0)
        self.num_pages = db.num_pages
        self.page_size = db.page_bytes()
        with span("scan"):
            #: Directory record counts drive RA-subvector sizing (what
            #: ``db.ra_subvector_bytes`` reads: the directory, not the
            #: served page).
            self.dir_records = np.asarray(
                [entry.num_records for entry in db.directory],
                dtype=np.int64)
            self._full_order = np.concatenate(
                [np.asarray(db.small_page_ids(), dtype=np.int64),
                 np.asarray(db.large_page_ids(), dtype=np.int64)])

            # The page scan is the database's: flat page-major arrays,
            # read through page() by resident and overlay databases and
            # decoded in bulk off the mapping by a file-backed store.
            arrays = db.topology_arrays()
            self.rec_counts = arrays["rec_counts"]
            self.edge_counts = arrays["edge_counts"]
            self.rec_indptr = _indptr(self.rec_counts)
            self.edge_indptr = _indptr(self.edge_counts)
            self.degrees = arrays["degrees"]
            #: Plan-wide edge offset of each record's adjacency list.
            self.rec_edge_start = _indptr(self.degrees)[:-1]
            self.rec_vids = arrays["rec_vids"]
            self.rec_divisor = arrays["rec_divisor"]
            self.adj_vids = arrays["adj_vids"]
            self.adj_pids = arrays["adj_pids"]
            self.adj_weights = arrays["adj_weights"]
        with span("scatter"):
            self._build_scatter(db)
        self._full_batch = None
        self._copy_bytes = {}
        # Memoisation guard: concurrent queries share one plan, and the
        # full-database batch / copy-bytes tables are built lazily on
        # first use.  The arrays themselves are immutable once built.
        self._memo_lock = InstrumentedLock()

    def _build_scatter(self, db):
        """Derive the global sorted-scatter index.

        One stable sort by ``(page, target)`` yields, inside each page's
        block, exactly the permutation of the page's own stable target
        argsort (same ties, same order) — without the tens of thousands
        of per-page sorts.  The two keys are folded into one int64
        (``page * V + target``) when that cannot overflow, and sorted
        as a pair otherwise.
        """
        num_vertices = int(db.num_vertices)
        edge_starts = self.edge_indptr[:-1]
        edge_page = np.repeat(
            np.arange(self.num_pages, dtype=np.int64), self.edge_counts)
        # ``change`` marks the first edge of every (page, target) run
        # of the sorted order.
        change = np.ones(len(edge_page), dtype=bool)
        if (self.num_pages == 0 or num_vertices == 0
                or self.num_pages < (1 << 62) // num_vertices):
            key = edge_page * max(num_vertices, 1) + self.adj_vids
            order_global = np.argsort(key, kind="stable").astype(
                np.int64, copy=False)
            sorted_key = key[order_global]
            np.not_equal(sorted_key[1:], sorted_key[:-1], out=change[1:])
        else:
            order_global = np.lexsort((self.adj_vids, edge_page)).astype(
                np.int64, copy=False)
            pages = edge_page[order_global]
            targets = self.adj_vids[order_global]
            change[1:] = ((pages[1:] != pages[:-1])
                          | (targets[1:] != targets[:-1]))
        self.order_local = order_global - np.repeat(
            edge_starts, self.edge_counts)
        seg_global = np.flatnonzero(change)
        seg_page = np.searchsorted(self.edge_indptr, seg_global,
                                   side="right") - 1
        self.seg_counts = np.bincount(
            seg_page, minlength=self.num_pages).astype(np.int64)
        self.seg_starts_local = seg_global - edge_starts[seg_page]
        self.seg_targets = self.adj_vids[order_global[seg_global]]
        self.seg_indptr = _indptr(self.seg_counts)

    # ------------------------------------------------------------------
    def copy_bytes(self, ra_bytes_per_vertex):
        """Per-page PCI-E copy size: page bytes + the RA subvector."""
        cached = self._copy_bytes.get(ra_bytes_per_vertex)
        if cached is None:
            with self._memo_lock:
                cached = self._copy_bytes.get(ra_bytes_per_vertex)
                if cached is None:
                    cached = (self.page_size
                              + self.dir_records * ra_bytes_per_vertex)
                    self._copy_bytes[ra_bytes_per_vertex] = cached
        return cached

    def round_batch(self, pids):
        """The batch for one round's page set (SP-first order).

        A round covering every page reuses one cached full-database
        batch, so what PageRank/WCC-style kernels memoise on it (the
        reduce index, lane steps) is built once per plan, not once per
        iteration.
        """
        pids = np.asarray(pids, dtype=np.int64)
        if len(pids) == self.num_pages:
            return self.full_batch()
        return RoundBatch(self, pids)

    def full_batch(self):
        batch = self._full_batch
        if batch is None:
            with self._memo_lock:
                batch = self._full_batch
                if batch is None:
                    # SP-first dispatch order usually coincides with pid
                    # order (the builder numbers small pages before
                    # large ones); the batch then *is* the plan's arrays.
                    # The plan owns this batch, so the batch sees it
                    # through a proxy: a strong reference would close a
                    # cycle and leave a dropped plan's arrays to the
                    # cyclic collector instead of freeing them at once.
                    batch = RoundBatch(weakref.proxy(self),
                                       self._full_order)
                    self._full_batch = batch
        return batch


class RoundPlanCache:
    """Cache of :class:`PagePlan` keyed by the topology version.

    Historically one engine owned one cache; the service layer now
    shares a single instance across every query on a database (injected
    via ``GTSEngine(plan_cache=...)``), so :meth:`get` is thread-safe: a
    build holds the cache lock, concurrent warm getters take a lock-free
    fast path on an already-built plan, and ``contended``/``hits``/
    ``builds`` feed the service's shared-cache accounting.

    MVCC makes the cache multi-version: queries pinned at an older
    snapshot run side by side with queries on the post-update head, so
    the cache keeps up to ``max_plans`` versions at once (evicting the
    oldest-inserted beyond that) instead of thrashing on every
    alternation.  Plans are immutable after build, so a plan for a
    reclaimed version is merely dead weight until evicted — never
    wrong.
    """

    def __init__(self, max_plans=4):
        self._plans = {}            # topology_version -> PagePlan
        self._order = []            # insertion order, oldest first
        self._lock = InstrumentedLock()
        self.max_plans = max(1, int(max_plans))
        self.builds = 0
        # The hit count must be exact without making warm getters take a
        # lock: ``next()`` on an ``itertools.count`` is one atomic step.
        # Reading a count also draws a ticket, so reads are tallied
        # (under their own lock) and subtracted.
        self._hit_tickets = itertools.count()
        self._hit_reads = 0
        self._hit_read_lock = threading.Lock()

    @property
    def hits(self):
        """Exact number of :meth:`get` calls served an already-built
        plan."""
        with self._hit_read_lock:
            reads = self._hit_reads
            self._hit_reads = reads + 1
            return next(self._hit_tickets) - reads

    @property
    def contended(self):
        """Lock acquisitions that had to wait (build-vs-build races)."""
        return self._lock.contended

    def get(self, db):
        """The plan for ``db``'s current topology (built on miss).

        The fast path reads the per-version dict without taking the
        lock — dict probes are atomic under the GIL, entries are
        assigned whole, and plans are immutable-after-build — so warm
        concurrent queries never serialise here, and every one of them
        is counted (see :attr:`hits`).
        """
        version = getattr(db, "topology_version", 0)
        plan = self._plans.get(version)
        if plan is not None:
            next(self._hit_tickets)
            return plan
        with self._lock:
            plan = self._plans.get(version)
            if plan is not None:
                next(self._hit_tickets)
                return plan
            with span("core.plan.build"):
                plan = PagePlan(db)
            self._plans[version] = plan
            self._order.append(version)
            while len(self._order) > self.max_plans:
                self._plans.pop(self._order.pop(0), None)
            self.builds += 1
        return plan

    def stats(self):
        """JSON-ready counter snapshot for the service stats endpoint."""
        hits = self.hits
        total = hits + self.builds
        return {
            "hits": hits,
            "builds": self.builds,
            "hit_rate": hits / total if total else 0.0,
            "cached_plans": len(self._plans),
            "lock": self._lock.stats(),
        }

    def invalidate(self):
        """Drop every cached plan (the next :meth:`get` rebuilds)."""
        with self._lock:
            self._plans = {}
            self._order = []
