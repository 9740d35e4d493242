"""Per-run page plans: precomputed arrays for vectorized round execution.

A round executed page object by page object would re-derive degrees, RA
sizing and a sorted scatter order on every dispatch, so host wall-clock
would scale with *page count* rather than with NumPy throughput.  This
module hoists that page-shaped metadata into flat, page-major arrays
built **once** per topology — the only thing the engine and the kernels
read:

* :class:`PagePlan` — the concatenated view of the whole database:
  per-record degrees and vertex IDs and the global adjacency CSR
  (``adj_vids`` / ``adj_pids`` / optional weights).
* :class:`RoundBatch` — a lazy view of the plan over one round's page
  set, in the exact SP-first order the engine dispatches: each field is
  gathered with vectorized range concatenation (no per-page Python
  loop) the first time a kernel reads it.  A full-scan kernel's
  :meth:`RoundBatch.reduce_into` sorts the batch's edges once into
  ``(page, target)`` segments, then runs one ``reduceat`` over the
  multi-edge segments + one ``ufunc.at`` over the entire round; the
  cached full batch keeps that index (a :class:`ReduceIndex`) for every
  later round, and a later topology version's full batch splices its
  own from it, re-sorting only the pages the commits dirtied.
* :class:`Frontier` — what :meth:`RoundBatch.advance` hands a frontier
  kernel: the active records' edges alone, as one more lazy view, with
  the traversal step's operators (``filter`` / ``from_sources`` /
  ``pages``).  A frontier is an index set: its active rows, its edges'
  plan-wide indices and, once filtered, the kept positions — no
  operator selects with a boolean mask.
* :func:`page_mask` / :func:`page_set` — ``nextPIDSet`` as a page
  *bitmap*: kernels, the engine's barrier merge and its large-page-run
  expansion all name page sets through it, so no round sorts an
  edge-length array to learn which pages come next.
* :class:`PlanMemo` — where a topology version keeps its plan: every
  database handle memoises the plan of the version it serves (a dynamic
  database memoises one per retained version, and reclaiming the
  version frees it), built once under one lock per database, so every
  engine on that version reads one plan and one reduce index.

Everything here is *derived* data: the plan never mutates kernel state
and holds only the flat arrays its database hands it
(:meth:`~repro.format.database.GraphDatabase.topology_arrays` — the
page scan is the database's: a resident database walks its pages, a
file-backed store decodes its mapped bytes in bulk and builds no page
objects) and their index pointers — GTS's own "prepare once, stream
many times" design.  Building it sorts nothing: only a full scan needs
sorted edges, and its batch sorts them.
"""

import functools
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
    # Out of place on purpose: with ``offsets +=`` glibc's mmap
    # threshold never settled, and each cold full scan in a fresh
    # process paid ~4 000 more page faults (~10 % of its answer time).
    return offsets + np.arange(total, dtype=np.int64)


def _indptr(counts):
    out = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


class RoundBatch:
    """One round's pages as flat page-major arrays: a lazy view over
    ``(plan, pids)``.

    The batch has two spaces and one index.  Nothing is gathered up
    front: every field is built on first read and memoised on the
    instance, so a kernel pays for what its body reads and nothing else
    (a backward BC round reads its forward round's record and gathers
    nothing):

    * **record space** — ``rec_indptr`` (len pages+1) delimits each
      page's records; ``degrees`` / ``rec_vids`` / ``rec_divisor`` (the
      PageRank divisor: the record's degree for SP records, the
      vertex's *total* degree for LP chunks) are per record.
    * **edge space** — ``edge_indptr`` (len pages+1) delimits each
      page's adjacency entries; ``edge_rec`` maps every edge to its
      record index *within the batch*; ``adj_vids`` / ``adj_pids`` /
      ``adj_weights`` are per edge.  Frontier kernels never build it:
      :meth:`advance` gathers only the active records' edges.
    * **reduce index** — the batch's ``(page, target vertex)``
      *segments*, from one stable sort of its own edges, so a
      segment-wise reduction followed by a page-major combine
      accumulates every target page by page (:class:`ReduceIndex`).
      Only :meth:`reduce_into` reads it, and builds it on its first
      call.

    A batch covering every page in pid order takes the plan's own
    arrays without a copy.

    Concurrent readers may race on a memo (the full batch is shared
    across service threads), but both compute the same array from
    immutable inputs and attribute assignment is atomic, so the worst
    case is one duplicated gather — never a wrong or torn value.
    """

    def __init__(self, plan, pids):
        self._plan = plan
        self.pids = pids
        #: The batch *is* the plan (every page, in pid order): every
        #: field is the plan's own array.
        self._whole = len(pids) == plan.num_pages and np.array_equal(
            pids, np.arange(plan.num_pages, dtype=np.int64))

    # -- gathers -------------------------------------------------------
    def _page_indptr(self, indptr, counts):
        return indptr if self._whole else _indptr(counts[self.pids])

    def _records(self, per_record):
        return per_record if self._whole else per_record[self._rec_sel]

    def _edges(self, per_edge):
        return per_edge if self._whole else per_edge[self._edge_sel]

    @functools.cached_property
    def _rec_sel(self):
        """Plan-wide record index of each batch record."""
        plan = self._plan
        return take_ranges(plan.rec_indptr[self.pids],
                           plan.rec_counts[self.pids])

    @functools.cached_property
    def _edge_sel(self):
        plan = self._plan
        return take_ranges(plan.edge_indptr[self.pids],
                           plan.edge_counts[self.pids])

    # -- record space --------------------------------------------------
    @functools.cached_property
    def rec_indptr(self):
        return self._page_indptr(self._plan.rec_indptr,
                                 self._plan.rec_counts)

    @functools.cached_property
    def degrees(self):
        return self._records(self._plan.degrees)

    @functools.cached_property
    def rec_vids(self):
        return self._records(self._plan.rec_vids)

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

    # -- reduce index --------------------------------------------------
    @functools.cached_property
    def _reduce_index(self):
        """The batch's :class:`ReduceIndex`: sorted from scratch, or, on
        a plan's full batch handed an ancestor version's index, spliced
        from it (:meth:`ReduceIndex.splice`)."""
        with span("scatter"):
            plan = self._plan
            source = None
            if self is plan._full_batch:
                source = plan._index_source
                plan._index_source = None
            if source is None:
                return ReduceIndex.build(self)
            return ReduceIndex.splice(*source, self)

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

    def reduce_into(self, ufunc, out, per_record):
        """Combine one value (or row) per record along its edges into
        ``out`` at their targets: bit for bit a per-page scatter — every
        page's edges in stable target order, each ``(page, target)``
        segment ``ufunc.reduceat``-ed, then ``ufunc.at`` of the segment
        values at the segment targets, page by page.

        ``reduceat`` over one element returns it unchanged, so a one-edge
        segment (~90 % on R-MAT) reads its record's value directly and
        ``reduceat`` runs over the multi-edge segments alone, each
        reducing the same elements in the same order.  ``ufunc.at`` gets
        the same ``(target, value)`` sequence, page-major: a float ``add``
        accumulates each target page by page, in the batch's order."""
        if self.num_edges:
            index = self._reduce_index
            values = np.concatenate([per_record, ufunc.reduceat(
                per_record[index.multi_rec], index.multi_starts)])
            ufunc.at(out, index.seg_targets, values[index.seg_src])

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
        records' batch rows, their degrees and their edges' plan-wide
        indices; every per-edge field is gathered straight off the plan's
        flat arrays the first time the kernel reads it, so the work is
        proportional to the frontier's edges *and* to what the kernel's
        body reads, and the page-wide edge space is never built.
        """
        plan = self._plan
        rows = np.flatnonzero(active)
        plan_rows = rows if self._whole else self._rec_sel[rows]
        degrees = plan.degrees[plan_rows]
        return Frontier(self, rows, degrees,
                        take_ranges(plan.rec_edge_start[plan_rows], degrees))


class Frontier:
    """The edges leaving one round's active records: a lazy view.

    ``batch.advance(active)`` builds it.  ``rows`` / ``degrees`` are the
    active records' ascending batch indices (what the round's work is
    counted from) and degrees, ``edges`` the plan-wide index of every
    edge in the view, in page-major record order.  The per-edge fields
    are gathered on first read and memoised, like the batch's own
    spaces, so a kernel pays for what it reads:

    * ``targets`` / ``target_pids`` / ``weights`` (``None`` on an
      unweighted plan) — bit for bit ``adj_vids[m]``, ``adj_pids[m]``,
      ``adj_weights[m]`` of the batch with ``m = active[edge_rec]``;
    * ``sources`` — the source VID of every edge,
      ``rec_vids[edge_rec[m]]``.

    Three operators (Gunrock's advance / **filter** split, on one view):

    * :meth:`filter` narrows the view to the edges a mask keeps by
      *position*: ``keep = np.flatnonzero(mask)`` (``int64``, ascending,
      so the edges stay page-major), and a kernel reads its own per-edge
      arrays at the survivors by the same ``keep``.  On a random mask a
      boolean copy ``x[mask]`` costs several times ``flatnonzero`` plus
      gathers (docs/ARCHITECTURE.md section 9 has the numbers).  Filter
      *before* reading a field the round needs only for the survivors
      (BFS never gathers a visited target's page id).
    * :meth:`from_sources` reads a per-vertex vector at every edge's
      source by gathering per *record* and repeating by degree.
    * :meth:`pages` names the pages the edges point into — the round's
      ``nextPIDSet`` — through a ``num_pages`` bitmap instead of a sort
      over an edge-length array.
    """

    def __init__(self, batch, rows, degrees, edges, parent=None, keep=None):
        self.batch = batch
        self._plan = batch._plan
        self.rows = rows
        self.degrees = degrees
        self.edges = edges
        #: ``None`` on an advanced view; on a filtered one, the positions
        #: of its edges in ``parent``'s.  Its sources are read off the
        #: parent's by them, every other field through ``edges``.
        self.keep = keep
        self._parent = parent

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
        return self.batch.rec_vids[self.rows]

    @functools.cached_property
    def sources(self):
        if self._parent is not None:
            return self._parent.sources[self.keep]
        return np.repeat(self._row_vids, self.degrees)

    def from_sources(self, vector):
        """``vector[sources]``, bit for bit."""
        if self._parent is not None:
            return vector[self.sources]
        return np.repeat(vector[self._row_vids], self.degrees)

    def filter(self, mask):
        """The view over the edges ``mask`` keeps: every field of the
        result is that field of this view ``[mask]``, gathered by
        ``keep = np.flatnonzero(mask)``."""
        keep = np.flatnonzero(mask)
        return Frontier(self.batch, self.rows, self.degrees,
                        self.edges[keep], parent=self, keep=keep)

    def pages(self):
        """Sorted unique ``int64`` ids of the pages the edges point into:
        exactly ``np.unique(target_pids)``."""
        return page_set(self.target_pids, self._plan.num_pages)


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


class ReduceIndex:
    """A batch's reduce index: its edges as ``(page, target vertex)``
    *segments*, what :meth:`RoundBatch.reduce_into` reads.

    One stable sort of the batch's edges by ``(position of the page in
    the batch, target)`` orders each page's edges exactly as the page's
    own stable target argsort does, pages in batch order; its ``(page,
    target)`` runs are the segments.

    * ``seg_targets`` — each segment's target VID;
    * ``seg_src`` — a one-edge segment's record (its batch index), the
      ``k``-th multi-edge segment's ``num_records + k``;
    * ``multi_rec`` / ``multi_starts`` — the records of the multi-edge
      segments' edges, in sorted order, and where each segment starts.

    A page's segments depend on that page's rows alone; only the record
    and multi-edge segment numbers depend on the pages before it.  So
    the index also keeps, per batch page in batch order, ``pids`` and
    the ``page_recs`` / ``page_segs`` / ``page_multi`` counts: what
    :meth:`splice` renumbers a run of unchanged pages by.  Every field
    is an ``int64`` array.
    """

    FIELDS = ("seg_targets", "seg_src", "multi_rec", "multi_starts",
              "pids", "page_recs", "page_segs", "page_multi")
    __slots__ = FIELDS

    def __init__(self, *fields):
        for name, value in zip(self.FIELDS, fields):
            setattr(self, name, value)

    def arrays(self):
        return [getattr(self, name) for name in self.FIELDS]

    @classmethod
    def build(cls, batch):
        """Sort ``batch``'s edges into segments.  The two keys are
        folded into one int64 (``position * V + target``) when that
        cannot overflow, and sorted as a pair otherwise.  Sorted edges
        are mapped to records only at segment starts and inside
        multi-edge segments, never as a whole sorted edge-length record
        map, and every edge-length temporary is freed as soon as it has
        been read, to keep the build's peak memory low."""
        targets = batch._edges(batch._plan.adj_vids)
        counts = batch.edges_per_page()
        num_pages = batch.num_pages
        num_vertices = max(batch._plan.num_vertices, 1)
        # ``change`` marks the first edge of every segment.
        change = np.ones(len(targets), dtype=bool)
        if num_pages < (1 << 62) // num_vertices:
            key = np.repeat(np.arange(
                num_pages, dtype=np.int64) * num_vertices, counts)
            key += targets
            order = np.argsort(key, kind="stable")
            key = key[order]
            np.not_equal(key[1:], key[:-1], out=change[1:])
            del key
        else:
            pages = np.repeat(np.arange(num_pages, dtype=np.int64), counts)
            order = np.lexsort((targets, pages))
            pages, by_target = pages[order], targets[order]
            change[1:] = ((pages[1:] != pages[:-1])
                          | (by_target[1:] != by_target[:-1]))
            del pages, by_target
        starts = np.flatnonzero(change)
        del change
        # A page's sorted edges keep its edge range, so its segments are
        # the starts inside that range.
        page_segs = np.diff(np.searchsorted(starts, batch.edge_indptr))
        edges = np.diff(starts, append=len(order))
        multi = np.flatnonzero(edges > 1)
        page_multi = np.diff(np.searchsorted(multi, _indptr(page_segs)))
        multi_edges = order[take_ranges(starts[multi], edges[multi])]
        multi_starts = _indptr(edges[multi])[:-1]
        del edges
        first = order[starts]
        del order, starts
        edge_rec = batch.edge_rec
        seg_src = edge_rec[first]
        seg_src[multi] = batch.num_records + np.arange(len(multi))
        return cls(targets[first], seg_src, edge_rec[multi_edges],
                   multi_starts, batch.pids, batch.records_per_page(),
                   page_segs, page_multi)

    @classmethod
    def splice(cls, parent, dirty, batch):
        """:meth:`build` of ``batch``, given ``parent`` — the index of
        the same kind of batch (every page, SP-first) at an ancestor
        version — and ``dirty``, the pages whose rows changed since,
        pages the ancestor lacked among them.  Only the dirty pages are
        sorted (:meth:`build` over them alone); every other page's
        segments are copied from ``parent`` a run at a time, each run's
        records and multi-edge segments renumbered by the pages now
        before it."""
        pids = batch.pids
        num_pages = batch._plan.num_pages
        at = np.full(num_pages, -1, dtype=np.int64)
        at[parent.pids] = np.arange(len(parent.pids))
        position = at[pids]
        dirty = np.fromiter(dirty, dtype=np.int64, count=len(dirty))
        clean = (position >= 0) & ~page_mask(dirty, num_pages)[pids]
        fresh = cls.build(RoundBatch(batch._plan, pids[~clean]))
        # Page positions and per-page offsets over both sources at once,
        # the fresh index's pages after the parent's.
        position[~clean] = len(parent.pids) + np.arange(
            len(pids) - np.count_nonzero(clean))
        sources = (parent, fresh)
        page_segs, page_multi = (
            np.concatenate([getattr(index, name) for index in sources])
            for name in ("page_segs", "page_multi"))
        recs = [int(index.page_recs.sum()) for index in sources]
        rec_at = _indptr(np.concatenate([index.page_recs
                                         for index in sources]))
        seg_at, multi_at = _indptr(page_segs), _indptr(page_multi)
        mstarts = np.concatenate([
            parent.multi_starts, fresh.multi_starts + len(parent.multi_rec),
            [len(parent.multi_rec) + len(fresh.multi_rec)]])
        # Maximal runs of pages that sit side by side in one source.
        first = np.append(0, np.flatnonzero(
            (clean[1:] != clean[:-1]) | (np.diff(position) != 1)) + 1)
        last = np.append(first[1:], len(pids))
        lo, hi = position[first], position[last - 1] + 1
        from_fresh = ~clean[first]
        segs = np.stack([seg_at[lo], seg_at[hi]])
        edges = np.stack([mstarts[multi_at[lo]], mstarts[multi_at[hi]]])
        segs[:, from_fresh] -= len(parent.seg_targets)
        edges[:, from_fresh] -= len(parent.multi_rec)
        parts = ([], [], [])
        for fresh_run, s0, s1, e0, e1 in zip(from_fresh.tolist(),
                                              *segs.tolist(),
                                              *edges.tolist()):
            index = sources[fresh_run]
            parts[0].append(index.seg_targets[s0:s1])
            parts[1].append(index.seg_src[s0:s1])
            parts[2].append(index.multi_rec[e0:e1])
        seg_targets, seg_src, multi_rec = map(np.concatenate, parts)
        # Multi-edge segments are numbered past the records, each
        # source's own; renumber them in batch order, and shift the
        # records of every run that moved.
        counts = segs[1] - segs[0]
        multi = np.flatnonzero(seg_src >= np.repeat(
            np.where(from_fresh, recs[1], recs[0]), counts))
        new_rec_at = _indptr(batch.records_per_page())
        shifts = (new_rec_at[first] - rec_at[lo]
                  + np.where(from_fresh, recs[0], 0))
        seg_ends, edge_ends = _indptr(counts), _indptr(edges[1] - edges[0])
        for run in np.flatnonzero(shifts).tolist():
            seg_src[seg_ends[run]:seg_ends[run + 1]] += shifts[run]
            multi_rec[edge_ends[run]:edge_ends[run + 1]] += shifts[run]
        seg_src[multi] = new_rec_at[-1] + np.arange(len(multi))
        taken = take_ranges(multi_at[lo], multi_at[hi] - multi_at[lo])
        return cls(seg_targets, seg_src, multi_rec,
                   _indptr(np.diff(mstarts)[taken])[:-1], pids,
                   np.diff(new_rec_at), page_segs[position],
                   page_multi[position])


def array_bytes(arrays):
    """Bytes of the distinct arrays among ``arrays`` (an array reached
    twice counts once)."""
    return sum({id(array): array.nbytes for array in arrays}.values())


class PagePlan:
    """Flat page-major arrays for one topology snapshot of a database.

    Built from ``db.topology_arrays()``, its directory and its RVT —
    this constructor reads no page, warms no pool and sorts nothing.
    The arrays never alias a store's mapping, so a plan outlives the
    handle it was built from.  A database builds it through
    :meth:`~repro.format.database.GraphDatabase.page_plan`, once per
    topology version.

    ``index_source`` is ``(index, dirty)``: the full-batch
    :class:`ReduceIndex` of an ancestor version and the pages dirtied
    since it, from which the full batch splices its own; the plan drops
    it once it has.
    """

    def __init__(self, db, index_source=None):
        self.topology_version = getattr(db, "topology_version", 0)
        self.num_pages = db.num_pages
        self.num_vertices = int(db.num_vertices)
        self.page_size = db.page_bytes()
        with span("scan"):
            #: Directory record counts size each page's RA subvector
            #: (Section 3.4: one value per record, a large page's single
            #: vertex included) off the directory, not the served page.
            self.dir_records = db.directory.num_records
            self._full_order = np.concatenate(db.directory.page_ids())

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
        #: What a run reads of the page layout besides the arrays: the
        #: largest page's record count (it sizes RABuf), each page's
        #: LP_RANGE, and every large vertex's page run as ``(firsts,
        #: lengths)`` — the run's first page ID, ascending, and its page
        #: count.  A run occupies consecutive pids with chunk indexes
        #: 0..k, so its first page is the one whose LP_RANGE is 0, and
        #: with the large pages ascending the next first (or the end)
        #: closes the run.
        self.max_records = db.directory.max_records()
        self.lp_ranges = db.rvt.lp_ranges
        lp = db.large_page_ids()
        starts = np.flatnonzero(self.lp_ranges[lp] == 0)
        self.lp_runs = lp[starts], np.diff(np.append(starts, len(lp)))
        self._full_batch = None
        self._index_source = index_source
        self._copy_bytes = {}
        # Memoisation guard: concurrent queries share one plan, and the
        # full-database batch / copy-bytes tables are built lazily on
        # first use.  The arrays themselves are immutable once built.
        self._memo_lock = InstrumentedLock()

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

    def expand_pids(self, pids):
        """Normalise a round's page set: dedupe, expand LP runs, and
        split into ``(small, large)`` in the SP-first order the paper
        uses to avoid kernel switching.  The set goes through the page
        bitmap — no sort, whatever order or multiplicity ``pids``
        arrives in.

        Adjacency entries address a large vertex through its first large
        page (slot 0); streaming that vertex requires the whole run."""
        pids = np.asarray(pids, dtype=np.int64)
        # Name a large page by its run's first page, whichever chunk
        # was asked for; small pages name themselves.
        named = page_mask(pids - np.maximum(self.lp_ranges[pids], 0),
                          self.num_pages)
        firsts, lengths = self.lp_runs
        runs = named[firsts]
        large = take_ranges(firsts[runs], lengths[runs])
        named[firsts] = False
        return np.flatnonzero(named), large

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
                    # When SP-first dispatch order is pid order the
                    # batch *is* the plan's arrays.  Pages follow VID
                    # order, a large vertex's run included, so that
                    # holds only when no large vertex precedes a small
                    # one.  On the ledger's rmat15 (seed 7) store the
                    # first large-page runs start at pids 4, 7, 10, 14
                    # and 39 of 3 619: the full batch gathers the record
                    # fields it reads and, when it sorts its reduce
                    # index from scratch, ``_edge_sel``, for every
                    # version (5.3 MB there, 2.7 MB on rmat14).
                    # The plan owns this batch, so the batch sees it
                    # through a proxy: a strong reference would close a
                    # cycle and leave a dropped plan's arrays to the
                    # cyclic collector instead of freeing them at once.
                    batch = RoundBatch(weakref.proxy(self),
                                       self._full_order)
                    self._full_batch = batch
        return batch

    def index_lineage(self):
        """``(index, dirty)`` for a later version to splice its
        full-batch reduce index from: this plan's own index once built
        (nothing dirty), else the source it was handed, if any."""
        # Read before the memo: a build drops the source before it
        # publishes, so a stale read here only means building afresh.
        source = self._index_source
        batch = self._full_batch
        index = None if batch is None else vars(batch).get("_reduce_index")
        if index is not None:
            return index, frozenset()
        return source

    def held_arrays(self):
        """Every array this plan keeps alive: its own, ``lp_runs``, the
        copy-size tables, the full batch's memoised fields (reduce index
        and per-technique memos included), and an ancestor's index it
        has yet to splice from."""
        held = [value for value in vars(self).values()
                if isinstance(value, np.ndarray)]
        held += list(self.lp_runs) + list(self._copy_bytes.values())
        source = self._index_source
        if source is not None:
            held += source[0].arrays()
        batch = self._full_batch
        for value in () if batch is None else vars(batch).values():
            if isinstance(value, ReduceIndex):
                value = value.arrays()
            elif isinstance(value, dict):  # memos keyed by technique
                value = list(value.values())
            else:
                value = [value]
            held += [item for item in value if isinstance(item, np.ndarray)]
        return held

    @property
    def nbytes(self):
        """Bytes of :meth:`held_arrays`, each array counted once."""
        return array_bytes(self.held_arrays())


class PlanMemo:
    """One database's plan builds: the lock a build holds and their count.

    A topology version keeps its plan on whatever holds that version's
    state — the database handle itself, or a dynamic database's
    version — in a ``_plan`` attribute; one database's versions share
    this lock and count.  A warm read takes no lock: the plan is
    published whole and never changes afterwards.
    """

    def __init__(self):
        self.lock = InstrumentedLock()
        self.builds = 0

    def plan(self, holder, db, index_source=None):
        """``holder._plan``, built from ``db`` (and ``index_source``, see
        :class:`PagePlan`) on first use."""
        plan = holder._plan
        if plan is None:
            with self.lock:
                plan = holder._plan
                if plan is None:
                    with span("core.plan.build"):
                        plan = PagePlan(db, index_source)
                    holder._plan = plan
                    self.builds += 1
        return plan

    def stats(self):
        """The service's ``/stats`` ``plan_cache`` block."""
        return {"builds": self.builds, "lock": self.lock.stats()}


class RoundPlanCache:
    """The name the ledger's ``core.plan.get`` span wraps; ROADMAP item
    4's ``benchmark`` issue moves that span to ``page_plan`` and deletes
    this class."""

    @staticmethod
    def get(db):
        return db.page_plan()
