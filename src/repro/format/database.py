"""GraphDatabase: a built slotted-page store plus its metadata.

This is what the GTS engine streams from.  It owns:

* the topology, as the flat page-major arrays of
  :meth:`GraphDatabase.topology_arrays` — its one resident form;
  :meth:`GraphDatabase.page` is a ``SmallPage`` / ``LargePage`` whose
  arrays are slices of them,
* a page directory: per page ID, its kind and its sizes, as the
  columns of a :class:`PageDirectory`,
* the RVT (record-ID → vertex-ID mapping, kept in main memory),
* per-vertex metadata the kernels need (total out-degree; the page a
  vertex lives in, which seeds ``nextPIDSet`` for BFS-like algorithms).

The ``num_small_pages`` / ``num_large_pages`` statistics are the #SP / #LP
columns of the paper's Table 3.
"""

import numpy as np

from repro.core.plan import PlanMemo, array_bytes, take_ranges
from repro.errors import FormatError
from repro.format.page import LargePage, PageKind, SmallPage


class PageDirectory:
    """The page directory as fixed-width columns indexed by page ID,
    like the paper's directory and RVT beside the slotted pages: the
    ``is_large`` mask (``bool``) and the ``int64`` ``start_vid``,
    ``num_records`` (slots; 1 on a large page), ``num_edges`` and
    ``used_bytes`` (payload bytes, padding excluded).

    Every producer fills it with arrays — the builder, a store's
    sidecar or JSON metadata, the overlay's copy-on-write head — and no
    reader builds a per-page object.  ``is_large`` is never written in
    place (adding pages makes a new directory), so the page-ID split
    derived from it is computed once per directory.
    """

    def __init__(self, is_large, start_vid, num_records, num_edges,
                 used_bytes):
        self.is_large = np.asarray(is_large, dtype=bool)
        self.start_vid = np.asarray(start_vid, dtype=np.int64)
        self.num_records = np.asarray(num_records, dtype=np.int64)
        self.num_edges = np.asarray(num_edges, dtype=np.int64)
        self.used_bytes = np.asarray(used_bytes, dtype=np.int64)
        self._page_ids = None

    def __len__(self):
        return len(self.is_large)

    def columns(self):
        """The five columns, in constructor order."""
        return (self.is_large, self.start_vid, self.num_records,
                self.num_edges, self.used_bytes)

    def page_ids(self):
        """``(small, large)``: the ascending ``int64`` IDs of the small
        and of the large pages (``flatnonzero`` of the mask)."""
        ids = self._page_ids
        if ids is None:
            ids = (np.flatnonzero(~self.is_large),
                   np.flatnonzero(self.is_large))
            self._page_ids = ids
        return ids

    def max_records(self):
        """The largest page's slot count (it sizes RABuf); 0 when empty."""
        return int(self.num_records.max()) if len(self) else 0

    def copy(self):
        """A directory whose columns may be written without touching
        this one's (the overlay's copy-on-write step)."""
        copy = PageDirectory(*(column.copy() for column in self.columns()))
        copy._page_ids = self._page_ids
        return copy

    def extended(self, start_vid, num_records):
        """This directory plus edgeless small pages starting at VIDs
        ``start_vid`` with ``num_records`` slots each."""
        empty = np.zeros(len(start_vid), dtype=np.int64)
        return PageDirectory(
            np.concatenate((self.is_large, empty.astype(bool))),
            np.concatenate((self.start_vid, start_vid)),
            np.concatenate((self.num_records, num_records)),
            np.concatenate((self.num_edges, empty)),
            np.concatenate((self.used_bytes, empty)))


def page_rows(page):
    """One page's rows of :meth:`GraphDatabase.topology_arrays`: the
    per-record ``degrees``, ``rec_vids`` and ``rec_divisor`` and the
    per-edge ``adj_vids``, ``adj_pids`` and ``adj_weights`` (``None``
    for a weight-less page)."""
    degrees = page.degrees()
    if page.kind is PageKind.SMALL:
        divisor = degrees
    else:
        divisor = np.asarray([page.total_degree], dtype=np.int64)
    return (degrees, page.vids(), divisor, page.adj_vids, page.adj_pids,
            page.adj_weights)


def topology_from_rows(rec_counts, edge_counts, rows):
    """:meth:`GraphDatabase.topology_arrays` from consecutive row runs in
    page order (each a :func:`page_rows` tuple), one concatenation per
    field.  A weight-less run among weighted ones contributes unit
    weights, mirroring the per-page kernels' fallback."""
    columns = list(zip(*rows)) if rows else [()] * 6

    def _concat(parts, dtype):
        if not parts:
            return np.empty(0, dtype=dtype)
        return np.concatenate(parts).astype(dtype, copy=False)

    weights = columns[5]
    return {
        "rec_counts": rec_counts,
        "edge_counts": edge_counts,
        "degrees": _concat(columns[0], np.int64),
        "rec_vids": _concat(columns[1], np.int64),
        "rec_divisor": _concat(columns[2], np.int64),
        "adj_vids": _concat(columns[3], np.int64),
        "adj_pids": _concat(columns[4], np.int64),
        "adj_weights": _concat([
            np.ones(len(vids), dtype=np.float32) if part is None else part
            for vids, part in zip(columns[3], weights)
        ], np.float32) if any(w is not None for w in weights) else None,
    }


def select_rows(arrays, pids):
    """The rows of topology ``arrays`` (a
    :meth:`GraphDatabase.topology_arrays` dict) for the pages ``pids``,
    in that order: the same fields, ``rec_counts`` / ``edge_counts``
    those pages'."""
    rec_counts = arrays["rec_counts"][pids]
    edge_counts = arrays["edge_counts"][pids]
    recs = take_ranges(_starts(arrays["rec_counts"])[pids], rec_counts)
    edges = take_ranges(_starts(arrays["edge_counts"])[pids], edge_counts)
    weights = arrays["adj_weights"]
    return {
        "rec_counts": rec_counts,
        "edge_counts": edge_counts,
        **{name: arrays[name][recs]
           for name in ("degrees", "rec_vids", "rec_divisor")},
        **{name: arrays[name][edges] for name in ("adj_vids", "adj_pids")},
        "adj_weights": None if weights is None else weights[edges],
    }


def _starts(counts):
    return np.concatenate(([0], np.cumsum(counts)))


class GraphDatabase:
    """A slotted-page graph database (see :mod:`repro.format.builder`).

    ``directory`` is a :class:`PageDirectory`.  ``topology`` is the
    dict :meth:`topology_arrays` returns; a subclass
    that serves its topology some other way passes ``None`` and
    overrides :meth:`topology_arrays` and :meth:`page`.
    """

    def __init__(self, topology, directory, rvt, config, num_vertices,
                 num_edges, out_degrees, vertex_page, name=None):
        self._topology = topology
        self._row_starts = None
        self.directory = directory
        self.rvt = rvt
        self.config = config
        self.num_vertices = num_vertices
        self.num_edges = num_edges
        self.out_degrees = np.asarray(out_degrees, dtype=np.int64)
        #: For every vertex, the page under which other vertices address it
        #: (its small page, or the first of its large pages).
        self.vertex_page = np.asarray(vertex_page, dtype=np.int64)
        self.name = name or "graph"
        #: Monotone counter bumped whenever the topology mutates (the
        #: dynamic layer increments it per applied batch and per
        #: compaction); each version has its own plan.
        self.topology_version = 0
        #: This topology's plan (see :meth:`page_plan`), and the lock
        #: and count of the handle's plan builds.
        self._plan = None
        self.plan_memo = PlanMemo()

    # ------------------------------------------------------------------
    # Page access
    # ------------------------------------------------------------------
    @property
    def num_pages(self):
        return len(self.directory)

    @property
    def num_small_pages(self):
        """#SP — the paper's Table 3 statistic."""
        return len(self.small_page_ids())

    @property
    def num_large_pages(self):
        """#LP — the paper's Table 3 statistic."""
        return len(self.large_page_ids())

    def small_page_ids(self):
        return self.directory.page_ids()[0]

    def large_page_ids(self):
        return self.directory.page_ids()[1]

    def page(self, page_id):
        """Page ``page_id`` as a view: a ``SmallPage`` / ``LargePage``
        over slices of :meth:`topology_arrays`, its ``ADJ_OFF`` column
        re-derived through the RVT (a large vertex sits at slot 0 of
        its first page)."""
        if page_id < 0 or page_id >= self.num_pages:
            raise FormatError("unknown page ID %d" % page_id)
        arrays = self.topology_arrays()
        if self._row_starts is None:
            self._row_starts = tuple(_starts(arrays[name]) for name
                                     in ("rec_counts", "edge_counts"))
        rec_at, edge_at = self._row_starts
        recs = slice(rec_at[page_id], rec_at[page_id + 1])
        edges = slice(edge_at[page_id], edge_at[page_id + 1])
        adj_vids = arrays["adj_vids"][edges]
        adj_pids = arrays["adj_pids"][edges]
        adj_slots = adj_vids - self.rvt.start_vids[adj_pids]
        weights = arrays["adj_weights"]
        weights = None if weights is None else weights[edges]
        start_vid = int(self.rvt.start_vids[page_id])
        chunk = int(self.rvt.lp_ranges[page_id])
        if chunk < 0:
            indptr = np.concatenate(([0], np.cumsum(arrays["degrees"][recs])))
            return SmallPage(page_id, start_vid, indptr, adj_pids, adj_slots,
                             adj_vids, self.config, adj_weights=weights)
        return LargePage(page_id, start_vid, chunk, adj_pids, adj_slots,
                         adj_vids, self.config, adj_weights=weights,
                         total_degree=int(arrays["rec_divisor"][recs][0]))

    def page_plan(self):
        """This topology's :class:`~repro.core.plan.PagePlan`: built on
        first use, then kept for the life of the handle and shared by
        every engine that runs on it."""
        return self.plan_memo.plan(self, self)

    def topology_rows(self, pids):
        """The :meth:`topology_arrays` rows of the pages ``pids``
        (ascending, distinct), as :func:`select_rows` gives them; a store
        that decodes lazily reads just those pages."""
        return select_rows(self.topology_arrays(), pids)

    def memory_stats(self):
        """Host bytes per topology version this handle keeps (one here:
        its topology arrays and its plan's) and their sum — the
        ``/stats`` ``memory`` block."""
        held = [] if self._topology is None else [
            array for array in self._topology.values() if array is not None]
        if self._plan is not None:
            held += self._plan.held_arrays()
        nbytes = array_bytes(held)
        return {"versions": {str(self.topology_version): nbytes},
                "total_bytes": nbytes}

    def page_for_vertex(self, vid):
        """Page ID containing ``vid`` — seeds BFS's initial ``nextPIDSet``."""
        return int(self.vertex_page[vid])

    def topology_arrays(self):
        """The whole topology as flat page-major arrays — what a
        :class:`~repro.core.plan.PagePlan` is built from, and what this
        database stores.

        Per page: ``rec_counts`` and ``edge_counts``.  Per record, pages
        concatenated in page-ID order: ``degrees``, ``rec_vids`` and
        ``rec_divisor`` (the PageRank divisor: the record's degree on a
        small page, the vertex's *total* degree on a large-page chunk).
        Per edge: ``adj_vids``, ``adj_pids`` and ``adj_weights``
        (``None`` without ``weight_bytes``).  The arrays are shared, not
        copied: callers must not write to them.
        """
        return self._topology

    # ------------------------------------------------------------------
    # Storage accounting
    # ------------------------------------------------------------------
    def topology_bytes(self):
        """Total on-storage size: every page occupies exactly ``page_size``."""
        return self.num_pages * self.config.page_size

    def page_bytes(self, page_id=None):
        """On-storage size of one page (all pages are fixed-size)."""
        return self.config.page_size

    def used_bytes(self):
        """Sum of actually-used bytes across pages (excludes padding)."""
        return int(self.directory.used_bytes.sum())

    def fill_factor(self):
        """Used bytes over allocated bytes; a builder-quality metric."""
        total = self.topology_bytes()
        return self.used_bytes() / total if total else 0.0

    # ------------------------------------------------------------------
    # Attribute-vector sizing (Table 4)
    # ------------------------------------------------------------------
    def attribute_vector_bytes(self, bytes_per_vertex):
        """Size of one attribute vector at the paper's field width."""
        return self.num_vertices * bytes_per_vertex

    # ------------------------------------------------------------------
    # Consistency checking (used by tests and the builder's callers)
    # ------------------------------------------------------------------
    def validate(self):
        """Check structural invariants; raises :class:`FormatError` on bugs
        (see :meth:`_check_topology`)."""
        self._check_topology(self.topology_arrays())
        return True

    def _check_topology(self, arrays):
        """Check flat topology ``arrays`` against this database's metadata.

        The arrays agree with the directory (records and edges per
        page); the records cover VIDs ``0 .. num_vertices - 1`` in page
        order, a large-page run's vertex once; the edges number
        ``num_edges``; and every adjacency entry's physical page is the
        page its logical neighbour is addressed under.
        """
        directory = self.directory
        rec_counts, edge_counts = arrays["rec_counts"], arrays["edge_counts"]
        if not (np.array_equal(rec_counts, np.where(directory.is_large, 1,
                                                    directory.num_records))
                and np.array_equal(edge_counts, directory.num_edges)):
            raise FormatError("topology arrays disagree with the directory")
        rec_page = np.repeat(np.arange(len(rec_counts)), rec_counts)
        covered = arrays["rec_vids"][self.rvt.lp_ranges[rec_page] <= 0]
        if not np.array_equal(covered, np.arange(self.num_vertices)):
            raise FormatError(
                "pages cover %d vertices, expected VIDs 0..%d in order"
                % (len(covered), self.num_vertices - 1))
        adj_vids = arrays["adj_vids"]
        if not (len(adj_vids) == int(edge_counts.sum()) == self.num_edges):
            raise FormatError(
                "pages hold %d edges, expected %d"
                % (len(adj_vids), self.num_edges))
        if len(adj_vids) and (int(adj_vids.min()) < 0
                              or int(adj_vids.max()) >= self.num_vertices):
            raise FormatError("adjacency names a vertex outside the graph")
        if not np.array_equal(self.vertex_page[adj_vids], arrays["adj_pids"]):
            raise FormatError(
                "adjacency physical IDs disagree with their vertices' pages")

    def statistics(self):
        """Summary dict used by the Table 3 bench and examples."""
        return {
            "name": self.name,
            "vertices": self.num_vertices,
            "edges": self.num_edges,
            "p": self.config.page_id_bytes,
            "q": self.config.slot_bytes,
            "page_size": self.config.page_size,
            "num_sp": self.num_small_pages,
            "num_lp": self.num_large_pages,
            "topology_bytes": self.topology_bytes(),
            "fill_factor": self.fill_factor(),
        }

    def __repr__(self):
        return "GraphDatabase(%s: V=%d, E=%d, SP=%d, LP=%d)" % (
            self.name, self.num_vertices, self.num_edges,
            self.num_small_pages, self.num_large_pages)
