"""GraphDatabase: a built slotted-page store plus its metadata.

This is what the GTS engine streams from.  It owns:

* the pages themselves (``SmallPage`` / ``LargePage`` objects),
* a page directory (sizes and kinds, for storage accounting),
* the RVT (record-ID → vertex-ID mapping, kept in main memory),
* per-vertex metadata the kernels need (total out-degree; the page a
  vertex lives in, which seeds ``nextPIDSet`` for BFS-like algorithms).

The ``num_small_pages`` / ``num_large_pages`` statistics are the #SP / #LP
columns of the paper's Table 3.
"""

import dataclasses

import numpy as np

from repro.errors import FormatError
from repro.format.page import PageKind


@dataclasses.dataclass(frozen=True)
class PageDirectoryEntry:
    """Directory row describing one page without holding its data."""

    page_id: int
    kind: str              # "SP" or "LP"
    start_vid: int
    num_records: int
    num_edges: int
    used_bytes: int


class GraphDatabase:
    """A slotted-page graph database (see :mod:`repro.format.builder`)."""

    def __init__(self, pages, directory, rvt, config, num_vertices,
                 num_edges, out_degrees, vertex_page, name=None):
        self.pages = pages
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
        #: compaction); engines compare it against the value seen at
        #: construction to invalidate page-derived indexes.
        self.topology_version = 0
        self._small_page_ids = np.array(
            [e.page_id for e in directory if e.kind == "SP"], dtype=np.int64)
        self._large_page_ids = np.array(
            [e.page_id for e in directory if e.kind == "LP"], dtype=np.int64)
        #: Optional :class:`~repro.core.cache.SharedPageCache` attached
        #: by the service (or ``GTSEngine(shared_cache=...)``); consulted
        #: only by the file-backed loader's miss path, so eager
        #: databases carry the attribute but never touch it.
        self.shared_cache = None

    # ------------------------------------------------------------------
    # Page access
    # ------------------------------------------------------------------
    @property
    def num_pages(self):
        return len(self.pages)

    @property
    def num_small_pages(self):
        """#SP — the paper's Table 3 statistic."""
        return len(self._small_page_ids)

    @property
    def num_large_pages(self):
        """#LP — the paper's Table 3 statistic."""
        return len(self._large_page_ids)

    def small_page_ids(self):
        return self._small_page_ids

    def large_page_ids(self):
        return self._large_page_ids

    def page(self, page_id):
        if page_id < 0 or page_id >= len(self.pages):
            raise FormatError("unknown page ID %d" % page_id)
        return self.pages[page_id]

    def is_small(self, page_id):
        return self.pages[page_id].kind is PageKind.SMALL

    def page_for_vertex(self, vid):
        """Page ID containing ``vid`` — seeds BFS's initial ``nextPIDSet``."""
        return int(self.vertex_page[vid])

    def prefetch(self, page_ids):
        """Warm whatever serves :meth:`page` with ``page_ids`` ahead of
        per-page use; returns the pages read.  Resident pages need no
        warming — stores that decode lazily override this."""
        return 0

    @property
    def prefetch_chunk(self):
        """How many pages a page scan should :meth:`prefetch` ahead of
        its :meth:`page` calls: bounded by the page pool (when there is
        one), so a warm-ahead never evicts its own pages."""
        return max(1, min(64, getattr(self, "pool_capacity", 64)))

    def topology_arrays(self):
        """The whole topology as flat page-major arrays — what a
        :class:`~repro.core.plan.PagePlan` is built from.

        Per page: ``rec_counts`` and ``edge_counts``.  Per record, pages
        concatenated in page-ID order: ``degrees``, ``rec_vids`` and
        ``rec_divisor`` (the PageRank divisor: the record's degree on a
        small page, the vertex's *total* degree on a large-page chunk).
        Per edge: ``adj_vids``, ``adj_pids`` and ``adj_weights``
        (``None`` when no page carries weights; a weight-less page among
        weighted ones contributes unit weights, mirroring the per-page
        kernels' fallback).

        This generic body walks :meth:`page`, asking :meth:`prefetch`
        for a pool-sized chunk ahead (so an overlay's base store still
        decodes in bulk); a store that can hand out the arrays without
        building pages overrides it.
        """
        num_pages = self.num_pages
        chunk = self.prefetch_chunk
        deg_parts, vid_parts, div_parts = [], [], []
        avid_parts, apid_parts, weight_parts = [], [], []
        rec_counts = np.zeros(num_pages, dtype=np.int64)
        edge_counts = np.zeros(num_pages, dtype=np.int64)
        any_weights = False
        for pid in range(num_pages):
            if pid % chunk == 0:
                self.prefetch(range(pid, min(pid + chunk, num_pages)))
            page = self.page(pid)
            degrees = page.degrees()
            deg_parts.append(degrees)
            vid_parts.append(page.vids())
            if page.kind is PageKind.SMALL:
                div_parts.append(degrees)
            else:
                div_parts.append(np.asarray([page.total_degree],
                                            dtype=np.int64))
            avid_parts.append(page.adj_vids)
            apid_parts.append(page.adj_pids)
            if page.adj_weights is not None:
                any_weights = True
                weight_parts.append(page.adj_weights)
            else:
                weight_parts.append(None)
            rec_counts[pid] = page.num_records
            edge_counts[pid] = page.num_edges

        def _concat(parts, dtype):
            if not parts:
                return np.empty(0, dtype=dtype)
            return np.concatenate(parts).astype(dtype, copy=False)

        return {
            "rec_counts": rec_counts,
            "edge_counts": edge_counts,
            "degrees": _concat(deg_parts, np.int64),
            "rec_vids": _concat(vid_parts, np.int64),
            "rec_divisor": _concat(div_parts, np.int64),
            "adj_vids": _concat(avid_parts, np.int64),
            "adj_pids": _concat(apid_parts, np.int64),
            "adj_weights": _concat([
                part if part is not None
                else np.ones(int(edge_counts[pid]), dtype=np.float32)
                for pid, part in enumerate(weight_parts)
            ], np.float32) if any_weights else None,
        }

    # ------------------------------------------------------------------
    # Cross-query shared cache (service layer)
    # ------------------------------------------------------------------
    def attach_shared_cache(self, cache):
        """Attach a :class:`~repro.core.cache.SharedPageCache`.

        Idempotent; the cache outlives any single run.  Eager databases
        accept the attachment for API symmetry but never consult it
        (their pages are already decoded and resident).
        """
        self.shared_cache = cache

    def detach_shared_cache(self):
        """Detach the shared cache (runs fall back to their own I/O)."""
        self.shared_cache = None

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
        return sum(entry.used_bytes for entry in self.directory)

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

    def ra_subvector_bytes(self, page_id, bytes_per_vertex):
        """Size of the RA subvector streamed alongside one page.

        For a small page, this covers the page's consecutive VID range.
        For a large page it is a single vertex's value (Section 3.4: "RA_j
        for LP is a subvector of a single attribute value").
        """
        entry = self.directory[page_id]
        return entry.num_records * bytes_per_vertex

    # ------------------------------------------------------------------
    # Consistency checking (used by tests and the builder's callers)
    # ------------------------------------------------------------------
    def validate(self):
        """Check structural invariants; raises :class:`FormatError` on bugs.

        Invariants: directory matches pages; VID coverage is exact and
        consecutive; every adjacency physical ID translates through the RVT
        to the pre-materialised logical VID; edge counts add up.
        """
        if len(self.directory) != len(self.pages):
            raise FormatError("directory and page list lengths differ")
        covered = 0
        total_edges = 0
        for entry, page in zip(self.directory, self.pages):
            if entry.page_id != page.page_id:
                raise FormatError("directory out of order")
            if entry.kind == "SP":
                covered += entry.num_records
            elif entry.kind == "LP" and page.chunk_index == 0:
                covered += 1
            total_edges += page.num_edges
            translated = self.rvt.translate(page.adj_pids, page.adj_slots)
            if not np.array_equal(translated, page.adj_vids):
                raise FormatError(
                    "RVT translation mismatch in page %d" % page.page_id)
        if covered != self.num_vertices:
            raise FormatError(
                "pages cover %d vertices, expected %d"
                % (covered, self.num_vertices))
        if total_edges != self.num_edges:
            raise FormatError(
                "pages hold %d edges, expected %d"
                % (total_edges, self.num_edges))
        return True

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
