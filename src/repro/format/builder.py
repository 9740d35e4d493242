"""Builder: turn a CSR graph into a slotted-page database.

The build runs in two passes, because adjacency lists store *physical* IDs
and a vertex's physical location must be known before any page that
references it can be encoded:

1. **Placement** — walk vertices in VID order and assign each to either the
   current small page (if its record and slot fit, and the page has slot
   numbers left) or to a run of large pages (if the record alone exceeds a
   page).  VIDs stay consecutive within every page, which is what makes the
   RVT's ``START_VID + ADJ_OFF`` translation work.
2. **Encoding** — materialise each page, rewriting every neighbour VID into
   the ``(page, slot)`` physical ID assigned in pass 1.  A large-page vertex
   is addressed through its *first* large page at slot 0.

Page IDs are assigned in vertex order, interleaving SPs and LPs exactly as
in Figure 1 (``SP0`` holds v0–v2, then ``LP1``/``LP2`` hold v3's list).
"""

import numpy as np

from repro.errors import FormatError
from repro.format.database import GraphDatabase, PageDirectoryEntry
from repro.format.page import LargePage, SmallPage
from repro.format.rvt import RecordVertexTable


class _PlacementPlan:
    """Output of pass 1: where every vertex and page will live."""

    def __init__(self, num_vertices):
        # Physical ID under which other vertices reference vertex v.
        self.vertex_pid = np.zeros(num_vertices, dtype=np.int64)
        self.vertex_slot = np.zeros(num_vertices, dtype=np.int64)
        # Page layout: each entry is either
        #   ("SP", start_vid, num_records) or ("LP", vid, chunk_index).
        self.pages = []

    @property
    def num_pages(self):
        return len(self.pages)


def _plan_placement(graph, config):
    """Pass 1: assign vertices to pages in VID order."""
    degrees = graph.out_degrees()
    plan = _PlacementPlan(graph.num_vertices)
    lp_capacity = config.large_page_capacity()
    page_budget = config.page_size

    current_start = None       # first VID of the open small page
    current_records = 0
    current_bytes = 0

    def close_small_page():
        nonlocal current_start, current_records, current_bytes
        if current_start is not None and current_records > 0:
            plan.pages.append(("SP", current_start, current_records))
        current_start = None
        current_records = 0
        current_bytes = 0

    # Record plus slot bytes of every vertex, as one array expression.
    for v, need in enumerate(config.vertex_bytes(degrees).tolist()):
        if need > page_budget:
            # Large vertex: close the open SP, emit a run of LPs.
            close_small_page()
            num_chunks = -(-int(degrees[v]) // lp_capacity)  # ceil division
            first_pid = plan.num_pages
            for chunk in range(num_chunks):
                plan.pages.append(("LP", v, chunk))
            plan.vertex_pid[v] = first_pid
            plan.vertex_slot[v] = 0
            continue
        if current_start is None:
            current_start = v
        fits_bytes = current_bytes + need <= page_budget
        fits_slots = current_records < config.max_slot_number
        if not (fits_bytes and fits_slots):
            close_small_page()
            current_start = v
        plan.vertex_pid[v] = plan.num_pages  # the page being filled
        plan.vertex_slot[v] = current_records
        current_records += 1
        current_bytes += need
    close_small_page()

    if plan.num_pages > config.max_page_id:
        raise FormatError(
            "graph needs %d pages but (p=%d) addresses only %d"
            % (plan.num_pages, config.page_id_bytes, config.max_page_id))
    return plan


def build_database(graph, config, name=None):
    """Build a :class:`~repro.format.database.GraphDatabase` from ``graph``.

    Parameters
    ----------
    graph:
        A :class:`~repro.graphgen.graph.Graph` (CSR).  If it carries edge
        weights and ``config.weight_bytes`` is nonzero, weights are stored
        in the pages.
    config:
        The :class:`~repro.format.config.PageFormatConfig` to build under.
    name:
        Optional dataset name recorded in the database for reporting.
    """
    if graph.weights is not None and config.weight_bytes == 0:
        # Permitted: topology-only databases can be built from weighted
        # graphs; weights are simply not stored.
        pass
    plan = _plan_placement(graph, config)
    lp_capacity = config.large_page_capacity()
    degrees = graph.out_degrees()

    pages = []
    directory = []
    start_vids = np.zeros(plan.num_pages, dtype=np.int64)
    lp_ranges = np.full(plan.num_pages, -1, dtype=np.int64)
    vertex_first_pid = plan.vertex_pid
    weighted = graph.weights is not None and config.weight_bytes > 0

    for pid, entry in enumerate(plan.pages):
        kind = entry[0]
        if kind == "SP":
            _, start_vid, num_records = entry
            lo = graph.indptr[start_vid]
            hi = graph.indptr[start_vid + num_records]
            neighbour_vids = graph.targets[lo:hi]
            adj_pids = plan.vertex_pid[neighbour_vids]
            adj_slots = plan.vertex_slot[neighbour_vids]
            indptr = (graph.indptr[start_vid:start_vid + num_records + 1]
                      - lo)
            weights = graph.weights[lo:hi] if weighted else None
            page = SmallPage(pid, start_vid, indptr, adj_pids, adj_slots,
                             neighbour_vids.copy(), config,
                             adj_weights=weights)
            directory.append(PageDirectoryEntry(
                page_id=pid, kind="SP", start_vid=start_vid,
                num_records=num_records, num_edges=page.num_edges,
                used_bytes=page.used_bytes()))
            start_vids[pid] = start_vid
        else:
            _, vid, chunk = entry
            base = graph.indptr[vid]
            lo = base + chunk * lp_capacity
            hi = min(base + (chunk + 1) * lp_capacity, graph.indptr[vid + 1])
            neighbour_vids = graph.targets[lo:hi]
            adj_pids = plan.vertex_pid[neighbour_vids]
            adj_slots = plan.vertex_slot[neighbour_vids]
            weights = graph.weights[lo:hi] if weighted else None
            page = LargePage(pid, vid, chunk, adj_pids, adj_slots,
                             neighbour_vids.copy(), config,
                             adj_weights=weights,
                             total_degree=int(degrees[vid]))
            directory.append(PageDirectoryEntry(
                page_id=pid, kind="LP", start_vid=vid, num_records=1,
                num_edges=page.num_edges, used_bytes=page.used_bytes()))
            start_vids[pid] = vid
            lp_ranges[pid] = chunk
        pages.append(page)

    rvt = RecordVertexTable(start_vids, lp_ranges)
    return GraphDatabase(
        pages=pages,
        directory=directory,
        rvt=rvt,
        config=config,
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        out_degrees=degrees,
        vertex_page=vertex_first_pid.copy(),
        name=name,
    )
