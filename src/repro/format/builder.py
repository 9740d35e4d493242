"""Builder: turn a CSR graph into a slotted-page database.

The build runs in two passes, because adjacency lists store *physical* IDs
and a vertex's physical location must be known before any page that
references it can be laid out:

1. **Placement** — walk pages in VID order: a small page takes the longest
   run of vertices whose records and slots fit and that its slot numbers
   can address (one ``searchsorted`` over cumulative vertex bytes gives
   every run's end), and a vertex whose record alone exceeds a page gets
   a run of large pages.  VIDs stay consecutive within every page, which
   is what makes the RVT's ``START_VID + ADJ_OFF`` translation work.
2. **Topology** — pages hold vertices in VID order, so the flat page-major
   arrays of :meth:`~repro.format.database.GraphDatabase.topology_arrays`
   follow from the CSR in a few array expressions: the adjacency is
   ``graph.targets`` as it stands, and each neighbour's physical page is
   the page its vertex was placed in (a large-page vertex is addressed
   through its *first* large page at slot 0).  No page object is built.

Page IDs are assigned in vertex order, interleaving SPs and LPs exactly as
in Figure 1 (``SP0`` holds v0–v2, then ``LP1``/``LP2`` hold v3's list).
"""

import numpy as np

from repro.errors import FormatError
from repro.format.database import GraphDatabase, PageDirectory
from repro.format.page import _ranges
from repro.format.rvt import RecordVertexTable


def _plan_placement(graph, config):
    """Pass 1: assign vertices to pages in VID order.

    Returns ``(vertex_pid, start_vids, lp_ranges, num_records)``: the page
    under which each vertex is addressed, then per page its first VID, its
    position in its vertex's large-page run (-1 for a small page) and its
    slot count.
    """
    degrees = graph.out_degrees()
    num_vertices = graph.num_vertices
    # Record plus slot bytes of the vertices before each VID.
    cum = np.concatenate(([0], np.cumsum(config.vertex_bytes(degrees))))
    # A small page opened at ``v`` ends before the first vertex whose bytes
    # overflow it (a large vertex always does) or when its slot numbers
    # run out.  A large vertex overflows a page alone, so its end is itself.
    ends = np.minimum(
        np.searchsorted(cum, cum[:-1] + config.page_size, "right") - 1,
        np.arange(num_vertices) + config.max_slot_number).tolist()
    lp_capacity = config.large_page_capacity()
    start_vids, lp_ranges, num_records = [], [], []
    v = 0
    while v < num_vertices:
        end = ends[v]
        if end == v:
            # Large vertex: a run of LPs.
            num_chunks = -(-int(degrees[v]) // lp_capacity)  # ceil division
            start_vids += [v] * num_chunks
            lp_ranges += range(num_chunks)
            num_records += [1] * num_chunks
            v += 1
        else:
            start_vids.append(v)
            lp_ranges.append(-1)
            num_records.append(end - v)
            v = end

    if len(start_vids) > config.max_page_id:
        raise FormatError(
            "graph needs %d pages but (p=%d) addresses only %d"
            % (len(start_vids), config.page_id_bytes, config.max_page_id))
    # A vertex is addressed through its small page or its run's first LP:
    # those pages, in order, hold every vertex once.
    first = np.asarray(lp_ranges, dtype=np.int64) <= 0
    vertex_pid = np.repeat(np.flatnonzero(first),
                           np.asarray(num_records, dtype=np.int64)[first])
    return vertex_pid, start_vids, lp_ranges, num_records


def build_database(graph, config, name=None):
    """Build a :class:`~repro.format.database.GraphDatabase` from ``graph``.

    Parameters
    ----------
    graph:
        A :class:`~repro.graphgen.graph.Graph` (CSR).  When
        ``config.weight_bytes`` is nonzero the pages store its edge
        weights — unit weights for a graph without any, which is what
        every weighted kernel assumes of such a graph.  Without
        ``weight_bytes`` a weighted graph's weights are dropped.
    config:
        The :class:`~repro.format.config.PageFormatConfig` to build under.
    name:
        Optional dataset name recorded in the database for reporting.
    """
    vertex_pid, start_vids, lp_ranges, num_records = _plan_placement(
        graph, config)
    rvt = RecordVertexTable(start_vids, lp_ranges)
    out_degrees = graph.out_degrees()
    num_pages = len(start_vids)
    rec_counts = np.asarray(num_records, dtype=np.int64)
    # One record per small-page vertex and per large-page chunk, in VID
    # order; a chunk holds ``lp_capacity`` entries, its run's last the rest.
    rec_page, rec_slot, _ = _ranges(rec_counts)
    rec_vids = rvt.start_vids[rec_page] + rec_slot
    lp_capacity = config.large_page_capacity()
    degrees = np.minimum(
        out_degrees[rec_vids]
        - np.maximum(rvt.lp_ranges, 0)[rec_page] * lp_capacity,
        lp_capacity)

    def page_sums(values):
        return np.bincount(rec_page, weights=values,
                           minlength=num_pages).astype(np.int64)

    edge_counts = page_sums(degrees)
    directory = PageDirectory(rvt.lp_ranges >= 0, rvt.start_vids, rec_counts,
                              edge_counts,
                              page_sums(config.vertex_bytes(degrees)))
    weights = None
    if config.weight_bytes:
        weights = (np.ones(graph.num_edges, dtype=np.float32)
                   if graph.weights is None else graph.weights)
    topology = {
        "rec_counts": rec_counts,
        "edge_counts": edge_counts,
        "degrees": degrees,
        "rec_vids": rec_vids,
        "rec_divisor": out_degrees[rec_vids],
        "adj_vids": graph.targets,
        "adj_pids": vertex_pid[graph.targets],
        "adj_weights": weights,
    }
    return GraphDatabase(
        topology=topology,
        directory=directory,
        rvt=rvt,
        config=config,
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        out_degrees=out_degrees,
        vertex_page=vertex_pid,
        name=name,
    )
