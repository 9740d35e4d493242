"""An independent model of a live database's topology, vertex by vertex.

Each vertex keeps its base edges, page record by page record, with a
live flag, and its inserted edges in commit order.  A delete of
``(u, v)`` drops every inserted copy and kills every base copy; added
vertices fill the last extension page, then open pages of
``capacity`` records.  :meth:`OverlayModel.arrays` lays the result out
page by page as :meth:`~repro.format.database.GraphDatabase
.topology_arrays` does: a record's live base edges in base order, then
its inserts (a large vertex's on the last page of its run).  The
property test in ``test_dynamic_updates.py`` holds every retained
version's spliced arrays to it, dtype for dtype.
"""

import numpy as np

from repro.format.builder import build_database
from repro.graphgen import Graph


class OverlayModel:
    """The effective topology of ``base`` (a built database) under the
    batches :meth:`apply` has seen."""

    def __init__(self, base):
        self.base = base
        self.config = base.config
        self.num_base_pages = base.num_pages
        arrays = base.topology_arrays()
        degrees = iter(arrays["degrees"].tolist())
        targets = iter(arrays["adj_vids"].tolist())
        weights = (iter(arrays["adj_weights"].tolist())
                   if arrays["adj_weights"] is not None else None)
        #: Per page: ``[start_vid, num_records, large]``.
        self.pages = []
        #: Per page, per record: its base edges as ``[dst, weight, live]``.
        self.rows = []
        for pid, count in enumerate(arrays["rec_counts"].tolist()):
            large = bool(base.directory.is_large[pid])
            self.pages.append([int(base.rvt.start_vids[pid]), count, large])
            self.rows.append([
                [[next(targets), next(weights) if weights else 1.0, True]
                 for _ in range(next(degrees))] for _ in range(count)])
        self.vertex_page = base.vertex_page.tolist()
        self.inserts = {}

    # -- batches -------------------------------------------------------
    def _records(self, vid):
        """The base records holding ``vid``'s edges, run order."""
        pid = self.vertex_page[vid]
        if pid >= self.num_base_pages:
            return []
        if not self.pages[pid][2]:
            return [self.rows[pid][vid - self.pages[pid][0]]]
        found = []
        while (pid < self.num_base_pages and self.pages[pid][2]
               and self.pages[pid][0] == vid):
            found.append(self.rows[pid][0])
            pid += 1
        return found

    def apply(self, batch):
        """Apply ``batch``; ``(inserted, deleted, added)``, as an
        :class:`~repro.dynamic.delta.ApplyReport` counts them."""
        inserted = deleted = added = 0
        for op in batch.ops:
            if op[0] == "v":
                self._add_vertices(op[1])
                added += op[1]
            elif op[0] == "+":
                self.inserts.setdefault(op[1], []).append(
                    [op[2], 1.0 if op[3] is None else op[3]])
                inserted += 1
            else:
                src, dst = op[1], op[2]
                logged = self.inserts.get(src, [])
                kept = [entry for entry in logged if entry[0] != dst]
                deleted += len(logged) - len(kept)
                self.inserts[src] = kept
                for record in self._records(src):
                    for edge in record:
                        if edge[2] and edge[0] == dst:
                            edge[2] = False
                            deleted += 1
        return inserted, deleted, added

    def _add_vertices(self, count):
        cfg = self.config
        capacity = max(1, min(cfg.max_slot_number,
                              cfg.page_size // cfg.vertex_bytes(0)))
        vid = len(self.vertex_page)
        for _ in range(count):
            if (len(self.pages) == self.num_base_pages
                    or self.pages[-1][1] == capacity):
                self.pages.append([vid, 0, False])
                self.rows.append([])
            self.pages[-1][1] += 1
            self.rows[-1].append([])
            self.vertex_page.append(len(self.pages) - 1)
            vid += 1

    # -- reads ---------------------------------------------------------
    def neighbors(self, vid):
        """``vid``'s live base targets in base order, then its inserts."""
        return ([edge[0] for record in self._records(vid)
                 for edge in record if edge[2]]
                + [entry[0] for entry in self.inserts.get(vid, [])])

    def _edges(self, pid, k):
        start, _, large = self.pages[pid]
        vid = start + k
        edges = [edge[:2] for edge in self.rows[pid][k] if edge[2]]
        following = self.pages[pid + 1:pid + 2]
        if not (large and following and following[0][2]
                and following[0][0] == vid):
            edges += self.inserts.get(vid, [])
        return vid, edges

    def arrays(self):
        """The topology arrays, page by page (see the module docstring)."""
        rec_counts, edge_counts, degrees, rec_vids, divisor = (
            [], [], [], [], [])
        targets, weights = [], []
        for pid, (_, count, large) in enumerate(self.pages):
            rec_counts.append(count)
            edge_counts.append(0)
            for k in range(count):
                vid, edges = self._edges(pid, k)
                edge_counts[-1] += len(edges)
                degrees.append(len(edges))
                rec_vids.append(vid)
                divisor.append(len(self.neighbors(vid)) if large
                               else len(edges))
                targets += [edge[0] for edge in edges]
                weights += [edge[1] for edge in edges]
        def as_int(values):
            return np.asarray(values, dtype=np.int64)

        return {
            "rec_counts": as_int(rec_counts),
            "edge_counts": as_int(edge_counts),
            "degrees": as_int(degrees),
            "rec_vids": as_int(rec_vids),
            "rec_divisor": as_int(divisor),
            "adj_vids": as_int(targets),
            "adj_pids": as_int(self.vertex_page)[as_int(targets)],
            "adj_weights": (np.asarray(weights, dtype=np.float32)
                            if self.config.weight_bytes else None),
        }

    def compacted(self):
        """The model of a base rebuilt from this effective graph, edges
        in page order (what compaction builds)."""
        arrays = self.arrays()
        graph = Graph.from_edges(
            len(self.vertex_page),
            np.repeat(arrays["rec_vids"], arrays["degrees"]),
            arrays["adj_vids"], weights=arrays["adj_weights"])
        return OverlayModel(build_database(graph, self.config))
