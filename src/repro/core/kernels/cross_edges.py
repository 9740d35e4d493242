"""Cross-edges kernel (PageRank-like family, Section 3.3).

Given a partition assignment of the vertices, count the edges whose
endpoints fall in different parts — the paper lists "cross-edges" among
the linear-scan algorithms GTS supports (it is the quantity a graph
partitioner minimises, and what TOTEM's boundary traffic is made of).

One full-scan round.  The partition vector is read for both endpoints of
every edge: the source side arrives with the page (an RA subvector), but
the target side is a random access, so the whole partition vector must be
device-resident — it is accounted as WA (read-only) alongside the
per-vertex cross counters.
"""

import numpy as np

from repro.core.kernels.base import (
    ALL_PAGES,
    Kernel,
    RoundPlan,
    full_scan_batch_work,
)
from repro.errors import ConfigurationError


class _CrossEdgesState:
    def __init__(self, db, partition):
        self.partition = partition
        self.cross_count = np.zeros(db.num_vertices, dtype=np.int64)
        self.total_cross = 0
        self.total_edges = 0
        self.done = False


class CrossEdgesKernel(Kernel):
    """Count edges crossing a vertex partition in one topology scan."""

    name = "CrossEdges"
    traversal = False
    wa_bytes_per_vertex = 8       # partition label (4 B) + counter (4 B)
    ra_bytes_per_vertex = 0
    cycles_per_lane_step = 16.0   # two label loads and a compare per edge

    def __init__(self, partition):
        self.partition = np.asarray(partition, dtype=np.int64)
        if self.partition.ndim != 1:
            raise ConfigurationError("partition must be a 1-D assignment")

    def init_state(self, db):
        if len(self.partition) != db.num_vertices:
            raise ConfigurationError(
                "partition labels %d vertices but the graph has %d"
                % (len(self.partition), db.num_vertices))
        return _CrossEdgesState(db, self.partition)

    def next_round(self, state):
        if state.done:
            return None
        return RoundPlan(pids=ALL_PAGES, description="cross-edge scan")

    def finish_round(self, state, merged_next_pids):
        state.done = True

    def results(self, state):
        return {
            "cross_count": state.cross_count.copy(),
            "total_cross_edges": np.asarray([state.total_cross]),
            "cut_fraction": np.asarray([
                state.total_cross / state.total_edges
                if state.total_edges else 0.0]),
        }

    # ------------------------------------------------------------------
    def process_batch(self, batch, state, ctx):
        # A full scan needs every edge's source, so it reads the edge
        # space directly instead of advancing from a frontier.
        sources = batch.rec_vids[batch.edge_rec]
        crossing = (state.partition[batch.adj_vids]
                    != state.partition[sources])
        state.total_cross += int(crossing.sum())
        state.total_edges += batch.num_edges
        state.cross_count += np.bincount(
            sources[crossing], minlength=len(state.cross_count))
        return full_scan_batch_work(batch, ctx)
