"""Breadth-First Search kernel (Appendix B.1, Algorithms 2 and 3).

BFS is the paper's archetypal *traversal* algorithm: level-synchronous,
streaming only the pages named in ``nextPIDSet`` each level, with a single
WA vector ``LV`` of traversal levels.  The WA footprint is 2 bytes per
vertex (Table 4: 8 GB for RMAT32's 4 G vertices).
"""

import numpy as np

from repro.core.kernels.base import (
    Kernel,
    RoundPlan,
    frontier_batch_work,
)
from repro.errors import ConfigurationError

#: Sentinel for "not yet visited" (the paper's NULL level).
UNVISITED = -1


class _BFSState:
    def __init__(self, db, start_vertex):
        self.db = db
        self.level = np.full(db.num_vertices, UNVISITED, dtype=np.int32)
        self.level[start_vertex] = 0
        self.cur_level = 0
        self.start_vertex = start_vertex
        self.round_index = 0
        self.frontier_pids = np.asarray(
            [db.page_for_vertex(start_vertex)], dtype=np.int64)


class BFSKernel(Kernel):
    """Level-synchronous BFS from a start vertex."""

    name = "BFS"
    traversal = True
    wa_bytes_per_vertex = 2       # LV vector (Table 4)
    ra_bytes_per_vertex = 0
    cycles_per_lane_step = 32.0   # light per-edge work: a check and a set

    def __init__(self, start_vertex=0):
        if start_vertex < 0:
            raise ConfigurationError("start vertex must be nonnegative")
        self.start_vertex = start_vertex

    def init_state(self, db):
        if self.start_vertex >= db.num_vertices:
            raise ConfigurationError(
                "start vertex %d outside graph of %d vertices"
                % (self.start_vertex, db.num_vertices))
        return _BFSState(db, self.start_vertex)

    def next_round(self, state):
        if len(state.frontier_pids) == 0:
            return None
        return RoundPlan(pids=state.frontier_pids,
                         description="level %d" % state.cur_level)

    def finish_round(self, state, merged_next_pids):
        state.cur_level += 1
        state.round_index += 1
        if merged_next_pids is None:
            merged_next_pids = np.empty(0, dtype=np.int64)
        state.frontier_pids = merged_next_pids

    def results(self, state):
        return {"level": state.level}

    # ------------------------------------------------------------------
    def process_batch(self, batch, state, ctx):
        active = state.level[batch.rec_vids] == state.cur_level
        frontier = batch.advance(active)
        # "Unvisited" against the round-start levels; the write is
        # idempotent (every discoverer sets the same ``cur_level + 1``).
        # Filtering first means only a discovery's page id is gathered.
        fresh = frontier.filter(
            state.level[frontier.targets] == UNVISITED)
        state.level[fresh.targets] = state.cur_level + 1
        return frontier_batch_work(batch, frontier.rows, ctx,
                                   next_pids=fresh.pages())
