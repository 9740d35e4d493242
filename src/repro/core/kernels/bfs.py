"""Breadth-First Search kernels (Appendix B.1, Algorithms 2 and 3).

BFS is the paper's archetypal *traversal* algorithm: level-synchronous,
streaming only the pages named in ``nextPIDSet`` each level, with a single
WA vector ``LV`` of traversal levels.  The WA footprint is 2 bytes per
vertex (Table 4: 8 GB for RMAT32's 4 G vertices).
"""

import numpy as np

from repro.core.kernels.base import (
    ALL_PAGES,
    Kernel,
    PageWork,
    RoundPlan,
    edge_expand,
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
    def _expand(self, page, state, ctx, active_mask):
        """Shared body of K_BFS_SP and K_BFS_LP: relax active records."""
        targets, target_pids, _, _ = edge_expand(page, active_mask)
        unvisited = state.level[targets] == UNVISITED
        new_targets = targets[unvisited]
        # Idempotent write: every discoverer sets the same level value.
        state.level[new_targets] = state.cur_level + 1
        next_pids = np.unique(target_pids[unvisited])
        return PageWork(
            num_records=page.num_records,
            active_vertices=int(active_mask.sum()),
            edges_traversed=int(len(targets)),
            lane_steps=ctx.lane_steps(page.degrees(), active_mask),
            next_pids=next_pids,
        )

    def process_sp(self, page, state, ctx):
        active = state.level[page.vids()] == state.cur_level
        return self._expand(page, state, ctx, active)

    def process_lp(self, page, state, ctx):
        active = np.asarray(
            [state.level[page.vid] == state.cur_level])
        return self._expand(page, state, ctx, active)

    def process_batch(self, batch, state, ctx):
        active = state.level[batch.rec_vids] == state.cur_level
        frontier = batch.advance(active)
        # "Unvisited" against the round-start levels: every per-page
        # discoverer writes the same ``cur_level + 1``, so evaluating the
        # mask before any write reproduces the per-page union exactly.
        # Filtering first means only a discovery's page id is gathered.
        fresh = frontier.filter(
            state.level[frontier.targets] == UNVISITED)
        state.level[fresh.targets] = state.cur_level + 1
        return frontier_batch_work(frontier, ctx, next_pids=fresh.pages())
