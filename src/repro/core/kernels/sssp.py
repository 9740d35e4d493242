"""Single-Source Shortest Path kernel (BFS-like family, Appendix D).

Level-synchronous Bellman–Ford: each round relaxes the out-edges of every
vertex whose distance improved in the previous round, and the next round's
``nextPIDSet`` is the set of pages holding vertices whose tentative
distance an update may have lowered.  Reads use the distance snapshot
committed at the end of the previous round (``dist_prev``), so updates are
commutative mins and results are independent of page/GPU order.

WA is the distance vector (4 bytes per vertex, Table 4).  Edge weights
come from the slotted pages (the database must be built from a weighted
graph with ``weight_bytes > 0`` in its format config); unweighted
databases fall back to unit weights, making SSSP coincide with BFS depth.
"""

import numpy as np

from repro.core.kernels.base import (
    Kernel,
    RoundPlan,
    frontier_batch_work,
)
from repro.core.plan import page_mask
from repro.errors import ConfigurationError

INFINITY = np.float32(np.inf)


class _SSSPState:
    def __init__(self, db, start_vertex):
        self.db = db
        self.dist = np.full(db.num_vertices, INFINITY, dtype=np.float32)
        self.dist[start_vertex] = 0.0
        # Snapshot read within a round (BSP semantics).
        self.dist_prev = self.dist.copy()
        self.frontier = np.zeros(db.num_vertices, dtype=bool)
        self.frontier[start_vertex] = True
        self.frontier_pids = np.asarray(
            [db.page_for_vertex(start_vertex)], dtype=np.int64)
        self.round_index = 0


class SSSPKernel(Kernel):
    """Level-synchronous single-source shortest paths."""

    name = "SSSP"
    traversal = True
    wa_bytes_per_vertex = 4       # distance vector (Table 4)
    ra_bytes_per_vertex = 0
    cycles_per_lane_step = 40.0   # compare + atomicMin on floats

    def __init__(self, start_vertex=0, max_rounds=None):
        if start_vertex < 0:
            raise ConfigurationError("start vertex must be nonnegative")
        self.start_vertex = start_vertex
        #: Safety valve for graphs with negative cycles; None = no limit
        #: (weights produced by our generators are positive).
        self.max_rounds = max_rounds

    def init_state(self, db):
        if self.start_vertex >= db.num_vertices:
            raise ConfigurationError(
                "start vertex %d outside graph of %d vertices"
                % (self.start_vertex, db.num_vertices))
        return _SSSPState(db, self.start_vertex)

    def next_round(self, state):
        if len(state.frontier_pids) == 0:
            return None
        if self.max_rounds is not None and state.round_index >= self.max_rounds:
            return None
        return RoundPlan(pids=state.frontier_pids,
                         description="relaxation round %d" % state.round_index)

    def finish_round(self, state, merged_next_pids):
        state.round_index += 1
        improved = state.dist < state.dist_prev
        state.frontier = improved
        state.dist_prev = state.dist.copy()
        if merged_next_pids is None:
            merged_next_pids = np.empty(0, dtype=np.int64)
        # Keep only pages that actually contain an improved vertex; the
        # per-page next_pids over-approximate (a candidate distance may
        # lose the min race to a better one from another page).
        # ``vertex_page`` names the page a vertex is addressed under —
        # its small page, or the first of its large pages — which is
        # the page ID adjacency entries (hence next_pids) carry.
        if len(merged_next_pids):
            improved_pages = page_mask(state.db.vertex_page[improved],
                                       state.db.num_pages)
            merged_next_pids = merged_next_pids[
                improved_pages[merged_next_pids]]
        state.frontier_pids = merged_next_pids

    def results(self, state):
        return {"distance": state.dist.copy()}

    # ------------------------------------------------------------------
    def process_batch(self, batch, state, ctx):
        active = state.frontier[batch.rec_vids]
        frontier = batch.advance(active)
        targets = frontier.targets
        weights = frontier.weights
        if weights is None:
            weights = np.ones(len(targets), dtype=np.float32)
        candidates = frontier.from_sources(state.dist_prev) + weights
        # "Better" against the round-start distances; the min-combine
        # settles candidates racing for one target, and every racer
        # names the same physical page for it.
        better = candidates < state.dist[targets]
        relaxed = frontier.filter(better)
        np.minimum.at(state.dist, relaxed.targets, candidates[better])
        return frontier_batch_work(frontier, ctx,
                                   next_pids=relaxed.pages())
