"""Random Walk with Restart kernels (PageRank-like family, Section 3.3).

RWR computes the stationary distribution of a random walker that follows
out-edges with probability ``1 - restart`` and jumps back to the query
vertex with probability ``restart``.  Structurally it is PageRank with the
teleport mass concentrated on one vertex, so it shares PageRank's
full-scan streaming pattern and double-buffered WA/RA split.
"""

import numpy as np

from repro.core.kernels.base import (
    ALL_PAGES,
    BatchWork,
    Kernel,
    PageWork,
    RoundPlan,
    scatter_add,
)
from repro.errors import ConfigurationError


class _RWRState:
    def __init__(self, db, query_vertex, restart):
        num_vertices = db.num_vertices
        self.prev = np.zeros(num_vertices)
        self.prev[query_vertex] = 1.0
        self.next = np.zeros(num_vertices)
        self.next[query_vertex] = restart
        self.query_vertex = query_vertex
        self.restart = restart
        self.iteration = 0


class RWRKernel(Kernel):
    """Random walk with restart from a query vertex."""

    name = "RWR"
    traversal = False
    wa_bytes_per_vertex = 4
    ra_bytes_per_vertex = 4
    cycles_per_lane_step = 24.0   # same scattered-add profile as PageRank

    def __init__(self, query_vertex=0, iterations=10, restart=0.15):
        if iterations < 1:
            raise ConfigurationError("need at least one iteration")
        if not 0.0 <= restart <= 1.0:
            raise ConfigurationError("restart must be in [0, 1]")
        self.query_vertex = query_vertex
        self.iterations = iterations
        self.restart = restart

    def init_state(self, db):
        if self.query_vertex >= db.num_vertices:
            raise ConfigurationError(
                "query vertex %d outside graph of %d vertices"
                % (self.query_vertex, db.num_vertices))
        return _RWRState(db, self.query_vertex, self.restart)

    def next_round(self, state):
        if state.iteration >= self.iterations:
            return None
        return RoundPlan(pids=ALL_PAGES,
                         description="iteration %d" % state.iteration)

    def finish_round(self, state, merged_next_pids):
        state.iteration += 1
        state.prev, state.next = state.next, state.prev
        state.next.fill(0.0)
        state.next[state.query_vertex] = state.restart

    def results(self, state):
        return {"proximity": state.prev.copy()}

    # ------------------------------------------------------------------
    def process_sp(self, page, state, ctx):
        degrees = page.degrees()
        vids = page.vids()
        walk = 1.0 - state.restart
        contrib = np.where(
            degrees > 0,
            walk * state.prev[vids] / np.maximum(degrees, 1),
            0.0)
        scatter_add(state.next, page, np.repeat(contrib, degrees),
                    db=ctx.db)
        return PageWork(
            num_records=page.num_records,
            active_vertices=page.num_records,
            edges_traversed=page.num_edges,
            lane_steps=ctx.lane_steps(degrees),
        )

    def process_lp(self, page, state, ctx):
        contrib = ((1.0 - state.restart) * state.prev[page.vid]
                   / max(page.total_degree, 1))
        scatter_add(state.next, page, np.full(page.num_edges, contrib),
                    db=ctx.db)
        return PageWork(
            num_records=1,
            active_vertices=1,
            edges_traversed=page.num_edges,
            lane_steps=ctx.lane_steps(page.degrees()),
        )

    def process_batch(self, batch, state, ctx):
        # PageRank's batch body with the walk probability as damping:
        # segment sums in scatter order, then ``np.add.at`` in page-major
        # segment order, so every rounding step matches the page loop.
        contrib = np.where(
            batch.rec_divisor > 0,
            (1.0 - state.restart) * state.prev[batch.rec_vids]
            / np.maximum(batch.rec_divisor, 1),
            0.0)
        if batch.num_segments:
            sums = np.add.reduceat(
                contrib[batch.scatter_rec()], batch.seg_starts)
            np.add.at(state.next, batch.seg_targets, sums)
        return BatchWork(
            lane_steps=ctx.segment_lane_steps(batch),
            edges_traversed=batch.edges_per_page(),
            active_vertices=batch.records_per_page(),
        )
