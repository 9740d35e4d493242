"""Random Walk with Restart kernel (PageRank-like family, Section 3.3).

RWR computes the stationary distribution of a random walker that follows
out-edges with probability ``1 - restart`` and jumps back to the query
vertex with probability ``restart``.  Structurally it is PageRank with the
teleport mass concentrated on one vertex — the same per-edge contribution
with ``damping = 1 - restart`` — so it *is* :class:`PageRankKernel` with
a different state initialisation, round end and result name.
"""

import numpy as np

from repro.core.kernels.pagerank import PageRankKernel
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
        self.damping = 1.0 - restart
        self.iteration = 0


class RWRKernel(PageRankKernel):
    """Random walk with restart from a query vertex."""

    name = "RWR"

    def __init__(self, query_vertex=0, iterations=10, restart=0.15):
        if not 0.0 <= restart <= 1.0:
            raise ConfigurationError("restart must be in [0, 1]")
        if query_vertex < 0:
            raise ConfigurationError("query vertex must be nonnegative")
        super().__init__(iterations=iterations, damping=1.0 - restart)
        self.query_vertex = query_vertex
        self.restart = restart

    def init_state(self, db):
        if self.query_vertex >= db.num_vertices:
            raise ConfigurationError(
                "query vertex %d outside graph of %d vertices"
                % (self.query_vertex, db.num_vertices))
        return _RWRState(db, self.query_vertex, self.restart)

    def finish_round(self, state, merged_next_pids):
        state.iteration += 1
        state.prev, state.next = state.next, state.prev
        state.next.fill(0.0)
        state.next[state.query_vertex] = state.restart

    def results(self, state):
        return {"proximity": state.prev.copy()}
