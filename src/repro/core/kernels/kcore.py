"""K-core decomposition kernel (BFS-like family, Section 3.3).

The paper lists K-core among the traversal-style algorithms GTS supports.
This kernel computes membership of the ``k``-core — the maximal subgraph
in which every vertex has degree ≥ ``k`` — by iterative peeling: each
round removes every remaining vertex whose degree dropped below ``k`` and
streams only the *removed* vertices' pages to decrement their neighbours'
degrees.  The frontier is the freshly removed set, exactly the
``nextPIDSet`` pattern of BFS.

K-core is defined on undirected graphs: build the database from
``graph.symmetrised()`` (as with the CC kernel) so that each record's
adjacency list is the vertex's full undirected neighbourhood.

WA is a degree counter plus a removed flag (5 bytes/vertex at paper
widths).
"""

import numpy as np

from repro.core.kernels.base import (
    Kernel,
    RoundPlan,
    frontier_batch_work,
)
from repro.core.plan import page_set
from repro.errors import ConfigurationError


class _KCoreState:
    def __init__(self, db, k):
        self.db = db
        self.k = k
        self.degree = db.out_degrees.astype(np.int64).copy()
        self.removed = np.zeros(db.num_vertices, dtype=bool)
        # Peel everything already under k in round 0.
        self.frontier = self.degree < k
        self.removed |= self.frontier
        self.round_index = 0
        self.frontier_pids = self._pages_of(np.flatnonzero(self.frontier))

    def _pages_of(self, vids):
        return page_set(self.db.vertex_page[vids], self.db.num_pages)


class KCoreKernel(Kernel):
    """Iterative peeling to the ``k``-core."""

    name = "KCore"
    traversal = True
    wa_bytes_per_vertex = 5       # degree counter (4 B) + removed flag
    ra_bytes_per_vertex = 0
    cycles_per_lane_step = 36.0   # decrement + compare per edge

    def __init__(self, k=2):
        if k < 1:
            raise ConfigurationError("k must be at least 1")
        self.k = k

    def init_state(self, db):
        return _KCoreState(db, self.k)

    def next_round(self, state):
        if len(state.frontier_pids) == 0:
            return None
        return RoundPlan(pids=state.frontier_pids,
                         description="peel round %d" % state.round_index)

    def finish_round(self, state, merged_next_pids):
        state.round_index += 1
        newly_below = (~state.removed) & (state.degree < state.k)
        state.removed |= newly_below
        state.frontier = newly_below
        state.frontier_pids = state._pages_of(np.flatnonzero(newly_below))

    def results(self, state):
        return {"in_kcore": ~state.removed,
                "residual_degree": state.degree.copy()}

    # ------------------------------------------------------------------
    def process_batch(self, batch, state, ctx):
        active = state.frontier[batch.rec_vids]
        frontier = batch.advance(active)
        # Removed vertices release one degree unit per incident edge;
        # duplicate targets require the unbuffered decrement.
        np.add.at(state.degree, frontier.targets, -1)
        return frontier_batch_work(batch, frontier.rows, ctx)
