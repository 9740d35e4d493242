"""Connected Components kernel (PageRank-like family, Appendix D).

Label propagation to a fixpoint: every vertex starts with its own ID as a
label; each round every vertex pushes its label along its out-edges and a
target keeps the minimum label it has seen.  The paper classifies CC with
the "linear scan" algorithms, so each round streams the whole topology
(``ALL_PAGES``) rather than a frontier.

Label propagation along *directed* edges computes components of the
directed reachability closure; to obtain the usual weakly-connected
components, build the database from ``graph.symmetrised()`` — the bench
and tests do exactly that, mirroring how the compared systems (Giraph,
PowerGraph, TOTEM) treat CC input as undirected.

WA is the 8-byte label vector (Table 4: 32 GB for RMAT32).  Reads use the
previous round's label snapshot, so updates are commutative mins.
"""

import numpy as np

from repro.core.kernels.base import (
    ALL_PAGES,
    Kernel,
    RoundPlan,
    full_scan_batch_work,
)
from repro.errors import ConfigurationError


class _WCCState:
    def __init__(self, db):
        self.labels = np.arange(db.num_vertices, dtype=np.int64)
        self.labels_prev = self.labels.copy()
        self.round_index = 0
        self.changed = True


class WCCKernel(Kernel):
    """Connected components by min-label propagation to a fixpoint."""

    name = "CC"
    traversal = False
    wa_bytes_per_vertex = 8       # component labels (Table 4)
    ra_bytes_per_vertex = 0
    cycles_per_lane_step = 28.0

    def __init__(self, max_rounds=None):
        #: Optional round cap; propagation needs at most the graph
        #: diameter many rounds, so None is safe on finite graphs.
        if max_rounds is not None and max_rounds < 1:
            raise ConfigurationError("max_rounds must be positive")
        self.max_rounds = max_rounds

    def init_state(self, db):
        return _WCCState(db)

    def next_round(self, state):
        if not state.changed:
            return None
        if self.max_rounds is not None and state.round_index >= self.max_rounds:
            return None
        return RoundPlan(pids=ALL_PAGES,
                         description="propagation round %d" % state.round_index)

    def finish_round(self, state, merged_next_pids):
        state.round_index += 1
        state.changed = bool(np.any(state.labels != state.labels_prev))
        state.labels_prev = state.labels.copy()

    def results(self, state):
        return {"component": state.labels.copy()}

    # ------------------------------------------------------------------
    def process_batch(self, batch, state, ctx):
        # One label per record; the batch spreads it along the record's
        # edges.
        batch.reduce_into(np.minimum, state.labels,
                          state.labels_prev[batch.rec_vids])
        return full_scan_batch_work(batch, ctx)
