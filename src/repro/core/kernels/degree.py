"""Degree-distribution kernel (PageRank-like family, Section 3.3).

The simplest full-scan algorithm the paper lists: one pass over the
topology counting out- and in-degrees.  It doubles as a fast end-to-end
smoke test of the streaming machinery, and its output cross-checks the
slotted-page builder against the source graph.
"""

import numpy as np

from repro.core.kernels.base import (
    ALL_PAGES,
    Kernel,
    RoundPlan,
    full_scan_batch_work,
)


class _DegreeState:
    def __init__(self, db):
        self.out_degree = np.zeros(db.num_vertices, dtype=np.int64)
        self.in_degree = np.zeros(db.num_vertices, dtype=np.int64)
        self._in_degree_float = np.zeros(db.num_vertices)
        self.done = False


class DegreeKernel(Kernel):
    """Single-pass out/in degree counting."""

    name = "Degree"
    traversal = False
    wa_bytes_per_vertex = 8       # two 4-byte counters
    ra_bytes_per_vertex = 0
    cycles_per_lane_step = 8.0    # near-pure streaming, minimal compute

    def init_state(self, db):
        return _DegreeState(db)

    def next_round(self, state):
        if state.done:
            return None
        return RoundPlan(pids=ALL_PAGES, description="degree scan")

    def finish_round(self, state, merged_next_pids):
        state.done = True
        state.in_degree = state._in_degree_float.astype(np.int64)

    def results(self, state):
        return {"out_degree": state.out_degree.copy(),
                "in_degree": state.in_degree.copy()}

    # ------------------------------------------------------------------
    def process_batch(self, batch, state, ctx):
        # Large-page vertices repeat across their chunks' records.
        np.add.at(state.out_degree, batch.rec_vids, batch.degrees)
        # Whole counts add exactly in float64, in any order.
        state._in_degree_float += np.bincount(
            batch.adj_vids, minlength=len(state._in_degree_float))
        return full_scan_batch_work(batch, ctx)
