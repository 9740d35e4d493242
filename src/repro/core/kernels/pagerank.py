"""PageRank kernel (Appendix B.2, Algorithms 4 and 5).

PageRank is the paper's archetypal *full-scan* algorithm: every iteration
streams the entire topology once.  The WA vector is ``nextPR`` (4 bytes
per vertex — Table 4); ``prevPR`` is read-only within an iteration and is
streamed to the device page-by-page as RA subvectors.

Per edge ``(v, t)`` the kernel performs
``atomicAdd(nextPR[t], df * prevPR[v] / ADJLIST_SZ(v))``; for a large-page
vertex the divisor is the vertex's *total* degree across all of its large
pages (the paper's ``v.ADJLIST_SZ``).  At iteration end ``nextPR`` is
copied into ``prevPR`` and re-initialised to ``(1 - df) / |V|``.

Vertices with no out-edges contribute no mass (their rank leaks), matching
the paper's kernels, which add only out-edge contributions.
"""

import numpy as np

from repro.core.kernels.base import (
    ALL_PAGES,
    Kernel,
    RoundPlan,
    full_scan_batch_work,
)
from repro.errors import ConfigurationError


class _PageRankState:
    def __init__(self, db, damping):
        num_vertices = db.num_vertices
        self.prev = np.full(num_vertices, 1.0 / num_vertices)
        self.next = np.full(num_vertices, (1.0 - damping) / num_vertices)
        self.iteration = 0
        self.damping = damping
        self.base = (1.0 - damping) / num_vertices
        #: L1 change of the rank vector in the last completed iteration.
        self.last_delta = float("inf")


class PageRankKernel(Kernel):
    """PageRank for a fixed iteration count or to convergence.

    The paper runs ten iterations; "users might need to perform [the
    framework loop] as many times as necessary in their applications"
    (Section 3.4), so an optional L1 ``tolerance`` stops early once the
    rank vector moves less than that between iterations.
    """

    name = "PageRank"
    traversal = False
    wa_bytes_per_vertex = 4       # nextPR (Table 4)
    ra_bytes_per_vertex = 4       # prevPR subvectors streamed with pages
    # Effective GPU cost per edge.  Counter-intuitively close to BFS's:
    # PageRank's scattered atomic adds are mitigated by its coalesced,
    # divergence-free scans, while BFS pays for warp divergence.  The
    # value makes the paper's absolute arithmetic line up (7.2 s for ten
    # Twitter iterations on two TITAN X: 1.47e10 * 24 / 48e9 = 7.3 s).
    cycles_per_lane_step = 24.0

    def __init__(self, iterations=10, damping=0.85, tolerance=None):
        if iterations < 1:
            raise ConfigurationError("need at least one iteration")
        if not 0.0 <= damping <= 1.0:
            raise ConfigurationError("damping must be in [0, 1]")
        if tolerance is not None and tolerance <= 0.0:
            raise ConfigurationError("tolerance must be positive")
        self.iterations = iterations
        self.damping = damping
        self.tolerance = tolerance

    def init_state(self, db):
        return _PageRankState(db, self.damping)

    def next_round(self, state):
        if state.iteration >= self.iterations:
            return None
        if self.tolerance is not None and state.last_delta < self.tolerance:
            return None
        return RoundPlan(pids=ALL_PAGES,
                         description="iteration %d" % state.iteration)

    def finish_round(self, state, merged_next_pids):
        state.iteration += 1
        state.last_delta = float(np.abs(state.next - state.prev).sum())
        state.prev, state.next = state.next, state.prev
        state.next.fill(state.base)

    def results(self, state):
        return {"rank": state.prev.copy()}

    # ------------------------------------------------------------------
    def process_batch(self, batch, state, ctx):
        # ``rec_divisor`` is the record's degree for SP vertices and the
        # vertex's total degree for LP chunks, so one expression covers
        # Algorithms 4 and 5.
        contrib = np.where(
            batch.rec_divisor > 0,
            state.damping * state.prev[batch.rec_vids]
            / np.maximum(batch.rec_divisor, 1),
            0.0)
        # One contribution per record; the batch spreads it along the
        # record's edges.
        batch.reduce_into(np.add, state.next, contrib)
        return full_scan_batch_work(batch, ctx)
