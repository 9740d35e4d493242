"""Effective-radius estimation kernel (PageRank-like family, Section 3.3).

The paper lists "radius estimations" among the linear-scan algorithms.
This kernel implements the HADI/Flajolet–Martin approach (Kang et al.,
ICDM 2008): every vertex carries ``num_sketches`` FM bitmask sketches of
the vertex set it can reach; each round ORs every vertex's sketches into
its out-neighbours' (a full topology scan, like one PageRank iteration),
so after ``h`` rounds vertex ``v``'s sketches estimate ``|N(v, h)|`` —
the number of vertices reachable within ``h`` hops.

The *effective radius* of ``v`` is the smallest ``h`` at which
``|N(v, h)|`` reaches 90 % of its final value; the estimated diameter is
the maximum effective radius.  Estimates carry the usual FM error
(~1/sqrt(num_sketches)); tests therefore check calibrated bounds rather
than exact counts.

WA is the sketch array (``4 * num_sketches`` bytes per vertex).
"""

import numpy as np

from repro.core.kernels.base import (
    ALL_PAGES,
    Kernel,
    RoundPlan,
    full_scan_batch_work,
)
from repro.errors import ConfigurationError

#: Bits per FM sketch (uint32 masks estimate sets up to ~2^30).
_SKETCH_BITS = 32
#: Flajolet–Martin bias correction constant.
_FM_PHI = 0.77351


def _fm_least_zero_bit(masks):
    """Index of the lowest zero bit of each mask (vectorised)."""
    # ~mask has a 1 where mask has its lowest 0; isolate it and log2 it.
    inverted = ~masks
    lowest = inverted & (-inverted.astype(np.int64)).astype(np.uint32)
    return np.where(lowest == 0, _SKETCH_BITS,
                    np.log2(np.maximum(lowest, 1)).astype(np.int64))


def fm_estimate(sketches):
    """Estimated set cardinality from an ``(..., num_sketches)`` array."""
    bits = _fm_least_zero_bit(sketches)
    mean_bit = bits.mean(axis=-1)
    return (2.0 ** mean_bit) / _FM_PHI


class _RadiusState:
    def __init__(self, db, num_sketches, max_hops, seed):
        num_vertices = db.num_vertices
        rng = np.random.default_rng(seed)
        # Initialise each vertex's sketches with one geometric bit for
        # itself (the classic FM insertion).
        geometric = rng.geometric(0.5, size=(num_vertices, num_sketches))
        bit = np.minimum(geometric - 1, _SKETCH_BITS - 1)
        self.sketches = (np.uint32(1) << bit.astype(np.uint32))
        self.prev = self.sketches.copy()
        self.neighbourhood = np.zeros((max_hops + 1, num_vertices))
        self.neighbourhood[0] = fm_estimate(self.sketches)
        self.hop = 0
        self.changed = True


class RadiusKernel(Kernel):
    """HADI-style effective radius / diameter estimation."""

    name = "Radius"
    traversal = False
    ra_bytes_per_vertex = 0
    cycles_per_lane_step = 48.0   # per-edge multi-word OR

    def __init__(self, num_sketches=8, max_hops=16, threshold=0.9, seed=0):
        if num_sketches < 1:
            raise ConfigurationError("need at least one sketch")
        if max_hops < 1:
            raise ConfigurationError("need at least one hop")
        if not 0.0 < threshold <= 1.0:
            raise ConfigurationError("threshold must be in (0, 1]")
        self.num_sketches = num_sketches
        self.max_hops = max_hops
        self.threshold = threshold
        self.seed = seed

    @property
    def wa_bytes_per_vertex(self):
        return 4 * self.num_sketches

    def init_state(self, db):
        return _RadiusState(db, self.num_sketches, self.max_hops,
                            self.seed)

    def next_round(self, state):
        if state.hop >= self.max_hops or not state.changed:
            return None
        return RoundPlan(pids=ALL_PAGES,
                         description="sketch propagation hop %d"
                         % (state.hop + 1))

    def finish_round(self, state, merged_next_pids):
        state.hop += 1
        state.neighbourhood[state.hop] = fm_estimate(state.sketches)
        state.changed = bool(
            np.any(state.sketches != state.prev))
        state.prev = state.sketches.copy()

    def results(self, state):
        reached = state.neighbourhood[:state.hop + 1]
        final = reached[-1]
        # Effective radius: first hop reaching threshold * final estimate.
        target = self.threshold * final
        radius = np.full(len(final), state.hop, dtype=np.int32)
        for hop in range(state.hop, -1, -1):
            radius[reached[hop] >= target] = hop
        return {
            "effective_radius": radius,
            "neighbourhood_sizes": reached.copy(),
            "estimated_diameter": np.asarray([int(radius.max())]),
        }

    # ------------------------------------------------------------------
    def process_batch(self, batch, state, ctx):
        # OR each record's sketch row into its targets'; OR is idempotent
        # and commutative, so the order segments of different pages
        # reach a shared target in cannot matter.
        batch.reduce_into(np.bitwise_or, state.sketches,
                          state.prev[batch.rec_vids])
        work = full_scan_batch_work(batch, ctx)
        work.lane_steps = work.lane_steps * self.num_sketches
        return work
