"""Kernel protocol: what the GTS engine requires of a graph algorithm.

The engine (Algorithm 1) is algorithm-agnostic; a kernel supplies:

* **attribute specs** — how many bytes per vertex its WA and RA vectors
  occupy at the paper's field widths (Table 4 accounting), and whether it
  is *traversal* (BFS-like) or *full-scan* (PageRank-like);
* **round control** — :meth:`Kernel.next_round` returns the next
  :class:`RoundPlan` (a set of page IDs, or :data:`ALL_PAGES`), or ``None``
  when the algorithm converged; this is how level-by-level BFS, fixed
  iteration counts (PageRank), fixpoints (WCC) and multi-phase algorithms
  (BC's forward + backward sweeps) all fit one engine loop;
* **the round kernel** — :meth:`Kernel.process_batch`, Appendix B's
  K_SP / K_LP pair as one body over a round's pages as flat arrays (a
  large page is a one-record page; ``rec_divisor`` carries what K_LP
  reads differently).  It updates the kernel's state *in place* and
  returns a :class:`BatchWork` describing the work done per page (edges
  traversed, lane-steps for the timing model, pages to visit next
  level).

Kernels follow BSP snapshot semantics: within a round they read only
values committed by previous rounds and apply commutative, idempotent
updates (min for BFS/SSSP/WCC levels and labels, add for PageRank ranks),
so processing order across pages and GPUs never changes the result — the
property behind the engine's strategy-equivalence tests.
"""

import dataclasses
from typing import Optional

import numpy as np

from repro.core.micro import MicroTechnique, segment_lane_steps

#: Sentinel round plan meaning "stream every page" (Algorithm 1's
#: ``ALL_PAGES`` constant for PageRank-like algorithms).
ALL_PAGES = "ALL_PAGES"


@dataclasses.dataclass
class RoundPlan:
    """What the engine should stream in the next round."""

    #: Either :data:`ALL_PAGES` or an iterable of page IDs.
    pids: object
    description: str = ""


@dataclasses.dataclass
class BatchWork:
    """Work accounting for a whole round processed as one batch.

    The per-page arrays are aligned with the :class:`RoundBatch`'s page
    order: the scheduler books one kernel per page from them and the
    engine sums them into :class:`RoundStats`.
    """

    #: Per-page lane-steps (float64,
    #: :func:`repro.core.micro.segment_lane_steps`).
    lane_steps: np.ndarray
    #: Per-page edges traversed this round (int64).
    edges_traversed: np.ndarray
    #: Per-page active record counts (int64).
    active_vertices: np.ndarray
    #: Sorted unique page IDs discovered for the next round, or None for
    #: full-scan kernels.
    next_pids: Optional[np.ndarray] = None


def frontier_batch_work(frontier, ctx, next_pids=None):
    """:class:`BatchWork` of a round that walked only the edges of
    ``frontier`` (what ``batch.advance(active)`` returned; a filtered
    view charges the same: every advanced edge was inspected)."""
    batch, active = frontier.batch, frontier.active
    return BatchWork(
        lane_steps=ctx.segment_lane_steps(batch, active),
        edges_traversed=batch.active_edges_per_page(active),
        active_vertices=batch.segment_sum(active),
        next_pids=next_pids,
    )


def full_scan_batch_work(batch, ctx, active=None):
    """:class:`BatchWork` of a round that scanned every edge of every
    page of ``batch``; ``active`` (a per-record mask, default all)
    only counts the records that did work."""
    return BatchWork(
        lane_steps=ctx.segment_lane_steps(batch),
        edges_traversed=batch.edges_per_page(),
        active_vertices=(batch.records_per_page() if active is None
                         else batch.segment_sum(active)),
    )


class KernelContext:
    """Engine-provided context handed to every kernel invocation."""

    def __init__(self, db, micro_technique=MicroTechnique.EDGE_CENTRIC):
        self.db = db
        self.micro_technique = MicroTechnique.parse(micro_technique)

    def segment_lane_steps(self, batch, active_mask=None):
        """Per-page lane-steps for a whole :class:`RoundBatch`.

        Full-scan rounds (no active mask) memoise the result on the
        batch per technique: lane-steps depend only on the batch's
        immutable degrees and record layout, so PageRank/WCC-style
        kernels recompute them zero times after the first round.
        """
        if active_mask is None:
            memo = getattr(batch, "_lane_steps_memo", None)
            if memo is None:
                memo = {}
                batch._lane_steps_memo = memo
            steps = memo.get(self.micro_technique)
            if steps is None:
                steps = segment_lane_steps(
                    self.micro_technique, batch.degrees, batch.rec_indptr)
                memo[self.micro_technique] = steps
            return steps
        return segment_lane_steps(
            self.micro_technique, batch.degrees, batch.rec_indptr,
            active_mask)


class Kernel:
    """Base class for GTS graph-algorithm kernels."""

    #: Human-readable algorithm name ("BFS", "PageRank", ...).
    name = "abstract"
    #: True for BFS-like traversal kernels (use nextPIDSet + caching).
    traversal = False
    #: Bytes per vertex of WA at the paper's field widths (Table 4).
    wa_bytes_per_vertex = 0
    #: Bytes per vertex of RA streamed alongside pages (0 if none).
    ra_bytes_per_vertex = 0
    #: Cost of one lane-step in GPU cycles — the algorithm-intensity knob
    #: that separates Table 1's BFS and PageRank rows.
    cycles_per_lane_step = 1.0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def init_state(self, db):
        """Allocate WA/RA vectors and any bookkeeping; returns the state."""
        raise NotImplementedError

    def next_round(self, state):
        """Return the next :class:`RoundPlan`, or None when finished."""
        raise NotImplementedError

    def finish_round(self, state, merged_next_pids):
        """Bulk-synchronisation hook: merge per-GPU nextPIDSets, swap
        double-buffered vectors, test convergence.  ``merged_next_pids``
        is the union of every ``BatchWork.next_pids`` this round (an
        ``int64`` array, possibly empty) or None for full-scan kernels."""

    def results(self, state):
        """Extract the output vectors as a ``{name: ndarray}`` dict."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # The round kernel (Appendix B's K_SP / K_LP over flat arrays)
    # ------------------------------------------------------------------
    def process_batch(self, batch, state, ctx):
        """Process a whole round's :class:`~repro.core.plan.RoundBatch`
        in one shot; returns :class:`BatchWork`.

        This is the only kernel body: the engine runs it for every
        round, faulted or not, and the scheduler books the per-page
        work it reports.  Updates must be commutative across the
        batch's pages (see the module docstring), and the float
        accumulation order is the batch's page-major order.

        A frontier-walking body is ``batch.advance(active)`` plus the
        :class:`~repro.core.plan.Frontier` operators — ``filter(mask)``
        before gathering what only the survivors need,
        ``from_sources(vector)`` for a per-source read, ``pages()`` for
        ``next_pids`` — and returns :func:`frontier_batch_work`; a full
        scan reduces a per-record vector along the batch's edges
        (:meth:`~repro.core.plan.RoundBatch.reduce_into`) and returns
        :func:`full_scan_batch_work`.
        """
        raise NotImplementedError(
            "%s does not implement process_batch" % type(self).__name__)

    # ------------------------------------------------------------------
    # Memory accounting (drives WABuf sizing and O.O.M. behaviour)
    # ------------------------------------------------------------------
    def wa_bytes(self, num_vertices):
        """Total WA footprint at paper field widths (Table 4 numbers)."""
        return num_vertices * self.wa_bytes_per_vertex

    def ra_bytes(self, num_vertices):
        """Total RA footprint (streamed, not resident)."""
        return num_vertices * self.ra_bytes_per_vertex

    def __repr__(self):
        return "%s()" % type(self).__name__

