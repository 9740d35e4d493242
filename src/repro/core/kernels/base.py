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
* **page kernels** — ``process_sp`` / ``process_lp`` mirroring Appendix
  B's two GPU kernels.  They update the kernel's state *in place* and
  return a :class:`PageWork` describing the work done (edges traversed,
  lane-steps for the timing model, pages to visit next level).

Kernels follow BSP snapshot semantics: within a round they read only
values committed by previous rounds and apply commutative, idempotent
updates (min for BFS/SSSP/WCC levels and labels, add for PageRank ranks),
so processing order across pages and GPUs never changes the result — the
property behind the engine's strategy-equivalence tests.
"""

import dataclasses
from typing import Optional

import numpy as np

from repro.core.micro import MicroTechnique, lane_steps, segment_lane_steps
from repro.format.page import PageKind, sorted_scatter_index

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
class PageWork:
    """Work accounting returned by one page-kernel invocation."""

    num_records: int = 0
    active_vertices: int = 0
    edges_traversed: int = 0
    lane_steps: float = 0.0
    #: Page IDs discovered for the next round (``nextPIDSet_GPU`` updates);
    #: None for full-scan kernels.
    next_pids: Optional[np.ndarray] = None


@dataclasses.dataclass
class BatchWork:
    """Work accounting for a whole round processed as one batch.

    The per-page arrays are aligned with the :class:`RoundBatch`'s page
    order, so the engine books streams and updates :class:`RoundStats`
    with exactly the numbers the per-page path would have produced.
    """

    #: Per-page lane-steps (float64, bit-identical to the per-page
    #: :func:`repro.core.micro.lane_steps` values).
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


class KernelContext:
    """Engine-provided context handed to every page-kernel invocation."""

    def __init__(self, db, micro_technique=MicroTechnique.EDGE_CENTRIC):
        self.db = db
        self.micro_technique = MicroTechnique.parse(micro_technique)

    def lane_steps(self, degrees, active_mask=None):
        """Lane-steps for a page under the configured micro technique."""
        return lane_steps(self.micro_technique, degrees, active_mask)

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
        is the union of every ``PageWork.next_pids`` this round (an
        ``int64`` array, possibly empty) or None for full-scan kernels."""

    def results(self, state):
        """Extract the output vectors as a ``{name: ndarray}`` dict."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Page kernels (Appendix B)
    # ------------------------------------------------------------------
    def process_sp(self, page, state, ctx):
        """The small-page kernel (K_SP); returns :class:`PageWork`."""
        raise NotImplementedError

    def process_lp(self, page, state, ctx):
        """The large-page kernel (K_LP); returns :class:`PageWork`."""
        raise NotImplementedError

    def process_page(self, page, state, ctx):
        """Dispatch to the SP or LP kernel based on the page kind."""
        if page.kind is PageKind.SMALL:
            return self.process_sp(page, state, ctx)
        return self.process_lp(page, state, ctx)

    # ------------------------------------------------------------------
    # Batched execution (vectorized fast path)
    # ------------------------------------------------------------------
    def process_batch(self, batch, state, ctx):
        """Process a whole round's :class:`~repro.core.plan.RoundBatch`
        in one shot; returns :class:`BatchWork`.

        Implementations must be *bit-identical* to running
        :meth:`process_page` over the batch's pages in order — same
        state updates, same per-page lane-steps — so the engine can pick
        either path without changing results or simulated timing.
        Every kernel under :mod:`repro.core.kernels` overrides it; the
        engine falls back to the per-page loop for kernels that don't
        (the incremental relaxers of :mod:`repro.dynamic.incremental`).

        A frontier-walking body is ``batch.advance(active)`` plus the
        :class:`~repro.core.plan.Frontier` operators — ``filter(mask)``
        before gathering what only the survivors need,
        ``from_sources(vector)`` for a per-source read, ``pages()`` for
        ``next_pids`` — and returns :func:`frontier_batch_work`; a full
        scan reduces over the batch's scatter space instead.
        """
        raise NotImplementedError(
            "%s does not implement process_batch" % type(self).__name__)

    @classmethod
    def supports_batch(cls):
        """Whether this kernel overrides :meth:`process_batch`."""
        return cls.process_batch is not Kernel.process_batch

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


def edge_expand(page, active_mask):
    """Shared helper: expand an active-record mask to edge granularity.

    Returns ``(targets, target_pids, weights, sources_idx)`` for the edges
    of active records:  ``targets`` are logical neighbour VIDs (already
    RVT-translated), ``target_pids`` the pages holding them (for
    nextPIDSet updates), ``weights`` the edge weights or None, and
    ``sources_idx`` maps each edge back to its record index in the page.
    """
    degrees = page.degrees()
    if page.kind is PageKind.SMALL:
        mask_per_edge = np.repeat(active_mask, degrees)
        targets = page.adj_vids[mask_per_edge]
        target_pids = page.adj_pids[mask_per_edge]
        weights = (page.adj_weights[mask_per_edge]
                   if page.adj_weights is not None else None)
        record_idx = np.repeat(
            np.arange(page.num_records, dtype=np.int64), degrees)
        sources_idx = record_idx[mask_per_edge]
        return targets, target_pids, weights, sources_idx
    # Large page: one record; either all edges or none.
    if not active_mask[0]:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, None, empty
    weights = page.adj_weights if page.adj_weights is not None else None
    sources_idx = np.zeros(page.num_edges, dtype=np.int64)
    return page.adj_vids, page.adj_pids, weights, sources_idx


def page_scatter_index(page, db=None):
    """Fetch (or compute) a page's sorted-scatter index.

    When ``db`` offers a database-level cache (``db.scatter_index``), the
    index is keyed by ``(page_id, topology_version)`` there, so it
    survives :class:`~repro.format.io.FileBackedDatabase` pool evictions
    — the page *object* may be re-parsed from bytes, but the argsort is
    not redone.  Without a database the index is cached on the page
    object as before (``page._scatter_index``).
    Returns ``(order, unique_targets, segment_starts)``.
    """
    if db is not None:
        db_index = getattr(db, "scatter_index", None)
        if db_index is not None:
            return db_index(page)
    cached = getattr(page, "_scatter_index", None)
    if cached is not None:
        return cached
    cached = sorted_scatter_index(page.adj_vids)
    page._scatter_index = cached
    return cached


def scatter_add(target_vector, page, per_edge_values, db=None):
    """Add per-edge contributions into ``target_vector`` (atomicAdd)."""
    order, unique_targets, starts = page_scatter_index(page, db)
    if len(unique_targets) == 0:
        return
    sums = np.add.reduceat(per_edge_values[order], starts)
    target_vector[unique_targets] += sums


def scatter_min(target_vector, page, per_edge_values, db=None):
    """Min-combine per-edge contributions into ``target_vector``."""
    order, unique_targets, starts = page_scatter_index(page, db)
    if len(unique_targets) == 0:
        return
    mins = np.minimum.reduceat(per_edge_values[order], starts)
    target_vector[unique_targets] = np.minimum(
        target_vector[unique_targets], mins)
