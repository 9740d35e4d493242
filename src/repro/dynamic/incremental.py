"""Incremental recomputation: restream only the pages a batch dirtied.

After a mutation batch, rerunning BFS or WCC from scratch restreams the
whole topology even though most results cannot have changed.  For
*insert-only* batches both algorithms are monotone: a new edge can only
lower a BFS level or a WCC label downstream of its source.  So instead
of restarting, we seed the engine's existing traversal machinery — the
``nextPIDSet`` path that already powers level-synchronous BFS — with the
pages of the inserted edges' sources, carry the previous run's result
vector as the starting state, and relax to a fixpoint.  Only pages
reachable from the batch restream; a batch touching <10 % of vertices
streams strictly fewer pages than a full rerun (the bench asserts this).

Deletions are not monotone (removing an edge can *raise* levels
downstream, which relaxation cannot express), so batches containing
deletes are rejected with :class:`~repro.errors.UpdateError` — callers
fall back to a full rerun, matching the classification in "Accelerating
Dynamic Graph Analytics on GPUs" (Sha et al.).

Both kernels speak the ordinary :class:`~repro.core.kernels.base.Kernel`
protocol, so they run unmodified on :class:`~repro.core.engine.GTSEngine`
with all its caching, scheduling and observability intact.
"""

import numpy as np

from repro.core.kernels.base import Kernel, RoundPlan, frontier_batch_work
from repro.core.kernels.bfs import UNVISITED
from repro.errors import ConfigurationError, UpdateError


def insert_seeds(batches):
    """Sources of all inserted edges across ``batches`` (deduplicated).

    Raises :class:`UpdateError` when any batch contains deletions —
    incremental relaxation only supports monotone (insert-only) batches.
    """
    seeds = []
    for batch in batches:
        if batch.has_deletes:
            raise UpdateError(
                "incremental recomputation requires insert-only batches; "
                "rerun from scratch after deletions")
        seeds.extend(op[1] for op in batch.ops if op[0] == "+")
    return np.unique(np.asarray(seeds, dtype=np.int64))


class _RelaxState:
    """Shared state for monotone relaxation from a seed set."""

    def __init__(self, db, values, seeds):
        self.db = db
        self.values = values
        self.pending = np.zeros(db.num_vertices, dtype=bool)
        self.next_pending = np.zeros(db.num_vertices, dtype=bool)
        self.round_index = 0
        live = seeds[seeds < db.num_vertices]
        self.pending[live] = True
        if len(live):
            self.frontier_pids = np.unique(db.vertex_page[live])
        else:
            self.frontier_pids = np.empty(0, dtype=np.int64)


class _IncrementalRelaxKernel(Kernel):
    """Monotone min-relaxation seeded from a batch's insert sources.

    Subclasses define how a source's value propagates along an edge
    (``_candidates``) and which sources can relax at all
    (``_can_relax``).

    ``process_batch`` walks the round as a sequence of one-page
    batches, because relaxation reads the *live* value vector: a source
    an earlier page of the round improved already pushes its improved
    value from a later page of the same round.  Reading round-start
    values everywhere would reach the same fixpoint in more rounds over
    different page sets, hence at a different simulated time.
    """

    traversal = True

    def __init__(self, prior, seeds):
        self.prior = np.asarray(prior)
        self.seeds = np.asarray(seeds, dtype=np.int64)

    # -- subclass hooks ------------------------------------------------
    def _initial_values(self, db):
        raise NotImplementedError

    def _candidates(self, source_values):
        raise NotImplementedError

    def _can_relax(self, values):
        return np.ones(len(values), dtype=bool)

    # -- kernel protocol ----------------------------------------------
    def init_state(self, db):
        if len(self.prior) > db.num_vertices:
            raise ConfigurationError(
                "prior vector covers %d vertices but the database has %d"
                % (len(self.prior), db.num_vertices))
        return _RelaxState(db, self._initial_values(db), self.seeds)

    def next_round(self, state):
        if len(state.frontier_pids) == 0:
            return None
        return RoundPlan(pids=state.frontier_pids,
                         description="relax round %d" % state.round_index)

    def finish_round(self, state, merged_next_pids):
        state.round_index += 1
        state.pending, state.next_pending = (
            state.next_pending, state.pending)
        state.next_pending[:] = False
        if merged_next_pids is None:
            merged_next_pids = np.empty(0, dtype=np.int64)
        state.frontier_pids = merged_next_pids

    def process_batch(self, batch, state, ctx):
        values = state.values
        rows = [np.empty(0, dtype=np.int64)]
        next_pages = np.zeros(state.db.num_pages, dtype=bool)
        bounds = batch.rec_indptr.tolist()
        for k, page in enumerate(batch.one_page_batches()):
            vids = page.rec_vids
            page_active = (state.pending[vids]
                           & self._can_relax(values[vids]))
            if not page_active.any():
                continue
            frontier = page.advance(page_active)
            rows.append(bounds[k] + frontier.rows)
            candidates = self._candidates(frontier.from_sources(values))
            improved = frontier.filter(
                candidates < values[frontier.targets])
            np.minimum.at(values, improved.targets,
                          candidates[improved.keep])
            state.next_pending[improved.targets] = True
            next_pages[improved.target_pids] = True
        # The round's work is accounted once, from every page's rows.
        return frontier_batch_work(batch, np.concatenate(rows), ctx,
                                   next_pids=np.flatnonzero(next_pages))


class IncrementalBFSKernel(_IncrementalRelaxKernel):
    """Continue a BFS after edge inserts, relaxing only dirtied pages.

    ``prior`` is the previous run's ``level`` vector (``UNVISITED`` for
    unreached vertices); ``seeds`` the inserted edges' sources (see
    :func:`insert_seeds`).  Results carry the same ``level`` key as
    :class:`~repro.core.kernels.bfs.BFSKernel`, so equivalence checks
    compare directly.
    """

    name = "BFS (incremental)"
    wa_bytes_per_vertex = 2
    cycles_per_lane_step = 32.0

    #: Internal "unreached" distance; any reachable level is smaller.
    _INF = np.int64(2) ** 40

    def _initial_values(self, db):
        values = np.full(db.num_vertices, self._INF, dtype=np.int64)
        reached = np.flatnonzero(self.prior != UNVISITED)
        values[reached] = self.prior[reached]
        return values

    def _candidates(self, source_values):
        return source_values + 1

    def _can_relax(self, values):
        # An unreached source has nothing to propagate.
        return values < self._INF

    def results(self, state):
        level = np.full(state.db.num_vertices, UNVISITED, dtype=np.int32)
        reached = np.flatnonzero(state.values < self._INF)
        level[reached] = state.values[reached].astype(np.int32)
        return {"level": level}


class IncrementalWCCKernel(_IncrementalRelaxKernel):
    """Continue min-label propagation after edge inserts.

    ``prior`` is the previous run's ``component`` vector; vertices added
    since then start with their own ID as label.  Labels flow along
    directed edges exactly as in
    :class:`~repro.core.kernels.wcc.WCCKernel`, so symmetrised inputs
    need both edge directions inserted.
    """

    name = "CC (incremental)"
    wa_bytes_per_vertex = 8
    cycles_per_lane_step = 28.0

    def _initial_values(self, db):
        values = np.arange(db.num_vertices, dtype=np.int64)
        values[:len(self.prior)] = self.prior
        return values

    def _candidates(self, source_values):
        return source_values

    def results(self, state):
        return {"component": state.values.copy()}


def incremental_bfs(db, prior_levels, batches):
    """An engine-ready kernel continuing ``prior_levels`` after ``batches``."""
    return IncrementalBFSKernel(prior_levels, insert_seeds(batches))


def incremental_wcc(db, prior_labels, batches):
    """An engine-ready kernel continuing ``prior_labels`` after ``batches``."""
    return IncrementalWCCKernel(prior_labels, insert_seeds(batches))
