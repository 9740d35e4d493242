"""Betweenness Centrality kernel (BFS-like family, Appendix D).

Brandes' algorithm over a set of sample sources, expressed as engine
rounds.  For each source the kernel runs two page-streamed phases:

1. **forward** — a level-synchronous BFS that also accumulates ``sigma``
   (the number of shortest paths reaching each vertex).  Each level is one
   engine round streaming the frontier's pages, exactly like BFS.
2. **backward** — Brandes' dependency accumulation, one round per level
   from the deepest back to the source: for each edge ``(v, t)`` with
   ``lv[t] == lv[v] + 1``, ``delta[v] += sigma[v] / sigma[t] * (1 + delta[t])``.
   The forward round at level ``l`` records its pages, its work and its
   shortest-path DAG edges into level ``l + 1`` (Brandes' stack ``S``
   as arrays).  Levels are final once the forward sweep ends, so the
   backward round at ``l`` streams the same pages with the same active
   records: its edges are that record, in the same order, and its work
   the same.  Its body reads the record and touches no batch field.

The reported centrality is the raw Brandes sum over the configured
sources (no rescaling); the reference implementation uses the same
convention so results compare exactly.

WA is three vectors (level, sigma, delta ≈ 10 bytes/vertex at paper
widths) — the heaviest WA of the implemented algorithms, which is why the
paper runs BC in single-node mode only (Appendix D).
"""

import dataclasses

import numpy as np

from repro.core.kernels.base import (
    Kernel,
    RoundPlan,
    frontier_batch_work,
)
from repro.errors import ConfigurationError

UNVISITED = -1


class _BCState:
    def __init__(self, db, sources):
        self.db = db
        self.sources = list(sources)
        self.source_index = 0
        self.centrality = np.zeros(db.num_vertices)
        self.phase = "forward"
        self._reset_for_source()

    def _reset_for_source(self):
        db = self.db
        source = self.sources[self.source_index]
        self.level = np.full(db.num_vertices, UNVISITED, dtype=np.int32)
        self.sigma = np.zeros(db.num_vertices)
        self.delta = np.zeros(db.num_vertices)
        self.level[source] = 0
        self.sigma[source] = 1.0
        self.cur_level = 0
        self.frontier_pids = np.asarray(
            [db.page_for_vertex(source)], dtype=np.int64)
        #: pids_at_level[l] — pages holding level-l vertices, recorded on
        #: the way down and replayed on the way up.
        self.pids_at_level = {0: self.frontier_pids}
        #: dag[l] — the forward round at level l's work and the sources
        #: / targets of its edges into level l + 1, in edge order.
        self.dag = {}
        self.phase = "forward"
        self.backward_level = None


class BCKernel(Kernel):
    """Sampled betweenness centrality (Brandes over ``sources``)."""

    name = "BC"
    traversal = True
    wa_bytes_per_vertex = 10      # level (2B) + sigma (4B) + delta (4B)
    ra_bytes_per_vertex = 0
    cycles_per_lane_step = 40.0

    def __init__(self, sources=(0,)):
        sources = tuple(sources)
        if not sources:
            raise ConfigurationError("BC needs at least one source")
        self.sources = sources

    def init_state(self, db):
        for source in self.sources:
            if source < 0 or source >= db.num_vertices:
                raise ConfigurationError(
                    "source %d outside graph of %d vertices"
                    % (source, db.num_vertices))
        return _BCState(db, self.sources)

    # ------------------------------------------------------------------
    # Round control: forward levels, then backward levels, per source.
    # ------------------------------------------------------------------
    def next_round(self, state):
        while True:
            if state.phase == "forward":
                if len(state.frontier_pids):
                    return RoundPlan(
                        pids=state.frontier_pids,
                        description="source %d forward level %d"
                        % (state.sources[state.source_index],
                           state.cur_level))
                # Forward exhausted: start the backward sweep one level
                # above the deepest level that discovered anything.
                state.phase = "backward"
                state.backward_level = state.cur_level - 1
            if state.phase == "backward":
                while state.backward_level is not None and state.backward_level >= 0:
                    pids = state.pids_at_level.get(state.backward_level)
                    if pids is not None and len(pids):
                        return RoundPlan(
                            pids=pids,
                            description="source %d backward level %d"
                            % (state.sources[state.source_index],
                               state.backward_level))
                    state.backward_level -= 1
                # Source finished: bank its dependencies, move on.
                self._finish_source(state)
                if state.source_index >= len(state.sources):
                    return None
                # Loop back to emit the next source's first forward round.

    def _finish_source(self, state):
        source = state.sources[state.source_index]
        contribution = state.delta.copy()
        contribution[source] = 0.0
        state.centrality += contribution
        state.source_index += 1
        if state.source_index < len(state.sources):
            state._reset_for_source()

    def finish_round(self, state, merged_next_pids):
        if state.phase == "forward":
            state.cur_level += 1
            if merged_next_pids is None:
                merged_next_pids = np.empty(0, dtype=np.int64)
            state.frontier_pids = merged_next_pids
            if len(merged_next_pids):
                state.pids_at_level[state.cur_level] = merged_next_pids
        else:
            state.backward_level -= 1

    def results(self, state):
        return {"centrality": state.centrality.copy()}

    # ------------------------------------------------------------------
    def process_batch(self, batch, state, ctx):
        if state.phase == "forward":
            active = state.level[batch.rec_vids] == state.cur_level
            frontier = batch.advance(active)
            # No vertex holds level ``cur_level + 1`` before this round,
            # so the edges into fresh vertices are the DAG edges into
            # the next level: each contributes its source's sigma (path
            # counting).
            fresh = frontier.filter(
                state.level[frontier.targets] == UNVISITED)
            targets = fresh.targets
            state.level[targets] = state.cur_level + 1
            # Sources sit at ``cur_level`` and targets one level down,
            # so the sigma read and written are disjoint; duplicate
            # targets need the unbuffered add, which runs in edge
            # (page-major) order.
            sources = fresh.sources
            np.add.at(state.sigma, targets, state.sigma[sources])
            work = frontier_batch_work(batch, frontier.rows, ctx)
            state.dag[state.cur_level] = (work, sources, targets)
            return dataclasses.replace(work, next_pids=fresh.pages())
        work, sources, targets = state.dag.pop(state.backward_level)
        # A DAG target's sigma is at least its parent's, which is at
        # least 1.  Reads delta one level down, writes this level:
        # disjoint.  Summed per source record in edge order; large-page
        # chunks contribute commutative partial sums.
        np.add.at(state.delta, sources, state.sigma[sources]
                  / state.sigma[targets] * (1.0 + state.delta[targets]))
        return work
