"""Betweenness Centrality kernel (BFS-like family, Appendix D).

Brandes' algorithm over a set of sample sources, expressed as engine
rounds.  For each source the kernel runs two page-streamed phases:

1. **forward** — a level-synchronous BFS that also accumulates ``sigma``
   (the number of shortest paths reaching each vertex).  Each level is one
   engine round streaming the frontier's pages, exactly like BFS.
2. **backward** — Brandes' dependency accumulation, one round per level
   from the deepest back to the source: for each edge ``(v, t)`` with
   ``lv[t] == lv[v] + 1``, ``delta[v] += sigma[v] / sigma[t] * (1 + delta[t])``.
   The pages visited per level were recorded during the forward phase, so
   the backward sweep streams only relevant pages too.

The reported centrality is the raw Brandes sum over the configured
sources (no rescaling); the reference implementation uses the same
convention so results compare exactly.

WA is three vectors (level, sigma, delta ≈ 10 bytes/vertex at paper
widths) — the heaviest WA of the implemented algorithms, which is why the
paper runs BC in single-node mode only (Appendix D).
"""

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
            targets = frontier.targets
            # No vertex holds level ``cur_level + 1`` before this round,
            # so "fresh" is judged against the round-start levels and
            # "counted" is every frontier edge into a fresh vertex: each
            # contributes its source's sigma (path counting).
            fresh = frontier.filter(state.level[targets] == UNVISITED)
            state.level[fresh.targets] = state.cur_level + 1
            counted = frontier.filter(
                state.level[targets] == state.cur_level + 1)
            # Sources sit at ``cur_level`` and counted targets one level
            # down, so the sigma read and written are disjoint;
            # duplicate targets need the unbuffered add, which runs in
            # edge (page-major) order.
            np.add.at(state.sigma, counted.targets,
                      counted.from_sources(state.sigma))
            return frontier_batch_work(batch, frontier.rows, ctx,
                                       next_pids=fresh.pages())
        active = state.level[batch.rec_vids] == state.backward_level
        frontier = batch.advance(active)
        downstream = frontier.filter(
            state.level[frontier.targets] == state.backward_level + 1)
        sources = downstream.sources
        targets = downstream.targets
        ratio = np.zeros(len(targets))
        target_sigma = state.sigma[targets]
        valid = np.flatnonzero(target_sigma > 0)
        ratio[valid] = state.sigma[sources[valid]] / target_sigma[valid]
        # Reads delta one level down, writes this level: disjoint.
        # Summed per source record in edge order; large-page chunks
        # contribute commutative partial sums.
        np.add.at(state.delta, sources,
                  ratio * (1.0 + state.delta[targets]))
        return frontier_batch_work(batch, frontier.rows, ctx)
