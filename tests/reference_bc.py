"""Body oracle for the BC kernel.

:class:`ReferenceBCKernel` runs :class:`~repro.core.kernels.bc.BCKernel`'s
round control with the body that rebuilt the shortest-path DAG on the
way back: the forward round filters its frontier twice (fresh targets,
then targets at the next level after the write), and each backward
round re-advances the level's records and re-filters their edges into
the level below, with a ``sigma > 0`` guard on the ratio.  The tests
require the kernel that records the DAG on the way down and reads it
on the way back to leave every value, simulated time and round
statistic where this body leaves them.
"""

import numpy as np

from repro.core.kernels.base import frontier_batch_work
from repro.core.kernels.bc import UNVISITED, BCKernel


class ReferenceBCKernel(BCKernel):
    def process_batch(self, batch, state, ctx):
        if state.phase == "forward":
            active = state.level[batch.rec_vids] == state.cur_level
            frontier = batch.advance(active)
            targets = frontier.targets
            fresh = frontier.filter(state.level[targets] == UNVISITED)
            state.level[fresh.targets] = state.cur_level + 1
            counted = frontier.filter(
                state.level[targets] == state.cur_level + 1)
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
        np.add.at(state.delta, sources,
                  ratio * (1.0 + state.delta[targets]))
        return frontier_batch_work(batch, frontier.rows, ctx)
