"""k-hop neighborhood kernel (BFS-like family, Section 3.3).

"Neighborhood" in the paper's algorithm list: the set of vertices within
``hops`` steps of a query vertex.  Structurally a depth-capped BFS, so
this kernel reuses the BFS body and stops expanding once the cap
is reached — only the pages of the first ``hops`` frontiers are ever
streamed, which is the access pattern that motivates nextPIDSet.
"""

import numpy as np

from repro.core.kernels.bfs import BFSKernel, UNVISITED
from repro.errors import ConfigurationError


class NeighborhoodKernel(BFSKernel):
    """Membership of the ``hops``-hop out-neighbourhood of a vertex."""

    name = "Neighborhood"

    def __init__(self, query_vertex=0, hops=2):
        super().__init__(start_vertex=query_vertex)
        if hops < 0:
            raise ConfigurationError("hops must be nonnegative")
        self.hops = hops

    def next_round(self, state):
        if state.cur_level >= self.hops:
            return None
        return super().next_round(state)

    def results(self, state):
        levels = state.level
        member = (levels != UNVISITED) & (levels <= self.hops)
        return {
            "member": member,
            "hop": np.where(member, levels, UNVISITED).astype(np.int32),
        }
