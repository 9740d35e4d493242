"""Induced-subgraph and egonet kernels (Section 3.3's algorithm list).

* :class:`InducedSubgraphKernel` — given a vertex set, one full topology
  scan finds the edges with both endpoints inside the set (the induced
  subgraph), reporting per-vertex internal degrees, the edge count, and
  optionally the edges themselves.
* :class:`EgonetKernel` — the egonet of a vertex is the induced subgraph
  over the vertex and its neighbours; this kernel runs a 1-hop
  neighbourhood phase (BFS-like: only the ego's pages stream) followed by
  an induced-subgraph scan, two phases in one engine run — like BC, a
  multi-phase traversal expressed through the round protocol.

Both need the membership flags resident for random target lookups, so
the flag vector is accounted as WA alongside the counters (as with the
cross-edges kernel).
"""

import numpy as np

from repro.core.kernels.base import (
    ALL_PAGES,
    Kernel,
    RoundPlan,
    frontier_batch_work,
    full_scan_batch_work,
)
from repro.errors import ConfigurationError


class _InducedState:
    def __init__(self, db, member):
        self.member = member
        self.internal_degree = np.zeros(db.num_vertices, dtype=np.int64)
        self.num_edges = 0
        self.edges = []
        self.done = False


class InducedSubgraphKernel(Kernel):
    """Edges of the subgraph induced by a vertex set, in one scan."""

    name = "InducedSubgraph"
    traversal = False
    wa_bytes_per_vertex = 5       # member flag (1 B) + counter (4 B)
    ra_bytes_per_vertex = 0
    cycles_per_lane_step = 16.0

    def __init__(self, vertex_set, collect_edges=False):
        self.vertex_set = np.asarray(vertex_set)
        if self.vertex_set.dtype != bool and self.vertex_set.ndim != 1:
            raise ConfigurationError(
                "vertex_set must be a boolean mask or an ID list")
        #: Collecting the actual edge list costs host memory; counting
        #: alone keeps WA at the documented footprint.
        self.collect_edges = collect_edges

    def _membership_mask(self, num_vertices):
        if self.vertex_set.dtype == bool:
            if len(self.vertex_set) != num_vertices:
                raise ConfigurationError(
                    "membership mask covers %d vertices, graph has %d"
                    % (len(self.vertex_set), num_vertices))
            return self.vertex_set.copy()
        mask = np.zeros(num_vertices, dtype=bool)
        ids = self.vertex_set.astype(np.int64)
        if len(ids) and (ids.min() < 0 or ids.max() >= num_vertices):
            raise ConfigurationError("vertex ID outside the graph")
        mask[ids] = True
        return mask

    def init_state(self, db):
        return _InducedState(db, self._membership_mask(db.num_vertices))

    def next_round(self, state):
        if state.done:
            return None
        return RoundPlan(pids=ALL_PAGES, description="induced scan")

    def finish_round(self, state, merged_next_pids):
        state.done = True

    def results(self, state):
        results = {
            "member": state.member.copy(),
            "internal_degree": state.internal_degree.copy(),
            "num_induced_edges": np.asarray([state.num_edges]),
        }
        if self.collect_edges:
            results["edges"] = (np.asarray(state.edges, dtype=np.int64)
                                if state.edges
                                else np.empty((0, 2), dtype=np.int64))
        return results

    # ------------------------------------------------------------------
    def process_batch(self, batch, state, ctx):
        active = state.member[batch.rec_vids]
        frontier = batch.advance(active)
        inside = frontier.filter(state.member[frontier.targets])
        sources = inside.sources
        targets = inside.targets
        state.num_edges += len(targets)
        np.add.at(state.internal_degree, sources, 1)
        if self.collect_edges:
            # Batch order is dispatch order.
            state.edges.extend(zip(sources.tolist(), targets.tolist()))
        # The scan is charged for the whole page, members or not.
        return full_scan_batch_work(batch, ctx, active=active)


class _EgonetState(_InducedState):
    def __init__(self, db, ego):
        member = np.zeros(db.num_vertices, dtype=bool)
        member[ego] = True
        super().__init__(db, member)
        self.db = db
        self.ego = ego
        self.phase = "expand"
        self.ego_pids = np.asarray([db.page_for_vertex(ego)],
                                   dtype=np.int64)


class EgonetKernel(InducedSubgraphKernel):
    """The ego vertex, its out-neighbours, and all edges among them."""

    name = "Egonet"
    traversal = True

    def __init__(self, ego_vertex=0, collect_edges=False):
        super().__init__(np.zeros(0, dtype=np.int64),
                         collect_edges=collect_edges)
        if ego_vertex < 0:
            raise ConfigurationError("ego vertex must be nonnegative")
        self.ego_vertex = ego_vertex

    def init_state(self, db):
        if self.ego_vertex >= db.num_vertices:
            raise ConfigurationError(
                "ego vertex %d outside graph of %d vertices"
                % (self.ego_vertex, db.num_vertices))
        return _EgonetState(db, self.ego_vertex)

    def next_round(self, state):
        if state.phase == "expand":
            return RoundPlan(pids=state.ego_pids,
                             description="ego expansion")
        if state.phase == "scan":
            return RoundPlan(pids=ALL_PAGES, description="egonet scan")
        return None

    def finish_round(self, state, merged_next_pids):
        if state.phase == "expand":
            state.phase = "scan"
        else:
            state.phase = "done"

    # ------------------------------------------------------------------
    def process_batch(self, batch, state, ctx):
        if state.phase != "expand":
            return super().process_batch(batch, state, ctx)
        active = batch.rec_vids == state.ego
        frontier = batch.advance(active)
        state.member[frontier.targets] = True
        return frontier_batch_work(batch, frontier.rows, ctx)
