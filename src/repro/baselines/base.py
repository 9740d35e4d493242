"""The one runner every compared system shares (Sections 7 and 8).

Each baseline executes the shared BSP trace (:mod:`repro.baselines.bsp`)
and prices it with its own cost model.  :meth:`Baseline.run` is the one
entry point, keyed by the algorithm table (:mod:`repro.core.algorithms`):
it resolves the parameters, fetches the trace, checks memory and builds
the result.  A family supplies only what differs: the memory it needs
(:meth:`~Baseline.footprint`), the memory it has
(:meth:`~Baseline.capacity`) and what the supersteps cost
(:meth:`~Baseline.elapsed`).
"""

import time as _time

import numpy as np

from repro.baselines import bsp
from repro.core.algorithms import ALGORITHMS, check_parameters
from repro.core.result import RunResult
from repro.errors import ConfigurationError, OutOfMemoryError


class Baseline:
    """A compared system: one :meth:`run` over its family's hooks.

    The hooks get the row's ``kernel``, whose ``name`` is the paper's
    label (``BFS``, ``PageRank``, ...) and whose ``cycles_per_lane_step``
    is the GPU per-edge cost, and the superstep ``trace``.
    """

    name = "abstract"
    #: GPUs and host threads the result reports.
    num_gpus = 0
    num_streams = 0

    def footprint(self, graph, kernel, trace):
        """Bytes of memory the run needs."""
        raise NotImplementedError

    def capacity(self):
        """Bytes of memory the engine has."""
        raise NotImplementedError

    def elapsed(self, graph, kernel, trace, dataset_name):
        """Simulated seconds of the trace's supersteps."""
        raise NotImplementedError

    def run(self, algorithm, graph, params=None, dataset_name=None):
        """Run table key ``algorithm`` on ``graph``.  ``params`` go
        through :func:`~repro.core.algorithms.check_parameters`; ``start``
        defaults to the max-out-degree vertex.  Raises
        :class:`~repro.errors.OutOfMemoryError` when the footprint exceeds
        the capacity."""
        wall_start = _time.perf_counter()
        if algorithm not in bsp.TRACERS:
            raise ConfigurationError(
                "%s runs %s, not %r" % (self.name,
                                        ", ".join(sorted(bsp.TRACERS)),
                                        algorithm))
        params = check_parameters(params or {}, graph.num_vertices)
        if params["start"] is None:
            params["start"] = int(np.argmax(graph.out_degrees()))
        kernel = ALGORITHMS[algorithm].factory(params, params["start"])
        trace = bsp.cached_trace(graph, algorithm, params)
        required = self.footprint(graph, kernel, trace)
        available = self.capacity()
        if required > available:
            raise OutOfMemoryError(
                "%s needs %d bytes for %s but has %d"
                % (self.name, required, kernel.name, available),
                required_bytes=required, available_bytes=available)
        return RunResult(
            algorithm=kernel.name,
            dataset=dataset_name or "graph",
            values=trace.values,
            elapsed_seconds=self.elapsed(graph, kernel, trace,
                                         dataset_name),
            wall_seconds=_time.perf_counter() - wall_start,
            num_rounds=trace.num_supersteps,
            rounds=[],
            edges_traversed=trace.total_edges(),
            num_gpus=self.num_gpus,
            num_streams=self.num_streams,
            strategy="",
            engine=self.name,
        )
