"""Cost-based configuration optimizer (the Section 5 payoff).

The paper presents its cost models so that performance can be "further
improve[d] later through the cost-based optimization".  This module
implements that step: given a database, a machine and a kernel, it
predicts elapsed time for every candidate (strategy, stream count)
configuration from the analytic models plus a pipeline refinement, checks
device-memory feasibility the same way the engine does, and recommends
the cheapest feasible configuration.

The pipeline refinement extends Equation 1 with the stream-count
behaviour of Section 3.2: per-page kernels run at the underutilised
single-stream rate, so with ``k`` streams the compute side of the
pipeline drains at ``min(k / u, 1)`` of device throughput; elapsed time
is the bottleneck of the transfer and compute sides.
"""

import dataclasses
from typing import Tuple

from repro.core.strategies import make_strategy
from repro.errors import CapacityError

#: Stream counts the optimizer considers (Figure 10's sweep).
DEFAULT_STREAM_CHOICES = (1, 2, 4, 8, 16, 32)


@dataclasses.dataclass(frozen=True)
class ConfigurationChoice:
    """One evaluated candidate configuration."""

    strategy: str
    num_streams: int
    estimated_seconds: float
    feasible: bool
    reason: str = ""


@dataclasses.dataclass(frozen=True)
class Recommendation:
    """The optimizer's output: the winner plus every evaluated option."""

    best: ConfigurationChoice
    candidates: Tuple[ConfigurationChoice, ...]

    def describe(self):
        lines = ["cost-based recommendation: Strategy-%s with %d streams "
                 "(estimated %.6f s)"
                 % (self.best.strategy[0].upper(), self.best.num_streams,
                    self.best.estimated_seconds)]
        for choice in self.candidates:
            marker = "*" if choice == self.best else " "
            status = ("%.6f s" % choice.estimated_seconds
                      if choice.feasible else "infeasible (%s)" % choice.reason)
            lines.append(" %s %-12s %2d streams: %s"
                         % (marker, choice.strategy, choice.num_streams,
                            status))
        return "\n".join(lines)


def _device_feasible(db, machine, kernel, strategy_name, num_streams):
    """Mirror the engine's WABuf/RABuf/SPBuf/LPBuf accounting."""
    strategy = make_strategy(strategy_name)
    wa_total = kernel.wa_bytes(db.num_vertices)
    wa_gpu = strategy.wa_gpu_bytes(wa_total, machine.num_gpus)
    max_records = db.directory.max_records()
    ra_buf = num_streams * max_records * kernel.ra_bytes_per_vertex
    sp_buf = num_streams * db.config.page_size if db.num_small_pages else 0
    lp_buf = num_streams * db.config.page_size if db.num_large_pages else 0
    need = wa_gpu + ra_buf + sp_buf + lp_buf
    capacity = min(gpu.device_memory for gpu in machine.gpus)
    if need > capacity:
        return False, ("needs %d B of device memory, GPU has %d B"
                       % (need, capacity))
    return True, ""


def estimate_elapsed(db, machine, kernel, strategy_name, num_streams,
                     rounds=1, edges_per_round=None):
    """Pipeline-refined analytic estimate of one run's elapsed time.

    ``edges_per_round`` defaults to the full edge count (PageRank-like
    full scans).  BFS-like estimates can pass the expected traversed
    edges instead.
    """
    pcie = machine.pcie
    gpu = machine.gpus[0]
    num_gpus = machine.num_gpus
    edges = edges_per_round if edges_per_round is not None else db.num_edges
    wa_total = kernel.wa_bytes(db.num_vertices)
    topology = db.topology_bytes()
    ra_total = kernel.ra_bytes(db.num_vertices)
    pages = db.num_pages

    # How much of the stream reaches each GPU.
    if strategy_name in ("performance", "P"):
        per_gpu_bytes = (topology + ra_total) / num_gpus
        per_gpu_edges = edges / num_gpus
        per_gpu_pages = pages / num_gpus
    else:
        per_gpu_bytes = topology + ra_total
        per_gpu_edges = edges
        per_gpu_pages = pages

    transfer = per_gpu_bytes / pcie.stream_bandwidth \
        + per_gpu_pages * pcie.latency
    # Lane-steps ~ edges for edge-centric pages; compute drains at the
    # stream-limited fraction of device throughput.
    device_seconds = (per_gpu_edges * kernel.cycles_per_lane_step
                      / gpu.effective_hz)
    concurrency = min(1.0, num_streams * gpu.single_stream_fraction)
    compute = (device_seconds / concurrency
               + per_gpu_pages * gpu.kernel_launch_overhead / num_streams)
    per_round = max(transfer, compute)

    wa_term = 2.0 * wa_total / pcie.chunk_bandwidth
    if not kernel.traversal:
        sync = wa_term
    else:
        sync = num_gpus * pcie.latency
    return rounds * (per_round + sync) + wa_total / pcie.chunk_bandwidth


def recommend_configuration(db, machine, kernel, rounds=1,
                            stream_choices=DEFAULT_STREAM_CHOICES,
                            strategies=("performance", "scalability")):
    """Pick the cheapest feasible (strategy, streams) configuration."""
    candidates = []
    for strategy_name in strategies:
        for num_streams in stream_choices:
            feasible, reason = _device_feasible(
                db, machine, kernel, strategy_name, num_streams)
            estimate = (estimate_elapsed(db, machine, kernel,
                                         strategy_name, num_streams,
                                         rounds=rounds)
                        if feasible else float("inf"))
            candidates.append(ConfigurationChoice(
                strategy=strategy_name, num_streams=num_streams,
                estimated_seconds=estimate, feasible=feasible,
                reason=reason))
    feasible_choices = [c for c in candidates if c.feasible]
    if not feasible_choices:
        raise CapacityError(
            "no feasible configuration: %s" % candidates[0].reason)
    best = min(feasible_choices,
               key=lambda c: (c.estimated_seconds, c.num_streams))
    return Recommendation(best=best, candidates=tuple(candidates))
