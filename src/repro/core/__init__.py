"""The GTS engine: streaming graph topology to (simulated) GPUs.

This package is the paper's primary contribution:

* :class:`~repro.core.engine.GTSEngine` — the Algorithm 1 framework:
  level-by-level (BFS-like) or whole-graph (PageRank-like) rounds,
  ``nextPIDSet`` / ``cachedPIDMap`` / ``bufferPIDMap`` management,
  asynchronous multi-stream transfer scheduling, and WA synchronisation.
* :mod:`~repro.core.strategies` — Strategy-P (performance: replicate WA,
  partition the page stream) and Strategy-S (scalability: partition WA,
  replicate the page stream), Section 4.
* :mod:`~repro.core.kernels` — the graph algorithms, each as a pair of
  GPU kernels (small-page and large-page variants, Appendix B).
* :mod:`~repro.core.algorithms` — the one table naming those kernels.
* :mod:`~repro.core.micro` — micro-level parallelisation models
  (vertex-centric, edge-centric/VWC, hybrid), Section 6.2.
* :mod:`~repro.core.cost_model` — the analytic cost models of Section 5.
"""

from repro.core.engine import GTSEngine
from repro.core.result import RunResult, RoundStats
from repro.core.strategies import (
    PerformanceStrategy,
    ScalabilityStrategy,
    make_strategy,
)
from repro.core.micro import MicroTechnique
from repro.core.kernels import (
    BFSKernel,
    PageRankKernel,
    SSSPKernel,
    WCCKernel,
    BCKernel,
    RWRKernel,
    DegreeKernel,
    KCoreKernel,
    NeighborhoodKernel,
    CrossEdgesKernel,
    RadiusKernel,
    InducedSubgraphKernel,
    EgonetKernel,
)

__all__ = [
    "GTSEngine",
    "RunResult",
    "RoundStats",
    "PerformanceStrategy",
    "ScalabilityStrategy",
    "make_strategy",
    "MicroTechnique",
    "BFSKernel",
    "PageRankKernel",
    "SSSPKernel",
    "WCCKernel",
    "BCKernel",
    "RWRKernel",
    "DegreeKernel",
    "KCoreKernel",
    "NeighborhoodKernel",
    "CrossEdgesKernel",
    "RadiusKernel",
    "InducedSubgraphKernel",
    "EgonetKernel",
]
