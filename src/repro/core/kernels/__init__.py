"""Graph-algorithm kernels for the GTS engine.

Each kernel has one body, ``process_batch``: Appendix B's small-page and
large-page kernels (K_SP / K_LP) as one pass over a round's pages as a
:class:`~repro.core.plan.RoundBatch` of flat arrays, operating on
attribute vectors split into *updatable* (WA — resident in device memory)
and *read-only* (RA — streamed alongside topology pages).

The paper's two algorithm families are both represented:

* **BFS-like** (traversal: stream only ``nextPIDSet`` pages per level) —
  :class:`BFSKernel`, :class:`SSSPKernel`, :class:`BCKernel`.
* **PageRank-like** (linear scans of the whole topology per iteration) —
  :class:`PageRankKernel`, :class:`RWRKernel`, :class:`WCCKernel`,
  :class:`DegreeKernel`.
"""

from repro.core.kernels.base import Kernel, KernelContext, RoundPlan, ALL_PAGES
from repro.core.kernels.bfs import BFSKernel
from repro.core.kernels.pagerank import PageRankKernel
from repro.core.kernels.sssp import SSSPKernel
from repro.core.kernels.wcc import WCCKernel
from repro.core.kernels.bc import BCKernel
from repro.core.kernels.rwr import RWRKernel
from repro.core.kernels.degree import DegreeKernel
from repro.core.kernels.kcore import KCoreKernel
from repro.core.kernels.neighborhood import NeighborhoodKernel
from repro.core.kernels.cross_edges import CrossEdgesKernel
from repro.core.kernels.radius import RadiusKernel
from repro.core.kernels.induced import EgonetKernel, InducedSubgraphKernel

__all__ = [
    "Kernel",
    "KernelContext",
    "RoundPlan",
    "ALL_PAGES",
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
