"""Baseline systems the paper compares GTS against (Section 7).

* :mod:`~repro.baselines.reference` — plain NumPy implementations of the
  algorithms, used as correctness ground truth by tests.
* :mod:`~repro.baselines.distributed` — GraphX, Giraph, PowerGraph and
  Naiad: BSP/GAS engines that execute the real algorithms and cost their
  supersteps on a simulated 31-node cluster (Figure 6).
* :mod:`~repro.baselines.cpu` — MTGL, Galois, Ligra and Ligra+:
  shared-memory frontier engines on the simulated workstation's CPUs
  (Figure 7).
* :mod:`~repro.baselines.gpu` — TOTEM (the hybrid CPU+GPU partitioned
  engine), CuSha and MapGraph (GPU-memory-only engines) (Figure 8).
* :mod:`~repro.baselines.outofcore` — X-Stream and GraphChi, the
  out-of-core streaming engines (Section 8).

Every engine runs through :meth:`~repro.baselines.base.Baseline.run`:
``engine.run("bfs", graph, {"start": v})``, keyed by the algorithm table.

All baselines run the real algorithm on the real (scaled) graph; only
*time* is simulated, from measured per-superstep work volumes fed through
each system's cost model — and *memory* is accounted from each system's
real data-structure footprints, which is what produces the paper's
``O.O.M.`` outcomes.
"""

from repro.baselines import reference
from repro.baselines.base import Baseline
from repro.baselines.distributed import (
    DistributedEngine,
    GiraphEngine,
    GraphXEngine,
    PowerGraphEngine,
    NaiadEngine,
    ClusterSpec,
)
from repro.baselines.cpu import (
    CPUEngine,
    MTGLEngine,
    GaloisEngine,
    LigraEngine,
    LigraPlusEngine,
    CPUHostSpec,
)
from repro.baselines.gpu import (
    TotemEngine,
    CuShaEngine,
    MapGraphEngine,
)
from repro.baselines.outofcore import GraphChiEngine, XStreamEngine

__all__ = [
    "reference",
    "Baseline",
    "DistributedEngine",
    "GiraphEngine",
    "GraphXEngine",
    "PowerGraphEngine",
    "NaiadEngine",
    "ClusterSpec",
    "CPUEngine",
    "MTGLEngine",
    "GaloisEngine",
    "LigraEngine",
    "LigraPlusEngine",
    "CPUHostSpec",
    "TotemEngine",
    "CuShaEngine",
    "MapGraphEngine",
    "XStreamEngine",
    "GraphChiEngine",
]
