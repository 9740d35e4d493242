"""CPU baseline engines: MTGL, Galois, Ligra, Ligra+ (Figure 7).

These shared-memory systems run on the workstation's two 8-core Xeons
(16 threads with Hyper-Threading off, 128 GB main memory).  Each engine
executes the real algorithm (the shared BSP trace) and prices it with a
per-edge CPU cost, an engine efficiency factor, and a per-round
synchronisation overhead.

Memory is the binding constraint the paper highlights: all four need a
*contiguous in-memory* representation — out-CSR plus (for direction-
optimised frontier engines) in-CSR — so "there are no results for
relatively large-scale graphs such as RMAT29-30 and YahooWeb, since the
CPU-based methods cannot load data into main memory".  That O.O.M. ladder
falls out of the footprint accounting below.

Note on Ligra+: the paper could not execute it on UK2007/RMAT27/RMAT28
because of segmentation faults in the released code.  We model the
system's *design* (compressed CSR → smaller footprint, near-Ligra speed)
and do not emulate the crashes; EXPERIMENTS.md records the difference.
"""

import dataclasses

from repro.baselines.base import Baseline
from repro.units import GB

#: Effective CPU cycles per edge per algorithm for a well-tuned
#: shared-memory engine (Ligra-class).  These make the paper-scale
#: arithmetic land near Figure 7's measurements: e.g. PageRank x10 on
#: Twitter: 1.47e10 edge-iterations x 110 cycles / (16 cores x 3.1 GHz)
#: ≈ 33 s, against Ligra's measured 34.4 s.
CPU_ALGORITHM_CYCLES = {
    "BFS": 35.0,
    "PageRank": 110.0,
    "SSSP": 55.0,
    "CC": 60.0,
    "BC": 50.0,
}


@dataclasses.dataclass(frozen=True)
class CPUHostSpec:
    """The workstation's CPU side (Section 7.1)."""

    num_threads: int = 16
    core_hz: float = 3.1e9
    main_memory: int = 128 * GB
    name: str = "paper workstation CPUs"

    @property
    def compute_hz(self):
        return self.num_threads * self.core_hz

    def scaled(self, factor):
        return dataclasses.replace(
            self,
            main_memory=max(1, int(self.main_memory / factor)),
            name="%s (1/%d scale)" % (self.name, factor))


class CPUEngine(Baseline):
    """Base class for the shared-memory CPU baselines."""

    name = "abstract"
    #: Engine efficiency relative to the Ligra-class cycle counts.
    compute_factor = 1.0
    #: In-memory bytes per edge.  Frontier engines with direction
    #: optimisation keep both out- and in-CSR (16 B with 8-byte indices).
    bytes_per_edge = 16
    bytes_per_vertex = 32
    #: Per-round synchronisation cost at paper scale, seconds.
    round_seconds = 2e-3

    def __init__(self, host=None, time_scale=1.0):
        self.host = host or CPUHostSpec()
        self.time_scale = time_scale
        self.num_streams = self.host.num_threads

    def footprint(self, graph, kernel, trace):
        return (graph.num_edges * self.bytes_per_edge
                + graph.num_vertices * self.bytes_per_vertex)

    def capacity(self):
        return self.host.main_memory

    def elapsed(self, graph, kernel, trace, dataset_name):
        cycles = CPU_ALGORITHM_CYCLES[kernel.name] * self.compute_factor
        elapsed = 0.0
        for step in trace.supersteps:
            elapsed += (step.edges_processed * cycles
                        / self.host.compute_hz)
            elapsed += self.round_seconds / self.time_scale
        return elapsed


class MTGLEngine(CPUEngine):
    """MTGL on qthreads: the portable multithreaded graph library.

    Significantly slower than the modern engines (the paper keeps it "for
    reference") and memory-heavy due to its generic adjacency objects.
    """

    name = "MTGL"
    compute_factor = 6.0
    bytes_per_edge = 32
    bytes_per_vertex = 96
    round_seconds = 4e-3


class GaloisEngine(CPUEngine):
    """Galois: speculative amorphous data-parallelism runtime."""

    name = "Galois"
    compute_factor = 1.25
    bytes_per_edge = 16
    bytes_per_vertex = 56
    round_seconds = 1e-3


class LigraEngine(CPUEngine):
    """Ligra: frontier-based with dense/sparse direction switching."""

    name = "Ligra"
    compute_factor = 1.0
    bytes_per_edge = 16   # out-CSR + in-CSR for the dense direction
    bytes_per_vertex = 64  # parents/frontier/flag arrays
    round_seconds = 1e-3


class LigraPlusEngine(CPUEngine):
    """Ligra+: Ligra over compressed (byte-coded) adjacency arrays."""

    name = "Ligra+"
    compute_factor = 1.05  # decode overhead roughly offsets bandwidth wins
    bytes_per_edge = 12    # byte codes compress R-MAT's random IDs poorly
    bytes_per_vertex = 64
    round_seconds = 1e-3


#: The four engines in the paper's Figure 7 ordering.
ALL_CPU_ENGINES = (MTGLEngine, GaloisEngine, LigraEngine, LigraPlusEngine)
