"""GPU baseline engines: TOTEM, CuSha, MapGraph (Figure 8).

* **TOTEM** — the only prior system handling graphs larger than GPU
  memory: it splits the graph into a GPU partition and a CPU partition
  processed concurrently, exchanging boundary messages each superstep.
  Its three drawbacks from Section 8 fall out of the model: the GPU
  fraction shrinks as graphs grow (GPU work is capped by device memory),
  boundary traffic grows with more GPUs, and it still needs the whole
  graph in a contiguous main-memory array (O.O.M. beyond RMAT29).
* **CuSha** — G-Shards/Concatenated-Windows layout, entire graph in GPU
  device memory.  Fast layout, tiny capacity: BFS fits Twitter but not
  RMAT27; PageRank's extra per-edge value arrays do not fit any tested
  graph (matching the paper).
* **MapGraph** — GAS on the GPU over a Matrix-Market-derived format that
  is "less space-efficient than the G-Shard format": it cannot even hold
  Twitter.

All three execute the real algorithm via the shared BSP traces; memory
footprints use each system's published format overheads.  GPU work is
priced at the GTS kernel's own ``cycles_per_lane_step``, so the GPU
baselines and GTS price identical work identically.
"""

from repro.baselines.base import Baseline
from repro.baselines.cpu import CPU_ALGORITHM_CYCLES, CPUHostSpec
from repro.hardware.specs import GPUSpec, PCIeSpec

#: The paper's Table 5 (Appendix C): TOTEM's recommended GPU:CPU split
#: as the fraction of the graph processed by GPUs, keyed by
#: (dataset, algorithm, number of GPUs).
TOTEM_PARTITION_TABLE = {
    ("rmat27", "BFS", 1): 0.65, ("rmat27", "PageRank", 1): 0.60,
    ("rmat27", "BFS", 2): 0.80, ("rmat27", "PageRank", 2): 0.80,
    ("rmat28", "BFS", 1): 0.15, ("rmat28", "PageRank", 1): 0.60,
    ("rmat28", "BFS", 2): 0.40, ("rmat28", "PageRank", 2): 0.80,
    ("rmat29", "BFS", 1): 0.50, ("rmat29", "PageRank", 1): 0.15,
    ("rmat29", "BFS", 2): 0.75, ("rmat29", "PageRank", 2): 0.30,
    ("twitter", "BFS", 1): 0.50, ("twitter", "PageRank", 1): 0.80,
    ("twitter", "BFS", 2): 0.75, ("twitter", "PageRank", 2): 0.85,
    ("uk2007", "BFS", 1): 0.35, ("uk2007", "PageRank", 1): 0.30,
    ("uk2007", "BFS", 2): 0.70, ("uk2007", "PageRank", 2): 0.60,
    ("yahooweb", "BFS", 1): 0.10, ("yahooweb", "PageRank", 1): 0.15,
}


class _GPUBaselineBase(Baseline):
    """Shared wiring: host CPUs, GPU list, PCI-E, and time scaling."""

    def __init__(self, host=None, gpus=None, pcie=None, time_scale=1.0):
        self.host = host or CPUHostSpec()
        self.gpus = list(gpus) if gpus is not None else [GPUSpec(), GPUSpec()]
        self.pcie = pcie or PCIeSpec()
        self.time_scale = time_scale
        self.num_gpus = len(self.gpus)

    def total_gpu_memory(self):
        return sum(g.device_memory for g in self.gpus)

    def total_gpu_hz(self):
        return sum(g.effective_hz for g in self.gpus)


class TotemEngine(_GPUBaselineBase):
    """TOTEM: hybrid CPU+GPU processing with an edge partition.

    ``partition_ratio`` is the fraction of edges placed in GPU device
    memory.  When None, the engine looks the dataset up in the paper's
    Table 5 and otherwise derives the largest fraction whose CSR slice
    fits in 75 % of device memory (the rest holds TOTEM's state).
    """

    name = "TOTEM"
    #: Bytes per edge of TOTEM's GPU partition (packed CSR).
    gpu_bytes_per_edge = 8
    #: Bytes per edge of the main-memory representation (contiguous CSR
    #: plus partition metadata) — the structure that makes RMAT30+
    #: impossible on 128 GB (Section 7.4).
    host_bytes_per_edge = 12
    host_bytes_per_vertex = 24
    #: Boundary message cost: bytes over PCI-E and CPU cycles each.
    boundary_message_bytes = 4
    boundary_message_cycles = 30.0
    superstep_seconds = 1e-3

    def __init__(self, host=None, gpus=None, pcie=None, time_scale=1.0,
                 partition_ratio=None):
        super().__init__(host, gpus, pcie, time_scale)
        self.partition_ratio = partition_ratio

    def resolve_partition(self, graph, algorithm, dataset_name=None):
        """GPU fraction for this run (Table 5, else memory-derived)."""
        if self.partition_ratio is not None:
            return self.partition_ratio
        key = (str(dataset_name or "").lower(), algorithm, self.num_gpus)
        if key in TOTEM_PARTITION_TABLE:
            return TOTEM_PARTITION_TABLE[key]
        budget = 0.75 * self.total_gpu_memory()
        need = graph.num_edges * self.gpu_bytes_per_edge
        return min(0.95, budget / need) if need else 0.95

    def footprint(self, graph, kernel, trace):
        return (graph.num_edges * self.host_bytes_per_edge
                + graph.num_vertices * self.host_bytes_per_vertex)

    def capacity(self):
        return self.host.main_memory

    def elapsed(self, graph, kernel, trace, dataset_name):
        fraction = self.resolve_partition(graph, kernel.name, dataset_name)
        gpu_cycles = kernel.cycles_per_lane_step
        cpu_cycles = CPU_ALGORITHM_CYCLES[kernel.name]
        elapsed = 0.0
        for step in trace.supersteps:
            # TOTEM's GPU side is topology-driven: it scans its whole
            # partition every superstep (no frontier compaction on the
            # GPU), which is why GTS beats it soundly on BFS-like
            # algorithms while staying comparable on PageRank.
            gpu_time = (fraction * graph.num_edges * gpu_cycles
                        / self.total_gpu_hz())
            cpu_time = ((1.0 - fraction) * step.edges_processed * cpu_cycles
                        / self.host.compute_hz)
            # Boundary exchange: messages crossing the random edge cut.
            cut_fraction = 2.0 * fraction * (1.0 - fraction)
            boundary = step.messages * cut_fraction
            comm = (boundary * self.boundary_message_bytes
                    / self.pcie.chunk_bandwidth
                    + boundary * self.boundary_message_cycles
                    / self.host.compute_hz)
            elapsed += (max(gpu_time, cpu_time) + comm
                        + self.superstep_seconds / self.time_scale)
        return elapsed


class _DeviceMemoryOnlyEngine(_GPUBaselineBase):
    """Shared logic for CuSha and MapGraph: graph must fit in GPU memory."""

    #: Per-edge footprint by algorithm family; traversal state is lighter
    #: than the per-edge value arrays iterative algorithms need.
    bytes_per_edge_traversal = 8
    bytes_per_edge_iterative = 12
    bytes_per_vertex = 16
    compute_factor = 1.0
    round_seconds = 1e-3

    def footprint(self, graph, kernel, trace):
        traversal = kernel.name in ("BFS", "SSSP", "BC")
        per_edge = (self.bytes_per_edge_traversal if traversal
                    else self.bytes_per_edge_iterative)
        return (graph.num_edges * per_edge
                + graph.num_vertices * self.bytes_per_vertex)

    def capacity(self):
        return self.total_gpu_memory()

    def elapsed(self, graph, kernel, trace, dataset_name):
        cycles = kernel.cycles_per_lane_step * self.compute_factor
        elapsed = 0.0
        for step in trace.supersteps:
            elapsed += step.edges_processed * cycles / self.total_gpu_hz()
            elapsed += self.round_seconds / self.time_scale
        return elapsed


class CuShaEngine(_DeviceMemoryOnlyEngine):
    """CuSha: G-Shards / Concatenated Windows, entirely in GPU memory.

    The shard layout fixes non-coalesced access but pays for window
    bookkeeping and multi-pass shard processing, which is why the paper
    measured it slower than both GTS and TOTEM even on Twitter.
    """

    # Derived from the paper's fit/OOM boundary on two 12 GB GPUs:
    # Twitter BFS fits (1.47e9 edges x 14 B = 20.6 GB < 24 GB) but
    # RMAT27 BFS does not (2.05e9 x 14 B = 28.7 GB), and PageRank's
    # per-edge value windows push even Twitter out (1.47e9 x 22 B).
    name = "CuSha"
    bytes_per_edge_traversal = 14   # G-Shards entry for BFS state
    bytes_per_edge_iterative = 22   # + per-edge value arrays for PR
    bytes_per_vertex = 16
    compute_factor = 3.0
    round_seconds = 2e-3


class MapGraphEngine(_DeviceMemoryOnlyEngine):
    """MapGraph: high-level GAS API on the GPU.

    Its Matrix-Market-derived storage "is less space-efficient than the
    G-Shard format" — it cannot even load Twitter, only tiny graphs like
    LiveJournal.
    """

    name = "MapGraph"
    bytes_per_edge_traversal = 24
    bytes_per_edge_iterative = 36
    bytes_per_vertex = 24
    compute_factor = 4.0
    round_seconds = 2e-3


#: The three engines in the paper's Figure 8 ordering.
ALL_GPU_ENGINES = (MapGraphEngine, CuShaEngine, TotemEngine)
