"""Out-of-core streaming baselines: X-Stream and GraphChi (Section 8).

The paper positions GTS against the two prior out-of-core "extremes":

* **X-Stream** (Roy et al., SOSP 2013) — *edge-centric* scatter-gather
  over streaming partitions.  Every scatter phase streams the **entire
  edge list** sequentially from storage, regardless of how many vertices
  are active; updates are written to an update file in the shuffle phase
  and read back in the gather phase (a read *and write* streaming
  mixture).  Great for full-scan algorithms; fatal for traversal on
  high-diameter graphs, where "X-Stream executes a very large number of
  scatter-gather iterations, each of which requires streaming the entire
  edge list but doing little work ... [it] did not finish in a
  reasonable amount of time".
* **GraphChi** (Kyrola et al., OSDI 2012) — parallel sliding windows
  over shards.  The paper notes it "shows a worse performance than
  X-Stream, due to requiring fully loading (not streaming) a shard file
  and no overlapping between disk I/O and computation".

Both engines execute the real algorithms through the shared BSP traces
and pay storage-bandwidth costs per superstep; the structural difference
the paper describes is encoded directly: X-Stream streams all edges and
overlaps compute with I/O, GraphChi serialises load / compute / write
per shard.
"""

from repro.baselines.base import Baseline
from repro.baselines.cpu import CPU_ALGORITHM_CYCLES, CPUHostSpec
from repro.hardware.specs import SSD_SPEC


class _OutOfCoreEngine(Baseline):
    """Shared wiring for the disk-streaming engines."""

    name = "abstract"
    #: Bytes per edge in the on-disk edge list / shard files.
    edge_bytes = 8
    #: Bytes per vertex of in-memory state (must fit main memory).
    vertex_bytes = 16

    def __init__(self, host=None, storage=SSD_SPEC, num_disks=1,
                 time_scale=1.0):
        self.host = host or CPUHostSpec()
        self.storage = storage
        self.num_disks = num_disks
        self.time_scale = time_scale

    def storage_bandwidth(self):
        return self.num_disks * self.storage.read_bandwidth

    def footprint(self, graph, kernel, trace):
        return graph.num_vertices * self.vertex_bytes

    def capacity(self):
        return self.host.main_memory

    def elapsed(self, graph, kernel, trace, dataset_name):
        return sum(self.superstep_seconds(step, graph, kernel.name)
                   for step in trace.supersteps)


class XStreamEngine(_OutOfCoreEngine):
    """X-Stream: edge-centric scatter / shuffle / gather."""

    name = "X-Stream"
    edge_bytes = 8            # (src, dst) pairs in the streamed edge list
    vertex_bytes = 16         # vertex value + update accumulation state
    update_bytes = 8          # one shuffled update record
    compute_factor = 1.2
    #: Shuffle CPU cost per update (bucketing into partitions).
    shuffle_cycles = 30.0

    def superstep_seconds(self, trace, graph, algorithm):
        bandwidth = self.storage_bandwidth()
        # Scatter: stream the WHOLE edge list, active or not (the
        # Section 8 point).  Reads overlap with compute.
        scan_seconds = graph.num_edges * self.edge_bytes / bandwidth
        compute_cycles = (trace.edges_processed
                          * CPU_ALGORITHM_CYCLES[algorithm]
                          * self.compute_factor)
        compute_seconds = compute_cycles / self.host.compute_hz
        scatter = max(scan_seconds, compute_seconds)
        # Shuffle + gather: write the update file, read it back, and pay
        # per-update CPU for the partition bucketing.
        update_io = (2.0 * trace.messages * self.update_bytes / bandwidth)
        shuffle_cpu = (trace.messages * self.shuffle_cycles
                       / self.host.compute_hz)
        return scatter + update_io + shuffle_cpu


class GraphChiEngine(_OutOfCoreEngine):
    """GraphChi: parallel sliding windows over fully-loaded shards."""

    name = "GraphChi"
    edge_bytes = 10           # shard entries carry in-edge values
    vertex_bytes = 20
    compute_factor = 1.5
    #: Fixed cost per shard per iteration at paper scale, seconds.
    shard_seconds = 0.05
    #: Shards sized so one fits in a quarter of main memory.
    memory_fraction_per_shard = 0.25

    def num_shards(self, graph):
        shard_capacity = (self.host.main_memory
                          * self.memory_fraction_per_shard)
        total = graph.num_edges * self.edge_bytes
        return max(1, -(-int(total) // int(shard_capacity)))

    def superstep_seconds(self, trace, graph, algorithm):
        bandwidth = self.storage_bandwidth()
        # Load every shard fully, then compute, then write back: no
        # I/O-compute overlap (the paper's explicit criticism).
        io_seconds = 2.0 * graph.num_edges * self.edge_bytes / bandwidth
        compute_cycles = (trace.edges_processed
                          * CPU_ALGORITHM_CYCLES[algorithm]
                          * self.compute_factor)
        compute_seconds = compute_cycles / self.host.compute_hz
        shard_overhead = (self.num_shards(graph) * self.shard_seconds
                          / self.time_scale)
        return io_seconds + compute_seconds + shard_overhead
