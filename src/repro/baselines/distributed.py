"""Distributed baseline engines: GraphX, Giraph, PowerGraph, Naiad.

The paper's Figure 6 compares GTS on one workstation against these four
systems on a 31-node cluster (one master + 30 slaves, 16 cores and 64 GB
each, Infiniband QDR).  Here each system is modelled as a BSP cost model
applied to the *real* algorithm's superstep trace
(:mod:`repro.baselines.bsp`), so outputs are exact and elapsed times move
with the actual workload:

* per-superstep **compute**: edges processed x the algorithm's intensity
  (the same per-edge cycle counts the GTS kernels use) x an engine
  efficiency factor, spread over the cluster's cores;
* per-superstep **communication**: messages crossing the network, after
  each engine's own reduction (PowerGraph's vertex-cut turns per-edge
  messages into per-mirror aggregates), paying wire time plus
  per-message serialization CPU;
* per-superstep **barrier**: a fixed coordination cost (large for Spark's
  scheduler, tiny for Naiad's timely dataflow).

**Memory** is accounted from each system's real representation overheads
(bytes per edge/vertex, message buffering), and exceeding the cluster's
total memory raises :class:`~repro.errors.OutOfMemoryError` — this is
what produces the paper's ``O.O.M.`` entries and its scalability ladder
(Naiad dies first, PowerGraph lasts longest, nobody reaches RMAT32).

Engine constants are calibrated to the paper's qualitative results: the
per-system orderings, not the absolute seconds (see EXPERIMENTS.md).
"""

import dataclasses

from repro.baselines.base import Baseline
from repro.baselines.cpu import CPU_ALGORITHM_CYCLES
from repro.units import GB, gbps_to_bytes_per_sec


@dataclasses.dataclass(frozen=True)
class ClusterSpec:
    """The Section 7.1 cluster: 30 slaves on Infiniband QDR."""

    num_machines: int = 30
    cores_per_machine: int = 16
    memory_per_machine: int = 64 * GB
    core_hz: float = 2.6e9
    network_bandwidth: float = gbps_to_bytes_per_sec(40)
    name: str = "paper cluster"

    @property
    def total_cores(self):
        return self.num_machines * self.cores_per_machine

    @property
    def total_memory(self):
        return self.num_machines * self.memory_per_machine

    @property
    def compute_hz(self):
        """Aggregate cycles per second across the cluster."""
        return self.total_cores * self.core_hz

    def scaled(self, factor):
        """Capacity-scaled cluster matching the scaled datasets."""
        return dataclasses.replace(
            self,
            memory_per_machine=max(1, int(self.memory_per_machine / factor)),
            name="%s (1/%d scale)" % (self.name, factor))


class DistributedEngine(Baseline):
    """Base class: BSP cost model over a superstep trace.

    Subclasses override the class attributes; the paper-scale barrier
    constant is divided by ``time_scale`` so scaled experiments stay
    consistent with the scaled datasets.
    """

    name = "abstract"
    #: Engine (in)efficiency: multiplies the algorithm's per-edge cycles.
    compute_factor = 1.0
    #: Bytes of one message on the wire.
    message_bytes = 16
    #: CPU cycles to serialize/deserialize one message.
    message_cycles = 300.0
    #: Fixed coordination cost per superstep at paper scale, seconds.
    barrier_seconds = 0.5
    #: In-memory representation overheads.
    bytes_per_edge = 40
    bytes_per_vertex = 64
    #: Bytes of buffering per in-flight message.
    message_buffer_bytes = 8

    def __init__(self, cluster=None, time_scale=1.0):
        self.cluster = cluster or ClusterSpec()
        self.time_scale = time_scale

    # ------------------------------------------------------------------
    # Hooks subclasses may refine
    # ------------------------------------------------------------------
    def wire_messages(self, messages, graph):
        """Messages actually crossing the network after engine-specific
        aggregation (identity for Pregel-style engines)."""
        return messages

    def extra_superstep_seconds(self, trace, graph):
        """Additional per-superstep cost (e.g. GraphX's RDD rebuild)."""
        return 0.0

    # ------------------------------------------------------------------
    def footprint(self, graph, kernel, trace):
        return (graph.num_edges * self.bytes_per_edge
                + graph.num_vertices * self.bytes_per_vertex
                + trace.peak_messages() * self.message_buffer_bytes)

    def capacity(self):
        return self.cluster.total_memory

    def superstep_seconds(self, trace, graph, cycles_per_edge):
        cluster = self.cluster
        compute = (trace.edges_processed * cycles_per_edge
                   * self.compute_factor / cluster.compute_hz)
        wire = self.wire_messages(trace.messages, graph)
        comm = (wire * self.message_bytes / cluster.network_bandwidth
                + wire * self.message_cycles / cluster.compute_hz)
        barrier = self.barrier_seconds / self.time_scale
        return compute + comm + barrier + self.extra_superstep_seconds(
            trace, graph)

    def elapsed(self, graph, kernel, trace, dataset_name):
        cycles = CPU_ALGORITHM_CYCLES[kernel.name]
        return sum(self.superstep_seconds(step, graph, cycles)
                   for step in trace.supersteps)


class GiraphEngine(DistributedEngine):
    """Apache Giraph: Pregel-style BSP on Hadoop (Java).

    Object-per-vertex/edge JVM representation and per-message object
    serialization make it the slowest of the four (the paper: "Giraph
    shows the worst performance").
    """

    name = "Giraph"
    compute_factor = 60.0
    message_bytes = 24
    message_cycles = 1500.0
    barrier_seconds = 1.0
    bytes_per_edge = 64
    bytes_per_vertex = 200
    message_buffer_bytes = 24


class GraphXEngine(DistributedEngine):
    """Apache Spark GraphX: graph-parallel on RDDs.

    Every superstep materialises new immutable RDDs and pays Spark's
    scheduler, so a large per-superstep overhead rides on moderate
    compute costs.
    """

    name = "GraphX"
    compute_factor = 25.0
    message_bytes = 20
    message_cycles = 600.0
    barrier_seconds = 3.0
    bytes_per_edge = 80
    bytes_per_vertex = 150
    message_buffer_bytes = 16

    def extra_superstep_seconds(self, trace, graph):
        # Immutable RDD rebuild: rewrite the touched vertex and edge data.
        rebuilt_bytes = (graph.num_vertices * 16
                         + trace.edges_processed * 8)
        memory_bandwidth = self.cluster.num_machines * 8 * GB
        return rebuilt_bytes / memory_bandwidth


class PowerGraphEngine(DistributedEngine):
    """PowerGraph (GraphLab v2.2): GAS with vertex-cuts (C++).

    The paper's best distributed system in both speed and scalability.
    The vertex-cut replication means gather results — not raw edge
    messages — cross the network: one aggregate per mirror.
    """

    name = "PowerGraph"
    compute_factor = 30.0
    message_bytes = 16
    message_cycles = 200.0
    barrier_seconds = 2.0
    bytes_per_edge = 46   # vertex-cut mirrors make PowerGraph memory-hungry
    bytes_per_vertex = 80
    message_buffer_bytes = 8

    #: Average mirrors per vertex under random vertex-cut on a power-law
    #: graph over ~30 machines (Gonzalez et al., OSDI 2012 report 5-15).
    replication_factor = 8.0

    def wire_messages(self, messages, graph):
        if graph.num_vertices == 0:
            return 0
        # Mirror aggregates replace per-edge messages; never more than
        # the raw message count (tiny frontiers send what they have).
        mirror_messages = int(
            graph.num_vertices * self.replication_factor
            * (messages / max(graph.num_edges, 1)))
        return min(messages, mirror_messages)


class NaiadEngine(DistributedEngine):
    """Naiad: timely dataflow (.NET via Mono in the paper's setup).

    Very low coordination overhead — the fastest of the four on graphs it
    can hold — but indexed operator state makes it the most
    memory-hungry, so it is the first to go O.O.M. ("Naiad shows the
    worst scalability").
    """

    name = "Naiad"
    compute_factor = 12.0
    message_bytes = 16
    message_cycles = 250.0
    barrier_seconds = 0.05
    bytes_per_edge = 230
    bytes_per_vertex = 220
    message_buffer_bytes = 32


#: The four engines in the paper's Figure 6 ordering.
ALL_DISTRIBUTED_ENGINES = (
    GraphXEngine, GiraphEngine, PowerGraphEngine, NaiadEngine)
