"""Multi-GPU strategies: Strategy-P and Strategy-S (Section 4).

* **Strategy-P (performance)** replicates WA on every GPU and hash-
  partitions the page stream across them (``h(j) = j mod N``).  Every GPU
  sees ``1/N`` of the topology, so streaming and kernel work scale with
  ``N`` — but WA must fit in a *single* GPU's device memory.
  Synchronisation exploits peer-to-peer copies: worker GPUs merge their
  WA into the master GPU, which then writes the result to main memory.
* **Strategy-S (scalability)** partitions WA across GPUs (each owns a
  ``1/N`` chunk) and replicates the page stream to all of them.  The
  processable WA grows linearly with ``N`` — this is how RMAT32's 16 GB
  PageRank WA fits two 12 GB GPUs — but elapsed time does not improve
  with more GPUs because every GPU still streams the whole topology.
  Synchronisation is the naive one: ``N`` sequential GPU-to-host copies
  (disjoint chunks cannot use the peer-to-peer merge).

A strategy answers three questions for the engine: which GPU(s) receive a
page, how much WA each GPU must allocate, and how WA synchronisation is
booked on the simulated resources at the end of a round.
"""

import numpy as np

from repro.errors import ConfigurationError


def _record(runtime, name, process, thread, start, end, **args):
    """Emit a trace interval when the runtime carries a recorder."""
    if runtime.recorder is not None:
        runtime.recorder.interval(name, process, thread, start, end, **args)


class Strategy:
    """Interface shared by the two multi-GPU strategies."""

    name = "abstract"
    #: True when every GPU holds the complete WA.  Decides whether a GPU
    #: lost mid-run is survivable: replicated WA (Strategy-P) lets the
    #: engine redistribute the dead GPU's page stream to survivors, a
    #: partitioned WA (Strategy-S) dies with its chunk.
    wa_replicated = False

    def assign(self, page_id, num_gpus):
        """GPU indices that must receive page ``page_id`` (the paper's
        ``h(j)``: one index for Strategy-P, all of them for Strategy-S)."""
        raise NotImplementedError

    def assign_batch(self, page_ids, num_gpus):
        """Per-page GPU assignments for a whole round (a list aligned
        with ``page_ids``).  The default delegates to :meth:`assign`;
        the built-in strategies override it with vectorized versions for
        the engine's round dispatch."""
        return [self.assign(int(pid), num_gpus) for pid in page_ids]

    def wa_gpu_bytes(self, wa_total_bytes, num_gpus):
        """WA bytes each GPU must hold resident."""
        raise NotImplementedError

    def book_wa_broadcast(self, runtime, wa_total_bytes):
        """Book the initial WA copies (Algorithm 1 line 11 / Step 1);
        returns per-GPU ready times."""
        raise NotImplementedError

    def book_sync(self, runtime, wa_total_bytes, earliest, sync_full_wa):
        """Book end-of-round WA synchronisation; returns completion time.

        ``sync_full_wa`` is False for traversal kernels, whose WA deltas
        are negligible (the Section 5.2 cost model has no sync term); only
        per-GPU control traffic (nextPIDSet, cachedPIDMap) is booked then.
        """
        raise NotImplementedError


class PerformanceStrategy(Strategy):
    """Strategy-P: replicate WA, partition the page stream."""

    name = "performance"
    wa_replicated = True

    def assign(self, page_id, num_gpus):
        return (page_id % num_gpus,)

    def assign_batch(self, page_ids, num_gpus):
        # One ``%`` over the round; every page of a GPU shares its tuple.
        singles = [(gpu,) for gpu in range(num_gpus)]
        owners = np.asarray(page_ids, dtype=np.int64) % num_gpus
        return [singles[gpu] for gpu in owners.tolist()]

    def wa_gpu_bytes(self, wa_total_bytes, num_gpus):
        return wa_total_bytes

    def book_wa_broadcast(self, runtime, wa_total_bytes):
        ready = []
        duration = runtime.pcie.chunk_copy_time(wa_total_bytes)
        for gpu in runtime.gpus:
            start, end = gpu.copy_engine.book(runtime.now, duration)
            _record(runtime, "wa_broadcast", gpu.lane, "copy engine",
                    start, end, bytes=wa_total_bytes)
            ready.append(end)
        return ready

    def book_sync(self, runtime, wa_total_bytes, earliest, sync_full_wa):
        pcie = runtime.pcie
        if not sync_full_wa:
            # Control traffic only: one small transfer per GPU.
            end = earliest
            for _ in runtime.gpus:
                start, end = runtime.host_bus.book(end, pcie.latency)
                _record(runtime, "wa_sync", "host", "bus", start, end,
                        kind="control")
            return end
        # Steps 3-4 of Figure 5(a): peer-to-peer merge into the master
        # GPU, then one chunk copy of the merged WA to main memory.
        master = runtime.gpus[0]
        end = earliest
        for gpu in runtime.gpus[1:]:
            start, end = master.copy_engine.book(
                end, pcie.p2p_copy_time(wa_total_bytes))
            _record(runtime, "wa_sync", master.lane, "copy engine",
                    start, end, kind="p2p_merge", source=gpu.index)
        start, end = runtime.host_bus.book(
            end, pcie.chunk_copy_time(wa_total_bytes))
        _record(runtime, "wa_sync", "host", "bus", start, end,
                kind="chunk_copy", bytes=wa_total_bytes)
        return end


class ScalabilityStrategy(Strategy):
    """Strategy-S: partition WA, replicate the page stream."""

    name = "scalability"

    def assign(self, page_id, num_gpus):
        return tuple(range(num_gpus))

    def assign_batch(self, page_ids, num_gpus):
        replicate = tuple(range(num_gpus))
        return [replicate] * len(page_ids)

    def wa_gpu_bytes(self, wa_total_bytes, num_gpus):
        return -(-wa_total_bytes // num_gpus)  # ceil division

    def book_wa_broadcast(self, runtime, wa_total_bytes):
        ready = []
        chunk = self.wa_gpu_bytes(wa_total_bytes, runtime.num_gpus)
        duration = runtime.pcie.chunk_copy_time(chunk)
        for gpu in runtime.gpus:
            start, end = gpu.copy_engine.book(runtime.now, duration)
            _record(runtime, "wa_broadcast", gpu.lane, "copy engine",
                    start, end, bytes=chunk)
            ready.append(end)
        return ready

    def book_sync(self, runtime, wa_total_bytes, earliest, sync_full_wa):
        pcie = runtime.pcie
        if not sync_full_wa:
            end = earliest
            for _ in runtime.gpus:
                start, end = runtime.host_bus.book(end, pcie.latency)
                _record(runtime, "wa_sync", "host", "bus", start, end,
                        kind="control")
            return end
        # Naive sync: N sequential chunk copies straight to main memory
        # (disjoint WA chunks cannot use the peer-to-peer merge).
        chunk = self.wa_gpu_bytes(wa_total_bytes, runtime.num_gpus)
        end = earliest
        for gpu in runtime.gpus:
            start, end = runtime.host_bus.book(
                end, pcie.chunk_copy_time(chunk))
            _record(runtime, "wa_sync", "host", "bus", start, end,
                    kind="chunk_copy", bytes=chunk, source=gpu.index)
        return end


_STRATEGIES = {
    PerformanceStrategy.name: PerformanceStrategy,
    "P": PerformanceStrategy,
    ScalabilityStrategy.name: ScalabilityStrategy,
    "S": ScalabilityStrategy,
}


def make_strategy(name_or_strategy):
    """Resolve ``"performance"`` / ``"scalability"`` (or ``"P"`` / ``"S"``,
    or an already-built :class:`Strategy`) to a strategy instance."""
    if isinstance(name_or_strategy, Strategy):
        return name_or_strategy
    try:
        return _STRATEGIES[name_or_strategy]()
    except KeyError:
        raise ConfigurationError(
            "unknown strategy %r (expected 'performance' or 'scalability')"
            % (name_or_strategy,)) from None
