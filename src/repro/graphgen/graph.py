"""An immutable CSR graph container shared across the package.

Every generator returns a :class:`Graph`; the slotted-page builder consumes
one; the baselines and reference algorithms run directly on its arrays.
Edges are directed.  Undirected inputs should be symmetrised by the caller
(see :meth:`Graph.symmetrised`).
"""

import numpy as np

from repro.errors import FormatError


def _edge_order(num_vertices, sources, targets):
    """The stable order that sorts edges by ``(source, target)``.

    It equals ``np.lexsort((targets, sources))``, computed as an LSD radix
    over 16-bit digits (NumPy radix-sorts 16-bit keys): target digits
    first, then source digits, each pass stable, so ties keep input order.
    """
    order = np.arange(len(sources))
    bits = max(int(num_vertices) - 1, 0).bit_length()
    for key in (targets, sources):
        for shift in range(0, bits, 16):
            digit = ((key[order] >> shift) & 0xFFFF).astype(np.uint16)
            order = order[np.argsort(digit, kind="stable")]
    return order


class Graph:
    """A directed graph in compressed-sparse-row form.

    Parameters
    ----------
    num_vertices:
        Number of vertices; vertex IDs are ``0 .. num_vertices - 1``.
    indptr:
        ``int64`` array of length ``num_vertices + 1``; the out-neighbours
        of ``v`` are ``targets[indptr[v]:indptr[v + 1]]``.
    targets:
        ``int64`` array of neighbour IDs, grouped by source.
    weights:
        Optional ``float32`` edge weights aligned with ``targets``.
    """

    def __init__(self, num_vertices, indptr, targets, weights=None):
        self.num_vertices = int(num_vertices)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.targets = np.asarray(targets, dtype=np.int64)
        self.weights = None if weights is None else np.asarray(
            weights, dtype=np.float32)
        if len(self.indptr) != self.num_vertices + 1:
            raise FormatError("indptr length must be num_vertices + 1")
        if self.indptr[0] != 0 or self.indptr[-1] != len(self.targets):
            raise FormatError("indptr endpoints inconsistent with targets")
        if np.any(np.diff(self.indptr) < 0):
            raise FormatError("indptr must be nondecreasing")
        if self.weights is not None and len(self.weights) != len(self.targets):
            raise FormatError("weights must align with targets")
        if len(self.targets) and (
                self.targets.min() < 0 or self.targets.max() >= num_vertices):
            raise FormatError("target vertex ID out of range")

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(cls, num_vertices, sources, targets, weights=None,
                   deduplicate=False):
        """Build a CSR graph from parallel source/target arrays.

        When ``deduplicate`` is true, parallel edges are removed (the first
        weight wins); self-loops are always kept, matching R-MAT output.
        """
        sources = np.asarray(sources, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        if sources.shape != targets.shape:
            raise FormatError("sources and targets must have equal length")
        if len(sources) and (sources.min() < 0 or sources.max() >= num_vertices):
            raise FormatError("source vertex ID out of range")
        order = _edge_order(num_vertices, sources, targets)
        sources = sources[order]
        targets = targets[order]
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float32)
            if len(weights) != len(order):
                raise FormatError("weights must align with edges")
            weights = weights[order]
        if deduplicate and len(sources):
            keep = np.ones(len(sources), dtype=bool)
            keep[1:] = (sources[1:] != sources[:-1]) | (targets[1:] != targets[:-1])
            sources = sources[keep]
            targets = targets[keep]
            if weights is not None:
                weights = weights[keep]
        counts = np.bincount(sources, minlength=num_vertices)
        indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(num_vertices, indptr, targets, weights)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_edges(self):
        return len(self.targets)

    def out_degrees(self):
        """Out-degree of every vertex as an ``int64`` array."""
        return np.diff(self.indptr)

    def in_degrees(self):
        """In-degree of every vertex as an ``int64`` array."""
        return np.bincount(self.targets, minlength=self.num_vertices).astype(
            np.int64)

    def neighbors(self, v):
        """Out-neighbours of vertex ``v`` (a view into ``targets``)."""
        return self.targets[self.indptr[v]:self.indptr[v + 1]]

    def max_degree(self):
        degrees = self.out_degrees()
        return int(degrees.max()) if len(degrees) else 0

    def density_ratio(self):
        """Edges per vertex — the paper's "density" (1:16 for R-MAT)."""
        if self.num_vertices == 0:
            return 0.0
        return self.num_edges / self.num_vertices

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def symmetrised(self):
        """Return the graph with every edge mirrored (deduplicated)."""
        sources = np.repeat(np.arange(self.num_vertices, dtype=np.int64),
                            self.out_degrees())
        all_sources = np.concatenate([sources, self.targets])
        all_targets = np.concatenate([self.targets, sources])
        if self.weights is not None:
            all_weights = np.concatenate([self.weights, self.weights])
        else:
            all_weights = None
        return Graph.from_edges(self.num_vertices, all_sources, all_targets,
                                weights=all_weights, deduplicate=True)

    def with_random_weights(self, low=1.0, high=10.0, seed=0):
        """Return a weighted copy with uniform random weights (for SSSP)."""
        rng = np.random.default_rng(seed)
        weights = rng.uniform(low, high, size=self.num_edges).astype(np.float32)
        return Graph(self.num_vertices, self.indptr, self.targets, weights)

    def edge_list(self):
        """Return ``(sources, targets)`` parallel arrays (copies)."""
        sources = np.repeat(np.arange(self.num_vertices, dtype=np.int64),
                            self.out_degrees())
        return sources, self.targets.copy()

    # ------------------------------------------------------------------
    # Footprint accounting (drives O.O.M. modelling in baselines)
    # ------------------------------------------------------------------
    def csr_bytes(self, index_bytes=8, weight_bytes=0):
        """Bytes of a contiguous CSR representation of this graph.

        The CPU baselines (Ligra, Galois, MTGL) and TOTEM all require a
        contiguous in-memory array like this; the paper notes TOTEM cannot
        process RMAT30+ for exactly this reason.
        """
        return (
            (self.num_vertices + 1) * index_bytes
            + self.num_edges * (index_bytes + weight_bytes)
        )

    def __repr__(self):
        return "Graph(V=%d, E=%d%s)" % (
            self.num_vertices,
            self.num_edges,
            ", weighted" if self.weights is not None else "",
        )
