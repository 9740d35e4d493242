"""Simple random-graph generators used by tests and ablations."""

import numpy as np

from repro.errors import ConfigurationError
from repro.graphgen.graph import Graph


def generate_erdos_renyi(num_vertices, avg_degree, seed=0):
    """G(n, m)-style random digraph with ``num_vertices * avg_degree`` edges.

    Endpoints are drawn uniformly; parallel edges and self-loops may occur,
    matching the conventions of the R-MAT generator.
    """
    if num_vertices <= 0:
        raise ConfigurationError("num_vertices must be positive")
    if avg_degree < 0:
        raise ConfigurationError("avg_degree must be nonnegative")
    rng = np.random.default_rng(seed)
    num_edges = int(num_vertices * avg_degree)
    sources = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    targets = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    return Graph.from_edges(num_vertices, sources, targets)


def generate_ring(num_vertices, hops=1):
    """A directed ring where each vertex points at its next ``hops`` vertices.

    Rings have maximal diameter, which makes them the worst case for
    level-synchronous BFS; the X-Stream discussion in Section 8 is about
    exactly this regime.
    """
    if num_vertices <= 0:
        raise ConfigurationError("num_vertices must be positive")
    base = np.arange(num_vertices, dtype=np.int64)
    sources = np.repeat(base, hops)
    offsets = np.tile(np.arange(1, hops + 1, dtype=np.int64), num_vertices)
    targets = (sources + offsets) % num_vertices
    return Graph.from_edges(num_vertices, sources, targets)


def generate_star(num_vertices, center=0):
    """A star: the centre points at every other vertex.

    The centre becomes a single giant adjacency list, which forces the
    slotted-page builder down its large-page path; tests use this shape.
    """
    if num_vertices <= 1:
        raise ConfigurationError("a star needs at least two vertices")
    others = np.array(
        [v for v in range(num_vertices) if v != center], dtype=np.int64)
    sources = np.full(len(others), center, dtype=np.int64)
    return Graph.from_edges(num_vertices, sources, others)
