"""Scaled dataset registry mirroring the paper's Table 3.

Every dataset is scaled down uniformly by ``SCALE_FACTOR`` = 2¹³ = 8192:
RMAT-k becomes an R-MAT graph of ``2^(k-13)`` vertices (same 1:16
vertex:edge ratio), and the three real graphs become synthetic stand-ins
with their vertex counts divided by the same factor.  Machine capacities
are scaled identically (:func:`repro.hardware.specs.scaled_workstation`),
so which-graph-fits-where is preserved: RMAT30 is the largest graph that
fits the scaled 128 GB main memory, RMAT31/32 must stream from SSD, and
RMAT32's PageRank WA no longer fits a single scaled 12 GB GPU.

Page-format configurations follow Section 7.1: ``(p=2, q=2)`` with small
pages for RMAT26–29 and the real graphs, ``(p=3, q=3)`` with large pages
(the paper's 64 MB, scaled to 8 KB) for RMAT30–32.
"""

import dataclasses

import numpy as np

from repro.errors import ConfigurationError
from repro.format import PageFormatConfig, build_database
from repro.graphgen import (
    generate_rmat,
    generate_twitter_like,
    generate_uk2007_like,
    generate_yahooweb_like,
)
from repro.units import KB

#: Uniform dataset / capacity scale (2^13).
SCALE_FACTOR = 8192

#: Scaled page sizes for the paper's two format configurations.  The
#: paper's (3,3) configuration uses 64 MB pages; 64 MB / 8192 = 8 KB.
#: Its (2,2) configuration (the original slotted-page format) used ~1 MB
#: pages; scaling that far would leave pages smaller than a slot, so we
#: floor at 2 KB and record the deviation in EXPERIMENTS.md.
PAGE_SIZE_22 = 2 * KB
PAGE_SIZE_33 = 8 * KB


@dataclasses.dataclass(frozen=True)
class DatasetSpec:
    """One row of the (scaled) Table 3."""

    name: str
    kind: str                 # "rmat" or one of the real-graph stand-ins
    paper_vertices: int
    paper_edges: int
    rmat_scale: int = 0       # paper-scale k for RMAT-k
    page_config: str = "(2,2)"
    seed: int = 0

    @property
    def scaled_vertices(self):
        return max(2, self.paper_vertices // SCALE_FACTOR)

    def format_config(self, weighted=False):
        weight_bytes = 4 if weighted else 0
        if self.page_config == "(3,3)":
            return PageFormatConfig(page_id_bytes=3, slot_bytes=3,
                                    page_size=PAGE_SIZE_33,
                                    weight_bytes=weight_bytes)
        return PageFormatConfig(page_id_bytes=2, slot_bytes=2,
                                page_size=PAGE_SIZE_22,
                                weight_bytes=weight_bytes)


def _rmat_spec(scale):
    return DatasetSpec(
        name="rmat%d" % scale,
        kind="rmat",
        paper_vertices=1 << scale,
        paper_edges=16 << scale,
        rmat_scale=scale,
        page_config="(3,3)" if scale >= 30 else "(2,2)",
        seed=scale,
    )


#: The evaluation datasets (Table 3 plus RMAT26, used by Figures 10/11).
DATASETS = {spec.name: spec for spec in (
    [_rmat_spec(scale) for scale in range(26, 33)]
    + [
        DatasetSpec(name="twitter", kind="twitter",
                    paper_vertices=42_000_000, paper_edges=1_468_000_000,
                    seed=10),
        DatasetSpec(name="uk2007", kind="uk2007",
                    paper_vertices=106_000_000, paper_edges=3_739_000_000,
                    seed=11),
        DatasetSpec(name="yahooweb", kind="yahooweb",
                    paper_vertices=1_414_000_000, paper_edges=6_636_000_000,
                    seed=12),
    ]
)}

_GRAPH_CACHE = {}
#: The one database (with its plan and reduce index) that
#: :func:`dataset_database` keeps: experiments sweep dataset-major.
_DB_CACHE = {}


def dataset_spec(name):
    """Look up a registry dataset; raises on unknown names."""
    try:
        return DATASETS[name]
    except KeyError:
        raise ConfigurationError("unknown dataset %r" % (name,)) from None


def dataset_graph(name, weighted=False, symmetrised=False):
    """The scaled CSR graph for a registry dataset (cached)."""
    key = (name, weighted, symmetrised)
    if key in _GRAPH_CACHE:
        return _GRAPH_CACHE[key]
    spec = dataset_spec(name)
    if spec.kind == "rmat":
        scaled_scale = spec.rmat_scale - 13
        graph = generate_rmat(scaled_scale, edge_factor=16, seed=spec.seed)
    elif spec.kind == "twitter":
        graph = generate_twitter_like(spec.scaled_vertices, seed=spec.seed)
    elif spec.kind == "uk2007":
        graph = generate_uk2007_like(spec.scaled_vertices, seed=spec.seed)
    elif spec.kind == "yahooweb":
        graph = generate_yahooweb_like(spec.scaled_vertices, seed=spec.seed)
    else:
        raise ConfigurationError("unknown dataset kind %r" % spec.kind)
    if symmetrised:
        graph = graph.symmetrised()
    if weighted:
        graph = graph.with_random_weights(seed=spec.seed)
    _GRAPH_CACHE[key] = graph
    return graph


def dataset_database(name, weighted=False, symmetrised=False):
    """The slotted-page database for a registry dataset (cached)."""
    key = (name, weighted, symmetrised)
    if key not in _DB_CACHE:
        _DB_CACHE.clear()  # before the next one is built
        spec = dataset_spec(name)
        graph = dataset_graph(name, weighted=weighted,
                              symmetrised=symmetrised)
        _DB_CACHE[key] = build_database(
            graph, spec.format_config(weighted=weighted), name=name)
    return _DB_CACHE[key]


def default_start_vertex(graph):
    """A well-connected traversal source: the max-out-degree vertex.

    The paper traverses from a fixed start vertex; on our scaled R-MAT
    stand-ins a random vertex often has zero out-degree, so benches use
    the busiest vertex instead (recorded in EXPERIMENTS.md).
    """
    return int(np.argmax(graph.out_degrees()))
