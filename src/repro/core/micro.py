"""Micro-level parallel processing models (Section 6.2 and Appendix E).

GTS's macro-level contribution is page streaming; *within* a page the GPU
kernel can parallelise over the page's vertices and edges in different
ways.  The paper considers three techniques and evaluates them in
Figure 14:

* **edge-centric** (the VWC technique of Hong et al., PPoPP 2011): the 32
  threads of a (virtual) warp cooperatively walk one vertex's adjacency
  list.  A vertex of degree ``d`` occupies its warp for ``ceil(d / 32)``
  steps, so lane-steps (thread-cycles) are ``32 * ceil(d / 32)`` — there
  is some ALU waste on the last partial step but load balance is good.
* **vertex-centric**: one thread per vertex walks the whole adjacency
  list.  A warp of 32 consecutive vertices runs for ``max(d)`` steps
  (SIMT lock-step), so a single high-degree vertex stalls 31 lanes — this
  is the load imbalance that makes vertex-centric collapse on dense
  pages.
* **hybrid**: pick per page whichever of the two models is cheaper for
  that page's density (the paper applies "a different micro-level
  technique to each page depending on the density of the page").

These functions compute *lane-steps*: total thread-cycles consumed across
the device's lanes.  The GPU spec converts lane-steps to seconds.  All
inputs are the page's actual per-record degrees (with inactive records
contributing a scan check), so Figure 14's crossover emerges from the real
degree distribution rather than from fitted curves.
"""

import enum

import numpy as np

from repro.errors import ConfigurationError

#: SIMT width: threads per (virtual) warp.
WARP_SIZE = 32


class MicroTechnique(enum.Enum):
    """Which intra-page parallelisation model the kernel uses."""

    VERTEX_CENTRIC = "vertex"
    EDGE_CENTRIC = "edge"
    HYBRID = "hybrid"

    @classmethod
    def parse(cls, value):
        """Accept an enum member or its string value."""
        if isinstance(value, cls):
            return value
        for member in cls:
            if member.value == value:
                return member
        raise ConfigurationError("unknown micro technique %r" % (value,))


def edge_centric_lane_steps(active_degrees, num_records):
    """Lane-steps under the VWC / edge-centric model.

    ``active_degrees`` are the adjacency-list sizes of the records whose
    vertex actually does work this round (for PageRank-like kernels that
    is every record; for BFS-like kernels only the frontier).  Every
    record, active or not, costs one warp-step for the level check
    (Algorithm 2 scans all records in the page).
    """
    active_degrees = np.asarray(active_degrees, dtype=np.int64)
    expand = WARP_SIZE * np.ceil(active_degrees / WARP_SIZE).sum()
    scan = WARP_SIZE * np.ceil(num_records / WARP_SIZE)
    return float(expand + scan)


def vertex_centric_lane_steps(degrees, active_mask=None):
    """Lane-steps under the vertex-centric model.

    Records are grouped into warps of 32 consecutive slots; each warp
    runs for the *maximum* active degree among its lanes, and all 32
    lanes are occupied for that long.
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    if active_mask is not None:
        degrees = np.where(np.asarray(active_mask, dtype=bool), degrees, 0)
    if len(degrees) == 0:
        return 0.0
    pad = (-len(degrees)) % WARP_SIZE
    if pad:
        degrees = np.concatenate(
            [degrees, np.zeros(pad, dtype=np.int64)])
    per_warp_max = degrees.reshape(-1, WARP_SIZE).max(axis=1)
    # Each warp does at least the one-step scan of its records.
    per_warp_max = np.maximum(per_warp_max, 1)
    return float(WARP_SIZE * per_warp_max.sum())


def lane_steps(technique, degrees, active_mask=None):
    """Lane-steps for one page under ``technique``.

    Parameters
    ----------
    technique:
        A :class:`MicroTechnique` (or its string value).
    degrees:
        Per-record adjacency sizes for the whole page, in slot order.
    active_mask:
        Boolean mask of records doing real work this round; ``None``
        means all records are active (PageRank-like full scans).
    """
    technique = MicroTechnique.parse(technique)
    degrees = np.asarray(degrees, dtype=np.int64)
    if active_mask is None:
        active_degrees = degrees
    else:
        active_degrees = degrees[np.asarray(active_mask, dtype=bool)]

    if technique is MicroTechnique.EDGE_CENTRIC:
        return edge_centric_lane_steps(active_degrees, len(degrees))
    if technique is MicroTechnique.VERTEX_CENTRIC:
        return vertex_centric_lane_steps(degrees, active_mask)
    # Hybrid: whichever model is cheaper for this page's shape.
    return min(
        edge_centric_lane_steps(active_degrees, len(degrees)),
        vertex_centric_lane_steps(degrees, active_mask),
    )


# ----------------------------------------------------------------------
# Segment-wise variants: a round's pages at once (what kernels charge).
#
# ``rec_indptr`` delimits each page's records inside flat page-major
# ``degrees`` / ``active_mask`` arrays; each function returns a float64
# array of per-page lane-steps.  Every quantity involved is an
# integer-valued float64 (ceil sums, warp maxima), so the vectorized
# reductions are bit-identical to calling the per-page functions in a
# loop.
# ----------------------------------------------------------------------

def _segment_float_sum(values, indptr):
    """Per-segment sums with empty segments yielding 0 (raw ``reduceat``
    would return ``values[start]`` for an empty segment instead)."""
    counts = np.diff(indptr)
    out = np.zeros(len(counts), dtype=np.float64)
    nonempty = counts > 0
    if len(values) and nonempty.any():
        out[nonempty] = np.add.reduceat(values, indptr[:-1][nonempty])
    return out


def segment_edge_centric_lane_steps(degrees, rec_indptr, active_mask=None):
    """Per-page :func:`edge_centric_lane_steps` over flat record arrays."""
    degrees = np.asarray(degrees, dtype=np.int64)
    per_record = np.ceil(degrees / WARP_SIZE)
    if active_mask is not None:
        per_record = np.where(
            np.asarray(active_mask, dtype=bool), per_record, 0.0)
    expand = _segment_float_sum(per_record, rec_indptr)
    num_records = np.diff(rec_indptr)
    scan = np.ceil(num_records / WARP_SIZE)
    return WARP_SIZE * expand + WARP_SIZE * scan


def segment_vertex_centric_lane_steps(degrees, rec_indptr, active_mask=None):
    """Per-page :func:`vertex_centric_lane_steps` over flat record arrays.

    Warps are formed from 32 consecutive slots *within* a page, so warp
    boundaries restart at every page's first record — ``maximum.reduceat``
    at the per-page warp starts reproduces the padded-reshape maxima of
    the per-page function (zero padding never changes a warp's maximum
    because every warp's first lane is a real record and the final
    ``max(•, 1)`` floors empty lanes anyway).
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    if active_mask is not None:
        degrees = np.where(np.asarray(active_mask, dtype=bool), degrees, 0)
    counts = np.diff(rec_indptr)
    num_pages = len(counts)
    warps = (counts + WARP_SIZE - 1) // WARP_SIZE
    total_warps = int(warps.sum())
    if total_warps == 0:
        return np.zeros(num_pages, dtype=np.float64)
    warp_indptr = np.zeros(num_pages + 1, dtype=np.int64)
    np.cumsum(warps, out=warp_indptr[1:])
    # Warp w of page p starts at record rec_indptr[p] + 32 * w.
    local_warp = (np.arange(total_warps, dtype=np.int64)
                  - np.repeat(warp_indptr[:-1], warps))
    warp_starts = np.repeat(rec_indptr[:-1], warps) + WARP_SIZE * local_warp
    per_warp_max = np.maximum.reduceat(degrees, warp_starts)
    per_warp_max = np.maximum(per_warp_max, 1)
    return WARP_SIZE * _segment_float_sum(
        per_warp_max.astype(np.float64), warp_indptr)


def segment_lane_steps(technique, degrees, rec_indptr, active_mask=None):
    """Per-page :func:`lane_steps` over flat page-major record arrays."""
    technique = MicroTechnique.parse(technique)
    if technique is MicroTechnique.EDGE_CENTRIC:
        return segment_edge_centric_lane_steps(
            degrees, rec_indptr, active_mask)
    if technique is MicroTechnique.VERTEX_CENTRIC:
        return segment_vertex_centric_lane_steps(
            degrees, rec_indptr, active_mask)
    return np.minimum(
        segment_edge_centric_lane_steps(degrees, rec_indptr, active_mask),
        segment_vertex_centric_lane_steps(degrees, rec_indptr, active_mask),
    )
