"""The slotted page format: GTS's on-SSD graph topology representation.

This subpackage implements the external-memory graph format the paper adopts
(Section 2 and Section 6.1): a graph is stored as a set of fixed-size
*slotted pages*.  Low-degree vertices share a *small page* (SP); a
high-degree vertex whose adjacency list does not fit in one page is split
over several *large pages* (LP).  Neighbours are referenced by *physical
record IDs* — a ``(page id, slot number)`` pair — and a small in-memory
mapping table (the RVT, Appendix A) translates record IDs back to logical
vertex IDs during kernel execution.

Public entry points:

* :class:`~repro.format.config.PageFormatConfig` — addressing widths
  ``(p, q)`` and page size, including the three 6-byte configurations of the
  paper's Table 2.
* :func:`~repro.format.builder.build_database` — turn an edge list into a
  :class:`~repro.format.database.GraphDatabase` of slotted pages.
* :class:`~repro.format.database.GraphDatabase` — the built store: the
  pages' contents as flat page-major arrays (a ``SmallPage`` /
  ``LargePage`` is a view over slices of them), with its RVT and
  statistics (``num_small_pages`` / ``num_large_pages`` feed the paper's
  Table 3).
"""

from repro.format.config import PageFormatConfig, SIX_BYTE_CONFIGS
from repro.format.page import SmallPage, LargePage, PageKind
from repro.format.rvt import RecordVertexTable
from repro.format.builder import build_database
from repro.format.database import GraphDatabase

__all__ = [
    "PageFormatConfig",
    "SIX_BYTE_CONFIGS",
    "SmallPage",
    "LargePage",
    "PageKind",
    "RecordVertexTable",
    "build_database",
    "GraphDatabase",
]
