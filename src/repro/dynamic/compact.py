"""Compaction: fold the edge log and the WAL back into a clean base.

The log keeps commits cheap, but a version's arrays re-merge every
dirty page from its base rows and the log, deleted base edges stay in
the base's pages, and the WAL grows without bound.  Once the delta bytes
pass a threshold, :func:`compact` materialises the *effective* graph
from the head's topology arrays, rebuilds a pristine base with the
original :func:`~repro.format.builder.build_database` (same
:class:`~repro.format.config.PageFormatConfig`) and swaps it in.

Crash ordering: WAL replay is **not** idempotent (re-applied inserts
duplicate parallel edges; re-applied deletes of folded edges fail
validation), so a durable compaction bumps the WAL *epoch*, saves the new
base with it (atomically, via :func:`~repro.format.io.save_database`'s
temp-file + ``os.replace``), and only then resets the WAL under the same
epoch.  A crash between the two leaves a base ahead of its log, which
:func:`~repro.dynamic.delta.open_dynamic_database` discards instead of
replaying; a crash before the save leaves the old pair, which replays.
Without a ``save_prefix`` the WAL is kept: the on-disk base still
predates the log, whose records stay the only durable copy.

Compaction runs under the database's commit lock but never blocks
readers: pinned snapshots keep their versions (and their base) until
released.  Pins are in-memory, so a crash mid-reclaim is one of the
orderings above.
"""

import dataclasses

import numpy as np

from repro.format.builder import build_database
from repro.format.io import save_database
from repro.graphgen.graph import Graph

#: Default delta-byte budget before :func:`maybe_compact` folds
#: (deliberately small: one base page's worth of delta is already a
#: measurable merge tax at serve time).
DEFAULT_THRESHOLD_BYTES = 1 << 20


@dataclasses.dataclass(frozen=True)
class CompactionReport:
    """What one compaction folded."""

    folded_bytes: int
    folded_batches: int
    num_vertices: int
    num_edges: int
    num_pages_before: int
    num_pages_after: int
    saved_prefix: object = None
    #: Versions still retained after the swap because live queries pin
    #: them (0 on a quiescent database: only the new head survives).
    retained_versions: int = 0

    def summary(self):
        return ("compaction: folded %dB of delta from %d batch(es) -> "
                "%d pages (%d before), V=%d E=%d, %d pinned version(s) "
                "retained"
                % (self.folded_bytes, self.folded_batches,
                   self.num_pages_after, self.num_pages_before,
                   self.num_vertices, self.num_edges,
                   self.retained_versions))


def materialise_graph(db):
    """The database's *effective* edge list as an immutable CSR graph.

    Read off its flat topology arrays — for an overlay, the spliced
    arrays of its head — so deleted and inserted edges and extension
    pages are all reflected, edges in page order.  Works on any
    :class:`~repro.format.database.GraphDatabase`, dynamic or not.
    """
    arrays = db.topology_arrays()
    return Graph.from_edges(
        db.num_vertices, np.repeat(arrays["rec_vids"], arrays["degrees"]),
        arrays["adj_vids"], weights=arrays["adj_weights"])


def compact(db, save_prefix=None):
    """Fold ``db``'s deltas into a fresh base; returns a report.

    When ``save_prefix`` is given the new base is persisted there
    (atomically) with a bumped WAL epoch before the in-memory swap
    resets the WAL — see the module docstring for why that order is
    crash-safe.  ``save_prefix`` must be the prefix whose WAL ``db``
    has attached (they commit as a pair); without one, the WAL is kept.
    """
    # Exclude concurrent writers while the head is materialised and
    # swapped; readers (pinned snapshots) are never blocked.
    with db._commit_lock:
        folded_bytes = db.delta_bytes
        folded_batches = db.applied_batches
        pages_before = len(db.directory)
        graph = materialise_graph(db)
        new_base = build_database(graph, db.config, name=db.name)
        new_epoch = None
        if save_prefix is not None:
            new_epoch = db.base_epoch + 1
            new_base.wal_epoch = new_epoch
            save_database(new_base, save_prefix, wal_epoch=new_epoch)
        db.swap_base(new_base, folded_bytes=folded_bytes,
                     new_epoch=new_epoch)
        retained = len(db.pinned_versions())
    return CompactionReport(
        folded_bytes=folded_bytes,
        folded_batches=folded_batches,
        num_vertices=new_base.num_vertices,
        num_edges=new_base.num_edges,
        num_pages_before=pages_before,
        num_pages_after=new_base.num_pages,
        saved_prefix=save_prefix,
        retained_versions=retained,
    )


def maybe_compact(db, threshold_bytes=DEFAULT_THRESHOLD_BYTES,
                  save_prefix=None):
    """Compact when the delta overlay exceeds ``threshold_bytes``.

    Returns the :class:`CompactionReport`, or None when below threshold.
    """
    if db.delta_bytes < threshold_bytes:
        return None
    return compact(db, save_prefix=save_prefix)
