"""Dynamic graph updates for the slotted-page database.

GTS builds its topology once; this package makes it live.  The pieces,
in the order a mutation flows through them:

* :mod:`repro.dynamic.batch` — :class:`UpdateBatch`, the atomic unit of
  mutation (edge inserts/deletes, vertex adds);
* :mod:`repro.dynamic.wal` — :class:`WriteAheadLog`, checksummed durable
  logging with torn-tail crash recovery;
* :mod:`repro.dynamic.edgelog` — the edge log a version keeps over its
  base (inserts, deleted base positions, extension pages) and its row
  merge, as functions of arrays;
* :mod:`repro.dynamic.delta` — :class:`DynamicGraphDatabase`, the chain
  of versions the engine reads transparently, with MVCC snapshot
  isolation (:class:`Snapshot`, pin/release, version reclamation) so
  queries run while batches commit;
* :mod:`repro.dynamic.compact` — folding deltas back into a clean base
  with the original builder;
* :mod:`repro.dynamic.incremental` — restreaming only dirtied pages
  after insert-only batches via the engine's ``nextPIDSet`` path.

Recovery events (a stale log discarded, a torn tail repaired) go to the
``repro.dynamic`` structured logger
(:func:`repro.obs.telemetry.get_logger`), silent until a sink is
installed.
"""

from repro.dynamic.batch import UpdateBatch, parse_batch_file
from repro.dynamic.compact import (
    DEFAULT_THRESHOLD_BYTES,
    CompactionReport,
    compact,
    materialise_graph,
    maybe_compact,
)
from repro.dynamic.delta import (
    ApplyReport,
    DynamicGraphDatabase,
    Snapshot,
    open_dynamic_database,
)
from repro.dynamic.incremental import (
    IncrementalBFSKernel,
    IncrementalWCCKernel,
    incremental_bfs,
    incremental_wcc,
    insert_seeds,
)
from repro.dynamic.wal import (
    WAL_HEADER_BYTES,
    WAL_MAGIC,
    ReplayReport,
    WriteAheadLog,
)

__all__ = [
    "UpdateBatch",
    "parse_batch_file",
    "WriteAheadLog",
    "ReplayReport",
    "WAL_MAGIC",
    "WAL_HEADER_BYTES",
    "DynamicGraphDatabase",
    "Snapshot",
    "ApplyReport",
    "open_dynamic_database",
    "compact",
    "maybe_compact",
    "materialise_graph",
    "CompactionReport",
    "DEFAULT_THRESHOLD_BYTES",
    "IncrementalBFSKernel",
    "IncrementalWCCKernel",
    "incremental_bfs",
    "incremental_wcc",
    "insert_seeds",
]
