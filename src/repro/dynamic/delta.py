"""The live database: an immutable base plus an edge log, versioned.

A :class:`DynamicGraphDatabase` wraps any built base database (eager or
file-backed) and makes it *behave* mutable without rewriting a base
page, in the spirit of the delta-update designs for GPU-resident
topologies (Sha et al.).  Each committed topology version is the base
plus an :class:`~repro.dynamic.edgelog.EdgeLog`: inserted edges, deleted
base edges as positions in the base's edge order, and the vertices added
since the build on *extension pages*.

A commit costs in proportion to its batch.  It folds the batch into a new
log (:func:`~repro.dynamic.edgelog.fold`, which also validates it),
counts each touched page's edges from the log for the directory, and
reads the base only for the vertices a delete names — no page object, no
page pool.  A version's topology arrays are spliced on first use from the
nearest ancestor that built its own, merging only the pages dirtied since
(:func:`~repro.dynamic.edgelog.merge_rows`); ``page(pid)`` is the
inherited :meth:`GraphDatabase.page` view over them, so the engine and
every kernel read the current adjacency unchanged.

Durability: with a :class:`~repro.dynamic.wal.WriteAheadLog` attached,
:meth:`DynamicGraphDatabase.apply` appends a batch after validating it
and before its version exists, and :func:`open_dynamic_database`
recovers by loading the base and replaying the log (the WAL *epoch*,
:mod:`repro.dynamic.wal`, discards a log a crashed compaction already
folded).

Snapshot isolation: versions are immutable :class:`_VersionState` s in a
per-database chain.  :meth:`DynamicGraphDatabase.pin` returns a
:class:`Snapshot`, a read-only :class:`GraphDatabase` of one version
that whole queries run on while writers commit.  A version is reclaimed
as soon as it is neither the head nor pinned (checked at every commit
and release), and a base retired by compaction is closed with its last
version.  Writers serialise on a commit lock; readers take only the
version lock, at pin and release.
"""

import dataclasses
import threading

import numpy as np

from repro.core.plan import array_bytes
from repro.dynamic.batch import OP_DELETE, UpdateBatch
from repro.dynamic.edgelog import (
    BaseLayout,
    EdgeLog,
    add_vertices,
    ext_capacity,
    fold,
    merge_rows,
    page_edges,
    splice_rows,
)
from repro.dynamic.wal import WriteAheadLog
from repro.errors import FormatError, UpdateError, WALError
from repro.format.database import GraphDatabase, select_rows
from repro.format.io import FileBackedDatabase, load_database


@dataclasses.dataclass
class ApplyReport:
    """What one :meth:`DynamicGraphDatabase.apply` call did."""

    lsn: object              # WAL record index, or None when not logged
    affected_pids: np.ndarray
    inserted_edges: int = 0
    deleted_edges: int = 0
    added_vertices: int = 0
    topology_version: int = 0


#: The head's :class:`GraphDatabase` fields, which a version state sets.
_VIEW = ("directory", "rvt", "vertex_page", "out_degrees", "num_vertices",
         "num_edges")


@dataclasses.dataclass(eq=False, repr=False)
class _VersionState:
    """One committed topology version: its base ``layout``, edge ``log``
    and :data:`_VIEW` fields, none written after its commit.

    Its flat topology arrays have a lineage: ``arrays`` is the memo, set
    by the first :meth:`topology_arrays` call; until then ``source``
    holds the arrays of the nearest ancestor that built them (``None``:
    the base's) and ``dirty`` the pages changed since.  ``index_source``
    is the same lineage, ``(index, dirty)`` or ``None``, for the full
    batch's reduce index; the version's plan (``_plan``, built by the
    first snapshot that asks, dropped at reclamation) takes it.
    """

    version: int
    layout: BaseLayout
    log: EdgeLog
    directory: object
    rvt: object
    vertex_page: np.ndarray
    out_degrees: np.ndarray
    num_vertices: int
    num_edges: int
    source: object = None
    dirty: frozenset = frozenset()
    index_source: object = None
    arrays: object = None
    _server: object = None
    _plan: object = None

    @classmethod
    def of_base(cls, version, base):
        """The version that is ``base`` itself: an empty log."""
        return cls(version, BaseLayout.of(base), EdgeLog.empty(),
                   *(getattr(base, name) for name in _VIEW))

    def child(self, version, folded):
        """The next version, after ``folded``, and the pages it touched
        (ascending): its edges' source pages, whole large-page runs,
        and the extension pages its vertices landed on.  Every array it
        changes is a new one."""
        layout = self.layout
        config = layout.db.config
        directory, rvt, vertex_page, added_pages = add_vertices(
            self.directory, self.rvt, self.vertex_page, layout.pages,
            ext_capacity(config), self.num_vertices, folded.added)
        out_degrees = np.concatenate(
            [self.out_degrees, np.zeros(folded.added, dtype=np.int64)])
        np.add.at(out_degrees, folded.sources, folded.degree_change)
        touched = np.union1d(layout.pages_of(vertex_page, folded.sources),
                             added_pages)
        edges = page_edges(folded.log, layout, directory, rvt.lp_ranges,
                           touched)
        directory.num_edges[touched] = edges
        directory.used_bytes[touched] = (
            directory.num_records[touched]
            * (config.adjlist_size_bytes + config.slot_entry_bytes)
            + edges * config.adjacency_entry_bytes)
        dirtied = frozenset(touched.tolist())
        source, dirty = self.lineage()
        index_source = self.index_lineage()
        if index_source is not None:
            index_source = (index_source[0], index_source[1] | dirtied)
        return _VersionState(
            version, layout, folded.log, directory, rvt, vertex_page,
            out_degrees, self.num_vertices + folded.added,
            self.num_edges + folded.inserted - folded.deleted, source,
            dirty | dirtied, index_source), touched

    def server(self, owner):
        """A memoised unpinned :class:`Snapshot` serving this state
        (the ``page(pid, version=...)`` path; pins get fresh handles)."""
        if self._server is None:
            self._server = Snapshot(owner, self, pinned=False)
        return self._server

    def lineage(self):
        """``(source, dirty)`` to build this version's arrays from: the
        memo with nothing dirty once built, else the recorded pair."""
        source, dirty = self.source, self.dirty
        # Read after ``source``: a build publishes ``arrays`` before it
        # drops ``source``, so a ``None`` memo here means ``source`` was
        # read live.
        arrays = self.arrays
        if arrays is not None:
            return arrays, frozenset()
        return source, dirty

    def index_lineage(self):
        """``(index, dirty)`` for a later version's full-batch reduce
        index: the plan's once it is built, else ``index_source`` (a
        ``None`` read in a race means sorting afresh, never a wrong
        index)."""
        if self._plan is not None:
            return self._plan.index_lineage()
        return self.index_source

    def topology_arrays(self):
        """The memo, or ``source`` with every dirty page's rows replaced
        by its merged rows — ``source`` itself when nothing is dirty.
        Base rows are sliced from the base's arrays when the lineage
        starts there, else decoded for just the dirty pages.  Two
        threads building at once compute identical arrays."""
        source, dirty = self.lineage()
        layout = self.layout
        base = None
        if source is None:
            source = base = layout.db.topology_arrays()
        if dirty:
            pids = np.fromiter(sorted(dirty), dtype=np.int64,
                               count=len(dirty))
            held = pids[pids < layout.pages]
            rows = (layout.db.topology_rows(held) if base is None
                    else select_rows(base, held))
            source = splice_rows(
                source, pids, merge_rows(rows, self.log, layout, self, pids),
                len(self.directory))
        self.arrays = source
        self.source = None
        return source

    def base_edges(self, vids):
        """``{v: (first position, targets)}``: the base edges of each
        base vertex among ``vids``, from the base's rows of their
        pages."""
        layout = self.layout
        vids = np.unique(np.asarray(vids, dtype=np.int64))
        vids = vids[vids < layout.vertices]
        if not len(vids):
            return {}
        rows = layout.db.topology_rows(layout.pages_of(self.vertex_page,
                                                       vids))
        at = np.concatenate(([0], np.cumsum(rows["degrees"])))
        lo = at[np.searchsorted(rows["rec_vids"], vids, side="left")]
        hi = at[np.searchsorted(rows["rec_vids"], vids, side="right")]
        return {vid: (int(layout.vertex_at[vid]), rows["adj_vids"][a:b])
                for vid, a, b in zip(vids.tolist(), lo.tolist(),
                                     hi.tolist())}

    def effective_neighbors(self, vid):
        """The vertex's neighbour VIDs at this version: its live base
        edges in base order, then its inserts in commit order."""
        if vid < 0 or vid >= self.num_vertices:
            raise UpdateError("vertex %d outside database of %d vertices"
                              % (vid, self.num_vertices))
        targets = np.empty(0, dtype=np.int64)
        if vid < self.layout.vertices:
            first, targets = self.base_edges([vid])[vid]
            lo, hi = np.searchsorted(self.log.dead,
                                     [first, first + len(targets)])
            alive = np.ones(len(targets), dtype=bool)
            alive[self.log.dead[lo:hi] - first] = False
            targets = targets[alive]
        lo, hi = self.log.span(vid, vid + 1)
        return np.concatenate([targets, self.log.dst[lo:hi]])

    def nbytes(self):
        """Bytes of the distinct arrays this version keeps alive: its
        log, layout offsets and :data:`_VIEW` arrays, its topology
        arrays (or the ancestor's it would splice from), its plan and an
        ancestor's reduce index it holds — not the base store's own."""
        layout, directory = self.layout, self.directory
        held = [*self.log, layout.edge_at, layout.vertex_at,
                *layout.lp_runs, *directory.columns(),
                *directory.page_ids(), self.rvt.start_vids,
                self.rvt.lp_ranges, self.vertex_page, self.out_degrees]
        source = self.lineage()[0]
        if source is not None:
            held += [array for array in source.values() if array is not None]
        plan, index_source = self._plan, self.index_source
        if plan is not None:
            held += plan.held_arrays()
        if index_source is not None:
            held += index_source[0].arrays()
        return array_bytes(held)


class DynamicGraphDatabase(GraphDatabase):
    """A :class:`~repro.format.database.GraphDatabase` that accepts updates.

    ``base`` is the immutable base database (eager or
    :class:`~repro.format.io.FileBackedDatabase`); ``wal`` an optional
    :class:`~repro.dynamic.wal.WriteAheadLog` every batch is durably
    logged to before it commits; ``recorder`` an optional
    :class:`~repro.obs.events.TraceRecorder` for ``delta_apply`` /
    ``compaction`` / ``snapshot_*`` instants.  The head's
    :class:`GraphDatabase` fields are its head version's.
    """

    def __init__(self, base, wal=None, recorder=None):
        self.wal = wal
        self.recorder = recorder
        #: Epoch of the base pages (see :mod:`repro.dynamic.wal`); a
        #: durable compaction bumps it in lockstep with the WAL header.
        self.base_epoch = getattr(base, "wal_epoch", 0)
        # Cumulative counters (survive compaction; feed repro.obs).
        self.applied_batches = 0
        self.inserted_edges = 0
        self.deleted_edges = 0
        self.added_vertices = 0
        self.compactions = 0
        self.compaction_folded_bytes = 0
        # ``_commit_lock`` serialises writers (apply / compaction);
        # ``_version_lock`` guards the chain + pin map and is the only
        # lock readers ever take (at pin / release, never per page).
        self._commit_lock = threading.RLock()
        self._version_lock = threading.Lock()
        self._versions = {}      # topology_version -> _VersionState
        self._pins = {}          # topology_version -> live pin count
        self._retired_bases = []
        self._owns_base = False  # open_dynamic_database() sets True
        self.reclaimed_versions = 0
        self.snapshots_pinned_total = 0
        super().__init__(None, config=base.config, name=base.name,
                         **{name: getattr(base, name) for name in _VIEW})
        self._rebase(base, 0)

    def _adopt(self, state):
        """Make ``state`` the head (caller holds the commit lock)."""
        self._head = self._versions[state.version] = state
        for name in _VIEW:
            setattr(self, name, getattr(state, name))

    def _rebase(self, base, version):
        """Start a lineage at ``base``: ``version`` is the base itself
        (an empty log), and the delta counters restart."""
        self._base = base
        self._overlaid_pids = set()
        self.tombstoned_edges = 0
        self.delta_bytes = 0
        self._adopt(_VersionState.of_base(version, base))

    # ------------------------------------------------------------------
    # Serving (the engine's view): the head version's
    # ------------------------------------------------------------------
    def page(self, page_id, version=None):
        """Page ``page_id`` of the head or of a retained ``version``;
        a reclaimed version raises :class:`~repro.errors.UpdateError`."""
        if version is None:
            version = self.topology_version
        return self.snapshot(version).page(page_id)

    def topology_arrays(self):
        return self._head.topology_arrays()

    def page_plan(self):
        """The head version's plan, which its snapshots share."""
        return self._head.server(self).page_plan()

    def effective_neighbors(self, vid):
        """The vertex's current neighbour VIDs (base − dead + inserts)."""
        return self._head.effective_neighbors(vid)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def apply(self, batch, log=True):
        """Validate, durably log, then commit one batch atomically;
        returns an :class:`ApplyReport`.

        Validation (folding the batch into the head's log) happens
        *before* the WAL append, so the log only holds applicable
        batches.  Commits never block readers: pinned snapshots keep
        serving their versions, and the new version becomes pinnable
        atomically with the version bump.
        """
        if not isinstance(batch, UpdateBatch):
            raise UpdateError("apply() expects an UpdateBatch")
        with self._commit_lock:
            head = self._head
            folded = fold(head.log, batch.ops, head.num_vertices,
                          head.base_edges([op[1] for op in batch.ops
                                           if op[0] == OP_DELETE]))
            lsn = None
            if log and self.wal is not None:
                lsn = self.wal.append(batch)
            state, touched = head.child(self.topology_version + 1, folded)
            config = self.config
            self.applied_batches += 1
            self.inserted_edges += folded.inserted
            self.deleted_edges += folded.deleted
            self.added_vertices += folded.added
            self.tombstoned_edges += folded.tombstoned
            self.delta_bytes += (
                (folded.inserted - folded.unlogged)
                * config.adjacency_entry_bytes
                + folded.tombstoned * config.record_id_bytes
                + folded.added * config.slot_entry_bytes)
            self._overlaid_pids.update(touched.tolist())
            with self._version_lock:
                self.topology_version = state.version
                self._adopt(state)
                self._reclaim_locked()
        report = ApplyReport(lsn, touched, folded.inserted, folded.deleted,
                             folded.added, state.version)
        self._note("delta_apply", "dynamic", inserted=folded.inserted,
                   deleted=folded.deleted, vertices=folded.added,
                   pages=len(touched), version=state.version)
        return report

    def _note(self, name, category, **args):
        """A host-lane instant on the attached recorder, if any."""
        if self.recorder is not None:
            self.recorder.instant(name, "host", category, 0.0, **args)

    # ------------------------------------------------------------------
    # MVCC: pinning, version resolution, reclamation
    # ------------------------------------------------------------------
    def pin(self):
        """Pin the head version until :meth:`Snapshot.release` and
        return its read-only :class:`Snapshot`.  Wait-free for writers:
        it takes only the version lock, which a commit holds to publish
        a state, never for I/O."""
        with self._version_lock:
            state = self._versions[self.topology_version]
            self._pins[state.version] = self._pins.get(state.version,
                                                       0) + 1
            self.snapshots_pinned_total += 1
            pins = self._pins[state.version]
        self._note("snapshot_pin", "snapshot", version=state.version,
                   pins=pins)
        return Snapshot(self, state, pinned=True)

    def _release_pin(self, version):
        """Drop one pin on ``version`` and reclaim whatever that frees."""
        with self._version_lock:
            count = self._pins.get(version, 0) - 1
            if count > 0:
                self._pins[version] = count
            else:
                self._pins.pop(version, None)
            self._reclaim_locked()
        self._note("snapshot_release", "snapshot", version=version,
                   pins=max(0, count))

    def snapshot(self, version=None):
        """An *unpinned* read-only view of a retained version (the head
        by default), for one-off reads: unlike :meth:`pin` it does not
        keep the version from reclamation."""
        if version is None:
            version = self.topology_version
        with self._version_lock:
            state = self._versions.get(version)
            retained = sorted(self._versions)
        if state is None:
            raise UpdateError(
                "topology version %d is not retained (head %d, "
                "retained: %s)" % (version, self.topology_version,
                                   retained))
        return state.server(self)

    def pinned_versions(self):
        """Sorted topology versions live snapshots currently pin."""
        with self._version_lock:
            return sorted(self._pins)

    def _reclaim_locked(self):
        """Drop versions that are neither head nor pinned (epoch-based
        reclamation) and retire bases no retained state references.
        Caller holds ``_version_lock``."""
        head = self.topology_version
        dead = [v for v in self._versions
                if v != head and v not in self._pins]
        if not dead:
            return 0
        for v in dead:
            # Free the version's plan now: a released snapshot may still
            # hold the state, and the state and its memoised server
            # snapshot are a cycle only the cyclic collector would break.
            state = self._versions.pop(v)
            state._plan = state._server = state.index_source = None
        self.reclaimed_versions += len(dead)
        self._retire_bases_locked()
        self._note("snapshot_reclaim", "snapshot", versions=len(dead),
                   oldest=min(dead), chain=len(self._versions))
        return len(dead)

    def _retire_bases_locked(self):
        """Close retired (pre-compaction) bases once no retained state
        serves from them."""
        live = {id(self._base)}
        live.update(id(s.layout.db) for s in self._versions.values())
        for base in self._retired_bases:
            if id(base) not in live and self._owns_base \
                    and hasattr(base, "close"):
                base.close()
        self._retired_bases = [base for base in self._retired_bases
                               if id(base) in live]

    def mvcc_stats(self):
        """Snapshot-isolation health counters (service `/stats`,
        ``collect_dynamic_metrics``)."""
        with self._version_lock:
            pins = dict(self._pins)
            chain = len(self._versions)
            head = self.topology_version
        oldest = min(pins) if pins else None
        return {
            "pinned_snapshots": sum(pins.values()),
            "pinned_versions": len(pins),
            "oldest_pinned_version": oldest,
            "oldest_pinned_lag": (head - oldest
                                  if oldest is not None else 0),
            "version_chain_length": chain,
            "reclaimed_versions": self.reclaimed_versions,
            "snapshots_pinned_total": self.snapshots_pinned_total,
        }

    def memory_stats(self):
        """Host bytes each live version keeps (:meth:`_VersionState.nbytes`)
        and their sum — the service's ``/stats`` ``memory`` block."""
        with self._version_lock:
            states = list(self._versions.values())
        versions = {str(state.version): state.nbytes() for state in states}
        return {"versions": versions,
                "total_bytes": sum(versions.values())}

    # ------------------------------------------------------------------
    # Delta accounting (compaction trigger + repro.obs)
    # ------------------------------------------------------------------
    @property
    def num_delta_pages(self):
        """Pages whose served form differs from the base (overflow +
        extension pages) — the dynamic analogue of #SP/#LP."""
        return len(self._overlaid_pids)

    @property
    def num_extension_pages(self):
        return len(self.directory) - self._head.layout.pages

    def dynamic_stats(self):
        """Counter snapshot consumed by ``repro.obs`` and the CLI."""
        stats = self.mvcc_stats()
        stats.update({
            "topology_version": self.topology_version,
            "base_epoch": self.base_epoch,
            "applied_batches": self.applied_batches,
            "inserted_edges": self.inserted_edges,
            "deleted_edges": self.deleted_edges,
            "added_vertices": self.added_vertices,
            "tombstoned_edges": self.tombstoned_edges,
            "delta_bytes": self.delta_bytes,
            "log_bytes": self._head.log.nbytes,
            "delta_pages": self.num_delta_pages,
            "extension_pages": self.num_extension_pages,
            "compactions": self.compactions,
            "compaction_folded_bytes": self.compaction_folded_bytes,
            "wal_records_appended": (self.wal.records_appended
                                     if self.wal else 0),
            "wal_bytes_appended": (self.wal.bytes_appended
                                   if self.wal else 0),
        })
        return stats

    # ------------------------------------------------------------------
    # Base swap (compaction commits through here)
    # ------------------------------------------------------------------
    def swap_base(self, new_base, folded_bytes=0, new_epoch=None):
        """Make ``new_base``, which compaction folded the log into, the
        head version (an empty log).  ``new_epoch``, set when that base
        was durably saved under the WAL's prefix, resets the WAL with
        it; without one the WAL stays the only durable copy of the
        folded batches.  Pinned versions keep serving from the old base
        (a file-backed one keeps its descriptor, so even an in-place
        save cannot corrupt them), which is closed with the last of
        them."""
        old_base = self._base
        self.compactions += 1
        self.compaction_folded_bytes += folded_bytes
        with self._version_lock:
            self.topology_version += 1
            self._rebase(new_base, self.topology_version)
            if old_base is not new_base:
                self._retired_bases.append(old_base)
            self._reclaim_locked()
        if new_epoch is not None:
            self.base_epoch = new_epoch
            if self.wal is not None:
                self.wal.reset(epoch=new_epoch)
        self._note("compaction", "dynamic", folded_bytes=folded_bytes,
                   pages=new_base.num_pages, epoch=self.base_epoch)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self):
        """Check this version's spliced arrays against its directory
        and vertex pages (:meth:`GraphDatabase._check_topology`), and
        its degree sum against its edge count."""
        self._check_topology(self.topology_arrays())
        if int(self.out_degrees.sum()) != self.num_edges:
            raise FormatError("degree sum disagrees with edge count")
        return True

    def __repr__(self):
        return ("DynamicGraphDatabase(%s: V=%d, E=%d, +%d -%d, "
                "delta=%dB over %d page(s))"
                % (self.name, self.num_vertices, self.num_edges,
                   self.inserted_edges, self.deleted_edges,
                   self.delta_bytes, self.num_delta_pages))


class Snapshot(GraphDatabase):
    """A read-only view of one retained topology version.

    Returned by :meth:`DynamicGraphDatabase.pin` (a *pinned* handle
    that must be :meth:`release`-d, also usable as a context manager)
    and by :meth:`DynamicGraphDatabase.snapshot` (unpinned, for one-off
    reads).  It is a full :class:`~repro.format.database.GraphDatabase`
    over the owner's :class:`_VersionState` (construction copies
    nothing): the engine runs whole queries on it as on the head, and
    every snapshot of a version shares its arrays and plan.
    """

    validate = DynamicGraphDatabase.validate

    def __init__(self, owner, state, pinned=True):
        self._owner = owner
        self._state = state
        self._pinned = pinned
        self._released = False
        #: The store a run's I/O counters are read from (the engine's
        #: ``_base`` convention).
        self._base = state.layout.db
        super().__init__(None, config=owner.config, name=owner.name,
                         **{name: getattr(state, name) for name in _VIEW})
        self.topology_version = state.version
        self.plan_memo = owner.plan_memo

    @property
    def version(self):
        """The topology version this snapshot serves."""
        return self._state.version

    def topology_arrays(self):
        return self._state.topology_arrays()

    def effective_neighbors(self, vid):
        return self._state.effective_neighbors(vid)

    def page_plan(self):
        """This version's plan, memoised on its :class:`_VersionState`:
        every snapshot of the version shares one, built under the
        owner's lock (splicing its reduce index from the version's
        ``index_source``) and freed when the version is reclaimed."""
        state = self._state
        plan = self.plan_memo.plan(state, self, state.index_source)
        state.index_source = None  # the plan holds it now
        return plan

    @property
    def released(self):
        return self._released

    def page(self, page_id, version=None):
        if version is not None and version != self.topology_version:
            return self._owner.page(page_id, version=version)
        return GraphDatabase.page(self, page_id)

    def pinned_versions(self):
        return self._owner.pinned_versions()

    def release(self):
        """Drop this snapshot's pin (idempotent; no-op when unpinned).

        After the last pin on a version goes away the owner may reclaim
        it — keep no references to pages served from a released
        snapshot's version if you need them to stay consistent."""
        if self._pinned and not self._released:
            self._released = True
            self._owner._release_pin(self._state.version)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.release()
        return False

    def __repr__(self):
        return ("Snapshot(%s@v%d: V=%d, E=%d%s)"
                % (self.name, self._state.version, self.num_vertices,
                   self.num_edges,
                   ", pinned" if self._pinned and not self._released
                   else ""))


def open_dynamic_database(prefix, pool_pages=None, fsync=True,
                          recorder=None):
    """Open ``<prefix>``'s base + WAL and replay committed batches.

    The crash-recovery entry point: the base comes from
    ``<prefix>.meta.json`` / ``<prefix>.pages`` (a lazily read
    :class:`FileBackedDatabase` when ``pool_pages`` is given), and every
    batch of ``<prefix>.wal`` is re-applied in order, a torn tail
    truncated away.  A log whose epoch is behind the base's was already
    folded by a compaction (:mod:`repro.dynamic.compact`) and is
    discarded; one ahead of it raises :class:`~repro.errors.WALError`.
    """
    if pool_pages is not None:
        base = FileBackedDatabase(prefix, pool_pages=pool_pages)
    else:
        base = load_database(prefix)
    base_epoch = getattr(base, "wal_epoch", 0)
    wal = WriteAheadLog(prefix + ".wal", fsync=fsync, recorder=recorder,
                        epoch=base_epoch)
    db = DynamicGraphDatabase(base, wal=wal, recorder=recorder)
    db._owns_base = True
    # Recovery outcomes go to the structured logger, never to stderr.
    from repro.obs.telemetry import get_logger
    log = get_logger("repro.dynamic")
    if wal.epoch < base_epoch:
        log.log("wal_stale_discarded", prefix=prefix,
                log_epoch=wal.epoch, base_epoch=base_epoch)
        wal.reset(epoch=base_epoch)
    elif wal.epoch > base_epoch:
        raise WALError(
            "%s.wal: log epoch %d is ahead of base epoch %d — these "
            "base files do not match this log (compacted to a "
            "different prefix?)" % (prefix, wal.epoch, base_epoch))
    else:
        report = wal.replay(repair=True)
        if report.truncated:
            log.log("wal_torn_tail_repaired", prefix=prefix,
                    torn_bytes=report.torn_bytes,
                    batches_recovered=report.num_batches)
        for batch in report:
            db.apply(batch, log=False)
    return db
