"""Delta pages: a mutable overlay over an immutable slotted-page base.

The GTS builder produces a read-only database; this module makes it
*behave* mutable without rewriting base pages.  A
:class:`DynamicGraphDatabase` wraps any base database (eager or
file-backed) and keeps three overlay structures, in the spirit of the
delta-update designs for GPU-resident topologies (Sha et al.):

* **delta adjacency** — per-vertex lists of inserted neighbours, merged
  into the vertex's page at serve time;
* **tombstones** — per-vertex sets of deleted neighbours, filtered out
  of base-page records at serve time;
* **extension pages** — fresh slotted pages appended after the base
  pages, holding the records of vertices added after the build (their
  VIDs stay consecutive per page, so RVT translation works unchanged).

``page(pid)`` transparently returns the *merged* page — base records
minus tombstones plus delta entries — so the engine and every kernel
see the up-to-date adjacency with zero code changes.  Merged pages are
cached per PID and invalidated when a batch touches their vertices (the
"cache invalidation of updated PIDs" the engine relies on; the GPU-side
:class:`~repro.core.cache.PageCache` needs no equivalent because the
engine builds fresh per-run caches, so no GPU-resident copy survives a
mutation).

Durability is layered in front: when a :class:`~repro.dynamic.wal.WriteAheadLog`
is attached, :meth:`DynamicGraphDatabase.apply` appends the batch to the
log (fsync) *before* mutating the overlays, and
:func:`open_dynamic_database` replays the log over a freshly loaded base
on startup — crash recovery is just "load + replay".  The WAL *epoch*
(see :mod:`repro.dynamic.wal`) guards the one ordering this cannot
cover: a crash mid-compaction, after the folded base reached disk but
before the WAL reset, leaves a log whose batches are already in the
base pages; :func:`open_dynamic_database` detects the stale epoch and
discards that log instead of double-applying it.

Snapshot isolation (MVCC)
-------------------------
Every committed batch produces a new ``topology_version``, and the
overlay state that *serves* each version is immutable once the next
batch commits: :meth:`DynamicGraphDatabase.apply` clones the mutable
overlay structures (copy-on-write) before touching them, freezes the
result as a :class:`_VersionState`, and registers it in a per-database
version chain.  Readers call :meth:`DynamicGraphDatabase.pin` to get a
:class:`Snapshot` — a read-only :class:`~repro.format.database.GraphDatabase`
view of one version — and run entire queries against it while writers
keep committing; ``page(pid, version=...)`` resolves a single page as
of any retained version.  Reclamation is epoch-style: a version is
dropped as soon as it is neither the head nor pinned by any live
snapshot (checked at every commit and every release), and retired
file-backed bases left behind by an in-place compaction are closed once
the last snapshot over them goes away.  Pins are in-memory only —
crash recovery never has to honour them, so the WAL epoch protocol
above is untouched.

Concurrency contract: writers are serialised by a per-database commit
lock; concurrent readers must go through :meth:`~DynamicGraphDatabase.pin`
(or an already-pinned :class:`Snapshot`) — reading the *head* object
while a batch is mid-apply is as unsynchronised as it always was.
"""

import dataclasses
import threading

import numpy as np

from repro.dynamic.batch import OP_DELETE, OP_INSERT, OP_VERTICES, UpdateBatch
from repro.dynamic.wal import WriteAheadLog
from repro.errors import FormatError, UpdateError, WALError
from repro.format.database import GraphDatabase, PageDirectoryEntry
from repro.format.io import FileBackedDatabase, load_database
from repro.format.page import LargePage, SmallPage
from repro.format.rvt import RecordVertexTable


@dataclasses.dataclass
class ApplyReport:
    """What one :meth:`DynamicGraphDatabase.apply` call did."""

    lsn: object              # WAL record index, or None when not logged
    affected_pids: np.ndarray
    inserted_edges: int = 0
    deleted_edges: int = 0
    added_vertices: int = 0
    topology_version: int = 0


class _VersionState:
    """The frozen overlay state serving one committed topology version.

    Freezing is O(1): the state holds *references* to the working
    structures of the head at commit time, and the next
    :meth:`DynamicGraphDatabase.apply` clones those structures before
    mutating them (copy-on-write), so a registered state never changes
    after the version it describes stops being the head.  The
    ``merged`` memo is the one deliberately shared mutable member:
    snapshots lazily park merged pages in it, which is safe because
    merged pages are immutable and deterministic — concurrent inserters
    can only write identical values.
    """

    __slots__ = ("version", "base", "base_pages", "base_vertices",
                 "extras", "dead", "merged", "lp_runs", "directory",
                 "num_pages", "rvt", "vertex_page", "out_degrees",
                 "num_vertices", "num_edges", "_server")

    def __init__(self, version, base, base_pages, base_vertices, extras,
                 dead, merged, lp_runs, directory, num_pages, rvt,
                 vertex_page, out_degrees, num_vertices, num_edges):
        self.version = version
        self.base = base
        self.base_pages = base_pages
        self.base_vertices = base_vertices
        self.extras = extras
        self.dead = dead
        self.merged = merged
        self.lp_runs = lp_runs
        self.directory = directory
        self.num_pages = num_pages
        self.rvt = rvt
        self.vertex_page = vertex_page
        self.out_degrees = out_degrees
        self.num_vertices = num_vertices
        self.num_edges = num_edges
        self._server = None

    def server(self, owner):
        """A memoised unpinned :class:`Snapshot` serving this state
        (the ``page(pid, version=...)`` path; pins get fresh handles)."""
        srv = self._server
        if srv is None:
            srv = Snapshot(owner, self, pinned=False)
            self._server = srv
        return srv


class DynamicGraphDatabase(GraphDatabase):
    """A :class:`~repro.format.database.GraphDatabase` that accepts updates.

    Parameters
    ----------
    base:
        The immutable base database (eager or
        :class:`~repro.format.io.FileBackedDatabase`).
    wal:
        Optional :class:`~repro.dynamic.wal.WriteAheadLog`; when present,
        every applied batch is durably logged before the overlay mutates.
    recorder:
        Optional :class:`~repro.obs.events.TraceRecorder` for
        ``delta_apply`` / ``compaction`` instants.
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
        # MVCC: the version chain, its pins, and reclamation accounting.
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
        self._adopt_base(base)
        super().__init__(
            pages=[None] * base.num_pages,
            directory=list(base.directory),
            rvt=RecordVertexTable(base.rvt.start_vids.copy(),
                                  base.rvt.lp_ranges.copy()),
            config=base.config,
            num_vertices=base.num_vertices,
            num_edges=base.num_edges,
            out_degrees=base.out_degrees.copy(),
            vertex_page=base.vertex_page.copy(),
            name=base.name,
        )
        # Register version 0 so queries can pin before any batch lands.
        self._versions[0] = self._freeze_state()

    def _adopt_base(self, base):
        """(Re)point the overlay at a base database; resets delta state."""
        self._base = base
        self._base_pages = base.num_pages
        self._base_vertices = base.num_vertices
        self._extras = {}      # vid -> ([targets], [weights])
        self._dead = {}        # vid -> set of deleted base neighbours
        self._merged = {}      # pid -> merged page cache
        self._overlaid_pids = set()
        self._open_ext = None  # pid of the extension page being filled
        self.tombstoned_edges = 0
        self.delta_bytes = 0
        self._lp_runs = self._index_lp_runs(base)

    @staticmethod
    def _index_lp_runs(base):
        """vid -> sorted array of the vertex's large-page run PIDs."""
        runs = {}
        lp_ranges = base.rvt.lp_ranges
        for pid in base.large_page_ids():
            vid = int(base.rvt.start_vids[pid])
            runs.setdefault(vid, []).append(int(pid))
        return {vid: np.asarray(sorted(pids), dtype=np.int64)
                for vid, pids in runs.items()}

    # ------------------------------------------------------------------
    # Page serving (the engine's view)
    # ------------------------------------------------------------------
    def page(self, page_id, version=None):
        """The merged page — of the head, or as of a retained version.

        ``version`` selects a committed topology version still in the
        chain (the head, or any version a live snapshot pins); pages of
        reclaimed versions are gone and raise
        :class:`~repro.errors.UpdateError`.
        """
        if version is not None and version != self.topology_version:
            return self._version_view(version).page(page_id)
        return self._serve_page(page_id)

    def _serve_page(self, page_id):
        if page_id < 0 or page_id >= len(self.directory):
            raise FormatError("unknown page ID %d" % page_id)
        page = self._merged.get(page_id)
        if page is not None:
            return page
        if page_id >= self._base_pages:
            page = self._materialise(page_id)
            self._merged[page_id] = page
            return page
        # Untouched base pages are never memoised here: parking them in
        # this unbounded dict would shadow the base handle's bounded
        # page pool (and any attached cross-query shared cache), so only
        # overlay-merged pages stay resident on the wrapper.
        base_page = self._base.page(page_id)
        page = self._merge_base(page_id, base_page)
        if page is not base_page:
            self._merged[page_id] = page
        return page

    def is_small(self, page_id):
        return self.directory[page_id].kind == "SP"

    # The base pool's counters surface through the dynamic wrapper so the
    # engine's page-pool accounting keeps working over mutated databases.
    @property
    def pool_hits(self):
        return getattr(self._base, "pool_hits", 0)

    @property
    def pool_misses(self):
        return getattr(self._base, "pool_misses", 0)

    @property
    def prefetch_chunk(self):
        return self._base.prefetch_chunk

    def prefetch(self, page_ids):
        """Warm the base store for the base pages among ``page_ids``
        (extension pages are materialised in memory, never read)."""
        return self._base.prefetch(
            [pid for pid in page_ids if pid < self._base_pages])

    def topology_arrays(self):
        """The base's flat arrays while this version carries no delta
        (no inserted or deleted edge, no extension page); the generic
        per-page scan over merged pages once it does."""
        if (not self._extras and not self._dead
                and len(self.directory) == self._base_pages):
            return self._base.topology_arrays()
        # Named, not super(): Snapshot borrows this method.
        return GraphDatabase.topology_arrays(self)

    def _materialise(self, pid):
        if pid >= self._base_pages:
            return self._extension_page(pid)
        return self._merge_base(pid, self._base.page(pid))

    def _merge_base(self, pid, base_page):
        """The overlay-merged view of a base page (``base_page`` itself
        when none of its vertices carry deltas)."""
        if not self._extras and not self._dead:
            return base_page
        vids = (range(base_page.start_vid,
                      base_page.start_vid + base_page.num_records)
                if base_page.kind.value == "SP" else (base_page.vid,))
        if not any(v in self._extras or v in self._dead for v in vids):
            return base_page
        if base_page.kind.value == "SP":
            return self._merge_small(pid, base_page)
        return self._merge_large(pid, base_page)

    def _physical_ids(self, targets):
        """Physical ``(pid, slot)`` halves for logical neighbour IDs."""
        targets = np.asarray(targets, dtype=np.int64)
        pids = self.vertex_page[targets]
        slots = targets - self.rvt.start_vids[pids]
        return pids, slots

    def _merge_small(self, pid, base_page):
        weighted = base_page.adj_weights is not None
        indptr = [0]
        vid_parts, pid_parts, slot_parts, weight_parts = [], [], [], []
        for i in range(base_page.num_records):
            vid = base_page.start_vid + i
            lo = int(base_page.adj_indptr[i])
            hi = int(base_page.adj_indptr[i + 1])
            t = base_page.adj_vids[lo:hi]
            p = base_page.adj_pids[lo:hi]
            s = base_page.adj_slots[lo:hi]
            w = base_page.adj_weights[lo:hi] if weighted else None
            dead = self._dead.get(vid)
            if dead:
                keep = ~np.isin(t, np.fromiter(dead, dtype=np.int64))
                t, p, s = t[keep], p[keep], s[keep]
                if weighted:
                    w = w[keep]
            vid_parts.append(t)
            pid_parts.append(p)
            slot_parts.append(s)
            if weighted:
                weight_parts.append(w)
            extras = self._extras.get(vid)
            if extras and extras[0]:
                et = np.asarray(extras[0], dtype=np.int64)
                ep, es = self._physical_ids(et)
                vid_parts.append(et)
                pid_parts.append(ep)
                slot_parts.append(es)
                if weighted:
                    weight_parts.append(
                        np.asarray(extras[1], dtype=np.float32))
            indptr.append(sum(len(part) for part in vid_parts))
        merged_vids = np.concatenate(vid_parts) if vid_parts else \
            np.empty(0, dtype=np.int64)
        merged_pids = np.concatenate(pid_parts) if pid_parts else \
            np.empty(0, dtype=np.int64)
        merged_slots = np.concatenate(slot_parts) if slot_parts else \
            np.empty(0, dtype=np.int64)
        merged_weights = (np.concatenate(weight_parts)
                          if weighted and weight_parts else None)
        return SmallPage(pid, base_page.start_vid, indptr, merged_pids,
                         merged_slots, merged_vids, self.config,
                         adj_weights=merged_weights)

    def _merge_large(self, pid, base_page):
        vid = base_page.vid
        weighted = base_page.adj_weights is not None
        t = base_page.adj_vids
        p = base_page.adj_pids
        s = base_page.adj_slots
        w = base_page.adj_weights if weighted else None
        dead = self._dead.get(vid)
        if dead:
            keep = ~np.isin(t, np.fromiter(dead, dtype=np.int64))
            t, p, s = t[keep], p[keep], s[keep]
            if weighted:
                w = w[keep]
        run = self._lp_runs[vid]
        extras = self._extras.get(vid)
        if extras and extras[0] and pid == int(run[-1]):
            # New adjacency entries ride on the run's last chunk.
            et = np.asarray(extras[0], dtype=np.int64)
            ep, es = self._physical_ids(et)
            t = np.concatenate([t, et])
            p = np.concatenate([p, ep])
            s = np.concatenate([s, es])
            if weighted:
                w = np.concatenate(
                    [w, np.asarray(extras[1], dtype=np.float32)])
        return LargePage(pid, vid, base_page.chunk_index, p, s, t,
                         self.config, adj_weights=w,
                         total_degree=int(self.out_degrees[vid]))

    def _extension_page(self, pid):
        """Synthesize the slotted page of post-build vertices."""
        entry = self.directory[pid]
        weighted = self.config.weight_bytes > 0
        indptr = [0]
        vid_parts, pid_parts, slot_parts, weight_parts = [], [], [], []
        for i in range(entry.num_records):
            vid = entry.start_vid + i
            extras = self._extras.get(vid)
            if extras and extras[0]:
                et = np.asarray(extras[0], dtype=np.int64)
                ep, es = self._physical_ids(et)
                vid_parts.append(et)
                pid_parts.append(ep)
                slot_parts.append(es)
                if weighted:
                    weight_parts.append(
                        np.asarray(extras[1], dtype=np.float32))
            indptr.append(sum(len(part) for part in vid_parts))
        merged_vids = (np.concatenate(vid_parts) if vid_parts
                       else np.empty(0, dtype=np.int64))
        merged_pids = (np.concatenate(pid_parts) if pid_parts
                       else np.empty(0, dtype=np.int64))
        merged_slots = (np.concatenate(slot_parts) if slot_parts
                        else np.empty(0, dtype=np.int64))
        merged_weights = (np.concatenate(weight_parts)
                          if weighted and weight_parts else
                          (np.empty(0, dtype=np.float32) if weighted
                           else None))
        return SmallPage(pid, entry.start_vid, indptr, merged_pids,
                         merged_slots, merged_vids, self.config,
                         adj_weights=merged_weights)

    # ------------------------------------------------------------------
    # Base adjacency probes (validation and tombstone accounting)
    # ------------------------------------------------------------------
    def _base_targets(self, vid):
        """The vertex's neighbour VIDs in the immutable base pages."""
        if vid >= self._base_vertices:
            return np.empty(0, dtype=np.int64)
        run = self._lp_runs.get(vid)
        if run is not None:
            return np.concatenate(
                [self._base.page(int(pid)).adj_vids for pid in run])
        page = self._base.page(self._base.page_for_vertex(vid))
        slot = vid - page.start_vid
        lo = int(page.adj_indptr[slot])
        hi = int(page.adj_indptr[slot + 1])
        return page.adj_vids[lo:hi]

    def _committed_copies(self, src, dst):
        """Copies of ``src -> dst`` in the committed effective adjacency."""
        count = 0
        if src < self.num_vertices:
            dead = self._dead.get(src)
            if not (dead and dst in dead):
                count += int(np.count_nonzero(
                    self._base_targets(src) == dst))
            extras = self._extras.get(src)
            if extras:
                count += extras[0].count(dst)
        return count

    def effective_neighbors(self, vid):
        """The vertex's current neighbour VIDs (base − dead + delta)."""
        if vid < 0 or vid >= self.num_vertices:
            raise UpdateError("vertex %d outside database of %d vertices"
                              % (vid, self.num_vertices))
        targets = self._base_targets(vid)
        dead = self._dead.get(vid)
        if dead:
            targets = targets[~np.isin(
                targets, np.fromiter(dead, dtype=np.int64))]
        extras = self._extras.get(vid)
        if extras and extras[0]:
            targets = np.concatenate(
                [targets, np.asarray(extras[0], dtype=np.int64)])
        return targets

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def apply(self, batch, log=True):
        """Validate, durably log, then apply one batch atomically.

        Returns an :class:`ApplyReport`.  Validation happens *before*
        the WAL append, so the log only ever contains applicable
        batches (replay cannot fail on a committed record).

        Commits never block readers: pinned snapshots keep serving the
        overlay structures this call clones before mutating, and the
        new version becomes pinnable atomically with the version bump.
        """
        if not isinstance(batch, UpdateBatch):
            raise UpdateError("apply() expects an UpdateBatch")
        with self._commit_lock:
            self._check_batch(batch)
            lsn = None
            if log and self.wal is not None:
                lsn = self.wal.append(batch)
            self._unshare()
            report = self._apply_ops(batch)
            report.lsn = lsn
            self.applied_batches += 1
            with self._version_lock:
                self.topology_version += 1
                report.topology_version = self.topology_version
                self._versions[self.topology_version] = \
                    self._freeze_state()
                self._reclaim_locked()
        if self.recorder is not None:
            self.recorder.instant(
                "delta_apply", "host", "dynamic", 0.0,
                inserted=report.inserted_edges,
                deleted=report.deleted_edges,
                vertices=report.added_vertices,
                pages=len(report.affected_pids),
                version=report.topology_version)
        return report

    def _unshare(self):
        """Copy-on-write step: clone every overlay structure the frozen
        head state shares before this apply mutates it.  ``_lp_runs``,
        ``rvt`` and ``vertex_page`` are exempt — mutation only ever
        *rebinds* them (``np.concatenate``), never edits in place."""
        self._extras = {vid: (list(t), list(w))
                        for vid, (t, w) in self._extras.items()}
        self._dead = {vid: set(s) for vid, s in self._dead.items()}
        self._merged = dict(self._merged)
        self.directory = list(self.directory)
        self.out_degrees = self.out_degrees.copy()

    def _freeze_state(self):
        """Freeze the current head as an immutable :class:`_VersionState`
        (O(1): shares the working structures; see :meth:`_unshare`)."""
        return _VersionState(
            version=self.topology_version,
            base=self._base,
            base_pages=self._base_pages,
            base_vertices=self._base_vertices,
            extras=self._extras,
            dead=self._dead,
            merged=self._merged,
            lp_runs=self._lp_runs,
            directory=self.directory,
            num_pages=len(self.directory),
            rvt=self.rvt,
            vertex_page=self.vertex_page,
            out_degrees=self.out_degrees,
            num_vertices=self.num_vertices,
            num_edges=self.num_edges,
        )

    def _check_batch(self, batch):
        """Trial-run the batch without mutating state; raises on the
        first invalid op."""
        v_count = self.num_vertices
        copies = {}  # (src, dst) -> copies present at this point
        for op in batch.ops:
            if op[0] == OP_VERTICES:
                v_count += op[1]
                continue
            src, dst = op[1], op[2]
            if src >= v_count or dst >= v_count:
                raise UpdateError(
                    "edge (%d, %d) references a vertex outside the "
                    "database of %d vertices" % (src, dst, v_count))
            key = (src, dst)
            if key not in copies:
                copies[key] = self._committed_copies(src, dst)
            if op[0] == OP_INSERT:
                copies[key] += 1
            else:
                if copies[key] == 0:
                    raise UpdateError(
                        "cannot delete missing edge (%d, %d)"
                        % (src, dst))
                copies[key] = 0

    def _apply_ops(self, batch):
        affected = set()
        report = ApplyReport(lsn=None,
                             affected_pids=np.empty(0, dtype=np.int64))
        pages_added = False
        for op in batch.ops:
            if op[0] == OP_INSERT:
                self._do_insert(op[1], op[2], op[3], affected)
                report.inserted_edges += 1
            elif op[0] == OP_DELETE:
                report.deleted_edges += self._do_delete(
                    op[1], op[2], affected)
            else:
                pages_added |= self._do_add_vertices(op[1], affected)
                report.added_vertices += op[1]
        self.inserted_edges += report.inserted_edges
        self.deleted_edges += report.deleted_edges
        self.added_vertices += report.added_vertices
        if pages_added:
            self._refresh_page_index()
        self._refresh_pages(affected)
        report.affected_pids = np.asarray(sorted(affected), dtype=np.int64)
        return report

    def _pids_of_vertex(self, vid):
        run = self._lp_runs.get(vid)
        if run is not None:
            return [int(pid) for pid in run]
        return [int(self.vertex_page[vid])]

    def _do_insert(self, src, dst, weight, affected):
        extras = self._extras.setdefault(src, ([], []))
        extras[0].append(dst)
        extras[1].append(1.0 if weight is None else float(weight))
        self.out_degrees[src] += 1
        self.num_edges += 1
        self.delta_bytes += self.config.adjacency_entry_bytes
        affected.update(self._pids_of_vertex(src))

    def _do_delete(self, src, dst, affected):
        removed = 0
        extras = self._extras.get(src)
        if extras:
            removed += extras[0].count(dst)
            if removed:
                keep = [i for i, t in enumerate(extras[0]) if t != dst]
                extras[0][:] = [extras[0][i] for i in keep]
                extras[1][:] = [extras[1][i] for i in keep]
                self.delta_bytes -= removed * self.config.adjacency_entry_bytes
        dead = self._dead.get(src)
        if not (dead and dst in dead):
            in_base = int(np.count_nonzero(self._base_targets(src) == dst))
            if in_base:
                self._dead.setdefault(src, set()).add(dst)
                self.tombstoned_edges += 1
                self.delta_bytes += self.config.record_id_bytes
                removed += in_base
        if removed == 0:
            raise UpdateError(
                "cannot delete missing edge (%d, %d)" % (src, dst))
        self.out_degrees[src] -= removed
        self.num_edges -= removed
        affected.update(self._pids_of_vertex(src))
        return removed

    def _ext_capacity(self):
        """Records one extension page may hold (slot- and byte-bounded)."""
        by_bytes = self.config.page_size // self.config.vertex_bytes(0)
        return max(1, min(self.config.max_slot_number, by_bytes))

    def _do_add_vertices(self, count, affected):
        # Accumulate per-vertex state in lists and concatenate once at
        # the end — per-vertex np.append/RVT rebuilds would make large
        # vertex batches quadratic.
        pages_added = False
        capacity = self._ext_capacity()
        new_start_vids = []
        new_vertex_pages = []
        vid = self.num_vertices
        remaining = count
        while remaining:
            entry = (self.directory[self._open_ext]
                     if self._open_ext is not None else None)
            if entry is None or entry.num_records >= capacity:
                pid = len(self.directory)
                self.directory.append(PageDirectoryEntry(
                    page_id=pid, kind="SP", start_vid=vid,
                    num_records=0, num_edges=0, used_bytes=0))
                self.pages.append(None)
                new_start_vids.append(vid)
                self._open_ext = pid
                entry = self.directory[pid]
                pages_added = True
            take = min(remaining, capacity - entry.num_records)
            pid = self._open_ext
            self.directory[pid] = dataclasses.replace(
                entry, num_records=entry.num_records + take)
            new_vertex_pages.append(
                np.full(take, pid, dtype=np.int64))
            affected.add(pid)
            vid += take
            remaining -= take
        self.vertex_page = np.concatenate(
            [self.vertex_page] + new_vertex_pages)
        if new_start_vids:
            self.rvt = RecordVertexTable(
                np.concatenate([
                    self.rvt.start_vids,
                    np.asarray(new_start_vids,
                               dtype=self.rvt.start_vids.dtype)]),
                np.concatenate([
                    self.rvt.lp_ranges,
                    np.full(len(new_start_vids), -1,
                            dtype=self.rvt.lp_ranges.dtype)]))
        self.num_vertices += count
        self.delta_bytes += count * self.config.slot_entry_bytes
        self.out_degrees = np.concatenate(
            [self.out_degrees, np.zeros(count, dtype=np.int64)])
        return pages_added

    def _refresh_pages(self, pids):
        """Re-materialise updated pages and sync their directory rows —
        the per-PID merged-page cache invalidation the engine sees."""
        for pid in pids:
            self._merged.pop(pid, None)
            page = self._materialise(pid)
            self._merged[pid] = page
            self.directory[pid] = dataclasses.replace(
                self.directory[pid], num_edges=page.num_edges,
                used_bytes=page.used_bytes())
            if page is not self._base_page_or_none(pid):
                self._overlaid_pids.add(pid)

    def _base_page_or_none(self, pid):
        if pid < self._base_pages:
            return self._base.page(pid)
        return None

    def _refresh_page_index(self):
        self._small_page_ids = np.asarray(
            [e.page_id for e in self.directory if e.kind == "SP"],
            dtype=np.int64)
        self._large_page_ids = np.asarray(
            [e.page_id for e in self.directory if e.kind == "LP"],
            dtype=np.int64)

    # ------------------------------------------------------------------
    # MVCC: pinning, version resolution, reclamation
    # ------------------------------------------------------------------
    def pin(self):
        """Pin the current head and return a read-only :class:`Snapshot`.

        The pinned version is retained — immune to reclamation and to
        compaction folding — until :meth:`Snapshot.release`.  Pinning
        is wait-free with respect to writers: it takes only the version
        lock, which commits hold for a dict insert, never for I/O.
        """
        with self._version_lock:
            state = self._versions[self.topology_version]
            self._pins[state.version] = self._pins.get(state.version,
                                                       0) + 1
            self.snapshots_pinned_total += 1
            pins = self._pins[state.version]
        if self.recorder is not None:
            self.recorder.instant("snapshot_pin", "host", "snapshot",
                                  0.0, version=state.version, pins=pins)
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
        if self.recorder is not None:
            self.recorder.instant("snapshot_release", "host", "snapshot",
                                  0.0, version=version,
                                  pins=max(0, count))

    def _version_view(self, version):
        """The memoised read-only view serving a retained ``version``."""
        with self._version_lock:
            state = self._versions.get(version)
            retained = sorted(self._versions)
        if state is None:
            raise UpdateError(
                "topology version %d is not retained (head %d, "
                "retained: %s)" % (version, self.topology_version,
                                   retained))
        return state.server(self)

    def snapshot(self, version=None):
        """An *unpinned* read-only view of a retained version (the head
        by default).  Unlike :meth:`pin` it does not protect the
        version from reclamation — use it for one-off reads."""
        if version is None:
            version = self.topology_version
        return self._version_view(version)

    def pinned_versions(self):
        """Sorted topology versions live snapshots currently pin."""
        with self._version_lock:
            return sorted(self._pins)

    def _reclaim_locked(self):
        """Drop versions that are neither head nor pinned (epoch-based
        reclamation) and retire bases no retained state references.  Caller holds ``_version_lock``."""
        head = self.topology_version
        dead = [v for v in self._versions
                if v != head and v not in self._pins]
        if not dead:
            return 0
        for v in dead:
            del self._versions[v]
        self.reclaimed_versions += len(dead)
        self._retire_bases_locked()
        if self.recorder is not None:
            self.recorder.instant(
                "snapshot_reclaim", "host", "snapshot", 0.0,
                versions=len(dead), oldest=min(dead),
                chain=len(self._versions))
        return len(dead)

    def _retire_bases_locked(self):
        """Close retired (pre-compaction) bases once no retained state
        serves from them, and evict their shared-cache entries."""
        if not self._retired_bases:
            return
        live = {id(self._base)}
        live.update(id(s.base) for s in self._versions.values())
        still_referenced = []
        for base in self._retired_bases:
            if id(base) in live:
                still_referenced.append(base)
                continue
            shared = getattr(base, "shared_cache", None)
            if shared is not None and hasattr(shared, "drop_version"):
                shared.drop_version(getattr(base, "topology_version", 0))
            if self._owns_base:
                close = getattr(base, "close", None)
                if close is not None:
                    close()
        self._retired_bases = still_referenced

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
        return len(self.directory) - self._base_pages

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
        """Replace the base database after compaction folded the deltas.

        Resets every overlay structure and bumps the topology version so
        engines re-index their page runs.  ``new_epoch`` is set only
        when the folded base was durably saved under the WAL's prefix:
        then the log is reset (its batches are in the on-disk pages) and
        stamped with the new epoch.  Without it the WAL is left intact —
        the on-disk base still predates the deltas, so the log's records
        remain the only durable copy of the folded batches.

        MVCC-safe: versions pinned by live snapshots keep serving from
        the *old* base (a file-backed old base holds its file
        descriptor, so even an in-place durable compaction cannot
        corrupt them — the replaced inode lives until close).  The old
        base is retired and closed only when its last retained version
        is reclaimed.
        """
        old_base = self._base
        new_head = self.topology_version + 1
        # The folded base gets the new head as its cache-version tag so
        # (page_id, version) keys in a shared cache can never collide
        # with entries of the base it replaces.
        if getattr(new_base, "topology_version", 0) != new_head:
            new_base.topology_version = new_head
        shared = getattr(old_base, "shared_cache", None)
        if shared is not None and hasattr(new_base, "attach_shared_cache"):
            new_base.attach_shared_cache(shared)
        self._adopt_base(new_base)
        self.pages = [None] * new_base.num_pages
        self.directory = list(new_base.directory)
        self.rvt = RecordVertexTable(new_base.rvt.start_vids.copy(),
                                     new_base.rvt.lp_ranges.copy())
        self.num_vertices = new_base.num_vertices
        self.num_edges = new_base.num_edges
        self.out_degrees = new_base.out_degrees.copy()
        self.vertex_page = new_base.vertex_page.copy()
        self._refresh_page_index()
        self.compactions += 1
        self.compaction_folded_bytes += folded_bytes
        with self._version_lock:
            self.topology_version = new_head
            self._versions[new_head] = self._freeze_state()
            if old_base is not new_base:
                self._retired_bases.append(old_base)
            self._reclaim_locked()
        if new_epoch is not None:
            self.base_epoch = new_epoch
            if self.wal is not None:
                self.wal.reset(epoch=new_epoch)
        if self.recorder is not None:
            self.recorder.instant("compaction", "host", "dynamic", 0.0,
                                  folded_bytes=folded_bytes,
                                  pages=new_base.num_pages,
                                  epoch=self.base_epoch)

    # ------------------------------------------------------------------
    # Validation (overrides the base's pages-list walk)
    # ------------------------------------------------------------------
    def validate(self):
        """Check overlay invariants through the serving path."""
        covered = 0
        total_edges = 0
        for entry in self.directory:
            page = self.page(entry.page_id)
            if entry.kind == "SP":
                covered += entry.num_records
            elif page.chunk_index == 0:
                covered += 1
            if entry.num_edges != page.num_edges:
                raise FormatError(
                    "directory says %d edges in page %d, merged page "
                    "holds %d" % (entry.num_edges, entry.page_id,
                                  page.num_edges))
            total_edges += page.num_edges
            translated = self.rvt.translate(page.adj_pids, page.adj_slots)
            if not np.array_equal(translated, page.adj_vids):
                raise FormatError(
                    "RVT translation mismatch in page %d" % entry.page_id)
        if covered != self.num_vertices:
            raise FormatError("pages cover %d vertices, expected %d"
                              % (covered, self.num_vertices))
        if total_edges != self.num_edges:
            raise FormatError("pages hold %d edges, expected %d"
                              % (total_edges, self.num_edges))
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
    reads).  It is a full :class:`~repro.format.database.GraphDatabase`:
    the engine runs whole queries against it exactly as against the
    head, and its ``topology_version`` is the pinned version, so every
    version-keyed cache in the stack (shared page cache, round-plan
    cache) serves versions side by side.

    The view holds *references* into the owner's frozen
    :class:`_VersionState` — construction copies nothing but a
    page-count-sized placeholder list.
    """

    # Page merging is identical to the head's — same overlay attribute
    # names, frozen contents — so the serving methods are shared with
    # DynamicGraphDatabase rather than duplicated.
    _serve_page = DynamicGraphDatabase._serve_page
    _materialise = DynamicGraphDatabase._materialise
    _merge_base = DynamicGraphDatabase._merge_base
    _merge_small = DynamicGraphDatabase._merge_small
    _merge_large = DynamicGraphDatabase._merge_large
    _extension_page = DynamicGraphDatabase._extension_page
    _physical_ids = DynamicGraphDatabase._physical_ids
    _base_targets = DynamicGraphDatabase._base_targets
    effective_neighbors = DynamicGraphDatabase.effective_neighbors
    is_small = DynamicGraphDatabase.is_small
    validate = DynamicGraphDatabase.validate
    pool_hits = DynamicGraphDatabase.pool_hits
    pool_misses = DynamicGraphDatabase.pool_misses
    prefetch_chunk = DynamicGraphDatabase.prefetch_chunk
    prefetch = DynamicGraphDatabase.prefetch
    topology_arrays = DynamicGraphDatabase.topology_arrays

    def __init__(self, owner, state, pinned=True):
        self._owner = owner
        self._state = state
        self._pinned = pinned
        self._released = False
        self._base = state.base
        self._base_pages = state.base_pages
        self._base_vertices = state.base_vertices
        self._extras = state.extras
        self._dead = state.dead
        self._merged = state.merged
        self._lp_runs = state.lp_runs
        super().__init__(
            pages=[None] * state.num_pages,
            directory=state.directory,
            rvt=state.rvt,
            config=owner.config,
            num_vertices=state.num_vertices,
            num_edges=state.num_edges,
            out_degrees=state.out_degrees,
            vertex_page=state.vertex_page,
            name=owner.name,
        )
        self.topology_version = state.version

    @property
    def version(self):
        """The topology version this snapshot serves."""
        return self._state.version

    @property
    def released(self):
        return self._released

    def page(self, page_id, version=None):
        if version is not None and version != self.topology_version:
            return self._owner.page(page_id, version=version)
        return self._serve_page(page_id)

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

    This is the crash-recovery entry point: the base pages come from
    ``<prefix>.meta.json`` / ``<prefix>.pages`` (lazily when
    ``pool_pages`` is given), the log from ``<prefix>.wal``, and every
    committed batch is re-applied in order — a torn tail from a crash
    mid-append is detected via checksums and truncated away.  A log
    whose epoch is *behind* the base's is a pre-compaction leftover (the
    crash hit after the folded base was saved but before the WAL reset);
    its batches are already in the base pages, so it is discarded
    instead of replayed.  A log *ahead* of its base cannot arise from
    any crash ordering and raises :class:`~repro.errors.WALError`.
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
    # Recovery outcomes go through the structured logger (silent until
    # repro.obs.telemetry.configure_logging installs a sink): library
    # code must never write ad-hoc lines to stderr, but a stale-log
    # discard or a torn-tail repair is exactly what an operator wants
    # in the log pipeline after an unclean shutdown.
    from repro.obs.telemetry import get_logger
    log = get_logger("repro.dynamic")
    if wal.epoch < base_epoch:
        # Pre-compaction leftover; its batches are already folded into
        # the base pages.
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
