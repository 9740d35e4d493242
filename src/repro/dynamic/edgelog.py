"""The overlay's edge log: what a version changes of its base, as arrays.

A :class:`~repro.dynamic.delta.DynamicGraphDatabase` version is its base
plus an :class:`EdgeLog` — ``src`` / ``dst`` / ``weight``, the inserted
edges ascending by source and, within a source, in commit order; and
``dead``, the deleted base edges as ascending positions in the base's
edge order — and the vertices added since the build, on *extension
pages* after the base's.  The base's pages hold VIDs ``0 .. V-1`` in
order, so its edge order is vertex-major: base vertex ``v``'s edges are
positions ``vertex_at[v] .. vertex_at[v + 1]`` and page ``p``'s
``edge_at[p] .. edge_at[p + 1]`` (a :class:`BaseLayout`).

Everything here is a function of arrays and builds no page object:
:func:`fold` applies a batch to a log (or rejects it),
:func:`add_vertices` lays out extension pages, :func:`page_edges` counts
a page's edges from the log alone, and :func:`merge_rows` /
:func:`splice_rows` give dirty pages their rows — per record, the live
base edges in base order, then the inserts in commit order (a large
vertex's on the last page of its run) — in place of an ancestor's.
"""

import collections

import numpy as np

from repro.core.plan import segment_sum, take_ranges
from repro.dynamic.batch import OP_INSERT, OP_VERTICES
from repro.errors import UpdateError
from repro.format.rvt import RecordVertexTable


def _indptr(counts):
    return np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))


def _in_sorted(values, sorted_array):
    """Mask of the ``values`` present in ascending ``sorted_array``."""
    at = np.searchsorted(sorted_array, values)
    hit = at < len(sorted_array)
    hit[hit] = sorted_array[at[hit]] == values[hit]
    return hit


class EdgeLog(collections.namedtuple("EdgeLog", "src dst weight dead")):
    """A version's inserted edges and deleted base edges (see the module
    docstring).  Immutable: a commit makes a new log."""

    __slots__ = ()

    @classmethod
    def empty(cls):
        none = np.empty(0, dtype=np.int64)
        return cls(none, none, np.empty(0, dtype=np.float32), none)

    @property
    def nbytes(self):
        return sum(array.nbytes for array in self)

    def span(self, lo, hi):
        """Log index ranges of the entries whose source lies in
        ``[lo, hi)``, elementwise."""
        return (np.searchsorted(self.src, lo),
                np.searchsorted(self.src, hi))


class BaseLayout(collections.namedtuple(
        "BaseLayout", "db pages vertices edge_at vertex_at lp_runs")):
    """What the log is positioned against: the base database ``db``,
    its page and vertex counts, its per-page (``edge_at``) and
    per-vertex (``vertex_at``) edge offsets, and its large vertices'
    page runs as ``(firsts, lengths)``, firsts ascending."""

    __slots__ = ()

    @classmethod
    def of(cls, db):
        lp = np.flatnonzero(db.rvt.lp_ranges >= 0)
        firsts = np.flatnonzero(db.rvt.lp_ranges[lp] == 0)
        return cls(db, db.num_pages, db.num_vertices,
                   _indptr(db.directory.num_edges), _indptr(db.out_degrees),
                   (lp[firsts], np.diff(np.append(firsts, len(lp)))))

    def pages_of(self, vertex_page, vids):
        """Ascending page IDs holding ``vids``: each vertex's page, or
        its whole large-page run."""
        first = vertex_page[np.asarray(vids, dtype=np.int64)]
        firsts, lengths = self.lp_runs
        run = np.minimum(np.searchsorted(firsts, first), len(firsts) - 1)
        counts = (np.where(firsts[run] == first, lengths[run], 1)
                  if len(firsts) else np.ones(len(first), dtype=np.int64))
        return np.unique(take_ranges(first, counts))


Folded = collections.namedtuple(
    "Folded", "log sources degree_change inserted deleted unlogged "
    "tombstoned added")
Folded.__doc__ = """What :func:`fold` made of one batch: the new ``log``;
the edge ops' ``sources`` and per-source out-degree change
(``degree_change``, aligned); the ``inserted`` edges and the ``deleted``
copies; ``unlogged``, the inserted copies a delete took back out of the
log; ``tombstoned``, the ``(src, dst)`` pairs whose base copies died;
and the ``added`` vertex count."""


def fold(log, ops, num_vertices, base_edges):
    """Apply a batch's ``ops`` to ``log`` in order; a :class:`Folded`.

    ``num_vertices`` is the version's vertex count and ``base_edges``
    maps each base vertex a delete names to ``(first position,
    targets)``, its edges in the base.  An insert appends one copy; a
    delete removes every copy present at that point — the log's, the
    batch's own earlier inserts and the live base copies — and raises
    :class:`~repro.errors.UpdateError` when there is none, as does an
    edge naming a vertex the batch has not added yet.  Nothing is
    changed on error, so a batch is validated by folding it."""
    pending = []              # this batch's inserts, in op order
    gone = set()              # pairs whose logged copies a delete took
    buried = set()            # pairs whose base copies this batch killed
    dead = [log.dead]
    sources, change = [], []
    inserted = deleted = unlogged = added = 0
    for op in ops:
        if op[0] == OP_VERTICES:
            num_vertices += op[1]
            added += op[1]
            continue
        src, dst = op[1], op[2]
        if src >= num_vertices or dst >= num_vertices:
            raise UpdateError(
                "edge (%d, %d) references a vertex outside the database "
                "of %d vertices" % (src, dst, num_vertices))
        sources.append(src)
        if op[0] == OP_INSERT:
            pending.append((src, dst, 1.0 if op[3] is None else op[3]))
            change.append(1)
            inserted += 1
            continue
        key = (src, dst)
        logged = 0
        if key not in gone:
            lo, hi = log.span(src, src + 1)
            logged = int(np.count_nonzero(log.dst[lo:hi] == dst))
        batched = sum(1 for entry in pending if entry[:2] == key)
        killed = ()
        if key not in buried and src in base_edges:
            first, targets = base_edges[src]
            killed = first + np.flatnonzero(targets == dst)
            killed = killed[~_in_sorted(killed, log.dead)]
        removed = logged + batched + len(killed)
        if removed == 0:
            raise UpdateError("cannot delete missing edge (%d, %d)"
                              % (src, dst))
        gone.add(key)
        pending = [entry for entry in pending if entry[:2] != key]
        if len(killed):
            buried.add(key)
            dead.append(killed)
        unlogged += logged + batched
        change.append(-removed)
        deleted += removed

    keep = np.ones(len(log.src), dtype=bool)
    for src, dst in gone:
        lo, hi = log.span(src, src + 1)
        keep[lo:hi] &= log.dst[lo:hi] != dst
    new_src, new_dst, new_weight = (
        np.asarray(column, dtype=dtype) for column, dtype in zip(
            zip(*pending) if pending else ((), (), ()),
            (np.int64, np.int64, np.float32)))
    order = np.argsort(new_src, kind="stable")
    kept = [column[keep] for column in log[:3]]
    at = np.searchsorted(kept[0], new_src[order], side="right")
    return Folded(
        log=EdgeLog(*(np.insert(column, at, new[order]) for column, new
                      in zip(kept, (new_src, new_dst, new_weight))),
                    np.sort(np.concatenate(dead))),
        sources=np.asarray(sources, dtype=np.int64),
        degree_change=np.asarray(change, dtype=np.int64),
        inserted=inserted, deleted=deleted, unlogged=unlogged,
        tombstoned=len(buried), added=added)


def ext_capacity(config):
    """Records one extension page may hold (slot- and byte-bounded)."""
    by_bytes = config.page_size // config.vertex_bytes(0)
    return max(1, min(config.max_slot_number, by_bytes))


def add_vertices(directory, rvt, vertex_page, base_pages, capacity,
                 first, count):
    """Place ``count`` vertices from VID ``first`` on extension pages:
    fill the last page if it is an extension page with room, then open
    pages of ``capacity`` records (the last may be partial).  Returns
    the new ``(directory, rvt, vertex_page)`` and the pages it touched;
    the inputs are left as they were."""
    end = first + count
    touched, vertex_pages = [], [vertex_page]
    directory = directory.copy()
    last = len(directory) - 1
    if last >= base_pages:
        fill = min(count, capacity - int(directory.num_records[last]))
        if fill:
            directory.num_records[last] += fill
            touched.append(last)
            vertex_pages.append(np.full(fill, last))
            first += fill
    starts = np.arange(first, end, capacity)
    sizes = np.diff(np.append(starts, end))
    pids = np.arange(len(starts)) + len(directory)
    vertex_pages.append(np.repeat(pids, sizes))
    if len(starts):
        directory = directory.extended(starts, sizes)
        touched.extend(pids.tolist())
        rvt = RecordVertexTable(
            np.concatenate([rvt.start_vids, starts]),
            np.concatenate([rvt.lp_ranges,
                            np.full(len(starts), -1, dtype=np.int64)]))
    return (directory, rvt, np.concatenate(vertex_pages),
            np.asarray(touched, dtype=np.int64))


def _log_spans(directory, lp_ranges, pids):
    """Per page, the VIDs ``[lo, hi)`` whose inserts it carries: every
    record of a small or extension page; a large page's vertex on the
    last page of its run, else none."""
    lo = directory.start_vid[pids]
    large = directory.is_large[pids]
    after = np.minimum(pids + 1, len(lp_ranges) - 1)
    last = (pids + 1 == len(lp_ranges)) | (lp_ranges[after] <= 0)
    return lo, lo + np.where(large, last, directory.num_records[pids])


def page_edges(log, layout, directory, lp_ranges, pids):
    """Each page's edge count: its base edges less its dead positions,
    plus the inserts it carries."""
    base = pids < layout.pages
    edges = np.zeros(len(pids), dtype=np.int64)
    lo, hi = layout.edge_at[pids[base]], layout.edge_at[pids[base] + 1]
    edges[base] = (hi - lo - np.searchsorted(log.dead, hi)
                   + np.searchsorted(log.dead, lo))
    first, last = log.span(*_log_spans(directory, lp_ranges, pids))
    return edges + last - first


def merge_rows(base_rows, log, layout, state, pids):
    """The :meth:`~repro.format.database.GraphDatabase.topology_arrays`
    rows of the ascending ``pids`` at ``state``'s version (its
    ``directory``, ``rvt``, ``vertex_page``, ``out_degrees`` and
    ``config``), from ``base_rows``, the base's rows of those of them
    below ``layout.pages``.  Per record: its base edges whose positions
    are not dead, in base order, then its inserts in commit order."""
    directory = state.directory
    ext = pids[pids >= layout.pages]
    rec_counts = np.concatenate((base_rows["rec_counts"],
                                 directory.num_records[ext]))
    rec_vids = np.concatenate((base_rows["rec_vids"], take_ranges(
        directory.start_vid[ext], directory.num_records[ext])))
    base_degrees = base_rows["degrees"]
    base_pids = pids[:len(pids) - len(ext)]
    positions = take_ranges(layout.edge_at[base_pids],
                            base_rows["edge_counts"])
    alive = ~_in_sorted(positions, log.dead)
    kept = np.zeros(len(rec_vids), dtype=np.int64)
    kept[:len(base_degrees)] = segment_sum(alive, _indptr(base_degrees))
    alive = np.flatnonzero(alive)
    lo, hi = _log_spans(directory, state.rvt.lp_ranges, pids)
    carries = np.repeat(hi > lo, rec_counts)
    first, last = log.span(rec_vids, rec_vids + 1)
    inserts = np.where(carries, last - first, 0)
    degrees = kept + inserts
    out_at = _indptr(degrees)
    base_rec = np.repeat(np.arange(len(base_degrees)), base_degrees)[alive]
    to_base = (np.arange(len(alive)) + out_at[base_rec]
               - _indptr(kept)[base_rec])
    to_log = take_ranges(out_at[:-1] + kept, inserts)
    from_log = take_ranges(first, inserts)
    logged_dst = log.dst[from_log]

    def merged(base_column, log_column, dtype):
        out = np.empty(out_at[-1], dtype=dtype)
        out[to_base] = base_column[alive]
        out[to_log] = log_column
        return out

    large = np.repeat(directory.is_large[pids], rec_counts)
    weights = base_rows["adj_weights"]
    if weights is None and layout.db.config.weight_bytes:
        weights = np.ones(len(positions), dtype=np.float32)
    return {
        "rec_counts": rec_counts,
        "edge_counts": segment_sum(degrees, _indptr(rec_counts)),
        "degrees": degrees,
        "rec_vids": rec_vids,
        "rec_divisor": np.where(large, state.out_degrees[rec_vids], degrees),
        "adj_vids": merged(base_rows["adj_vids"], logged_dst, np.int64),
        "adj_pids": merged(base_rows["adj_pids"],
                           state.vertex_page[logged_dst], np.int64),
        "adj_weights": (None if weights is None else merged(
            weights, log.weight[from_log], np.float32)),
    }


_FIELDS = (("rec_counts", ("degrees", "rec_vids", "rec_divisor")),
           ("edge_counts", ("adj_vids", "adj_pids", "adj_weights")))


def splice_rows(source, pids, rows, num_pages):
    """CSR row replacement: ``source``'s topology arrays with the rows
    of the ascending ``pids`` (every page past ``source``'s end among
    them) taken from ``rows``, their :func:`merge_rows`.  Runs of clean
    pages are slices of ``source``; each field is concatenated once."""
    kept = len(source["rec_counts"])
    cuts = np.flatnonzero(np.diff(pids) != 1) + 1
    lo, hi = np.append(0, cuts), np.append(cuts, len(pids))
    # The clean run before each run of dirty pages, and after the last.
    clean = np.minimum(np.stack([np.append(0, pids[hi - 1] + 1),
                                 np.append(pids[lo], kept)]), kept)
    out = {}
    for counts, fields in _FIELDS:
        column = np.zeros(num_pages, dtype=np.int64)
        column[:kept] = source[counts]
        column[pids] = rows[counts]
        out[counts] = column
        clean_at = _indptr(source[counts])[clean].T.tolist()
        row_at = _indptr(rows[counts])[np.stack([lo, hi])].T.tolist()
        for name in fields:
            old, new = source[name], rows[name]
            if old is None:
                out[name] = None
                continue
            parts = []
            for (a, b), (c, d) in zip(clean_at, row_at):
                parts += (old[a:b], new[c:d])
            parts.append(old[slice(*clean_at[-1])])
            out[name] = np.concatenate(parts)
    return out
