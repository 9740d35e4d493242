"""Unit tests for the vectorized execution plan and its satellites.

Covers the :mod:`repro.core.plan` arrays (batch gathering, the batch's
reduce index and segment reduce, one plan per topology version), the
steady-state cache shortcut, the vectorized large-page-run index, and
the rejection of the removed ``execution`` knob on the engine and the
CLI.
"""

import gc
import types
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import build_parser
from repro.core import (
    BFSKernel,
    DegreeKernel,
    GTSEngine,
    KCoreKernel,
    PageRankKernel,
    SSSPKernel,
)
from repro.core.cache import PageCache
from repro.core.kernels import Kernel, KernelContext
from repro.core.kernels.base import frontier_batch_work
from repro.core.micro import MicroTechnique, segment_lane_steps
from repro.core.plan import PagePlan, RoundBatch
from repro.core.result import RoundStats
from repro.core.strategies import make_strategy
from repro.core.streams import RoundOrder, StreamScheduler
from repro.dynamic import DynamicGraphDatabase, UpdateBatch, compact
from repro.errors import (ConfigurationError, RetryExhaustedError,
                          ServiceError, SimulationError)
from repro.faults import FaultInjector, FaultPlan, RetryPolicy
from repro.format import PageFormatConfig, build_database
from repro.format.database import GraphDatabase
from repro.graphgen import Graph, generate_rmat
from repro.hardware.machine import MachineRuntime
from repro.hardware.specs import scaled_workstation
from repro.obs.events import TraceRecorder
from repro.obs.host import HostProfiler
from repro.obs.telemetry import service_metric_families
from repro.service import GraphService, QueryRequest
from repro.spans import activate

from . import reference_booking


@pytest.fixture
def db():
    graph = generate_rmat(8, edge_factor=8, seed=11)
    return build_database(graph, PageFormatConfig(2, 2, 1024))


@pytest.fixture
def machine():
    return scaled_workstation(num_gpus=2, num_ssds=2)


@pytest.fixture
def lp_db():
    """A weighted heavy-tailed R-MAT on 512-byte pages: many large-page
    runs (interleaved with small pages in pid order), degree-0 records."""
    graph = generate_rmat(9, edge_factor=12, seed=4).with_random_weights(
        seed=4)
    return build_database(graph, PageFormatConfig(2, 2, 512,
                                                  weight_bytes=4))


@pytest.fixture(params=["db", "lp_db"])
def any_db(request):
    return request.getfixturevalue(request.param)


@pytest.fixture(scope="module")
def lp_plan():
    """``lp_db``'s database and plan, built once for the hypothesis
    property (which cannot take function-scoped fixtures); read-only."""
    graph = generate_rmat(9, edge_factor=12, seed=4).with_random_weights(
        seed=4)
    database = build_database(graph, PageFormatConfig(2, 2, 512,
                                                      weight_bytes=4))
    return database, PagePlan(database)


@pytest.fixture(scope="module")
def doubled_plan():
    """An R-MAT with every edge doubled, on 512-byte pages: each
    ``(page, target)`` segment holds at least two edges; read-only."""
    sources, targets = generate_rmat(8, edge_factor=8, seed=5).edge_list()
    database = build_database(
        Graph.from_edges(256, np.repeat(sources, 2), np.repeat(targets, 2)),
        PageFormatConfig(2, 2, 512))
    return database, PagePlan(database)


def sorted_scatter_index(adj_vids):
    """One page's reference scatter index: the stable argsort of its
    adjacency targets, the distinct targets, and where each target's
    segment starts in the sorted order."""
    order = np.argsort(adj_vids, kind="stable")
    targets, starts = np.unique(adj_vids[order], return_index=True)
    return order, targets, starts


def _reference_segments(batch):
    """:func:`sorted_scatter_index` of every page of ``batch``, in batch
    order and offset into the batch's edge space."""
    parts = [(np.empty(0, np.int64),) * 3]
    for k in range(batch.num_pages):
        lo, hi = batch.edge_indptr[k:k + 2]
        order, targets, starts = sorted_scatter_index(batch.adj_vids[lo:hi])
        parts.append((order + lo, targets, starts + lo))
    return [np.concatenate(column) for column in zip(*parts)]


#: Lazy RoundBatch fields by the space that delimits them.
RECORD_FIELDS = ("degrees", "rec_vids", "rec_divisor")
EDGE_FIELDS = ("adj_vids", "adj_pids", "adj_weights")
LAZY_FIELDS = ("rec_divisor", "edge_indptr", "edge_rec") + EDGE_FIELDS
#: Lazy Frontier fields (what ``advance`` used to return eagerly).
FRONTIER_FIELDS = ("sources", "targets", "target_pids", "weights")


def _page_fields(batch, k):
    """Every field of ``batch``'s ``k``-th page, indexes made
    page-local so two batches holding the page at different offsets
    compare equal."""
    rlo, rhi = batch.rec_indptr[k], batch.rec_indptr[k + 1]
    elo, ehi = batch.edge_indptr[k], batch.edge_indptr[k + 1]
    fields = {name: getattr(batch, name)[rlo:rhi]
              for name in RECORD_FIELDS}
    for name in EDGE_FIELDS:
        array = getattr(batch, name)
        fields[name] = None if array is None else array[elo:ehi]
    fields["edge_rec"] = batch.edge_rec[elo:ehi] - rlo
    return fields


def _identity_batch(plan):
    """Every page in pid order: the batch that is the plan's own
    arrays."""
    return RoundBatch(plan, np.arange(plan.num_pages, dtype=np.int64))


def _assert_pages_match(batch, full):
    """Each page of ``batch`` equals the same page sliced out of the
    identity batch, dtype for dtype."""
    for k, pid in enumerate(batch.pids.tolist()):
        want = _page_fields(full, pid)
        for name, got in _page_fields(batch, k).items():
            if want[name] is None:
                assert got is None, name
                continue
            assert got.dtype == want[name].dtype, (pid, name)
            np.testing.assert_array_equal(got, want[name],
                                          err_msg=str((pid, name)))


def _prefix(counts):
    return np.concatenate([[0], np.cumsum(counts, dtype=np.int64)])


def _record_plan(page_degrees):
    """The record-space arrays a :class:`RoundBatch` and ``advance``
    read, for pages given as lists of record degrees (``[]`` is an
    empty page, ``[d]`` with ``d > 32`` a large page's one record)."""
    degrees = np.asarray([d for page in page_degrees for d in page],
                         dtype=np.int64)
    rec_counts = np.asarray([len(page) for page in page_degrees],
                            dtype=np.int64)
    edge_counts = np.asarray([sum(page) for page in page_degrees],
                             dtype=np.int64)
    return types.SimpleNamespace(
        num_pages=len(page_degrees), degrees=degrees,
        rec_vids=np.arange(len(degrees), dtype=np.int64),
        rec_counts=rec_counts, rec_indptr=_prefix(rec_counts),
        edge_counts=edge_counts, edge_indptr=_prefix(edge_counts),
        rec_edge_start=_prefix(degrees)[:-1])


def _sp_first(db, pids):
    """``pids`` in the engine's dispatch order: small pages, then large."""
    pids = np.unique(np.asarray(pids, dtype=np.int64))
    is_large = db.rvt.lp_ranges[pids] >= 0
    return np.concatenate([pids[~is_large], pids[is_large]])


class TestPlanArrays:
    def test_global_scatter_matches_per_page(self, db):
        """The full batch's one stable sort must equal the concatenation
        of the per-page stable scatter argsorts, bit for bit: the segment
        targets, each one-edge segment's record, and each multi-edge
        segment's records in sorted order."""
        batch = _identity_batch(PagePlan(db))
        index = batch._reduce_index
        seg_targets, seg_src, multi_rec, multi_starts = index.arrays()[:4]
        order, targets, starts = _reference_segments(batch)
        np.testing.assert_array_equal(seg_targets, targets)
        sorted_rec = batch.edge_rec[order]
        edges = np.diff(starts, append=batch.num_edges)
        multi = edges > 1
        np.testing.assert_array_equal(seg_src[~multi],
                                      sorted_rec[starts[~multi]])
        np.testing.assert_array_equal(
            seg_src[multi],
            batch.num_records + np.arange(np.count_nonzero(multi)))
        np.testing.assert_array_equal(multi_rec, np.concatenate(
            [np.empty(0, np.int64)] + [sorted_rec[lo:lo + n] for lo, n
                                       in zip(starts[multi], edges[multi])]))
        np.testing.assert_array_equal(
            multi_starts, np.cumsum(edges[multi]) - edges[multi])
        assert 0 < np.count_nonzero(multi) < len(targets)
        # The per-page counts a splice renumbers runs of pages by.
        page_of = np.searchsorted(batch.edge_indptr, starts, "right") - 1
        for got, want in ((index.page_segs, page_of),
                          (index.page_multi, page_of[multi])):
            np.testing.assert_array_equal(
                got, np.bincount(want, minlength=batch.num_pages))
        np.testing.assert_array_equal(index.page_recs,
                                      batch.records_per_page())

    def test_overflow_fallback_matches_combined_key(self, db):
        """Where ``position * V + target`` could overflow int64 the batch
        sorts the pair with ``np.lexsort``: the same reduce index."""
        plan = PagePlan(db)
        pids = np.random.default_rng(3).permutation(plan.num_pages)
        fast = RoundBatch(plan, pids)._reduce_index
        plan.num_vertices = 1 << 60
        assert plan.num_pages >= (1 << 62) // plan.num_vertices
        for got, want in zip(RoundBatch(plan, pids)._reduce_index.arrays(),
                             fast.arrays()):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_full_batch_equals_explicit_gather(self, db, lp_db):
        """The zero-copy identity batch must agree with a forced gather
        of every page (a batch over a permutation of all of them)."""
        for database in (db, lp_db):
            plan = PagePlan(database)
            identity = _identity_batch(plan)
            assert identity.adj_vids is plan.adj_vids
            shuffled = np.random.default_rng(0).permutation(plan.num_pages)
            gathered = RoundBatch(plan, shuffled.astype(np.int64))
            assert gathered.adj_vids is not plan.adj_vids
            _assert_pages_match(gathered, identity)
            # The SP-first full batch is the identity one exactly when
            # the builder numbered every small page before the large.
            full = plan.full_batch()
            _assert_pages_match(full, identity)
            assert plan.round_batch(full.pids) is full

    def test_lazy_fields_equal_full_batch_page_by_page(self, any_db):
        """Every lazy field of a partial batch is that field of the
        full batch, page by page, whichever order they are first read
        in."""
        plan = PagePlan(any_db)
        full = _identity_batch(plan)
        rng = np.random.default_rng(1)
        for size in (1, 3, plan.num_pages // 2, plan.num_pages - 1):
            pids = _sp_first(any_db, rng.choice(plan.num_pages, size=size,
                                                replace=False))
            batch = plan.round_batch(pids)
            assert not set(LAZY_FIELDS) & set(vars(batch))
            for name in rng.permutation(LAZY_FIELDS):
                getattr(batch, name)
            _assert_pages_match(batch, full)
            assert batch.num_edges == len(batch.adj_vids)

    @pytest.mark.parametrize("frontier",
                             ["none", "all", "random", "large-pages-only"])
    def test_advance_equals_masked_edge_space(self, any_db, frontier):
        """Every lazy field of the ``Frontier`` is what the mask-expand
        idiom read — ``active[edge_rec]`` over the page-wide edge space
        — without building that space; ``filter(m)`` keeps the ``int64``
        positions ``flatnonzero(m)`` and is every field ``[m]``, nested
        or not; ``from_sources(v)`` is ``v[sources]`` bit for bit."""
        plan = PagePlan(any_db)
        rng = np.random.default_rng(2)
        subset = _sp_first(any_db, rng.choice(
            plan.num_pages, size=plan.num_pages // 2, replace=False))
        vectors = [rng.integers(-5, 5, any_db.num_vertices).astype(np.int32),
                   rng.random(any_db.num_vertices).astype(np.float32),
                   rng.random(any_db.num_vertices)]
        for pids in (subset, plan.full_batch().pids):
            batch = plan.round_batch(pids)
            if frontier == "none":
                active = np.zeros(batch.num_records, dtype=bool)
            elif frontier == "all":
                active = np.ones(batch.num_records, dtype=bool)
            elif frontier == "random":
                active = rng.random(batch.num_records) < 0.3
            else:
                active = np.repeat(any_db.rvt.lp_ranges[batch.pids] >= 0,
                                   batch.records_per_page())
            got = batch.advance(active)
            assert not set(FRONTIER_FIELDS) & set(vars(got))
            keep = rng.random(len(got.edges)) < 0.4
            kept = got.filter(keep)
            again = rng.random(len(kept.edges)) < 0.5
            nested = kept.filter(again)
            for name in rng.permutation(FRONTIER_FIELDS):
                getattr(kept, name), getattr(got, name)
            assert got.keep is None
            for view, mask in ((kept, keep), (nested, again)):
                assert view.keep.dtype == np.int64
                np.testing.assert_array_equal(view.keep,
                                              np.flatnonzero(mask))
            if len(pids) < plan.num_pages:
                assert not set(LAZY_FIELDS) & set(vars(batch))
            m = active[batch.edge_rec]
            want = {"sources": batch.rec_vids[batch.edge_rec[m]],
                    "targets": batch.adj_vids[m],
                    "target_pids": batch.adj_pids[m],
                    "weights": (None if batch.adj_weights is None
                                else batch.adj_weights[m])}
            assert len(got.edges) == int(m.sum())
            assert len(kept.edges) == int(keep.sum())
            for name, want_array in want.items():
                if want_array is None:
                    assert getattr(got, name) is None
                    assert getattr(kept, name) is None
                    continue
                for view, expect in ((got, want_array),
                                     (kept, want_array[keep]),
                                     (nested, want_array[keep][again])):
                    assert getattr(view, name).dtype == expect.dtype, name
                    np.testing.assert_array_equal(getattr(view, name),
                                                  expect, err_msg=name)
            for vector in vectors:
                for view in (got, kept, nested):
                    read = view.from_sources(vector)
                    assert read.dtype == vector.dtype
                    assert (read.tobytes()
                            == vector[view.sources].tobytes())

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_frontier_pages_equal_unique_of_masked_target_pids(
            self, lp_plan, data):
        """``filter(mask).pages()`` is ``np.unique(target_pids[mask])`` —
        same values, same order, same dtype — for empty, all-duplicate
        and large-page ids alike."""
        db, plan = lp_plan
        is_large = db.rvt.lp_ranges >= 0
        pids = _sp_first(db, data.draw(st.lists(
            st.integers(0, plan.num_pages - 1), max_size=12)))
        batch = plan.round_batch(pids)
        shape = data.draw(st.sampled_from(
            ["random", "none", "all", "one-page", "large-only"]))
        draw = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
        frontier = batch.advance(draw.random(batch.num_records) < 0.6)
        if shape == "random":
            mask = draw.random(len(frontier.edges)) < 0.5
        elif shape == "none":
            mask = np.zeros(len(frontier.edges), dtype=bool)
        elif shape == "all":
            mask = None
        elif shape == "one-page" and len(frontier.edges):
            mask = frontier.target_pids == frontier.target_pids[0]
        else:
            mask = is_large[frontier.target_pids]
        want = np.unique(frontier.target_pids if mask is None
                         else frontier.target_pids[mask])
        got = (frontier if mask is None
               else frontier.filter(mask)).pages()
        assert got.dtype == want.dtype == np.int64
        np.testing.assert_array_equal(got, want)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_row_work_is_the_segment_reductions(self, data):
        """``frontier_batch_work`` counts from ``advance``'s active rows
        what three segment reductions over every record counted: lane
        steps (``segment_lane_steps`` of the mask, every technique),
        edges (``edge_segment_sum(active[edge_rec])``) and active records
        (``segment_sum(active)``) — dtype and bytes — over empty pages,
        zero-degree records, large pages and no-, all- and some-active
        masks, in pid order and gathered."""
        pages = data.draw(st.lists(st.one_of(
            st.lists(st.integers(0, 70), max_size=70),
            st.integers(33, 400).map(lambda degree: [degree])),
            min_size=1, max_size=8))
        plan = _record_plan(pages)
        pids = np.asarray(data.draw(st.one_of(
            st.just(list(range(len(pages)))),
            st.lists(st.integers(0, len(pages) - 1), unique=True))),
            dtype=np.int64)
        batch = RoundBatch(plan, pids)
        shape = data.draw(st.sampled_from(["none", "all", "random"]))
        if shape == "random":
            active = np.asarray(data.draw(st.lists(
                st.booleans(), min_size=batch.num_records,
                max_size=batch.num_records)), dtype=bool)
        else:
            active = np.full(batch.num_records, shape == "all")
        rows = batch.advance(active).rows
        for technique in MicroTechnique:
            work = frontier_batch_work(batch, rows,
                                       KernelContext(None, technique))
            want = (segment_lane_steps(technique, batch.degrees,
                                       batch.rec_indptr, active),
                    batch.edge_segment_sum(active[batch.edge_rec]),
                    batch.segment_sum(active))
            got = (work.lane_steps, work.edges_traversed,
                   work.active_vertices)
            for name, g, w in zip(("lane_steps", "edges", "active"),
                                  got, want):
                assert g.dtype == w.dtype, (technique, name)
                assert g.tobytes() == w.tobytes(), (technique, name)

    def test_frontier_kernel_gathers_no_edge_or_scatter_space(self,
                                                              any_db,
                                                              monkeypatch):
        """A frontier round reads the record space and advances, and
        reads off the frontier only what its body uses; a regression to
        eager gathering shows up here, not only in a benchmark."""
        plan = PagePlan(any_db)
        start = int(np.argmax(any_db.out_degrees))
        frontiers = []
        advance = RoundBatch.advance
        monkeypatch.setattr(
            RoundBatch, "advance",
            lambda batch, active: frontiers.append(
                advance(batch, active)) or frontiers[-1])
        pids = _sp_first(any_db, [any_db.page_for_vertex(start), 0, 1])
        for kernel, unread in (
                (BFSKernel(start_vertex=start), {"sources", "weights"}),
                (KCoreKernel(k=int(any_db.out_degrees.max()) + 1),
                 {"sources", "target_pids", "weights"})):
            state = kernel.init_state(any_db)
            batch = plan.round_batch(pids)
            work = kernel.process_batch(batch, state,
                                        KernelContext(any_db))
            assert work.edges_traversed.sum() > 0
            assert not set(LAZY_FIELDS) & set(vars(batch))
            assert not {"_edge_sel", "_reduce_index"} & set(vars(batch))
            frontier = frontiers.pop()
            assert not frontiers
            assert "targets" in vars(frontier)
            assert not unread & set(vars(frontier)), kernel.name
            # BFS filters before it gathers: the visited targets' page
            # ids are never read.
            assert "target_pids" not in vars(frontier)

    @pytest.mark.parametrize("kernel_cls", [BFSKernel, SSSPKernel])
    def test_batched_traversal_sorts_no_edge_length_array(
            self, any_db, machine, kernel_cls, monkeypatch):
        """nextPIDSet is a bitmap from the kernel to the barrier: a
        run hands ``np.unique`` / ``np.isin`` nothing longer
        than the page count."""
        longest = {"np.unique": 0, "np.isin": 0}

        def watched(name, function):
            def wrapper(array, *args, **kwargs):
                longest[name] = max(longest[name], np.size(array))
                return function(array, *args, **kwargs)
            return wrapper

        engine = GTSEngine(any_db, machine)
        start = int(np.argmax(any_db.out_degrees))
        monkeypatch.setattr(np, "unique", watched("np.unique", np.unique))
        monkeypatch.setattr(np, "isin", watched("np.isin", np.isin))
        result = engine.run(kernel_cls(start_vertex=start))
        assert result.num_rounds > 2
        assert result.edges_traversed > any_db.num_pages
        assert max(longest.values()) <= any_db.num_pages, longest

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_reduce_into_is_the_reference_segment_reduce(
            self, lp_plan, doubled_plan, data):
        """``reduce_into(ufunc, out, per_record)`` is byte-equal to the
        per-page reference ``ufunc.at(out, targets, ufunc.reduceat(
        per_record[edge_rec][order], starts))`` -- float ``add`` across
        16 decades (a reassociation shows), int64 ``minimum``, 2-D
        uint32 ``bitwise_or`` -- on the full batch, every page out of
        pid order, SP-first partial batches, batches with no or only
        multi-edge segments, and an empty batch; ``reduceat`` runs over
        the multi-edge segments alone."""
        shape = data.draw(st.sampled_from(["full", "shuffled", "partial",
                                           "one-edge", "multi-edge", "empty"]))
        db, plan = doubled_plan if shape == "multi-edge" else lp_plan
        draw = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
        pids = draw.choice(plan.num_pages, size=draw.integers(
            1, plan.num_pages), replace=False)
        if shape == "full":
            pids = np.arange(plan.num_pages)
        elif shape == "one-edge":
            edges = np.diff(plan.edge_indptr)
            distinct = [len(np.unique(plan.adj_vids[lo:hi])) for lo, hi
                        in zip(plan.edge_indptr[:-1], plan.edge_indptr[1:])]
            pids = np.flatnonzero((edges > 0) & (edges == distinct))
        elif shape == "empty":
            pids = []
        batch = (RoundBatch(plan, draw.permutation(plan.num_pages))
                 if shape == "shuffled"
                 else plan.round_batch(_sp_first(db, pids)))
        ufunc, values = data.draw(st.sampled_from([
            (np.add, lambda n: draw.choice([-1.0, 1.0], n)
             * 10.0 ** draw.uniform(-8, 8, n)),
            (np.minimum, lambda n: draw.integers(-10 ** 6, 10 ** 6, n)),
            (np.bitwise_or, lambda n: np.uint32(1) << draw.integers(
                0, 32, (n, 3)).astype(np.uint32))]))
        per_record, out = values(batch.num_records), values(db.num_vertices)
        want = out.copy()
        order, targets, starts = _reference_segments(batch)
        ufunc.at(want, targets, ufunc.reduceat(
            per_record[batch.edge_rec][order], starts))
        batch.reduce_into(ufunc, out, per_record)
        assert out.dtype == want.dtype and out.tobytes() == want.tobytes()
        index = batch._reduce_index
        seg_targets, multi_starts = index.seg_targets, index.multi_starts
        multi = np.count_nonzero(np.diff(starts, append=batch.num_edges) > 1)
        assert len(multi_starts) == multi
        np.testing.assert_array_equal(seg_targets, targets)
        if shape == "one-edge":
            assert multi == 0 < len(targets)
        elif shape == "multi-edge":
            assert multi == len(targets)

    def test_only_a_full_scan_builds_the_reduce_index(self, lp_db, machine,
                                                      monkeypatch):
        """BFS then SSSP on a fresh plan sort no edge-length array, build
        no reduce index (no ``scatter`` span) and leave the plan its
        topology arrays, index pointers and directory columns alone;
        PageRank(10) builds the index once, on the full batch its rounds
        share, in one ``scatter`` span under ``core.kernels.batch``."""
        batches, sorted_lengths = [], [0]
        init = RoundBatch.__init__
        monkeypatch.setattr(RoundBatch, "__init__",
                            lambda batch, plan, pids: batches.append(batch)
                            or init(batch, plan, pids))
        for name in ("argsort", "lexsort"):
            def watched(keys, *args, _sort=getattr(np, name), **kwargs):
                sorted_lengths.append(np.shape(keys)[-1])
                return _sort(keys, *args, **kwargs)
            monkeypatch.setattr(np, name, watched)
        start = int(np.argmax(lp_db.out_degrees))
        engine = GTSEngine(lp_db, machine)
        hp = HostProfiler()
        with activate(hp):
            for kernel in (BFSKernel(start_vertex=start),
                           SSSPKernel(start_vertex=start)):
                assert engine.run(kernel).num_rounds > 2
        assert max(sorted_lengths) < lp_db.num_edges
        assert not any("_reduce_index" in vars(batch) for batch in batches)
        assert hp.calls("scatter") == 0
        assert {name for name, value in vars(lp_db.page_plan()).items()
                if isinstance(value, np.ndarray)} == set(
            lp_db.topology_arrays()) | {"rec_indptr", "edge_indptr",
                                        "rec_edge_start", "dir_records",
                                        "_full_order", "lp_ranges"}
        batches.clear()
        hp = HostProfiler()
        with activate(hp):
            assert engine.run(PageRankKernel(iterations=10)).num_rounds > 2
        assert sum("_reduce_index" in vars(batch) for batch in batches) == 1
        assert hp.calls("scatter") == hp.profile().phase(
            "core.engine.run/round/core.kernels.batch/scatter").count == 1

    def test_dropped_plan_is_freed_without_the_cyclic_collector(self, db):
        """The plan memoises its full batch and the batch reads the
        plan; were both references strong, every dropped plan (one per
        commit under live updates) would sit in memory until a
        collection — measured as 4x peak RSS on the service workload."""
        plan = PagePlan(db)
        plan.full_batch()._reduce_index
        dropped = weakref.ref(plan)
        gc.disable()
        try:
            del plan
            assert dropped() is None
        finally:
            gc.enable()

    def test_round_batch_subset(self, db):
        plan = PagePlan(db)
        pids = np.asarray([0, 2, 3], dtype=np.int64)
        batch = plan.round_batch(pids)
        assert batch.num_pages == 3
        offset = 0
        for k, pid in enumerate(pids):
            page = db.page(int(pid))
            lo, hi = batch.rec_indptr[k], batch.rec_indptr[k + 1]
            np.testing.assert_array_equal(batch.rec_vids[lo:hi],
                                          page.vids())
            np.testing.assert_array_equal(batch.degrees[lo:hi],
                                          page.degrees())
            elo, ehi = batch.edge_indptr[k], batch.edge_indptr[k + 1]
            np.testing.assert_array_equal(batch.adj_vids[elo:ehi],
                                          page.adj_vids)
            offset += page.num_records
        assert batch.num_records == offset

    def test_copy_bytes_cached_per_ra_width(self, db):
        plan = PagePlan(db)
        first = plan.copy_bytes(4)
        assert plan.copy_bytes(4) is first
        expected = np.asarray([db.page_bytes(pid) + records * 4 for pid, records
                               in enumerate(db.directory.num_records)])
        np.testing.assert_array_equal(first, expected)


def _reachable_bytes(root):
    """Bytes of the distinct arrays reachable from ``root`` through
    attributes, slots, dicts and sequences — not through a database
    handle (the base store, a version's server snapshot) or a weak
    proxy."""
    seen, arrays, stack = set(), {}, [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (GraphDatabase,
                                               *weakref.ProxyTypes)):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays[id(obj)] = obj.nbytes
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (tuple, list, set, frozenset)):
            stack.extend(obj)
        else:
            stack.extend(getattr(obj, "__dict__", {}).values())
            stack.extend(getattr(obj, name, None)
                         for cls in type(obj).__mro__
                         for name in getattr(cls, "__slots__", ()))
    return sum(arrays.values())


_MEMORY_STEPS = st.lists(st.sampled_from(
    ["commit", "commit", "pin", "release", "compact", "scan", "scan pin"]),
    min_size=1, max_size=12)


def _an_edge(live, i):
    """Some edge of ``live``'s head, picked by ``i``."""
    src = int(np.flatnonzero(live.out_degrees)[i % np.count_nonzero(
        live.out_degrees)])
    return src, int(live.effective_neighbors(src)[0])


class TestPlanPerVersion:
    def test_one_plan_and_reduce_index_per_version(self, db, machine,
                                                   monkeypatch):
        """Fresh engines, pinned snapshots of one version and concurrent
        service queries read one plan and one reduce index per (database,
        version); a commit builds the next version's once."""
        plans, batches = [], []
        for cls, seen in ((PagePlan, plans), (RoundBatch, batches)):
            monkeypatch.setattr(cls, "__init__", lambda obj, *args, _seen=seen,
                                _init=cls.__init__: _seen.append(obj)
                                or _init(obj, *args))
        live = DynamicGraphDatabase(db)
        pinned = [live.pin() for _ in range(3)]
        for database in [live] * 3 + pinned:
            GTSEngine(database, machine).run(PageRankKernel(iterations=3))
        live.apply(UpdateBatch().insert_edge(0, 1))
        for snapshot in pinned:
            GTSEngine(snapshot, machine).run(PageRankKernel(iterations=3))
            snapshot.release()
        service = GraphService(max_in_flight=4)
        service.add_database("g", db=live)
        futures = [service.submit({"database": "g", "algorithm": "pagerank",
                                   "params": {"iterations": 3}})
                   for _ in range(8)]
        assert {f.result(timeout=60).snapshot_version for f in futures} == {1}
        assert service.stats()["databases"]["g"]["plan_cache"]["builds"] == 2
        service.drain()
        assert [plan.topology_version for plan in plans] == [0, 1]
        assert sum("_reduce_index" in vars(b) for b in batches) == 2

    def test_reclaimed_version_frees_its_plan_at_once(self, db):
        """The commit or release that reclaims a version drops its plan
        (reduce index included) with no collection, though a released
        snapshot and the version's server snapshot still refer to it."""
        live = DynamicGraphDatabase(db)
        gc.disable()
        try:
            pinned = live.pin()
            pinned.page_plan().full_batch()._reduce_index
            v0 = weakref.ref(live.page_plan())
            assert v0() is pinned.page_plan()
            live.apply(UpdateBatch().insert_edge(0, 1))
            assert v0() is not None
            pinned.release()
            assert v0() is None
            v1 = weakref.ref(live.page_plan())
            server = weakref.ref(live.snapshot())
            live.apply(UpdateBatch().insert_edge(0, 2))
            assert v1() is None and server() is None
        finally:
            gc.enable()

    @settings(max_examples=20, deadline=None)
    @given(steps=_MEMORY_STEPS)
    def test_reported_bytes_are_the_live_versions(self, steps):
        """Over commit / pin / release / compact sequences (with full
        scans building plans and reduce indexes, spliced or not), the
        ``memory`` block has one entry per retained version, each the
        bytes of the arrays that version's state reaches, summing to
        ``total_bytes`` — one version's worth once every pin is
        released — and ``/metrics`` exports exactly those entries."""
        graph = generate_rmat(7, edge_factor=8, seed=5)
        live = DynamicGraphDatabase(build_database(
            graph, PageFormatConfig(2, 2, 512)))
        machine = scaled_workstation(num_gpus=1, num_ssds=1)
        pins = []

        def check():
            stats = live.memory_stats()
            assert stats["versions"] == {
                str(version): _reachable_bytes(state)
                for version, state in live._versions.items()}
            assert stats["total_bytes"] == sum(stats["versions"].values())
            for version, state in live._versions.items():
                if state._plan is not None:  # a version holds its plan
                    assert state._plan.nbytes <= stats["versions"][
                        str(version)]
            (family,) = [f for f in service_metric_families(
                {"databases": {"g": {"memory": stats}}})
                if f["name"] == "gts_db_version_bytes"]
            assert sorted(family["samples"], key=str) == sorted(
                (({"database": "g", "version": v}, n)
                 for v, n in stats["versions"].items()), key=str)
            return stats

        for i, step in enumerate(steps):
            if step == "commit":
                live.apply(UpdateBatch().insert_edge(i % 128, 7 * i % 128)
                           .delete_edge(*_an_edge(live, i)))
            elif step == "pin":
                pins.append(live.pin())
            elif step == "release" and pins:
                pins.pop(0).release()
            elif step == "compact":
                compact(live)
            elif step.startswith("scan"):
                target = pins[-1] if step == "scan pin" and pins else live
                GTSEngine(target, machine).run(PageRankKernel(iterations=2))
            check()
        for snapshot in pins:
            snapshot.release()
        stats = check()
        assert list(stats["versions"]) == [str(live.topology_version)]


class TestLargePageRunIndex:
    def test_matches_bruteforce(self):
        # Heavy-tailed RMAT with a small page size yields many LP runs.
        graph = generate_rmat(9, edge_factor=12, seed=4)
        db = build_database(graph, PageFormatConfig(2, 2, 512))
        plan = PagePlan(db)
        lp = np.asarray(db.large_page_ids(), dtype=np.int64)
        assert len(lp) > 0
        expected = {}
        for pid in lp.tolist():
            first = pid - int(db.rvt.lp_ranges[pid])
            expected.setdefault(first, []).append(pid)
        firsts, lengths = plan.lp_runs
        assert firsts.tolist() == sorted(expected)
        assert lengths.tolist() == [len(expected[f]) for f in sorted(expected)]
        # Any chunk of a run names the whole run; duplicates and order
        # in the request do not matter.
        rng = np.random.default_rng(0)
        asked = rng.choice(db.num_pages, size=db.num_pages // 3)
        small, large = plan.expand_pids(asked)
        want_large = sorted({p for pid in asked.tolist()
                             if db.rvt.lp_ranges[pid] >= 0
                             for p in expected[
                                 pid - int(db.rvt.lp_ranges[pid])]})
        assert large.tolist() == want_large
        assert small.tolist() == sorted(
            {pid for pid in asked.tolist() if db.rvt.lp_ranges[pid] < 0})
        assert small.dtype == large.dtype == np.int64


class TestBookingLoop:
    NUM_PAGES = 40
    #: Fault plans: none, recoverable, heavy, and one whose copies and
    #: storage reads exhaust a two-attempt retry budget.
    PLANS = [None,
             FaultPlan(ssd_transient_rate=0.05, ssd_corrupt_rate=0.05,
                       copy_error_rate=0.05, stall_rate=0.1,
                       stall_seconds=2e-4),
             FaultPlan(copy_error_rate=0.4, stall_rate=0.5,
                       stall_seconds=0.0, ssd_transient_rate=0.2),
             FaultPlan(copy_error_rate=0.3, ssd_corrupt_rate=0.2,
                       stall_rate=0.2, retry=RetryPolicy(max_attempts=2))]

    def _machine_run(self, num_ssds, buffer_pages, tracing, num_streams=3,
                     policy="lru", capacity=5, plan=None, seed=0):
        recorder = TraceRecorder() if tracing else None
        runtime = MachineRuntime(
            scaled_workstation(num_gpus=2, num_ssds=num_ssds),
            num_streams=num_streams, page_bytes=1024,
            mm_buffer_bytes=buffer_pages * 1024, recorder=recorder)
        if not num_ssds:
            runtime.mm_buffer.preload(range(self.NUM_PAGES))
        caches = [PageCache(capacity, policy=policy, recorder=recorder,
                            gpu_index=g) for g in range(2)]
        injector = plan and FaultInjector(plan, seed=seed)
        if runtime.storage is not None:
            runtime.storage.fault_injector = injector
        return runtime, StreamScheduler(runtime, injector), caches

    @staticmethod
    def _state(runtime, caches, stats, injector):
        resources = [r for gpu in runtime.gpus for r in (
            gpu.copy_engine, gpu.compute, *gpu.streams.slots)]
        resources += runtime.storage.channels if runtime.storage else []
        return (
            [vars(r) for r in resources],
            [(g.kernel_invocations, g.kernel_busy_time,
              g.kernel_stream_time, g.bytes_received)
             for g in runtime.gpus],
            [(c.hits, c.misses, c.page_ids()) for c in caches],
            (runtime.mm_buffer.hits, runtime.mm_buffer.misses),
            # Stable: each lane keeps its order, lanes may interleave.
            sorted(runtime.recorder or (), key=lambda event: event.lane),
            runtime.now, stats, injector and injector.stats())

    @settings(max_examples=60, deadline=None)
    @given(rounds=st.lists(st.lists(st.integers(0, NUM_PAGES - 1),
                                    unique=True, min_size=1),
                           min_size=1, max_size=4),
           strategy=st.sampled_from(["performance", "scalability"]),
           num_ssds=st.sampled_from([0, 2]),
           buffer_pages=st.integers(0, NUM_PAGES), tracing=st.booleans(),
           num_streams=st.sampled_from([1, 3, 16]),
           head_start=st.integers(1, 20), flood=st.booleans(),
           policy=st.sampled_from(["lru", "fifo", "clock", "pin"]),
           capacity=st.sampled_from([0, 1, 5, 24]),
           plan=st.sampled_from(PLANS), seed=st.integers(0, 99))
    def test_dispatch_round_equals_the_per_call_loop(
            self, rounds, strategy, num_ssds, buffer_pages, tracing,
            num_streams, head_start, flood, policy, capacity, plan, seed):
        """Random rounds — Strategy-P / -S routing, cache hits from
        repeated pages under every policy and capacity, in-memory and
        SSD machines, the buffer empty, filling and full, 1 / 3 / 16
        streams entered at a dispatch count off their multiple,
        (``flood``) two all-miss full scans longer than twice the
        streams, and no, recoverable, heavy or exhausting faults —
        leave every timeline, counter, resident set, ``RoundStats``,
        injector count and (traced) per-lane event sequence exactly
        where the per-call oracle leaves them, or raise its error."""
        if not num_ssds:
            buffer_pages = self.NUM_PAGES
        rounds = rounds + [list(range(self.NUM_PAGES))] * (2 * flood)
        rng = np.random.default_rng(len(rounds))
        work = [(make_strategy(strategy).assign_batch(pids, 2),
                 rng.integers(0, 4096, size=len(pids)),
                 rng.random(len(pids)) * 1e5) for pids in rounds]
        outcomes = []
        for per_call in (False, True):
            runtime, scheduler, caches = self._machine_run(
                num_ssds, buffer_pages, tracing, num_streams, policy,
                capacity, plan, seed)
            injector = scheduler.fault_injector
            for g in range(2):
                for _ in range(head_start):
                    reference_booking.dispatch_cached(scheduler, g, 0.0,
                                                      10.0, 24.0)
            stats = [RoundStats(index, "r") for index in range(len(rounds))]
            try:
                for pids, round_work, round_stats in zip(rounds, work,
                                                         stats):
                    if injector is not None:
                        injector.begin_round(round_stats.round_index)
                    args = (RoundOrder(pids, round_work[0]),) + round_work[
                        1:] + (24.0, caches, [0.0, 1e-5], runtime.now,
                               round_stats)
                    if per_call:
                        reference_booking.book_round(scheduler, *args)
                    else:
                        scheduler.dispatch_round(*args)
                    if round_stats.round_index % 2:  # else slots carry over
                        runtime.barrier()
            except RetryExhaustedError as error:
                outcomes.append((str(error), error.site, error.attempts,
                                 error.page_id))
                continue
            outcomes.append(self._state(runtime, caches, stats, injector))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("bad, error", [
        ({"copy_bytes": [8, -1]}, ConfigurationError),
        ({"lane_steps": [1.0, -1.0]}, SimulationError),
        ({"round_start": -1.0}, SimulationError)])
    def test_round_is_validated_like_the_per_call_methods(self, bad,
                                                          error):
        """The oracle's typed errors (``dispatch_streamed``'s and
        ``Resource.book``'s: negative bytes, duration, start), checked
        once per round."""
        runtime, scheduler, caches = self._machine_run(2, 0, False)
        args = dict(order=RoundOrder(np.arange(2), [np.arange(1),
                                                    np.arange(1, 2)]),
                    copy_bytes=[8, 8], lane_steps=[1.0, 1.0],
                    cycles_per_lane_step=24.0, caches=caches,
                    wa_ready=[0.0, 0.0], round_start=0.0,
                    stats=RoundStats(0, "r"))
        with pytest.raises(error):
            scheduler.dispatch_round(**dict(args, **bad))


class TestExecutionKnob:
    """The knob is gone: there is one executor, and a kernel without a
    body for it cannot run."""

    def test_batched_rejected_for_batchless_kernel(self, db, machine):
        class NoBody(DegreeKernel):
            process_batch = Kernel.process_batch

        with pytest.raises(NotImplementedError, match="process_batch"):
            GTSEngine(db, machine).run(NoBody())

    def test_unknown_mode_rejected(self, db, machine):
        for mode in ("warp", "auto", "paged", "batched"):
            with pytest.raises(TypeError):
                GTSEngine(db, machine, execution=mode)
        with pytest.raises(TypeError):
            GTSEngine(db, machine, io_merge=True)
        with pytest.raises(ServiceError, match="io_merge"):
            QueryRequest("g", "bfs", options={"io_merge": True})


class TestCLIExecutionFlag:
    def test_rejects_unknown_value(self, capsys):
        for command in ("run", "profile"):
            for value in ("warp", "batched"):
                with pytest.raises(SystemExit):
                    build_parser().parse_args(
                        [command, "--dataset", "rmat26",
                         "--execution", value])
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["query", "--url", "http://127.0.0.1:1", "--database",
                 "g", "--algorithm", "bfs", "--execution", "paged"])
        assert "--execution" in capsys.readouterr().err
        for argv in (["run", "--dataset", "rmat26"],
                     ["query", "--url", "http://127.0.0.1:1",
                      "--database", "g", "--algorithm", "bfs"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv + ["--io-merge"])
            assert "--io-merge" in capsys.readouterr().err
