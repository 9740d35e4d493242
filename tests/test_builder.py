"""Tests for the edge-list → slotted-page builder and the database."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import FormatError
from repro.format import PageFormatConfig, build_database
from repro.format.builder import _plan_placement
from repro.format.page import PageKind
from repro.graphgen import Graph, generate_erdos_renyi
from repro.graphgen.random_graphs import generate_star
from repro.units import KB

from .reference_pages import reference_placement


class TestPlacementInvariants:
    def test_validate_passes(self, rmat_db):
        assert rmat_db.validate()

    def test_every_vertex_covered_exactly_once(self, rmat_db):
        """Records hold VIDs in order, a large-page run's vertex once."""
        arrays = rmat_db.topology_arrays()
        first = rmat_db.rvt.lp_ranges[np.repeat(
            np.arange(rmat_db.num_pages), arrays["rec_counts"])] <= 0
        assert np.array_equal(arrays["rec_vids"][first],
                              np.arange(rmat_db.num_vertices))

    def test_every_edge_stored_once(self, rmat_graph, rmat_db):
        arrays = rmat_db.topology_arrays()
        assert int(arrays["edge_counts"].sum()) == rmat_graph.num_edges
        assert len(arrays["adj_vids"]) == rmat_graph.num_edges

    def test_vids_consecutive_within_pages(self, rmat_db):
        for pid in range(rmat_db.num_pages):
            vids = rmat_db.page(pid).vids()
            assert np.array_equal(vids,
                                  np.arange(vids[0], vids[0] + len(vids)))

    def test_adjacency_preserved(self, rmat_graph, rmat_db):
        """The arrays are the source CSR, large-page chunks in order."""
        _assert_arrays_are_csr(rmat_db, rmat_graph)


class TestLargePages:
    def test_star_center_becomes_large_pages(self, small_config):
        star = generate_star(4000)
        db = build_database(star, small_config)
        assert db.num_large_pages >= 2
        large_vids = {db.page(pid).vid for pid in db.large_page_ids()}
        assert large_vids == {0}

    def test_large_page_chunks_are_consecutive(self, small_config):
        star = generate_star(4000, center=100)
        db = build_database(star, small_config)
        lp_ids = [page.page_id for page in map(db.page, range(db.num_pages))
                  if page.kind is PageKind.LARGE]
        assert lp_ids == list(range(lp_ids[0], lp_ids[0] + len(lp_ids)))

    def test_total_degree_recorded_on_every_chunk(self, small_config):
        star = generate_star(4000)
        db = build_database(star, small_config)
        for pid in db.large_page_ids():
            assert db.page(pid).total_degree == 3999

    def test_large_vertex_addressed_through_first_chunk(self, small_config):
        """Edges pointing at a large vertex use (first LP, slot 0)."""
        num_vertices = 4000
        sources = np.concatenate([
            np.full(num_vertices - 1, 0),
            np.asarray([1]),
        ])
        targets = np.concatenate([
            np.arange(1, num_vertices),
            np.asarray([0]),  # an edge back at the hub
        ])
        graph = Graph.from_edges(num_vertices, sources, targets)
        config = PageFormatConfig(2, 2, 2 * KB)
        db = build_database(graph, config)
        hub_first_lp = db.page_for_vertex(0)
        assert db.rvt.is_large(hub_first_lp)
        # Find vertex 1's record and check its single edge target.
        page = db.page(db.page_for_vertex(1))
        slot = 1 - page.start_vid
        lo = page.adj_indptr[slot]
        assert page.adj_pids[lo] == hub_first_lp
        assert page.adj_slots[lo] == 0

    def test_rvt_lp_range_marks_chunk_positions(self, small_config):
        star = generate_star(4000)
        db = build_database(star, small_config)
        for page in map(db.page, range(db.num_pages)):
            if page.kind is PageKind.LARGE:
                assert db.rvt.lp_ranges[page.page_id] == page.chunk_index
            else:
                assert db.rvt.lp_ranges[page.page_id] == -1


class TestWeightedBuild:
    def test_weights_stored(self, weighted_graph, weighted_db):
        assert np.array_equal(weighted_db.topology_arrays()["adj_weights"],
                              weighted_graph.weights)

    def test_unweighted_config_drops_weights(self, weighted_graph,
                                             small_config):
        db = build_database(weighted_graph, small_config)
        assert db.topology_arrays()["adj_weights"] is None
        assert db.page(0).adj_weights is None


class TestDatabaseAccounting:
    def test_topology_bytes(self, rmat_db):
        assert rmat_db.topology_bytes() == \
            rmat_db.num_pages * rmat_db.config.page_size

    def test_fill_factor_reasonable(self, rmat_db):
        assert 0.5 < rmat_db.fill_factor() <= 1.0

    def test_page_for_vertex(self, rmat_db):
        for vid in (0, 5, rmat_db.num_vertices - 1):
            page = rmat_db.page(rmat_db.page_for_vertex(vid))
            assert vid in page.vids()

    def test_unknown_page_rejected(self, rmat_db):
        with pytest.raises(FormatError):
            rmat_db.page(10 ** 6)

    def test_statistics_keys(self, rmat_db):
        stats = rmat_db.statistics()
        assert stats["num_sp"] == rmat_db.num_small_pages
        assert stats["num_lp"] == rmat_db.num_large_pages
        assert stats["vertices"] == rmat_db.num_vertices

    def test_attribute_vector_bytes(self, rmat_db):
        assert rmat_db.attribute_vector_bytes(4) == 4 * rmat_db.num_vertices


class TestAddressingLimits:
    def test_too_many_pages_rejected(self):
        # A 1-byte page ID addresses only 256 pages.
        config = PageFormatConfig(page_id_bytes=1, slot_bytes=2,
                                  page_size=256)
        graph = generate_erdos_renyi(20000, avg_degree=4, seed=0)
        with pytest.raises(FormatError):
            build_database(graph, config)


#: Page formats and the fewest vertices each graph has under them.
PLACEMENT_FORMATS = [
    (PageFormatConfig(2, 2, 1 * KB), 2),
    # 256 records of <= 23 B fit in 6 KB, and six large vertices leave a
    # run of over 256 small ones: the slot cap binds.
    (PageFormatConfig(2, 1, 8 * KB), 7 * 257),
    (PageFormatConfig(2, 2, 256), 2),  # tiny pages, long large-page runs
    (PageFormatConfig(4, 2, 2 * KB, weight_bytes=4), 2),
]


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_builder_round_trip_property(data):
    """Property: placement equals the per-vertex walk of
    ``reference_placement``, and build + re-extract adjacency == source
    graph.  Large vertices sit first, last, back to back or anywhere."""
    config, fewest = data.draw(st.sampled_from(PLACEMENT_FORMATS))
    num_vertices = data.draw(st.integers(fewest, fewest + 700))
    rng = np.random.default_rng(data.draw(st.integers(0, 1000)))
    degrees = (rng.integers(0, 4, size=num_vertices)
               * rng.integers(0, 2, size=num_vertices))
    last = num_vertices - 1
    hubs = data.draw(st.lists(
        st.sampled_from([0, 1, last - 1, last]) | st.integers(0, last),
        max_size=6))
    lp_capacity = config.large_page_capacity()
    degrees[hubs] = rng.integers(lp_capacity + 1, 4 * lp_capacity,
                                 size=len(hubs))
    sources = np.repeat(np.arange(num_vertices), degrees)
    targets = rng.integers(0, num_vertices, size=len(sources))
    graph = Graph.from_edges(num_vertices, sources, targets)
    got = _plan_placement(graph, config)
    want = reference_placement(graph, config)
    assert np.array_equal(got[0], want[0]) and got[0].dtype == want[0].dtype
    assert got[1:] == want[1:]
    db = build_database(graph, config)
    db.validate()
    _assert_arrays_are_csr(db, graph)


def _assert_arrays_are_csr(db, graph):
    """``db``'s arrays are ``graph``'s edges, in CSR order."""
    arrays = db.topology_arrays()
    assert np.array_equal(arrays["adj_vids"], graph.targets)
    assert np.array_equal(
        np.repeat(arrays["rec_vids"], arrays["degrees"]),
        np.repeat(np.arange(graph.num_vertices), graph.out_degrees()))
