"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from repro.format import PageFormatConfig, build_database
from repro.graphgen import Graph, generate_rmat
from repro.hardware.specs import scaled_workstation
from repro.units import KB


@pytest.fixture(scope="session")
def small_config():
    """A (2,2) config with tiny pages, forcing multi-page layouts."""
    return PageFormatConfig(page_id_bytes=2, slot_bytes=2, page_size=2 * KB)


@pytest.fixture(scope="session")
def weighted_config():
    return PageFormatConfig(page_id_bytes=2, slot_bytes=2, page_size=2 * KB,
                            weight_bytes=4)


@pytest.fixture(scope="session")
def rmat_graph():
    """A medium R-MAT graph: skewed degrees, some large-page vertices."""
    return generate_rmat(11, edge_factor=16, seed=42)


@pytest.fixture(scope="session")
def rmat_db(rmat_graph, small_config):
    db = build_database(rmat_graph, small_config, name="rmat11-test")
    db.validate()
    return db


@pytest.fixture(scope="session")
def weighted_graph(rmat_graph):
    return rmat_graph.with_random_weights(seed=7)


@pytest.fixture(scope="session")
def weighted_db(weighted_graph, weighted_config):
    db = build_database(weighted_graph, weighted_config,
                        name="rmat11-weighted")
    db.validate()
    return db


@pytest.fixture(scope="session")
def machine():
    """The scaled two-GPU, two-SSD workstation."""
    return scaled_workstation(num_gpus=2, num_ssds=2)


@pytest.fixture(scope="session")
def single_gpu_machine():
    return scaled_workstation(num_gpus=1, num_ssds=1)


@pytest.fixture
def line_graph():
    """A 6-vertex path: 0 -> 1 -> ... -> 5 (deterministic traversals)."""
    sources = np.asarray([0, 1, 2, 3, 4])
    targets = np.asarray([1, 2, 3, 4, 5])
    return Graph.from_edges(6, sources, targets)


@pytest.fixture
def diamond_graph():
    """0 -> {1, 2} -> 3: two equal shortest paths (exercises BC/sigma)."""
    sources = np.asarray([0, 0, 1, 2])
    targets = np.asarray([1, 2, 3, 3])
    return Graph.from_edges(4, sources, targets)


@pytest.fixture
def clock_reads(monkeypatch):
    """``clock_reads(module, ...)`` patches each module's
    ``perf_counter_ns`` indirection to count; returns the one-item
    tally every read bumps."""
    def install(*modules):
        tally = [0]
        for module in modules:
            def counting(real=module.perf_counter_ns):
                tally[0] += 1
                return real()
            monkeypatch.setattr(module, "perf_counter_ns", counting)
        return tally
    return install
