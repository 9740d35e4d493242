"""The one runner the thirteen compared systems share: every engine runs
every traced algorithm through ``Baseline.run`` and answers exactly; bad
input is a typed error.  The per-family claims live in
``test_baselines_cpu_gpu.py``, ``test_baselines_distributed.py`` and
``test_outofcore.py``."""

import numpy as np
import pytest

from repro.baselines import bsp, reference
from repro.baselines.cpu import ALL_CPU_ENGINES, LigraEngine
from repro.baselines.distributed import ALL_DISTRIBUTED_ENGINES
from repro.baselines.gpu import ALL_GPU_ENGINES, TotemEngine
from repro.baselines.outofcore import GraphChiEngine, XStreamEngine
from repro.bench.experiments import section8_streaming
from repro.core.algorithms import ALGORITHMS
from repro.errors import ConfigurationError
from repro.graphgen import generate_rmat
from repro.hardware.specs import GPUSpec

ENGINES = (ALL_DISTRIBUTED_ENGINES + ALL_CPU_ENGINES + ALL_GPU_ENGINES
           + (XStreamEngine, GraphChiEngine))

#: Table key -> (values key, reference at ``start``, comparison); the
#: tolerances are the per-algorithm ones the trace tests use.
REFERENCES = {
    "bfs": ("level", reference.bfs_levels, np.array_equal),
    "pagerank": ("rank",
                 lambda graph, start: reference.pagerank(graph, 3),
                 np.allclose),
    "sssp": ("distance", reference.sssp_distances,
             lambda got, want: np.allclose(got, want, rtol=1e-5,
                                           equal_nan=True)),
    "cc": ("component",
           lambda graph, start: reference.weakly_connected_components(
               graph),
           np.array_equal),
    "bc": ("centrality",
           lambda graph, start: reference.betweenness_centrality(
               graph, (start,)),
           lambda got, want: np.allclose(got, want, atol=1e-9)),
}


@pytest.fixture(scope="module")
def graph():
    return generate_rmat(9, edge_factor=8, seed=44)


def test_the_traced_algorithms_are_table_keys():
    assert sorted(REFERENCES) == sorted(bsp.TRACERS)
    assert set(bsp.TRACERS) <= set(ALGORITHMS)


@pytest.mark.parametrize("key", sorted(REFERENCES))
@pytest.mark.parametrize("engine_cls", ENGINES,
                         ids=lambda cls: cls.__name__)
def test_values_match_reference(engine_cls, key, graph):
    """Every engine runs every traced algorithm exactly, from the
    max-out-degree vertex by default."""
    if key == "sssp":
        graph = graph.with_random_weights(seed=1)
    start = int(np.argmax(graph.out_degrees()))
    values, want, same = REFERENCES[key]
    result = engine_cls().run(key, graph, {"iterations": 3})
    assert result.algorithm == ALGORITHMS[key].factory({}, 0).name
    assert result.engine == engine_cls.name
    assert same(result.values[values], want(graph, start))


class TestRunChecksItsInput:
    @pytest.mark.parametrize("start", [-1, "end", 1.5, "0", True],
                             ids=["negative", "past-end", "float",
                                  "string", "bool"])
    def test_bad_start_is_a_configuration_error(self, start, graph):
        if start == "end":
            start = graph.num_vertices
        with pytest.raises(ConfigurationError):
            LigraEngine().run("bfs", graph, {"start": start})

    @pytest.mark.parametrize("algorithm",
                             ["rwr", "degree", "kcore", "bogus", "BFS"])
    def test_untraced_algorithm_is_a_configuration_error(self, algorithm,
                                                         graph):
        with pytest.raises(ConfigurationError) as exc:
            XStreamEngine().run(algorithm, graph)
        assert "bc, bfs, cc, pagerank, sssp" in str(exc.value)

    def test_result_reports_gpus_and_threads(self, graph):
        assert TotemEngine(gpus=[GPUSpec()]).run("bfs", graph).num_gpus == 1
        assert LigraEngine().run("bfs", graph).num_streams == 16
        assert XStreamEngine().run("bfs", graph).num_gpus == 0

    def test_section8_rejects_bc_and_unknown_names(self):
        for algorithm in ("BC", "bogus"):
            with pytest.raises(ConfigurationError):
                section8_streaming(algorithm)
