"""The one algorithm table: the kernel each name runs, and what it needs.
The CLI, the service, the experiments and the benchmark ledger all read
it, with :func:`make_kernel` and :func:`check_topology` beside it."""

from numbers import Integral
from typing import Callable, NamedTuple

import numpy as np

from repro.core import kernels
from repro.errors import ConfigurationError

#: Every algorithm parameter and its default; a given value must be an
#: integer.  ``start`` None means the busiest (max out-degree) vertex.
PARAMETERS = {"start": None, "iterations": 10, "k": 2}


class Algorithm(NamedTuple):
    """One row: ``factory(params, start)`` builds the kernel (index 0,
    where callers that index a row find it; ``params`` may leave out keys
    of :data:`PARAMETERS`); ``weighted``: it reads edge weights;
    ``symmetric``: it expects a symmetrised topology."""

    factory: Callable
    weighted: bool
    symmetric: bool


def _get(params, key):
    return params.get(key, PARAMETERS[key])


#: CLI / service name -> row.
ALGORITHMS = {
    "bfs": Algorithm(lambda p, start: kernels.BFSKernel(start),
                     False, False),
    "pagerank": Algorithm(lambda p, start: kernels.PageRankKernel(
        iterations=_get(p, "iterations")), False, False),
    "sssp": Algorithm(lambda p, start: kernels.SSSPKernel(start),
                      True, False),
    "cc": Algorithm(lambda p, start: kernels.WCCKernel(), False, True),
    "bc": Algorithm(lambda p, start: kernels.BCKernel(sources=(start,)),
                    False, False),
    "rwr": Algorithm(lambda p, start: kernels.RWRKernel(
        query_vertex=start, iterations=_get(p, "iterations")),
        False, False),
    "degree": Algorithm(lambda p, start: kernels.DegreeKernel(),
                        False, False),
    "kcore": Algorithm(lambda p, start: kernels.KCoreKernel(
        k=_get(p, "k")), False, True),
}


def _row(name):
    if name not in ALGORITHMS:
        raise ConfigurationError("unknown algorithm %r (valid: %s)"
                                 % (name, ", ".join(sorted(ALGORITHMS))))
    return ALGORITHMS[name]


def check_parameters(params, num_vertices):
    """``params`` over :data:`PARAMETERS`' defaults.  Each value must be
    an integer (a bool is not one), and a given ``start`` a vertex of a
    graph with ``num_vertices`` vertices."""
    merged = {**PARAMETERS, **params}
    for key in PARAMETERS:
        value = merged[key]
        if key == "start" and value is None:
            continue
        if isinstance(value, bool) or not isinstance(value, Integral):
            raise ConfigurationError(
                "parameter %r must be an integer, got %r" % (key, value))
        merged[key] = int(value)
    start = merged["start"]
    if start is not None and not 0 <= start < num_vertices:
        raise ConfigurationError("start vertex %d outside the graph's %d "
                                 "vertices" % (start, num_vertices))
    return merged


def make_kernel(name, params, db):
    """``name``'s kernel for ``db``.  ``start`` defaults to the
    max-out-degree vertex, the one ``default_start_vertex`` picks on the
    graph ``db`` was built from."""
    params = check_parameters(params, db.num_vertices)
    start = params["start"]
    if start is None:
        start = int(np.argmax(db.out_degrees))
    return _row(name).factory(params, start)


def check_topology(name, db, source):
    """The one rule for ``name`` on a stored topology, which is used
    as-is: missing weights raise; a symmetric algorithm returns a
    warning to show (the topology may be directed); else ``None``.
    ``source`` names the store in the messages."""
    row = _row(name)
    if row.weighted and db.config.weight_bytes == 0:
        raise ConfigurationError(
            "algorithm %r needs edge weights, but %s was built without "
            "them (weight_bytes=0); rebuild it from a weighted edge list"
            % (name, source))
    if row.symmetric:
        return ("%s expects a symmetrised graph; the topology of %s is "
                "used as-is (directed edges stay directed)" % (name, source))
    return None
