"""repro.service: a multi-tenant graph query service.

A long-lived process serving many concurrent graph queries over shared
database handles, with the host-side caches (shared page cache, round
plan cache, file pools) kept warm *across* queries —
see :mod:`repro.service.service` for the core, ARCHITECTURE.md §11 for
the design, and ``python -m repro serve`` for the CLI front end.

The load-bearing invariant: sharing caches across queries moves host
wall-clock only.  Every query's simulated timings and algorithm outputs
stay bit-identical to a cold one-shot ``GTSEngine.run()`` — the
concurrency property test in ``tests/test_service.py`` holds the
service to exactly that.
"""

from repro.service.client import ServiceClient
from repro.service.http import ServiceRequestHandler, make_server
from repro.service.service import (
    ALGORITHMS,
    ENGINE_OPTIONS,
    GraphService,
    QueryRequest,
)

__all__ = [
    "ALGORITHMS",
    "ENGINE_OPTIONS",
    "GraphService",
    "QueryRequest",
    "ServiceClient",
    "ServiceRequestHandler",
    "make_server",
]
