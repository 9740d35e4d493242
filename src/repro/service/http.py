"""A small stdlib-only HTTP/JSON front end for :class:`GraphService`.

Endpoints:

* ``GET /healthz`` — liveness: ``{"status": "ok", "draining": ...}``.
* ``GET /stats`` — the service's full counter snapshot
  (:meth:`~repro.service.service.GraphService.stats`).
* ``GET /metrics`` — the same snapshot rendered as Prometheus text
  exposition format (version 0.0.4), including the rolling-window
  series when the service runs with telemetry; byte-deterministic
  given an unchanged snapshot, so scrapes diff cleanly.
* ``POST /query`` — run one query; the JSON body is a
  :meth:`~repro.service.service.QueryRequest.from_dict` payload, the
  response a :meth:`~repro.core.result.RunResult.to_dict` (pass
  ``"include_values": true`` in the body for full output vectors).
* ``POST /update`` — apply an update batch to a served dynamic
  database while queries run; the body is ``{"database": ...,
  "batch": {"ops": [...]}}`` (an
  :meth:`~repro.dynamic.UpdateBatch.to_dict` payload) plus an optional
  ``"compact_threshold"``; the response is
  :meth:`~repro.service.service.GraphService.update`'s commit report.

Typed service errors map to distinct status codes so clients can react
without parsing prose: 400 for invalid requests
(:class:`~repro.errors.ServiceError` and other
:class:`~repro.errors.GTSError`\\ s), 429 for admission rejections
(:class:`~repro.errors.AdmissionError`, with the controller's state in
the body), 503 while draining (:class:`~repro.errors.ShutdownError`),
504 when a query overruns its ``timeout_ms`` engine option
(:class:`~repro.errors.DeadlineError`, with the elapsed time in the
body), 500 for anything unexpected.  The server is a
:class:`~http.server.ThreadingHTTPServer`: each request gets its own
thread, which then blocks on the service's admission-controlled pool —
back-pressure comes from the service, not from the socket listener.

With telemetry enabled, successful query responses carry an
``X-Query-Id`` correlation header, the handler *defers* trace
completion so the response-rendering time lands in the request's
``service.http.serialize`` (``RunResult.to_dict``) and ``serialize``
(JSON encoding + socket write) spans, and 504 bodies include the
``query_id`` so a timed-out request can be matched to its tail-captured
trace in the slow-query ring.
"""

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.errors import (
    AdmissionError,
    DeadlineError,
    GTSError,
    ServiceError,
    ShutdownError,
)
from repro.service.service import QueryRequest
from repro.spans import activate, span

#: Largest accepted request body; queries are small JSON documents and
#: an oversized body is rejected before being read into memory.
MAX_BODY_BYTES = 1 << 20


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """Maps HTTP requests onto the owning server's GraphService."""

    #: Quiet by default; ``python -m repro serve --verbose`` flips this.
    log_requests = False
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------------
    def log_message(self, format, *args):
        """Respect :attr:`log_requests` (stdlib logs unconditionally)."""
        if self.log_requests:
            BaseHTTPRequestHandler.log_message(self, format, *args)

    def _send_json(self, status, payload, extra_headers=None):
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for key, value in (extra_headers or {}).items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(body)

    # ------------------------------------------------------------------
    def do_GET(self):
        service = self.server.service
        if self.path == "/healthz":
            self._send_json(200, {"status": "ok",
                                  "draining": service.draining})
        elif self.path == "/stats":
            self._send_json(200, service.stats())
        elif self.path == "/metrics":
            from repro.obs.exporters import PROMETHEUS_CONTENT_TYPE
            body = service.metrics_text().encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", PROMETHEUS_CONTENT_TYPE)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        else:
            self._send_json(404, {"error": "unknown path %r" % self.path})

    def do_POST(self):
        if self.path not in ("/query", "/update"):
            self._send_json(404, {"error": "unknown path %r" % self.path})
            return
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0 or length > MAX_BODY_BYTES:
            self._send_json(400, {"error": "body must be 1..%d bytes"
                                           % MAX_BODY_BYTES})
            return
        try:
            payload = json.loads(self.rfile.read(length))
        except ValueError:
            self._send_json(400, {"error": "body is not valid JSON"})
            return
        include_values = bool(payload.pop("include_values", False)) \
            if isinstance(payload, dict) else False
        service = self.server.service
        tm = service.telemetry
        trace = None
        recorder = None
        request = None
        headers = None
        try:
            if self.path == "/update":
                response = self._do_update(service, payload)
            else:
                request = QueryRequest.from_dict(payload)
                # Take over completion so the serialize span (measured
                # around _send_json below) lands inside the trace —
                # claimed at submit, or a query quicker than this
                # thread's next time slice completes its trace first.
                future = service.submit(request,
                                        defer_trace=tm is not None)
                if tm is not None:
                    trace = tm.defer(request.query_id)
                    recorder = getattr(trace, "recorder", None)
                result = future.result()
                # The worker is done with the request's recorder; the
                # rest of its spans are this thread's.
                with activate(recorder), span("service.http.serialize"):
                    response = result.to_dict(
                        include_values=include_values)
                if result.query_id is not None:
                    headers = {"X-Query-Id": result.query_id}
        except AdmissionError as error:
            failure = (429, {
                "error": str(error),
                "type": "AdmissionError",
                "queue_depth": error.queue_depth,
                "in_flight": error.in_flight,
                "max_in_flight": error.max_in_flight,
                "max_queue": error.max_queue,
            }, {"Retry-After": "1"})
        except ShutdownError as error:
            failure = (503, {"error": str(error),
                             "type": "ShutdownError"})
        except DeadlineError as error:
            # 504: the query ran, but past its caller-supplied budget.
            body = {
                "error": str(error),
                "type": "DeadlineError",
                "timeout_ms": error.timeout_ms,
                "elapsed_seconds": error.elapsed_seconds,
                "rounds_completed": error.rounds_completed,
            }
            if request is not None and request.query_id is not None:
                body["query_id"] = request.query_id
            failure = (504, body)
        except ServiceError as error:
            failure = (400, {"error": str(error), "type": "ServiceError"})
        except GTSError as error:
            failure = (400, {"error": str(error),
                             "type": type(error).__name__})
        except Exception as error:  # pragma: no cover - defensive
            failure = (500, {"error": str(error),
                             "type": type(error).__name__})
        else:
            try:
                with activate(recorder), span("serialize"):
                    self._send_json(200, response, extra_headers=headers)
            finally:
                self._complete(tm, trace)
            return
        # An error has no serialize span to wait for, and a client that
        # holds its answer may read the tail-capture ring at once: the
        # record is written before the response.
        self._complete(tm, trace)
        self._send_json(*failure)

    @staticmethod
    def _complete(tm, trace):
        """Finalize a deferred trace, if there is one."""
        if trace is not None:
            tm.complete(trace)

    @staticmethod
    def _do_update(service, payload):
        """Validate and apply a ``POST /update`` body."""
        if not isinstance(payload, dict):
            raise ServiceError("update payload must be a JSON object")
        extras = set(payload) - {"database", "batch", "compact_threshold"}
        if extras:
            raise ServiceError(
                "unknown update key(s): %s" % ", ".join(sorted(extras)))
        if "database" not in payload or "batch" not in payload:
            raise ServiceError(
                "update payload needs 'database' and 'batch' keys")
        return service.update(payload["database"], payload["batch"],
                              compact_threshold=payload.get(
                                  "compact_threshold"))


def make_server(service, host="127.0.0.1", port=0, verbose=False):
    """Bind a :class:`ThreadingHTTPServer` fronting ``service``.

    ``port=0`` picks a free port (read it back from
    ``server.server_address[1]``); the caller owns the serve loop —
    ``server.serve_forever()`` to run, ``server.shutdown()`` +
    ``server.server_close()`` to stop.
    """
    handler = type("BoundHandler", (ServiceRequestHandler,),
                   {"log_requests": verbose})
    server = ThreadingHTTPServer((host, port), handler)
    server.daemon_threads = True
    server.service = service
    return server
