"""Outside-in span tracing for the ledger benchmark.

The traced run wraps the program's public layer boundaries *from this
file* (the program itself is untouched): :data:`BOUNDARIES` is the table
of module, class, attribute and span name.  Each wrapped call records a
span -- id, parent (from a thread-local stack), name, start, end, self
time, thread, request id and the harness phase it ran in -- kept in
memory until :meth:`Tracer.write`.  Self time is a span's duration minus
the part its child spans cover, so the self times of one thread's spans
sum to the time that thread spent inside any boundary.

A boundary that no longer exists (a later refactor deleted or renamed
it) is skipped and its span name lands in :attr:`Tracer.missing`; the
metrics fed by it read zero and the report lists them under
``trace_missing``.  That is never a failed benchmark: later changes may
not edit these files.
"""

import functools
import importlib
import itertools
import json
import threading
import time

#: (module, class, attribute, span name, all subclasses?, request-id getter)
#: The request id is the client-assigned ``query_id``; it ties the HTTP
#: handler thread's spans to the pool thread that runs the engine.
BOUNDARIES = [
    ("repro.format.io", "FileBackedDatabase", "__init__",
     "format.io.open", False, None),
    ("repro.format.io", "FileBackedDatabase", "page",
     "format.io.page", False, None),
    ("repro.format.io", "FileBackedDatabase", "prefetch",
     "format.io.page", False, None),
    ("repro.core.plan", "RoundPlanCache", "get",
     "core.plan.get", False, None),
    ("repro.core.plan", "PagePlan", "__init__",
     "core.plan.build", False, None),
    ("repro.core.plan", "PagePlan", "round_batch",
     "core.plan.gather", False, None),
    ("repro.core.kernels.base", "Kernel", "process_batch",
     "core.kernels.batch", True, None),
    ("repro.core.kernels.base", "Kernel", "process_page",
     "core.kernels.page", True, None),
    ("repro.core.kernels.base", "Kernel", "init_state",
     "core.kernels.round", True, None),
    ("repro.core.kernels.base", "Kernel", "next_round",
     "core.kernels.round", True, None),
    ("repro.core.kernels.base", "Kernel", "finish_round",
     "core.kernels.round", True, None),
    ("repro.core.kernels.base", "Kernel", "results",
     "core.kernels.round", True, None),
    ("repro.core.streams", "StreamScheduler", "dispatch_round",
     "core.streams.booking", False, None),
    ("repro.core.streams", "StreamScheduler", "dispatch_streamed",
     "core.streams.booking", False, None),
    ("repro.core.streams", "StreamScheduler", "dispatch_cached",
     "core.streams.booking", False, None),
    ("repro.core.engine", "GTSEngine", "run",
     "core.engine.run", False,
     lambda args, kwargs: kwargs.get("query_id")),
    ("repro.dynamic.delta", "DynamicGraphDatabase", "apply",
     "dynamic.apply", False, None),
    ("repro.dynamic.delta", "DynamicGraphDatabase", "pin",
     "dynamic.pin", False, None),
    ("repro.dynamic.wal", "WriteAheadLog", "append",
     "dynamic.wal_append", False, None),
    ("repro.service.service", "GraphService", "submit",
     "service.submit", False,
     lambda args, kwargs: getattr(
         args[1] if len(args) > 1 else kwargs.get("request"),
         "query_id", None)),
    ("repro.service.service", "GraphService", "update",
     "service.update", False, None),
    ("repro.service.http", "ServiceRequestHandler", "do_POST",
     "service.http.handler", False, None),
    ("repro.core.result", "RunResult", "to_dict",
     "service.http.serialize", False,
     lambda args, kwargs: getattr(args[0], "query_id", None)),
]

#: Every span name a boundary can produce, in table order.
SPAN_NAMES = list(dict.fromkeys(row[3] for row in BOUNDARIES))

#: Column order of one span record in memory and in the trace file.
SPAN_FIELDS = ("id", "parent", "name", "start_ns", "end_ns", "self_ns",
               "thread", "request", "phase")


def _class_and_subclasses(cls):
    seen = [cls]
    for klass in seen:
        seen.extend(k for k in klass.__subclasses__() if k not in seen)
    return seen


class Tracer:
    """Installs the boundary wrappers and holds the recorded spans."""

    def __init__(self):
        self.spans = []
        self.missing = []
        #: Harness phase stamped on every span ("cold", "warm" or None
        #: for work outside any timed region).
        self.phase = None
        #: Every FileBackedDatabase opened while installed, so the
        #: harness can read the handles' public I/O counters.
        self.opened = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._originals = []

    # ------------------------------------------------------------------
    def install(self):
        """Wrap every boundary that exists; a span name none of whose
        boundaries exists any more goes to :attr:`missing`."""
        fed = set()
        for module, klass, attr, name, subclasses, request_of in BOUNDARIES:
            try:
                cls = getattr(importlib.import_module(module), klass)
            except (ImportError, AttributeError):
                continue
            candidates = (_class_and_subclasses(cls) if subclasses
                          else [cls])
            for target in candidates:
                if attr not in vars(target):
                    continue
                original = vars(target)[attr]
                self._originals.append((target, attr, original))
                setattr(target, attr,
                        self._wrap(original, name, request_of))
                fed.add(name)
        self.missing = [name for name in SPAN_NAMES if name not in fed]
        return self

    @property
    def installed(self):
        return bool(self._originals)

    def uninstall(self):
        for target, attr, original in reversed(self._originals):
            setattr(target, attr, original)
        self._originals = []

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # ------------------------------------------------------------------
    def _wrap(self, function, name, request_of):
        spans = self.spans
        ids = self._ids
        local = self._local
        clock = time.perf_counter_ns
        track_open = name == "format.io.open"

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            request = request_of(args, kwargs) if request_of else None
            if request is not None:
                # A request id found deeper in the call names the
                # enclosing spans too (do_POST learns it from submit).
                for frame in stack:
                    if frame[2] is None:
                        frame[2] = request
            elif stack:
                request = stack[-1][2]
            frame = [next(ids), 0, request]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            start = clock()
            try:
                result = function(*args, **kwargs)
                if track_open:
                    self.opened.append(args[0])
                return result
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans.append((frame[0], parent, name, start, end,
                              end - start - frame[1],
                              threading.get_ident(), frame[2],
                              self.phase))

        return traced

    # ------------------------------------------------------------------
    def write(self, path):
        """Dump every span (and the missing boundaries) as JSON."""
        with open(path, "w") as handle:
            json.dump({"fields": SPAN_FIELDS, "spans": self.spans,
                       "missing": self.missing}, handle)


def layer_totals(spans, phase, requests=None):
    """Per span name: ``{"calls", "self_s", "total_s"}`` over ``phase``.

    ``requests`` narrows the sum to spans carrying one of those request
    ids (the post-commit queries of ``serve_live``).
    """
    totals = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
              for name in SPAN_NAMES}
    for span in spans:
        if span[8] != phase:
            continue
        if requests is not None and span[7] not in requests:
            continue
        entry = totals[span[2]]
        entry["calls"] += 1
        entry["self_s"] += span[5] * 1e-9
        entry["total_s"] += (span[4] - span[3]) * 1e-9
    return totals


def request_gaps(spans, phase, requests=None):
    """Cross-thread gaps of the service's query path, summed in seconds.

    A query's handler thread blocks between ``submit`` returning and
    ``to_dict`` starting while a pool thread runs the engine.  Matched
    by request id, that interval splits into ``queue_wait_s`` (submit
    return to ``GTSEngine.run`` entry, less the ``pin`` span inside
    it), the engine run itself, and ``service_self_s`` (run exit to the
    handler resuming).  ``blocked_s`` is the whole interval: the
    handler's self time must not count it twice.
    """
    linked = ("dynamic.pin", "core.engine.run", "service.submit",
              "service.http.serialize")
    by_request = {}
    pins = {}
    last_pin = {}
    for span in sorted((s for s in spans
                        if s[8] == phase and s[2] in linked),
                       key=lambda s: s[3]):
        name, thread, request = span[2], span[6], span[7]
        if span[1] == 0 and name == "dynamic.pin":
            last_pin[thread] = span
        elif span[1] == 0 and name == "core.engine.run":
            # The pool thread pins right before it runs the engine.
            pin = last_pin.pop(thread, None)
            if pin is not None and request is not None:
                pins[request] = (pin[4] - pin[3]) * 1e-9
        if request is None or (requests is not None
                               and request not in requests):
            continue
        if name != "dynamic.pin":
            by_request.setdefault(request, {})[name] = span
    out = {"queue_wait_s": 0.0, "service_self_s": 0.0, "blocked_s": 0.0}
    for request, parts in by_request.items():
        if len(parts) != 3:
            continue
        submit_end = parts["service.submit"][4]
        run = parts["core.engine.run"]
        resume = parts["service.http.serialize"][3]
        out["queue_wait_s"] += max(
            0.0, (run[3] - submit_end) * 1e-9 - pins.get(request, 0.0))
        out["service_self_s"] += max(0.0, (resume - run[4]) * 1e-9)
        out["blocked_s"] += max(0.0, (resume - submit_end) * 1e-9)
    return out
