"""The one way to open a host-clock span.

``with span("core.kernels.batch"): ...`` times its block into the
recorder active *on the calling thread* — a
:class:`repro.obs.host.HostProfiler` that :func:`activate` put there —
and is a no-op that reads no clock when there is none.  An instrumented
call is therefore written once, measured or not, and a span closes when
its block raises.  The recorder is a thread's, never an object's: a
span opened by a service worker lands in the request that worker is
running, not in whichever run last touched a shared database handle.

Kept outside :mod:`repro.obs` so the engine and the page store import it
without loading the analysis and exporter modules.
"""

import contextlib
import threading


class _Active(threading.local):
    recorder = None


_active = _Active()


@contextlib.contextmanager
def activate(recorder):
    """Make ``recorder`` the calling thread's recorder for the block
    (``None``: nothing records); the previous one is restored after."""
    previous, _active.recorder = _active.recorder, recorder
    try:
        yield
    finally:
        _active.recorder = previous


class span:
    """Time the block as a child of the thread's innermost open span."""

    __slots__ = ("_name", "_recorder")

    def __init__(self, name):
        self._name = name

    def __enter__(self):
        recorder = self._recorder = _active.recorder
        if recorder is not None:
            recorder.push(self._name)

    def __exit__(self, exc_type, exc, tb):
        if self._recorder is not None:
            self._recorder.pop()
        return False


def count(name, amount):
    """Add ``amount`` to the active recorder's counter ``name`` (a
    run's I/O totals ride along with its spans)."""
    if _active.recorder is not None:
        _active.recorder.add_counter(name, amount)
