"""Instrumented locking primitives shared by the concurrent layers.

PRs 1-6 built a strictly single-threaded system: every cache in the
stack (the :class:`~repro.core.plan.RoundPlanCache`, the
:class:`~repro.format.io.FileBackedDatabase` page pool) relied on one thread mutating it at a time.  The service
layer (:mod:`repro.service`) runs many queries concurrently against one
shared database, so those caches now guard their mutable state with the
locks defined here.

:class:`InstrumentedLock` is a plain mutex with two extra behaviours the
service's observability wants:

* a **contended-acquisition counter** — every acquire first tries the
  non-blocking fast path; only when another thread already holds the
  lock does the counter tick and the caller fall back to a blocking
  acquire.  Uncontended (single-threaded) use therefore costs one extra
  integer comparison, and ``contended`` directly measures how often
  threads actually queued on the shared structure.
* a **total-acquisition counter**, so a contention *rate* can be
  reported (``contended / acquisitions``), and a cumulative
  ``wait_seconds`` clocked only on the contended path — the fast path
  never reads the host clock.

Both counters are updated while the lock is held, so they are exact.

:class:`ReadWriteGate` serialises the rare queries that must run alone
(e.g. fault plans that attach a corrupting injector to a shared
database) against the common fully-concurrent readers: readers share the
gate, writers exclude everyone.  The gate is **writer-preferring**: once
a writer is waiting, new readers queue behind it, so a steady reader
stream can delay a writer by at most the readers already inside the
gate when it arrived (no starvation).  ``writers_waiting`` and the
cumulative ``writer_wait_seconds`` / ``reader_wait_seconds`` counters
make both sides' waits observable, and both acquire methods return the
seconds the caller actually blocked so the service can attribute gate
time to an individual request's ``gate_acquire`` span.
"""

import threading
import time


class InstrumentedLock:
    """A mutex that counts total and contended acquisitions.

    Usable as a context manager exactly like :class:`threading.Lock`::

        lock = InstrumentedLock()
        with lock:
            ...mutate shared state...
        lock.contended      # times a thread had to wait
        lock.acquisitions   # total acquires
    """

    __slots__ = ("_lock", "contended", "acquisitions", "wait_seconds")

    def __init__(self):
        self._lock = threading.Lock()
        self.contended = 0
        self.acquisitions = 0
        #: Total host seconds spent blocked on contended acquires.
        self.wait_seconds = 0.0

    def acquire(self):
        """Acquire, counting whether the fast (uncontended) path won.

        Returns the seconds spent blocked (0.0 on the fast path, which
        performs no clock read at all — pay-for-use, like the gate's
        reader path).
        """
        waited = None
        if not self._lock.acquire(False):
            start = time.perf_counter()
            self._lock.acquire()
            waited = time.perf_counter() - start
        # Counters are mutated under the lock, so they are exact.
        self.acquisitions += 1
        if waited is not None:
            self.contended += 1
            self.wait_seconds += waited
        return waited or 0.0

    def release(self):
        self._lock.release()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc):
        self.release()
        return False

    def contention_rate(self):
        """Fraction of acquisitions that had to wait (0.0 when idle)."""
        if not self.acquisitions:
            return 0.0
        return self.contended / self.acquisitions

    def stats(self):
        """JSON-ready counter snapshot."""
        return {"acquisitions": self.acquisitions,
                "contended": self.contended,
                "contention_rate": self.contention_rate(),
                "wait_seconds": self.wait_seconds}


class ReadWriteGate:
    """Many concurrent readers, or one exclusive writer.

    The service uses this per database handle: ordinary queries enter as
    readers and run fully concurrently; a query whose fault plan must
    attach process-global state to the shared database (host-read
    corruption budgets) enters as a writer and runs alone, so its
    injected faults can never leak into a neighbour's reads.

    Writer preference: :meth:`acquire_read` blocks not only while a
    writer holds the gate but also while one *waits* for it.  Readers
    already inside keep running (the writer waits them out), but no new
    reader overtakes a queued writer — under a continuous reader stream
    the writer acquires as soon as the current readers drain.
    """

    def __init__(self):
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0
        #: Exclusive acquisitions served (how often the slow path ran).
        self.exclusive_acquisitions = 0
        #: Total host seconds writers spent waiting to acquire.
        self.writer_wait_seconds = 0.0
        #: Reader acquisitions that found the gate blocked.
        self.reader_waits = 0
        #: Total host seconds those blocked readers spent waiting.
        self.reader_wait_seconds = 0.0

    @property
    def writers_waiting(self):
        """Writers currently queued for exclusive access."""
        return self._writers_waiting

    def acquire_read(self):
        """Enter as a reader; returns the seconds spent waiting.

        The uncontended path (no writer holding or queued) performs no
        clock read — wait accounting is pay-for-use, paid only by
        readers that actually block behind a writer.
        """
        with self._cond:
            if not (self._writer or self._writers_waiting):
                self._readers += 1
                return 0.0
            start = time.perf_counter()
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
            waited = time.perf_counter() - start
            self.reader_waits += 1
            self.reader_wait_seconds += waited
            return waited

    def release_read(self):
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self):
        """Enter exclusively; returns the seconds spent waiting."""
        start = time.perf_counter()
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer:
                    self._cond.wait()
                self._writer = True
                while self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self.exclusive_acquisitions += 1
            waited = time.perf_counter() - start
            self.writer_wait_seconds += waited
            return waited

    def release_write(self):
        with self._cond:
            self._writer = False
            self._cond.notify_all()

    def stats(self):
        """JSON-ready gate counters for the service stats endpoint."""
        with self._cond:
            return {
                "readers_active": self._readers,
                "writers_waiting": self._writers_waiting,
                "exclusive_acquisitions": self.exclusive_acquisitions,
                "writer_wait_seconds": self.writer_wait_seconds,
                "reader_waits": self.reader_waits,
                "reader_wait_seconds": self.reader_wait_seconds,
            }
