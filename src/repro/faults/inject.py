"""FaultInjector: deterministic, probe-able fault draws plus counters.

Every probabilistic fault decision is a *pure function* of
``(seed, site, round, device, page, attempt)`` — a splitmix64-style
integer hash folded over the key, mapped to a uniform in ``[0, 1)`` and
compared against the plan's rate.  Purity buys two properties the chaos
tests rely on:

* **Determinism** — the same plan + seed faults the same operations in
  the same order, every run, on every platform (no RNG stream to drift
  when call order changes).
* **Probe-ability** — the scheduler can ask *"will any fault fire in
  this round?"* (:meth:`FaultInjector.round_faulted`) before committing
  to its inlined bulk booking, and the answer is guaranteed to agree
  with what the per-call injection points would actually do, because
  both evaluate the identical hash on the identical key.

The injector also carries the run's fault bookkeeping (what fired, what
was retried, how much simulated backoff was charged), which the engine
snapshots into :attr:`repro.core.result.RunResult.fault_stats` and
:func:`repro.obs.metrics.collect_run_metrics` turns into counters.
"""

import numpy as np

from repro.faults.plan import FaultPlan
from repro.faults.retry import DEFAULT_RETRY_POLICY

# splitmix64 finalizer constants (Steele et al.), kept as uint64 scalars
# so numpy wraps multiplications instead of upcasting.
_M1 = np.uint64(0xbf58476d1ce4e5b9)
_M2 = np.uint64(0x94d049bb133111eb)
_GOLD = np.uint64(0x9e3779b97f4a7c15)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_U64 = 2.0 ** 64

#: Hash-domain separators, one per fault class.
SITE_SSD_TRANSIENT = 1
SITE_SSD_CORRUPT = 2
SITE_COPY = 3
SITE_STALL = 4

#: Simulated outcomes of one storage read attempt.
READ_OK = None
READ_TRANSIENT = "transient"
READ_CORRUPT = "corrupt"


def _mix(x):
    """splitmix64 finalizer over a uint64 scalar or array."""
    with np.errstate(over="ignore"):  # uint64 wraparound is the point
        x = (x ^ (x >> _S30)) * _M1
        x = (x ^ (x >> _S27)) * _M2
        return x ^ (x >> _S31)


def _fold(h, v):
    """Fold one key component into the running hash."""
    with np.errstate(over="ignore"):
        return _mix(h ^ (v * _GOLD))


class FaultInjector:
    """One run's fault oracle and bookkeeping.

    Built fresh per :meth:`repro.core.engine.GTSEngine.run` so counters
    attribute to exactly one run.  ``seed`` overrides the plan's seed
    (the CLI's ``--fault-seed``); ``retry`` overrides the plan's retry
    policy.
    """

    def __init__(self, plan, seed=None, retry=None):
        if not isinstance(plan, FaultPlan):
            plan = FaultPlan.from_dict(plan)
        if seed is not None:
            plan = plan.with_seed(seed)
        self.plan = plan
        self.retry = retry or plan.retry or DEFAULT_RETRY_POLICY
        self._seed = np.uint64(plan.seed & 0xFFFFFFFFFFFFFFFF)
        self._round = 0
        # -- bookkeeping ------------------------------------------------
        self.ssd_transient_faults = 0
        self.ssd_corrupt_faults = 0
        self.copy_faults = 0
        self.stream_stalls = 0
        self.host_corrupt_faults = 0
        self.retries = 0
        self.backoff_seconds = 0.0
        self.stall_seconds_injected = 0.0
        self.fallback_rounds = 0
        self.devices_lost = 0
        self._host_reads_seen = {}

    # ------------------------------------------------------------------
    # Pure draws
    # ------------------------------------------------------------------
    def _uniform(self, site, *key, vector=None):
        """Uniform in ``[0, 1)`` for ``(site, *key)``; with ``vector``
        the last key component is an int array and an array returns."""
        h = _fold(self._seed, np.uint64(site))
        for component in key:
            h = _fold(h, np.uint64(component))
        if vector is not None:
            h = _fold(h, np.asarray(vector).astype(np.uint64))
        return h / _U64

    # ------------------------------------------------------------------
    # Round context
    # ------------------------------------------------------------------
    def begin_round(self, round_index):
        """Scope subsequent draws to engine round ``round_index``."""
        self._round = int(round_index)

    def round_faulted(self, pids, assignments):
        """Would any probabilistic fault fire in the current round?

        ``pids`` / ``assignments`` are the round's page IDs and per-page
        GPU tuples.  Evaluates the exact draws the injection points
        would, at attempt 0, so a ``False`` here guarantees the round's
        dispatch is fault-free and safe to book in bulk.
        """
        plan = self.plan
        if not plan.any_rates:
            return False
        pids = np.asarray(pids, dtype=np.int64)
        if not len(pids):
            return False
        r = self._round
        if plan.ssd_transient_rate and bool(
                (self._uniform(SITE_SSD_TRANSIENT, r, 0, vector=pids)
                 < plan.ssd_transient_rate).any()):
            return True
        if plan.ssd_corrupt_rate and bool(
                (self._uniform(SITE_SSD_CORRUPT, r, 0, vector=pids)
                 < plan.ssd_corrupt_rate).any()):
            return True
        if plan.copy_error_rate or plan.stall_rate:
            per_gpu = {}
            for pid, gpus in zip(pids.tolist(), assignments):
                for g in gpus:
                    per_gpu.setdefault(g, []).append(pid)
            for g, gpu_pids in per_gpu.items():
                gpu_pids = np.asarray(gpu_pids, dtype=np.int64)
                if plan.copy_error_rate and bool(
                        (self._uniform(SITE_COPY, r, g, 0,
                                       vector=gpu_pids)
                         < plan.copy_error_rate).any()):
                    return True
                if plan.stall_rate and bool(
                        (self._uniform(SITE_STALL, r, g, vector=gpu_pids)
                         < plan.stall_rate).any()):
                    return True
        return False

    # ------------------------------------------------------------------
    # Injection points
    # ------------------------------------------------------------------
    def ssd_read_outcome(self, page_id, attempt):
        """Outcome of one storage read attempt for ``page_id``.

        Returns :data:`READ_OK`, :data:`READ_TRANSIENT` (the read
        failed outright) or :data:`READ_CORRUPT` (the read completed
        but its bytes fail checksum verification).  Counts what fired.
        """
        plan = self.plan
        if plan.ssd_transient_rate and bool(
                self._uniform(SITE_SSD_TRANSIENT, self._round, attempt,
                              vector=page_id)
                < plan.ssd_transient_rate):
            self.ssd_transient_faults += 1
            return READ_TRANSIENT
        if plan.ssd_corrupt_rate and bool(
                self._uniform(SITE_SSD_CORRUPT, self._round, attempt,
                              vector=page_id)
                < plan.ssd_corrupt_rate):
            self.ssd_corrupt_faults += 1
            return READ_CORRUPT
        return READ_OK

    def copy_fault(self, gpu_index, page_id, attempt):
        """Does this host-to-device copy attempt fail?"""
        plan = self.plan
        if plan.copy_error_rate and bool(
                self._uniform(SITE_COPY, self._round, gpu_index, attempt,
                              vector=page_id)
                < plan.copy_error_rate):
            self.copy_faults += 1
            return True
        return False

    def stall_seconds(self, gpu_index, page_id):
        """Stream-stall delay (0.0 when no stall fires) for a dispatch."""
        plan = self.plan
        if plan.stall_rate and bool(
                self._uniform(SITE_STALL, self._round, gpu_index,
                              vector=page_id)
                < plan.stall_rate):
            self.stream_stalls += 1
            self.stall_seconds_injected += plan.stall_seconds
            return plan.stall_seconds
        return 0.0

    def ssd_lost(self, device_index, at_time):
        """Loss time if storage device ``device_index`` is dead by
        ``at_time``, else ``None``."""
        lost_at = self.plan.ssd_loss.get(device_index)
        if lost_at is not None and at_time >= lost_at:
            return lost_at
        return None

    def gpu_losses_by(self, at_time):
        """GPU indices whose scheduled loss time has passed."""
        return [g for g, lost_at in sorted(self.plan.gpu_loss.items())
                if at_time >= lost_at]

    def host_read_corrupt(self, page_id):
        """Should this host file read of ``page_id`` come back corrupted?

        Consumes one unit of the plan's ``host_corrupt_reads`` budget
        for the page (the first N reads are corrupted, later ones are
        clean — modelling transient bit-rot on the read path that a
        verified re-read recovers from).
        """
        budget = self.plan.host_corrupt_reads.get(page_id, 0)
        if not budget:
            return False
        seen = self._host_reads_seen.get(page_id, 0)
        self._host_reads_seen[page_id] = seen + 1
        if seen < budget:
            self.host_corrupt_faults += 1
            return True
        return False

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def note_retry(self, backoff):
        """Record one retry and the simulated backoff it charged."""
        self.retries += 1
        self.backoff_seconds += backoff

    def note_fallback(self):
        """Record one round booked per call because a fault fires in
        it."""
        self.fallback_rounds += 1

    def note_device_lost(self):
        """Record one whole-device loss the run absorbed."""
        self.devices_lost += 1

    @property
    def faults_injected(self):
        """Total probabilistic faults that fired (all classes)."""
        return (self.ssd_transient_faults + self.ssd_corrupt_faults
                + self.copy_faults + self.stream_stalls
                + self.host_corrupt_faults)

    def stats(self):
        """JSON-ready snapshot of what this run's faults cost."""
        return {
            "seed": self.plan.seed,
            "faults_injected": self.faults_injected,
            "ssd_transient_faults": self.ssd_transient_faults,
            "ssd_corrupt_faults": self.ssd_corrupt_faults,
            "copy_faults": self.copy_faults,
            "stream_stalls": self.stream_stalls,
            "host_corrupt_faults": self.host_corrupt_faults,
            "retries": self.retries,
            "backoff_seconds": self.backoff_seconds,
            "stall_seconds_injected": self.stall_seconds_injected,
            "fallback_rounds": self.fallback_rounds,
            "devices_lost": self.devices_lost,
        }
