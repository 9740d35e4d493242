"""FaultPlan: the declarative, seed-driven description of what breaks.

A plan is pure data — rates for the probabilistic fault classes, a
schedule for whole-device losses, and the retry policy that absorbs the
recoverable ones.  The same plan plus the same seed always produces the
same faults at the same points (see :mod:`repro.faults.inject`), so a
chaos run is exactly as reproducible as a fault-free one.

Fault taxonomy
--------------
========================  ======================================  ============
fault                      injection point                         recovery
========================  ======================================  ============
``ssd_transient_rate``     ``StorageArray.fetch``                  retry + backoff on the SSD channel
``ssd_corrupt_rate``       ``StorageArray.fetch``                  checksum-verified re-fetch
``copy_error_rate``        ``StreamScheduler.dispatch_streamed``   retry + backoff on the copy engine
``stall_rate``             stream dispatch (cached or streamed)    none needed — kernel delayed ``stall_seconds``
``gpu_loss``               engine round boundary                   Strategy-P: drain + redistribute; Strategy-S: :class:`~repro.errors.DeviceLostError`
``ssd_loss``               ``StorageArray.fetch``                  none — :class:`~repro.errors.DeviceLostError`
``host_corrupt_reads``     ``FileBackedDatabase._parse_page``      CRC32-verified re-read; persistent ⇒ :class:`~repro.errors.IntegrityError`
========================  ======================================  ============

The four rate faults fire inside a round's booking: the scheduler
probes the round (:meth:`~repro.faults.FaultInjector.round_faulted`)
and books it per call when one will, counting it in
``fault_stats["fallback_rounds"]`` — for every kernel; the round's
compute is never degraded.  ``host_corrupt_reads`` fires where a host
read happens, which is the page-plan build and nowhere in a round: a
run that builds its plan sees the plan's budget consumed (and as many
``integrity_retries``); a run served a warm shared plan reads nothing
and sees none.

Plans load from JSON (the CLI's ``run --faults plan.json``)::

    {
      "seed": 7,
      "ssd_transient_rate": 0.02,
      "ssd_corrupt_rate": 0.01,
      "copy_error_rate": 0.01,
      "stall_rate": 0.05,
      "stall_seconds": 0.0005,
      "gpu_loss": {"1": 0.002},
      "host_corrupt_reads": {"3": 1},
      "retry": {"max_attempts": 6}
    }
"""

import dataclasses
import json
from typing import Dict, Optional

from repro.errors import ConfigurationError
from repro.faults.retry import RetryPolicy

_RATE_FIELDS = ("ssd_transient_rate", "ssd_corrupt_rate",
                "copy_error_rate", "stall_rate")


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """Deterministic description of the faults a run must survive.

    Rates are per-opportunity probabilities in ``[0, 1)`` — e.g.
    ``ssd_transient_rate=0.02`` means each (round, page) storage read
    independently fails with probability 2 %.  ``gpu_loss`` /
    ``ssd_loss`` map device index to the simulated time at which the
    device dies (a GPU dead at round start is drained; an SSD is simply
    gone).  ``host_corrupt_reads`` maps a page ID to how many of its
    first host file reads come back corrupted (exercising the CRC32
    verified re-read path in :class:`~repro.format.io.FileBackedDatabase`).
    """

    seed: int = 0
    ssd_transient_rate: float = 0.0
    ssd_corrupt_rate: float = 0.0
    copy_error_rate: float = 0.0
    stall_rate: float = 0.0
    #: Kernel-launch delay charged when a stream stall fires.
    stall_seconds: float = 1e-4
    gpu_loss: Dict[int, float] = dataclasses.field(default_factory=dict)
    ssd_loss: Dict[int, float] = dataclasses.field(default_factory=dict)
    host_corrupt_reads: Dict[int, int] = dataclasses.field(
        default_factory=dict)
    retry: Optional[RetryPolicy] = None

    def __post_init__(self):
        for name in _RATE_FIELDS:
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ConfigurationError(
                    "%s must be in [0, 1) (got %r)" % (name, rate))
        if self.stall_seconds < 0:
            raise ConfigurationError("stall_seconds cannot be negative")
        for name in ("gpu_loss", "ssd_loss"):
            schedule = getattr(self, name)
            clean = {}
            for index, at in schedule.items():
                index = int(index)
                if index < 0:
                    raise ConfigurationError(
                        "%s device index cannot be negative" % name)
                if at < 0:
                    raise ConfigurationError(
                        "%s time cannot be negative" % name)
                clean[index] = float(at)
            object.__setattr__(self, name, clean)
        clean = {}
        for pid, count in self.host_corrupt_reads.items():
            pid, count = int(pid), int(count)
            if pid < 0 or count < 0:
                raise ConfigurationError(
                    "host_corrupt_reads entries cannot be negative")
            clean[pid] = count
        object.__setattr__(self, "host_corrupt_reads", clean)
        if self.retry is not None and not isinstance(self.retry,
                                                     RetryPolicy):
            object.__setattr__(self, "retry",
                               RetryPolicy.from_dict(dict(self.retry)))

    # ------------------------------------------------------------------
    @property
    def any_rates(self):
        """True when any probabilistic fault class can fire."""
        return any(getattr(self, name) > 0.0 for name in _RATE_FIELDS)

    @property
    def active(self):
        """True when this plan can inject anything at all."""
        return (self.any_rates or bool(self.gpu_loss)
                or bool(self.ssd_loss) or bool(self.host_corrupt_reads))

    def with_seed(self, seed):
        """A copy of this plan under a different seed (CLI override)."""
        return dataclasses.replace(self, seed=int(seed))

    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, data):
        """Build a plan from a plain (JSON-decoded) dict."""
        data = dict(data)
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                "unknown fault plan field(s): %s"
                % ", ".join(sorted(unknown)))
        return cls(**data)

    @classmethod
    def from_json_file(cls, path):
        """Load a plan from a JSON file (``run --faults plan.json``)."""
        with open(path) as handle:
            try:
                data = json.load(handle)
            except ValueError as error:
                raise ConfigurationError(
                    "%s: not valid JSON: %s" % (path, error)) from None
        if not isinstance(data, dict):
            raise ConfigurationError(
                "%s: fault plan must be a JSON object" % path)
        return cls.from_dict(data)

    def to_dict(self):
        """JSON-ready dict (inverse of :meth:`from_dict`)."""
        out = dataclasses.asdict(self)
        if self.retry is not None:
            out["retry"] = self.retry.to_dict()
        return out
