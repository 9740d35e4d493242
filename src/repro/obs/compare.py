"""Run comparison: diff two metrics artifacts under tolerance rules.

The observability layer produces several JSON-ready payload shapes — a
:class:`~repro.obs.metrics.MetricsRegistry` snapshot, a
:class:`~repro.obs.analyze.TraceAnalysis` report, a benchmark report
(``BENCH_*.json``), or a history record (:mod:`repro.obs.history`).
:func:`flatten_metrics` projects any of them onto flat
``dotted.metric.name -> number`` pairs; :func:`compare_metrics` then
diffs two such payloads under named :class:`ToleranceRule` entries and
returns a :class:`ComparisonReport` of typed verdicts:

* ``improved`` — moved past tolerance in the rule's good direction,
* ``unchanged`` — within tolerance,
* ``regressed`` — moved past tolerance in the bad direction.

Only rule-matched metrics are compared — the rules *are* the tracked
metric set, so an artifact can grow new fields without tripping the
gate.  The report's overall verdict is ``regressed`` if any tracked
metric regressed, else ``improved`` if any improved, else
``unchanged``; ``repro obs compare`` exits non-zero on ``regressed``,
which is what the CI regression job gates on.
"""

import dataclasses
import fnmatch
import json
from typing import Dict, List

from repro.errors import ConfigurationError

IMPROVED = "improved"
UNCHANGED = "unchanged"
REGRESSED = "regressed"

#: Keys never flattened into comparable metrics: identity and
#: provenance, not measurements.
_IDENTITY_KEYS = ("meta", "host", "protocol", "generated", "schema",
                  "schema_version", "kind", "benchmark")


@dataclasses.dataclass(frozen=True)
class ToleranceRule:
    """One named tolerance: which metrics, which direction is better,
    and how much movement counts as real.

    ``pattern`` is an ``fnmatch`` glob over flattened metric names;
    ``direction`` is ``"lower"`` or ``"higher"`` (the *better*
    direction); the tolerance is ``max(abs_tol, rel_tol * |before|)``.
    """

    pattern: str
    direction: str = "lower"
    rel_tol: float = 0.0
    abs_tol: float = 0.0
    name: str = ""

    def __post_init__(self):
        if self.direction not in ("lower", "higher"):
            raise ConfigurationError(
                "rule %r: direction must be 'lower' or 'higher', got %r"
                % (self.pattern, self.direction))
        if self.rel_tol < 0 or self.abs_tol < 0:
            raise ConfigurationError(
                "rule %r: tolerances cannot be negative" % self.pattern)

    def matches(self, metric_name):
        return fnmatch.fnmatchcase(metric_name, self.pattern)

    def tolerance(self, before):
        return max(self.abs_tol, self.rel_tol * abs(before))

    def verdict(self, before, after):
        delta = after - before
        tolerance = self.tolerance(before)
        if abs(delta) <= tolerance:
            return UNCHANGED
        good = delta < 0 if self.direction == "lower" else delta > 0
        return IMPROVED if good else REGRESSED

    def to_dict(self):
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload):
        unknown = set(payload) - {f.name for f in
                                  dataclasses.fields(cls)}
        if unknown:
            raise ConfigurationError(
                "unknown tolerance-rule field(s): %s"
                % ", ".join(sorted(unknown)))
        if "pattern" not in payload:
            raise ConfigurationError("tolerance rule needs a 'pattern'")
        return cls(**payload)


#: Default rules for engine-run metrics and trace-analysis reports.
#: Simulated quantities are deterministic, so their tolerances are
#: tight; host wall-clock is noise and gets a wide band.
DEFAULT_RULES = (
    ToleranceRule("run.elapsed_seconds", "lower", rel_tol=1e-9,
                  name="simulated wall-clock"),
    ToleranceRule("run.mteps", "higher", rel_tol=1e-9, name="MTEPS"),
    ToleranceRule("run.wall_seconds", "lower", rel_tol=0.5,
                  name="host wall-clock (noisy)"),
    ToleranceRule("run.bytes_streamed", "lower", name="PCI-E traffic"),
    ToleranceRule("cache.hit_rate", "higher", abs_tol=0.01,
                  name="page-cache hit rate"),
    ToleranceRule("mm_buffer.hit_rate", "higher", abs_tol=0.01,
                  name="MM-buffer hit rate"),
    ToleranceRule("pipeline.transfer_busy_seconds", "lower",
                  rel_tol=1e-9),
    ToleranceRule("pipeline.kernel_busy_seconds", "lower", rel_tol=1e-9),
    ToleranceRule("overlap_hiding_ratio", "higher", abs_tol=0.02,
                  name="transfer/kernel overlap hiding"),
    ToleranceRule("total_seconds", "lower", rel_tol=1e-9,
                  name="trace span"),
    ToleranceRule("critical_path_seconds", "lower", rel_tol=1e-9),
    # Host-profile metrics (repro.obs.host): real wall-clock, so bands
    # are wide; phase *fractions* are the host-independent signal and
    # get a tighter absolute band.
    ToleranceRule("host.wall_seconds", "lower", rel_tol=0.5,
                  name="host profile wall (noisy)"),
    ToleranceRule("host.phase.*.seconds", "lower", rel_tol=0.75,
                  abs_tol=0.005, name="host phase wall (noisy)"),
    ToleranceRule("host.phase.*.fraction", "lower", abs_tol=0.10,
                  name="host phase share of wall"),
    ToleranceRule("host.coverage", "higher", abs_tol=0.05,
                  name="profiled share of wall"),
)


@dataclasses.dataclass(frozen=True)
class MetricDelta:
    """One tracked metric's movement between two artifacts."""

    name: str
    before: float
    after: float
    verdict: str
    rule: ToleranceRule

    @property
    def delta(self):
        return self.after - self.before

    @property
    def rel_change(self):
        if self.before == 0:
            return None
        return self.delta / abs(self.before)

    def to_dict(self):
        return {
            "name": self.name,
            "before": self.before,
            "after": self.after,
            "delta": self.delta,
            "rel_change": self.rel_change,
            "verdict": self.verdict,
            "rule": self.rule.to_dict(),
        }


class ComparisonReport:
    """Typed verdicts for every tracked metric of two artifacts."""

    def __init__(self, deltas, added=(), removed=(), before_label="before",
                 after_label="after"):
        self.deltas: List[MetricDelta] = list(deltas)
        #: Rule-matched metric names present only in ``after`` / only in
        #: ``before`` — surfaced (not gated) so schema drift is visible.
        self.added = sorted(added)
        self.removed = sorted(removed)
        self.before_label = before_label
        self.after_label = after_label

    @property
    def verdict(self):
        verdicts = {delta.verdict for delta in self.deltas}
        if REGRESSED in verdicts:
            return REGRESSED
        if IMPROVED in verdicts:
            return IMPROVED
        return UNCHANGED

    def regressions(self):
        return [d for d in self.deltas if d.verdict == REGRESSED]

    def improvements(self):
        return [d for d in self.deltas if d.verdict == IMPROVED]

    @property
    def exit_code(self):
        """Process exit code for gates: non-zero iff regressed."""
        return 1 if self.verdict == REGRESSED else 0

    def to_dict(self):
        return {
            "schema": "gts-comparison/1",
            "verdict": self.verdict,
            "before": self.before_label,
            "after": self.after_label,
            "num_tracked": len(self.deltas),
            "num_regressed": len(self.regressions()),
            "num_improved": len(self.improvements()),
            "added": list(self.added),
            "removed": list(self.removed),
            "deltas": [delta.to_dict() for delta in self.deltas],
        }

    def summary(self):
        lines = ["%s -> %s: %s (%d tracked metric(s), %d regressed, "
                 "%d improved)"
                 % (self.before_label, self.after_label,
                    self.verdict.upper(), len(self.deltas),
                    len(self.regressions()), len(self.improvements()))]
        for delta in self.deltas:
            if delta.verdict == UNCHANGED:
                continue
            rel = ("%+.1f%%" % (100.0 * delta.rel_change)
                   if delta.rel_change is not None else "n/a")
            lines.append(
                "  %-9s %-44s %.6g -> %.6g (%s, tol %s %.3g)"
                % (delta.verdict, delta.name, delta.before, delta.after,
                   rel, delta.rule.direction,
                   delta.rule.tolerance(delta.before)))
        for name in self.added:
            lines.append("  added     %s (no baseline value)" % name)
        for name in self.removed:
            lines.append("  removed   %s (baseline only)" % name)
        return "\n".join(lines)


def flatten_metrics(payload, prefix="") -> Dict[str, float]:
    """Project any metrics-bearing payload onto flat name->number pairs.

    Registry snapshots (``{"meta":..., "metrics": {name: {"kind":...,
    "value":...}}}``) flatten each instrument's value under its metric
    name; any other dict flattens recursively with dot-joined keys.
    Identity/provenance keys and non-numeric leaves (strings, bools,
    nulls, lists) are skipped.
    """
    if not isinstance(payload, dict):
        raise ConfigurationError(
            "cannot flatten %r: expected a dict payload"
            % type(payload).__name__)
    flat = {}
    metrics = payload.get("metrics")
    if not prefix and isinstance(metrics, dict):
        items = []
        for name, entry in metrics.items():
            if (isinstance(entry, dict) and "value" in entry
                    and "kind" in entry):
                items.append((name, entry["value"]))
            else:
                items.append((name, entry))
        source = dict(items)
        rest = {key: value for key, value in payload.items()
                if key != "metrics" and key not in _IDENTITY_KEYS}
        _flatten_into(flat, source, "")
        _flatten_into(flat, rest, "")
        return flat
    _flatten_into(flat, payload, prefix,
                  skip=_IDENTITY_KEYS if not prefix else ())
    return flat


def _flatten_into(flat, payload, prefix, skip=()):
    for key, value in payload.items():
        if key in skip:
            continue
        name = "%s.%s" % (prefix, key) if prefix else str(key)
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            flat[name] = float(value)
        elif isinstance(value, dict):
            _flatten_into(flat, value, name)


def load_rules(path) -> List[ToleranceRule]:
    """Load tolerance rules from a JSON file (a list of rule objects,
    or ``{"rules": [...]}``)."""
    with open(path) as handle:
        payload = json.load(handle)
    if isinstance(payload, dict):
        payload = payload.get("rules")
    if not isinstance(payload, list) or not payload:
        raise ConfigurationError(
            "%s: expected a non-empty JSON list of tolerance rules "
            "(or {'rules': [...]})" % path)
    return [ToleranceRule.from_dict(entry) for entry in payload]


def compare_metrics(before, after, rules=None, before_label="before",
                    after_label="after") -> ComparisonReport:
    """Diff two payloads under ``rules`` (:data:`DEFAULT_RULES` when
    omitted); returns a :class:`ComparisonReport`.

    ``before`` / ``after`` are dict payloads in any shape
    :func:`flatten_metrics` accepts (already-flat dicts included).
    """
    rules = list(DEFAULT_RULES if rules is None else rules)
    flat_before = flatten_metrics(before)
    flat_after = flatten_metrics(after)

    def rule_for(name):
        return next((rule for rule in rules if rule.matches(name)), None)

    deltas = []
    added = []
    removed = []
    for name in sorted(set(flat_before) | set(flat_after)):
        rule = rule_for(name)
        if rule is None:
            continue
        if name not in flat_before:
            added.append(name)
        elif name not in flat_after:
            removed.append(name)
        else:
            before_value = flat_before[name]
            after_value = flat_after[name]
            deltas.append(MetricDelta(
                name=name, before=before_value, after=after_value,
                verdict=rule.verdict(before_value, after_value),
                rule=rule))
    return ComparisonReport(deltas, added=added, removed=removed,
                            before_label=before_label,
                            after_label=after_label)
