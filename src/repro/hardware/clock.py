"""Timeline resources for the discrete-event hardware model.

The simulation style here is *resource-timeline scheduling* rather than a
callback event queue: every serialized device is a :class:`Resource` whose
``available_at`` time advances as activities are booked onto it.  An
activity's start time is the maximum of the resource's availability and the
activity's data dependencies, exactly like job-shop scheduling.  This keeps
the model deterministic and easy to reason about, and it composes naturally
with the engine's page-dispatch loop.
"""

from repro.errors import SimulationError


class Resource:
    """An exclusive serialized device (copy engine, SSD channel, ...).

    Activities booked on the resource run one after another; an activity
    asked to start at ``earliest`` begins at
    ``max(earliest, available_at)``; a traced run keeps the intervals
    in its :class:`~repro.obs.events.TraceRecorder`.
    """

    def __init__(self, name):
        self.name = name
        self.available_at = 0.0
        self.busy_time = 0.0
        self.num_activities = 0

    def book(self, earliest, duration):
        """Book an activity; returns ``(start, end)`` simulated times."""
        if duration < 0:
            raise SimulationError(
                "negative duration %r on %s" % (duration, self.name))
        if earliest < 0:
            raise SimulationError(
                "negative earliest time %r on %s" % (earliest, self.name))
        start = max(earliest, self.available_at)
        end = start + duration
        self.available_at = end
        self.busy_time += duration
        self.num_activities += 1
        return start, end

    def utilisation(self, horizon):
        """Fraction of ``[0, horizon]`` this resource spent busy."""
        if horizon <= 0:
            return 0.0
        return min(1.0, self.busy_time / horizon)

    def reset(self):
        self.available_at = 0.0
        self.busy_time = 0.0
        self.num_activities = 0

    def __repr__(self):
        return "Resource(%s, available_at=%.6f)" % (self.name, self.available_at)


class SlotPool:
    """A pool of ``k`` identical parallel slots (e.g. GPU streams).

    ``book`` places the activity on the slot that frees up soonest, which
    models a round of independent streams each serializing its own work.
    ``book_on`` pins an activity to a specific slot, used when the engine
    assigns pages to streams round-robin as in Figure 3.
    """

    def __init__(self, name, num_slots):
        if num_slots < 1:
            raise SimulationError("slot pool needs at least one slot")
        self.name = name
        self.slots = [Resource("%s[%d]" % (name, i))
                      for i in range(num_slots)]

    @property
    def num_slots(self):
        return len(self.slots)

    def book(self, earliest, duration):
        """Book on the earliest-free slot; returns ``(slot, start, end)``."""
        slot = min(range(len(self.slots)),
                   key=lambda i: self.slots[i].available_at)
        start, end = self.slots[slot].book(earliest, duration)
        return slot, start, end

    def book_on(self, slot, earliest, duration):
        """Book on a specific slot; returns ``(start, end)``."""
        return self.slots[slot].book(earliest, duration)

    def all_done_at(self):
        """Time when every slot has drained (a synchronisation barrier)."""
        return max(slot.available_at for slot in self.slots)

    def busy_time(self):
        return sum(slot.busy_time for slot in self.slots)

    def reset(self):
        for slot in self.slots:
            slot.reset()
