"""The virtual clock and per-task CPU meters.

Time is a float in **seconds** everywhere in the library.  While a task's
body is executing, the clock reads ``base + meter.total`` so that a
transaction committing partway through a long task gets the correct virtual
commit time, and rule-triggered tasks are released at
``commit_time + delay`` exactly as in the running system (paper section 6.3).
"""

from __future__ import annotations

from typing import Optional

from repro.errors import SimulationError


class OpCounts(dict):
    """Charge counts by op: an op never charged reads 0 and is not stored.
    ``ops[op] += n`` is a plain dict store (``Counter``'s goes through Python)."""

    def __missing__(self, op: str) -> int:
        return 0


class Meter:
    """Accumulates virtual CPU charged to one task (or one phase).

    ``total`` is in seconds; ``ops`` counts how many times each primitive
    operation was charged, which the tests and benchmark reports use to
    itemize where time went.
    """

    __slots__ = ("total", "ops")

    def __init__(self) -> None:
        self.total = 0.0
        self.ops = OpCounts()

    def add(self, op: str, seconds: float, count: int = 1) -> None:
        self.total += seconds
        self.ops[op] += count

    def merge(self, other: "Meter") -> None:
        self.total += other.total
        for op, n in other.ops.items():
            self.ops[op] += n

    def __repr__(self) -> str:
        return f"Meter({self.total * 1e6:.1f}us, {sum(self.ops.values())} ops)"


class VirtualClock:
    """The database's notion of *now*.

    Outside task execution, ``now()`` is the base time, advanced explicitly
    by the simulator (or by :meth:`advance` in direct, non-simulated use).
    During task execution the active meter's charged CPU is added, so time
    flows as work is done.
    """

    __slots__ = ("_base", "_meter", "_meter_offset", "_frontier")

    def __init__(self, start: float = 0.0) -> None:
        self._base = start
        self._meter: Optional[Meter] = None
        self._meter_offset = 0.0
        self._frontier = start

    def now(self) -> float:
        if self._meter is not None:
            return self._base + (self._meter.total - self._meter_offset)
        return self._base

    @property
    def base(self) -> float:
        return self._base

    def set_base(self, when: float) -> None:
        """Jump the base time (simulator use).  Time never moves backwards."""
        if when < self._base:
            raise ValueError(f"clock cannot move backwards ({when} < {self._base})")
        self._base = when

    def advance(self, dt: float) -> None:
        """Move the base time forward by ``dt`` seconds (direct-mode use)."""
        if dt < 0:
            raise ValueError("cannot advance by a negative duration")
        self._base += dt

    # --------------------------------------------------------- meter stack

    def activate(self, meter: Meter, start: float) -> None:
        """Begin metering a task whose execution starts at ``start``.

        ``start`` may lie *before* the current base when a multi-server
        simulator assigns the task to a processor that was already free —
        the task then runs in its own time window and the global frontier
        is restored at :meth:`deactivate`.  ``meter`` may already hold
        charges from earlier phases; only charges made from now on move the
        clock.
        """
        if self._meter is not None:
            raise SimulationError("a meter is already active")
        self._frontier = self._base
        self._base = start
        self._meter = meter
        self._meter_offset = meter.total

    def deactivate(self) -> float:
        """Stop metering.  The base becomes the later of the task's end time
        and the pre-task frontier.  Returns the task's end time."""
        if self._meter is None:
            raise SimulationError("no active meter")
        end = self._base + (self._meter.total - self._meter_offset)
        self._base = max(end, self._frontier)
        self._meter = None
        self._meter_offset = 0.0
        return end

    @property
    def active_meter(self) -> Optional[Meter]:
        return self._meter
