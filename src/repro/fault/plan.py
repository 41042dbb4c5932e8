"""The fault-plan grammar and the injection-point registry.

A plan is a semicolon-separated list of specs::

    PLAN    := SPEC (';' SPEC)*
    SPEC    := POINT ['[' FILTER ']'] ':' ACTION ['=' ARG] '@' TRIGGER
    TRIGGER := 'p=' FLOAT | 'nth=' INT | 'every=' INT

Examples::

    task.exec[recompute]:kill@nth=2        # kill the 2nd recompute task
    txn.commit:abort@p=0.01                # abort 1% of commits
    queue.delay:delay=0.5@p=0.1            # +0.5s release time, 10% of pushes
    lock.acquire:deadlock@every=100        # every 100th lock acquisition

``FILTER`` is a substring matched against the task's class and function
name (specs without a filter match every occurrence).  Occurrences are
counted per spec and only on filter match, so ``nth``/``every`` triggers
are deterministic for a fixed workload; ``p`` triggers draw from the
injector's seeded PRNG.  Specs are evaluated in plan order and the first
one that fires wins.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import StripError


class FaultPlanError(StripError):
    """A fault plan string could not be parsed or names an unknown point."""


#: The injection-point registry: point name -> actions legal at that point.
#: These are the hot seams of the engine; each name appears at exactly one
#: call site (see docs/FAULTS.md for the placement of every hook).
POINTS: dict[str, frozenset[str]] = {
    "txn.commit": frozenset({"abort"}),  # txn/transaction.py commit()
    "lock.acquire": frozenset({"deadlock"}),  # txn/locks.py acquire()
    "task.exec": frozenset({"kill", "delay"}),  # sim/simulator.py execute_task()
    "queue.delay": frozenset({"delay"}),  # txn/queues.py DelayQueue.push()
    "unique.dispatch": frozenset({"abort"}),  # core/unique.py _new_task()
    "unique.absorb": frozenset({"abort"}),  # core/unique.py _absorb()
    "unique.release": frozenset({"kill"}),  # sim/simulator.py (function tasks)
    "unique.compact": frozenset({"abort"}),  # core/unique.py _seal()
    "wal.append": frozenset({"crash"}),  # persist/manager.py _log(), pre-append
    "wal.flush": frozenset({"crash"}),  # persist/manager.py _log(), pre-flush
    "checkpoint.write": frozenset({"crash"}),  # persist/manager.py checkpoint()
    # Replication network seams (repro/replic/): consumed via check(), not
    # check_raise() — "drop" loses the message instead of raising, "delay"
    # adds ARG seconds of extra transit time.  Retransmission must recover
    # from both (docs/REPLICATION.md).
    "ship.send": frozenset({"drop", "delay"}),  # replic/channel.py send()
    "ship.ack": frozenset({"drop", "delay"}),  # replic/channel.py (ack path)
    "apply.frame": frozenset({"drop"}),  # replic/shipper.py _deliver()
    # Client-facing network seams (repro/net/): same consumed-not-raised
    # contract as ship.* — the transport eats the fault, clients recover
    # by retransmission (docs/NETWORK.md).  "drop" on net.accept refuses
    # the connection outright.
    "net.accept": frozenset({"drop"}),  # net/server.py open_session()
    "net.recv": frozenset({"drop", "delay"}),  # net/sim.py request channel
    "net.send": frozenset({"drop", "delay"}),  # net/sim.py response channel
}

_SPEC_RE = re.compile(
    r"^(?P<point>[a-z_.]+)"
    r"(?:\[(?P<filter>[^\]]+)\])?"
    r":(?P<action>[a-z]+)"
    r"(?:=(?P<arg>[0-9.eE+-]+))?"
    r"@(?P<trigger>p|nth|every)=(?P<value>[0-9.eE+-]+)$"
)


@dataclass
class FaultSpec:
    """One parsed spec: where, what, and when to inject."""

    point: str
    action: str
    arg: Optional[float] = None  # delay seconds (delay action), else None
    filter: Optional[str] = None  # substring over task klass/function name
    probability: Optional[float] = None  # p= trigger
    nth: Optional[int] = None  # nth= trigger (fire exactly once)
    every: Optional[int] = None  # every= trigger (fire periodically)
    occurrences: int = 0  # matched occurrences seen so far

    def matches(self, label: str) -> bool:
        return self.filter is None or self.filter in label

    def should_fire(self, rng) -> bool:
        """Count one matched occurrence and decide whether to fire."""
        self.occurrences += 1
        if self.probability is not None:
            return rng.random() < self.probability
        if self.nth is not None:
            return self.occurrences == self.nth
        return self.occurrences % self.every == 0  # type: ignore[operator]

    def describe(self) -> str:
        where = f"{self.point}[{self.filter}]" if self.filter else self.point
        what = f"{self.action}={self.arg:g}" if self.arg is not None else self.action
        if self.probability is not None:
            when = f"p={self.probability:g}"
        elif self.nth is not None:
            when = f"nth={self.nth}"
        else:
            when = f"every={self.every}"
        return f"{where}:{what}@{when}"


@dataclass
class FaultPlan:
    """A parsed plan: the specs, grouped by point for O(1) site lookup."""

    specs: list[FaultSpec] = field(default_factory=list)
    by_point: dict[str, list[FaultSpec]] = field(default_factory=dict)

    def add(self, spec: FaultSpec) -> None:
        self.specs.append(spec)
        self.by_point.setdefault(spec.point, []).append(spec)

    def describe(self) -> str:
        return ";".join(spec.describe() for spec in self.specs)


def parse_spec(text: str) -> FaultSpec:
    """Parse one ``POINT[FILTER]:ACTION[=ARG]@TRIGGER`` spec."""
    match = _SPEC_RE.match(text.strip())
    if match is None:
        raise FaultPlanError(
            f"bad fault spec {text!r}: expected POINT[FILTER]:ACTION[=ARG]@TRIGGER "
            "(e.g. 'task.exec[recompute]:kill@nth=2')"
        )
    point = match.group("point")
    actions = POINTS.get(point)
    if actions is None:
        raise FaultPlanError(
            f"unknown injection point {point!r}; known points: {sorted(POINTS)}"
        )
    action = match.group("action")
    if action not in actions:
        raise FaultPlanError(
            f"point {point!r} does not support action {action!r} "
            f"(supported: {sorted(actions)})"
        )
    arg = match.group("arg")
    if action == "delay":
        if arg is None:
            raise FaultPlanError(f"spec {text!r}: the delay action needs '=SECONDS'")
        arg_value: Optional[float] = float(arg)
        if arg_value <= 0:
            raise FaultPlanError(f"spec {text!r}: delay must be positive")
    elif arg is not None:
        raise FaultPlanError(f"spec {text!r}: action {action!r} takes no argument")
    else:
        arg_value = None
    spec = FaultSpec(point=point, action=action, arg=arg_value, filter=match.group("filter"))
    trigger, value = match.group("trigger"), match.group("value")
    if trigger == "p":
        probability = float(value)
        if not 0.0 < probability <= 1.0:
            raise FaultPlanError(f"spec {text!r}: probability must be in (0, 1]")
        spec.probability = probability
    elif trigger == "nth":
        spec.nth = int(value)
        if spec.nth < 1:
            raise FaultPlanError(f"spec {text!r}: nth must be >= 1")
    else:
        spec.every = int(value)
        if spec.every < 1:
            raise FaultPlanError(f"spec {text!r}: every must be >= 1")
    return spec


def parse_plan(text: str) -> FaultPlan:
    """Parse a full semicolon-separated plan string."""
    plan = FaultPlan()
    for part in text.split(";"):
        part = part.strip()
        if part:
            plan.add(parse_spec(part))
    if not plan.specs:
        raise FaultPlanError(f"fault plan {text!r} contains no specs")
    return plan
