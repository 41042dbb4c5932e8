"""Virtual-time simulation substrate.

The paper's experiments ran on an HP-735 and measured wall-clock CPU
consumption.  We reproduce them in **virtual time**: all database work
executes for real against the in-memory engine, but every primitive
operation charges a cost (microseconds, calibrated against the paper's
Table 1) to the currently running task's :class:`~repro.sim.clock.Meter`.
A discrete-event, single-server :class:`~repro.sim.simulator.Simulator`
releases tasks at their trace/delay times and advances the clock by each
task's charged CPU, which makes every experiment deterministic and fast
while preserving the quantities the paper reports — CPU utilization,
number of recomputations, and recompute-transaction length.
"""

from repro.sim.clock import Meter, VirtualClock
from repro.sim.costmodel import CostModel
from repro.sim.metrics import MetricsCollector, TaskRecord

__all__ = [
    "CostModel",
    "Meter",
    "MetricsCollector",
    "TaskRecord",
    "VirtualClock",
]
