"""Tasks and task control blocks.

A task is STRIP's unit of scheduling (paper section 4.4).  Rule-triggered
tasks carry, via their TCB (section 6.3):

1. pointers to the schemas and data of the bound tables the task will see,
2. the name of the user function to run, and
3. the release delay relative to the triggering transaction's commit.

A task's *body* is a Python callable receiving a
:class:`~repro.core.functions.FunctionContext`-like object; for application
(update-stream) tasks the body is whatever the workload supplies.
"""

from __future__ import annotations

import enum
import itertools
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.sim.clock import Meter

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.temptable import TempTable

_task_ids = itertools.count(1)


class TaskState(enum.Enum):
    """Lifecycle of a task through the Figure 15 queues."""
    DELAYED = "delayed"  # waiting in the delay queue for its release time
    READY = "ready"  # released, waiting for a processor
    RUNNING = "running"
    DONE = "done"
    ABORTED = "aborted"


class Task:
    """A schedulable unit of work (the TCB)."""

    __slots__ = (
        "task_id",
        "klass",
        "body",
        "release_time",
        "created_time",
        "deadline",
        "value",
        "state",
        "bound_tables",
        "function_name",
        "rule_name",
        "unique_key",
        "meter",
        "start_time",
        "end_time",
        "context_switches",
        "seq",
        "estimated_cpu",
        "retries",
        "stratum",
        "cascade_from",
        "log_closed",
    )

    def __init__(
        self,
        body: Callable[[Any], Any],
        klass: str = "task",
        release_time: float = 0.0,
        created_time: float = 0.0,
        deadline: Optional[float] = None,
        value: float = 1.0,
        function_name: Optional[str] = None,
        rule_name: Optional[str] = None,
        unique_key: Optional[tuple] = None,
        bound_tables: Optional[dict[str, "TempTable"]] = None,
        estimated_cpu: float = 1e-4,
        stratum: int = 0,
    ) -> None:
        self.task_id = next(_task_ids)
        self.klass = klass
        self.body = body
        self.release_time = release_time
        self.created_time = created_time
        self.deadline = deadline
        self.value = value
        self.state = TaskState.DELAYED
        self.bound_tables: dict[str, "TempTable"] = bound_tables or {}
        self.function_name = function_name
        # The rule whose firing created the task (None for application
        # tasks); cost attribution rolls task costs up to this name.
        self.rule_name = rule_name
        self.unique_key = unique_key
        self.meter = Meter()
        self.start_time: Optional[float] = None
        self.end_time: Optional[float] = None
        self.context_switches = 0
        self.seq = self.task_id  # FIFO tiebreaker
        self.estimated_cpu = estimated_cpu
        # Fault-recovery re-executions so far (repro.fault.recovery).
        self.retries = 0
        # Rule-dependency stratum: 0 for application tasks, >= 1 for rule
        # actions.  The task manager holds a stratum-s task back while
        # lower-stratum work of the same mutation batch is still live.
        self.stratum = stratum
        # Task id of the upstream rule task whose action transaction fired
        # this one (None for base-table firings); the staleness tracker uses
        # it to inherit mutation stamps instead of minting fresh ones.
        self.cascade_from: Optional[int] = None
        # True once the WAL owes this task no terminal record: it wrote
        # one, or the creating commit rolled back and it never knew the task.
        self.log_closed = False

    @property
    def bound_rows(self) -> int:
        return sum(len(table) for table in self.bound_tables.values())

    def retire_bound_tables(self) -> None:
        """Release the bound tables' record pins (end-of-task reclamation,
        paper section 6.3)."""
        for table in self.bound_tables.values():
            table.retire()

    def __repr__(self) -> str:
        return (
            f"Task#{self.task_id}({self.klass!r}, state={self.state.value}, "
            f"release={self.release_time:.3f})"
        )
