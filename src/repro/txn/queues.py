"""The delay and ready queues of the STRIP task flow (Figure 15).

New tasks with a future release time wait in the :class:`DelayQueue` (a heap
ordered by release time); released tasks wait in the :class:`ReadyQueue`,
ordered by the active scheduling policy, until a processor takes them.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Iterator, Optional

from repro.txn.tasks import Task, TaskState

if TYPE_CHECKING:  # pragma: no cover
    from repro.txn.scheduler import SchedulingPolicy


class DelayQueue:
    """Tasks waiting for their release time, earliest first.

    A task given up while it waits (``UniqueManager.abandon``) is not
    removed: it stays counted until its release time and is skipped by its
    state when popped (``TaskManager.release_due``)."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Task]] = []
        # The queue.delay injection point; the Database's TaskManager
        # attaches its fault injector here (None for a standalone queue).
        self.faults = None

    def push(self, task: Task) -> None:
        faults = self.faults
        if faults is not None and faults.enabled:
            fault = faults.check("queue.delay", task.klass)
            if fault is not None:
                # A late release: the delay daemon overslept this task.
                task.release_time += fault.arg
        task.state = TaskState.DELAYED
        heapq.heappush(self._heap, (task.release_time, task.seq, task))

    def peek_time(self) -> Optional[float]:
        return self._heap[0][0] if self._heap else None

    def pop_due(self, now: float) -> list[Task]:
        """All tasks with ``release_time <= now``, in release order."""
        heap = self._heap
        due = []
        while heap and heap[0][0] <= now:
            due.append(heapq.heappop(heap)[2])
        return due

    def __len__(self) -> int:
        return len(self._heap)

    def __iter__(self) -> Iterator[Task]:
        """Tasks in release order, without popping — the checkpointer
        enumerates the queue in place."""
        return (task for _release, _seq, task in sorted(self._heap))


class ReadyQueue:
    """Released tasks ordered by the scheduling policy."""

    def __init__(self, policy: "SchedulingPolicy") -> None:
        self._policy = policy
        self._heap: list[tuple[tuple, int, Task]] = []

    def push(self, task: Task) -> None:
        task.state = TaskState.READY
        heapq.heappush(self._heap, (self._policy.key(task), task.seq, task))

    def pop(self) -> Task:
        _key, _seq, task = heapq.heappop(self._heap)
        return task

    def peek(self) -> Optional[Task]:
        return self._heap[0][2] if self._heap else None

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def __iter__(self) -> Iterator[Task]:
        return (task for _key, _seq, task in sorted(self._heap))
