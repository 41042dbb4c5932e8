"""Recovery policy for faulted decoupled action transactions.

STRIP's action transactions are decoupled from their triggering update: if
one dies, nothing retries it and the derived data silently diverges.  The
:class:`RetryPolicy` closes that hole for *injected* failures: a task that
aborted because of a fault is re-enqueued with exponential backoff, keeping
its still-pending bound rows (the executor skips bound-table retirement
when the policy elects to retry) and re-registering it in the unique
manager's pending table so later firings batch onto the retry instead of
racing it.  When the retry budget is exhausted the task is abandoned
(``UniqueManager.abandon``) and its rows dropped — a decision the
convergence oracle will then surface as divergence.

Organic failures (anything whose cause chain does not contain
:class:`~repro.errors.InjectedFaultError`) are never handled: real bugs
still propagate out of the simulator.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import InjectedCrashError, InjectedFaultError

if TYPE_CHECKING:  # pragma: no cover
    from repro.database import Database
    from repro.txn.tasks import Task


def _chain_contains(exc: BaseException, kind: type) -> bool:
    seen: set[int] = set()
    current: Optional[BaseException] = exc
    while current is not None and id(current) not in seen:
        if isinstance(current, kind):
            return True
        seen.add(id(current))
        current = current.__cause__ or current.__context__
    return False


def is_injected(exc: BaseException) -> bool:
    """True when ``exc`` or anything on its cause chain is an injected fault."""
    return _chain_contains(exc, InjectedFaultError)


def is_injected_crash(exc: BaseException) -> bool:
    """True when the cause chain contains an injected process crash.

    Crashes are not retryable — the "process" is dead, so no in-process
    policy may handle them; recovery happens from the WAL directory in a
    fresh database (:mod:`repro.persist.recovery`)."""
    return _chain_contains(exc, InjectedCrashError)


class NullRecovery:
    """The default: no recovery, every failure propagates (paper behaviour)."""

    retry_count = 0
    drop_count = 0

    def bind(self, db: "Database") -> None:
        return None

    def on_failure(
        self, db: "Database", task: "Task", exc: BaseException, now: float
    ) -> Optional[str]:
        """Return ``"retry"`` (task re-enqueued), ``"drop"`` (rows released),
        or None (unhandled — the caller re-raises)."""
        return None


class RetryPolicy(NullRecovery):
    """Retry injected-fault failures with exponential backoff.

    The retry budget has this one owner: the live engine (:meth:`on_failure`)
    and crash recovery / standby promotion (``WalApplier.resurrect``, for
    orphans) both spend it through :meth:`next_release`."""

    def __init__(
        self, max_retries: int = 5, backoff: float = 0.25, multiplier: float = 2.0
    ) -> None:
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if backoff <= 0 or multiplier <= 0:
            raise ValueError("backoff and multiplier must be positive")
        self.max_retries = max_retries
        self.backoff = backoff
        self.multiplier = multiplier
        self.retry_count = 0
        self.drop_count = 0

    def next_release(self, task: "Task", now: float) -> Optional[float]:
        """Spend one retry of ``task``'s budget: the time its next attempt
        may start, or None when the budget is exhausted."""
        if task.retries >= self.max_retries:
            return None
        task.retries += 1
        return now + self.backoff * self.multiplier ** (task.retries - 1)

    def on_failure(
        self, db: "Database", task: "Task", exc: BaseException, now: float
    ) -> Optional[str]:
        if not is_injected(exc) or is_injected_crash(exc):
            return None  # organic bug, or the whole process is "dead"
        release = self.next_release(task, now)
        if release is None:
            self.drop_count += 1
            if db.tracer.enabled:
                db.tracer.fault_drop(task, task.retries, now)
            db.unique_manager.abandon(task, "dropped")
            return "drop"
        self.retry_count += 1
        task.release_time = release
        db.task_manager.enqueue(task)
        db.unique_manager.readopt(task)
        if db.persist.enabled and task.function_name is not None:
            db.persist.task_requeued(task)
        if db.tracer.enabled:
            db.tracer.fault_retry(task, task.retries, release, now)
        return "retry"
