"""Exception hierarchy for the STRIP reproduction.

Every error raised by the library derives from :class:`StripError` so that
applications can catch library failures with a single ``except`` clause while
still being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class StripError(Exception):
    """Base class for all errors raised by this library."""


class SchemaError(StripError):
    """A schema was malformed or violated (unknown column, arity mismatch...)."""


class CatalogError(StripError):
    """A named object (table, view, rule, function) is missing or duplicated."""


class StorageError(StripError):
    """A record's bookkeeping was broken: unpinned more often than pinned,
    linked into a table twice, or unlinked while not linked."""


class SqlError(StripError):
    """Base class for errors in the SQL front end."""


class SqlSyntaxError(SqlError):
    """The SQL text could not be tokenized or parsed."""

    def __init__(self, message: str, position: int | None = None) -> None:
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)
        self.position = position


class PlanError(SqlError):
    """The statement parsed but could not be planned (unresolved name...)."""


class ExecutionError(SqlError):
    """A runtime failure while executing a planned statement."""


class TransactionError(StripError):
    """Illegal transaction state transition (use after commit, etc.)."""


class LockError(StripError):
    """Base class for lock manager failures."""


class DeadlockError(LockError):
    """The lock manager chose this transaction as a deadlock victim."""


class RuleError(StripError):
    """A rule definition is invalid or two rules conflict."""


class CreateRuleError(RuleError):
    """CREATE RULE was rejected — most notably when the declared write set
    would make the rule dependency graph cyclic (a rule reachable from its
    own trigger table), which stratified cascade scheduling cannot order."""


class BindingError(RuleError):
    """Bound tables for a shared user function are not defined identically."""


class FunctionError(StripError):
    """A user function is missing, duplicated, or raised during execution."""


class PersistenceError(StripError):
    """The durability subsystem hit an invalid log, checkpoint, or replay
    state (bad magic, corrupt checkpoint, unreplayable redo image)."""


class SimulationError(StripError):
    """The discrete-event simulator was driven into an invalid state."""


class TaskAlreadyFinishedError(SimulationError):
    """A DONE/ABORTED task was handed to the executor again.

    Callers in the run loop use this to distinguish "stale queue entry"
    (skip it and keep going) from a real simulator invariant violation.
    """


class InjectedFaultError(StripError):
    """Base class for failures raised by the fault-injection subsystem.

    The recovery policy only handles failures whose cause chain contains
    this class — organic bugs still propagate out of the simulator.
    """


class InjectedAbortError(InjectedFaultError, TransactionError):
    """An injected fault aborted a transaction at its commit point."""


class InjectedKillError(InjectedFaultError):
    """An injected fault killed a running (or about-to-run) task."""


class InjectedDeadlockError(InjectedFaultError, DeadlockError):
    """An injected fault made a lock request fail as a deadlock victim."""


class InjectedCrashError(InjectedFaultError):
    """An injected fault simulated whole-process death at a durability seam.

    Unlike kills and aborts this is **not retryable**: there is no process
    left to retry in.  The recovery policy refuses it, the run loop lets it
    propagate, and the crash-recovery harness rebuilds a fresh database
    from the WAL directory instead (``repro.persist.recovery``)."""
