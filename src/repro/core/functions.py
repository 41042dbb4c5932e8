"""User-provided action functions and their execution context.

Rule actions in STRIP "are executed by application-provided functions that
are linked into the database and are treated as black boxes" (section 2).
The functions take no parameters; data flows in through bound tables, which
the running task sees as ordinary read-only tables (section 6.3).

In this reproduction a user function is a Python callable taking a
:class:`FunctionContext`.  Name resolution inside the context's SQL consults
the task's bound tables before the catalog, exactly as the paper describes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional

from repro.errors import FunctionError, SchemaError
from repro.storage.temptable import TempTable

if TYPE_CHECKING:  # pragma: no cover
    from repro.database import Database
    from repro.txn.tasks import Task
    from repro.txn.transaction import Transaction

UserFunction = Callable[["FunctionContext"], Any]


class FunctionRegistry:
    """Named user functions (rule actions)."""

    def __init__(self) -> None:
        self._functions: dict[str, UserFunction] = {}
        #: Bound-table names declared by the rules executing each function;
        #: all rules sharing a function must bind the same set (section 2).
        self.bound_names: dict[str, tuple[str, ...]] = {}

    def register(self, name: str, fn: UserFunction, replace: bool = False) -> None:
        if not replace and name in self._functions:
            raise FunctionError(f"user function {name!r} is already registered")
        self._functions[name] = fn

    def get(self, name: str) -> UserFunction:
        try:
            return self._functions[name]
        except KeyError:
            raise FunctionError(f"no user function {name!r}") from None

    def has(self, name: str) -> bool:
        return name in self._functions

    def names(self) -> list[str]:
        return sorted(self._functions)


def _charged(rows: Iterator[tuple], meter: Any, seconds: float) -> Iterator[tuple]:
    """``rows``, with ``user_row`` charged before each one is handed over
    and the count landed once, however the consumer stops (DESIGN.md 6a)."""
    count = 0
    try:
        for values in rows:
            meter.total += seconds
            count += 1
            yield values
    finally:
        if count:
            meter.ops["user_row"] += count


class FunctionContext:
    """Runtime environment handed to a user function.

    Provides SQL access (bound tables visible by name), direct bound-table
    iteration, and explicit cost charging for application-level per-row work
    (the paper charges user computation to the recompute transaction)."""

    def __init__(self, db: "Database", task: "Task", txn: "Transaction") -> None:
        self.db = db
        self.task = task
        self.txn = txn

    # ------------------------------------------------------------- queries

    def query(self, sql: str, params: Optional[dict[str, Any]] = None):
        """Run a SELECT; bound tables shadow catalog tables by name."""
        return self.db.query_in_txn(sql, self.txn, params, namespace=self.task.bound_tables)

    def execute(self, sql: str, params: Optional[dict[str, Any]] = None):
        """Run a DML statement inside the action transaction."""
        return self.db.execute_in_txn(sql, self.txn, params, namespace=self.task.bound_tables)

    # -------------------------------------------------------- bound tables

    def bound(self, name: str) -> TempTable:
        try:
            return self.task.bound_tables[name]
        except KeyError:
            raise FunctionError(
                f"no bound table {name!r}; available: {sorted(self.task.bound_tables)}"
            ) from None

    def has_bound(self, name: str) -> bool:
        return name in self.task.bound_tables

    def columns(self, name: str, *columns: str) -> Iterator[tuple]:
        """Iterate the named columns of a bound table, one tuple per row,
        charging per-row user cost.  Table, offsets and the compiled reader
        are resolved here, at the call — a wrong name fails now, not at the
        first ``next()`` — so a row costs one read and one charge."""
        table = self.bound(name)
        try:
            offsets = [table.schema.offset(column) for column in columns]
        except SchemaError as exc:  # names the column and the ones available
            raise FunctionError(f"bound table {name!r}: {exc}") from None
        rows = table.scan_columns(offsets)
        meter, cost = self.db.metering()
        return _charged(rows, meter, cost["user_row"])

    def rows(self, name: str) -> Iterator[dict[str, Any]]:
        """Iterate a bound table as dictionaries: :meth:`columns` over every
        column, zipped with the names (same charges, a dict per row)."""
        names = self.bound(name).schema.names()
        return map(lambda values: dict(zip(names, values)), self.columns(name, *names))

    # ------------------------------------------------------------- utility

    def charge(self, op: str, count: int = 1) -> None:
        """Charge explicit application work to the running task."""
        self.db.charge(op, count)

    @property
    def now(self) -> float:
        return self.db.clock.now()

    def __repr__(self) -> str:
        return f"FunctionContext(task={self.task.task_id}, txn={self.txn.txn_id})"
