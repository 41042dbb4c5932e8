"""The Database facade: catalog + clock + rules + tasks + SQL, glued together.

This is the library's main entry point::

    from repro import Database

    db = Database()
    db.execute("create table stocks (symbol text, price real)")
    db.register_function("recompute", my_function)
    db.execute('''
        create rule watch on stocks
        when updated price
        if select * from new bind as changes
        then execute recompute unique after 1.0 seconds
    ''')
    db.execute("insert into stocks values ('IBM', 100.0)")
    db.execute("update stocks set price = 101.0 where symbol = 'IBM'")
    db.drain()          # run pending rule-action tasks in virtual time

All time is virtual (seconds); every engine operation charges the running
task's meter per the Table-1-calibrated cost model, which is what the
benchmark harness measures.
"""

from __future__ import annotations

import math
from typing import Any, Optional

from repro.core.engine import PreparedRule, RuleEngine
from repro.core.functions import FunctionRegistry, UserFunction
from repro.core.rules import Rule, stratify
from repro.core.unique import UniqueManager, check_columns
from repro.errors import BindingError, CatalogError, ExecutionError, SimulationError
from repro.fault.injector import NullFaultInjector
from repro.fault.recovery import NullRecovery
from repro.obs.tracer import NullTracer, Tracer
from repro.persist.manager import NullPersistence
from repro.sim.clock import Meter, VirtualClock
from repro.sim.costmodel import CostModel
from repro.sim.metrics import MetricsCollector
from repro.sql import ast
from repro.sql.executor import (
    execute_delete,
    execute_insert,
    execute_select,
    execute_update,
)
from repro.sql.parser import parse_script, parse_statement
from repro.sql.planner import SelectResult
from repro.storage.catalog import Catalog
from repro.storage.schema import Column, ColumnType, Schema
from repro.storage.table import Table
from repro.txn.locks import LockManager
from repro.txn.queues import DelayQueue, ReadyQueue
from repro.txn.scheduler import SchedulingPolicy, make_policy
from repro.txn.tasks import Task, TaskState
from repro.txn.transaction import Transaction, TransactionState
from repro.views.definition import ViewDefinition

#: The one SQL dispatch: statement type -> run(db, stmt, txn, params, namespace).
#: Executors are read from this module's globals per call (the e2e tracer
#: patches them here); ``namespace`` is the running task's bound tables.
_SQL_EXECUTORS = {
    ast.Select: lambda db, s, txn, p, ns: execute_select(db, s, txn, p, namespace=ns),
    ast.Insert: lambda db, s, txn, p, ns: execute_insert(db, s, txn, p, ns),
    ast.Update: lambda db, s, txn, p, ns: execute_update(db, s, txn, p, ns),
    ast.Delete: lambda db, s, txn, p, ns: execute_delete(db, s, txn, p, ns),
}


class TaskManager:
    """The delay and ready queues plus scheduling-cost accounting.

    With rule cascades the manager also enforces bottom-up stratum order:
    a due task of stratum ``s > 1`` is *held* (kept out of the ready queue)
    while any live rule task of a lower stratum has a release time at or
    before its own — the same mutation batch must quiesce below before the
    stratum above runs.  Lower-stratum work released later does not block
    (a steady update stream would otherwise starve the upper strata).
    Stratum-1 and application tasks are never held, so a held task's
    blockers always sit in the delay or ready queue and the hold can never
    strand the run loop.
    """

    def __init__(self, db: "Database", policy: SchedulingPolicy) -> None:
        self.db = db
        self.policy = policy
        self.delay = DelayQueue()
        self.delay.faults = db.faults  # the queue.delay injection point
        self.ready = ReadyQueue(policy)
        self.held: list[Task] = []
        self.enqueued_count = 0
        self.held_count = 0  # times a task was gated behind a lower stratum

    def enqueue(self, task: Task) -> None:
        """Queue ``task``, charging scheduling cost that grows linearly with
        the number of tasks already in the system (STRIP v2.0 kept its
        queues as linked lists; the paper observes that "more recompute
        transactions means more tasks in the system at the same time which
        increases the scheduling time", section 5.1)."""
        db = self.db
        queued = len(self.delay) + len(self.ready) + len(self.held)
        db.charge("sched_enqueue")
        if queued:
            db.charge("sched_per_queued", queued)
        self.enqueued_count += 1
        if task.release_time <= db.clock.now():
            if task.stratum > 1:
                # Already due, but possibly gated: park it with the held
                # set and let the next release_due() apply the gate.
                task.state = TaskState.DELAYED
                self.held.append(task)
            else:
                self.ready.push(task)
        else:
            self.delay.push(task)
        if db.tracer.enabled:
            db.tracer.task_enqueue(
                task, len(self.delay), len(self.ready), db.clock.now()
            )

    def release_due(self, now: float) -> int:
        due = self.delay.pop_due(now)
        if self.held:
            candidates = self.held + due
            candidates.sort(key=lambda task: (task.release_time, task.seq))
            self.held = []
        else:
            candidates = due
        released = 0
        tracer = self.db.tracer
        gate: Optional[dict[int, float]] = None
        for task in candidates:
            if task.state in (TaskState.DONE, TaskState.ABORTED):
                continue  # executed out of band (tests / direct calls)
            if task.stratum > 1:
                if gate is None:
                    gate = self._stratum_floors(candidates)
                if self._gated(task, gate):
                    self.held_count += 1
                    self.held.append(task)
                    continue
            self.db.charge("sched_enqueue")
            self.ready.push(task)
            released += 1
            if tracer.enabled:
                tracer.task_release(task, len(self.ready), now)
        return released

    def _stratum_floors(self, candidates: list[Task]) -> dict[int, float]:
        """Earliest release time per stratum over every live rule task
        (delayed, ready, held, or still a release candidate)."""
        floors: dict[int, float] = {}

        def note(task: Task) -> None:
            if task.stratum < 1 or task.state in (TaskState.DONE, TaskState.ABORTED):
                return
            current = floors.get(task.stratum)
            if current is None or task.release_time < current:
                floors[task.stratum] = task.release_time

        for task in candidates:
            note(task)
        for task in self.delay:
            note(task)
        for task in self.ready:
            note(task)
        return floors

    @staticmethod
    def _gated(task: Task, floors: dict[int, float]) -> bool:
        return any(
            stratum < task.stratum and floor <= task.release_time
            for stratum, floor in floors.items()
        )

    def next_release_time(self) -> Optional[float]:
        return self.delay.peek_time()

    def pop_ready(self) -> Task:
        self.db.charge("sched_dequeue")
        return self.ready.pop()

    @property
    def pending(self) -> int:
        return len(self.delay) + len(self.ready) + len(self.held)


class Database:
    """A STRIP database instance (main-memory, virtual-time)."""

    def __init__(
        self,
        cost_model: Optional[CostModel] = None,
        policy: str = "fifo",
        start_time: float = 0.0,
        tracer: Optional[Tracer] = None,
        faults: Optional[NullFaultInjector] = None,
        recovery: Optional[NullRecovery] = None,
        persist: Optional[NullPersistence] = None,
    ) -> None:
        self.cost_model = cost_model or CostModel()
        self._cost_seconds = self.cost_model._seconds
        # The observability hook point, next to charge(): instrumentation
        # sites test `tracer.enabled` so the NullTracer default costs one
        # attribute load per site (see docs/OBSERVABILITY.md).
        self.tracer: Tracer = tracer if tracer is not None else NullTracer()
        self.tracer.bind(self)
        # The fault-injection hook point follows the same pattern: sites
        # test `faults.enabled`, so with the NullFaultInjector default a
        # run is bit-for-bit identical to one without the hooks at all
        # (see docs/FAULTS.md).
        self.faults = faults if faults is not None else NullFaultInjector()
        self.faults.bind(self)
        self.recovery = recovery if recovery is not None else NullRecovery()
        self.recovery.bind(self)
        # The durability hook point, same shape again: sites test
        # `persist.enabled`; the NullPersistence default never allocates
        # (see docs/PERSISTENCE.md).
        self.persist = persist if persist is not None else NullPersistence()
        self.persist.bind(self)
        self.clock = VirtualClock(start_time)
        self.catalog = Catalog()
        self.lock_manager = LockManager()
        self.lock_manager.faults = self.faults  # the lock.acquire point
        self.metrics = MetricsCollector()
        self.functions = FunctionRegistry()
        self.rule_engine = RuleEngine(self)
        self.unique_manager = UniqueManager(self)
        self.task_manager = TaskManager(self, make_policy(policy))
        self._parse_cache: dict[str, ast.Statement] = {}
        self.materialized_views: dict[str, Any] = {}
        self.background_meter = Meter()
        self._scalar_functions: dict[str, tuple] = {}
        self._register_builtin_scalars()
        self.committed_txns = 0
        self.aborted_txns = 0
        # Monotone commit sequence (no virtual-time ties): stamped onto each
        # committing transaction and read back by view maintenance to decide
        # whether a rederivation requery already saw a pending task's source
        # commit (see the ``commit_seq`` pseudo column).
        self.last_commit_seq = 0
        # Live transactions by id, so a task whose body died inside commit
        # can have its half-done transaction rolled back (abort_orphaned_txns).
        self._active_txns: dict[int, Transaction] = {}

    # --------------------------------------------------------------- costs

    def charge(self, op: str, count: int = 1) -> None:
        """Charge ``count`` occurrences of ``op`` to the running task (or to
        the background meter during setup/population).

        This is the engine's hottest function (millions of calls per
        experiment); it reads the cost table and the active meter directly.
        """
        meter = self.clock._meter
        if meter is None:
            meter = self.background_meter
        try:
            meter.total += self._cost_seconds[op] * count
        except KeyError:
            raise SimulationError(f"unknown cost-model operation {op!r}") from None
        meter.ops[op] += count

    def metering(self) -> tuple[Meter, dict[str, float]]:
        """The meter charges land on right now and the cost table, for row
        loops that charge inline instead of calling :meth:`charge` per row:
        ``meter.total += cost[op]`` once per occurrence, in program order
        (float addition is not associative, so never ``cost[op] * n``), and
        ``meter.ops[op] += n`` once when the loop ends (DESIGN.md 6a)."""
        return self.clock._meter or self.background_meter, self._cost_seconds

    @property
    def now(self) -> float:
        return self.clock.now()

    def next_commit_seq(self) -> int:
        self.last_commit_seq += 1
        return self.last_commit_seq

    # ---------------------------------------------------------- functions

    def register_function(self, name: str, fn: UserFunction, replace: bool = False) -> None:
        """Register a rule-action user function (paper section 2)."""
        self.functions.register(name, fn, replace=replace)

    def register_scalar(
        self,
        name: str,
        fn: Any,
        cost_op: Optional[str] = None,
    ) -> None:
        """Register a scalar function callable from SQL expressions.  A
        compiled plan holds the function it resolved, so (re)registering one
        moves ``Catalog.version`` like DDL does."""
        lowered = name.lower()
        if cost_op is not None:
            charge = lambda op=cost_op: self.charge(op)
        else:
            charge = lambda: self.charge("expr_eval")
        self._scalar_functions[lowered] = (fn, charge)
        self.catalog.version += 1

    def resolve_scalar_function(self, name: str):
        try:
            return self._scalar_functions[name.lower()]
        except KeyError:
            from repro.errors import PlanError

            raise PlanError(f"unknown scalar function {name!r}") from None

    def _register_builtin_scalars(self) -> None:
        def _null_safe(fn):
            def wrapped(*args):
                if any(arg is None for arg in args):
                    return None
                return fn(*args)

            return wrapped

        self.register_scalar("abs", _null_safe(abs))
        self.register_scalar("round", _null_safe(round))
        self.register_scalar("sqrt", _null_safe(math.sqrt))
        self.register_scalar("exp", _null_safe(math.exp))
        self.register_scalar("ln", _null_safe(math.log))
        self.register_scalar("log", _null_safe(math.log))
        self.register_scalar("power", _null_safe(math.pow))
        self.register_scalar("floor", _null_safe(math.floor))
        self.register_scalar("ceil", _null_safe(math.ceil))

    # -------------------------------------------------------- transactions

    def begin(self, task: Optional[Task] = None) -> Transaction:
        return Transaction(self, task)

    def on_txn_finished(self, txn: Transaction) -> None:
        self._active_txns.pop(txn.txn_id, None)
        if txn.state is TransactionState.COMMITTED:
            self.committed_txns += 1
        else:
            self.aborted_txns += 1

    def abort_orphaned_txns(self, task: Task) -> int:
        """Roll back any transaction ``task`` left active: one whose commit
        raised without rolling back (a crash while logging), or one a body
        began by hand and never finished."""
        orphans = [
            txn
            for txn in list(self._active_txns.values())
            if txn.task is task and txn.state is TransactionState.ACTIVE
        ]
        for txn in orphans:
            txn.abort()
        return len(orphans)

    # ----------------------------------------------------------------- SQL

    def parse(self, sql: str) -> ast.Statement:
        """Parse one statement, caching the AST by SQL text (user functions
        re-run identical statements thousands of times per experiment)."""
        stmt = self._parse_cache.get(sql)
        if stmt is None:
            stmt = self._parse_cache[sql] = parse_statement(sql)
        return stmt

    def execute(self, sql: str, params: Optional[dict[str, Any]] = None) -> Any:
        """Parse and run one statement.  DML runs in an auto-commit
        transaction (rule processing included); DDL applies immediately."""
        stmt = self.parse(sql)
        return self.execute_statement(stmt, params, sql_text=sql)

    def execute_script(self, sql: str) -> list[Any]:
        """Run a semicolon-separated script; returns one result per statement."""
        return [self.execute_statement(stmt, None) for stmt in parse_script(sql)]

    def query(self, sql: str, params: Optional[dict[str, Any]] = None) -> SelectResult:
        """Run a SELECT outside any transaction (no locks taken)."""
        stmt = self.parse(sql)
        if not isinstance(stmt, ast.Select):
            raise ExecutionError("query() requires a SELECT; use execute() for DML/DDL")
        return execute_select(self, stmt, None, params)

    def execute_statement(
        self, stmt: ast.Statement, params: Optional[dict[str, Any]], sql_text: str = ""
    ) -> Any:
        run = _SQL_EXECUTORS.get(type(stmt))
        if run is not None:
            if isinstance(stmt, ast.Select):
                return run(self, stmt, None, params, None)
            with self.begin() as txn:  # auto-commit DML: aborted on error
                return run(self, stmt, txn, params, None)
        if isinstance(stmt, ast.CreateTable):
            schema = Schema(
                [Column(c.name, ColumnType.from_sql(c.type_name)) for c in stmt.columns]
            )
            return self.catalog.create_table(stmt.name, schema)
        if isinstance(stmt, ast.CreateIndex):
            table = self.catalog.table(stmt.table)
            return table.create_index(stmt.name, stmt.columns, stmt.kind)
        if isinstance(stmt, ast.CreateView):
            view = ViewDefinition(stmt.name, stmt.select, sql=sql_text or None)
            self.catalog.create_view(view)
            if stmt.materialized:
                from repro.views.maintain import materialize

                materialize(self, stmt.name)
            return view
        if isinstance(stmt, ast.CreateRule):
            return self.create_rule(Rule.from_ast(stmt))
        if isinstance(stmt, ast.AlterRule):
            rule = self.catalog.rule(stmt.name)
            rule.enabled = stmt.enabled
            return rule
        if isinstance(stmt, ast.Drop):
            return self._drop(stmt)
        raise ExecutionError(f"cannot execute statement {type(stmt).__name__}")

    def execute_in_txn(
        self,
        sql: str,
        txn: Transaction,
        params: Optional[dict[str, Any]] = None,
        namespace: Optional[dict[str, Any]] = None,
    ) -> Any:
        stmt = self.parse(sql)
        run = _SQL_EXECUTORS.get(type(stmt))
        if run is None:
            raise ExecutionError(
                "only SELECT/INSERT/UPDATE/DELETE may run inside a transaction"
            )
        return run(self, stmt, txn, params, namespace)

    def query_in_txn(
        self,
        sql: str,
        txn: Transaction,
        params: Optional[dict[str, Any]] = None,
        namespace: Optional[dict[str, Any]] = None,
    ) -> SelectResult:
        stmt = self.parse(sql)
        if not isinstance(stmt, ast.Select):
            raise ExecutionError("query_in_txn() requires a SELECT")
        return execute_select(self, stmt, txn, params, namespace=namespace)

    def run_select(
        self,
        select: ast.Select,
        txn: Optional[Transaction],
        params: Optional[dict[str, Any]] = None,
        namespace: Optional[dict[str, Any]] = None,
    ) -> SelectResult:
        """Run a parsed SELECT."""
        return execute_select(self, select, txn, params, namespace=namespace)

    # ----------------------------------------------------------------- DDL

    def create_table(self, name: str, *columns: tuple[str, ColumnType]) -> Table:
        """Programmatic CREATE TABLE."""
        return self.catalog.create_table(name, Schema.of(*columns))

    def create_rule(self, rule: Rule) -> Rule:
        """Register ``rule``, enforcing that all rules executing the same
        user function define their bound tables identically (section 2),
        that the rule program stays acyclic — the dependency graph over the
        declared write sets is stratified up front — that every column an
        ``updated`` event names exists, and that ``unique on`` / ``compact
        on`` name columns the bound tables carry, unambiguously.  Any of
        these raises :class:`~repro.errors.CreateRuleError` and leaves the
        catalog unchanged."""
        names = tuple(sorted(rule.bind_names()))
        existing = self.functions.bound_names.get(rule.function)
        if existing is not None and existing != names:
            raise BindingError(
                f"rule {rule.name!r}: function {rule.function!r} is already bound "
                f"with tables {list(existing)}, not {list(names)}"
            )
        strata = stratify([*self.catalog.rules(), rule])  # CreateRuleError on a cycle
        if self.catalog.has_table(rule.table):
            # CreateRuleError on an unknown event column or a unique / compact
            # column no bound table carries (a rule on an unknown table is
            # the catalog's to refuse, just below).
            schema = self.catalog.table(rule.table).schema
            PreparedRule(rule, schema)
            if rule.unique_on or rule.compact_on:
                check_columns(self, rule, schema)
        self.catalog.create_rule(rule)
        self.functions.bound_names.setdefault(rule.function, names)
        self._apply_strata(strata)
        return rule

    def _apply_strata(self, strata: dict[str, int]) -> None:
        for installed in self.catalog.rules():
            installed.stratum = strata.get(installed.name, 1)

    def stratum_for_function(self, function_name: str) -> int:
        """The deepest stratum among rules executing ``function_name``
        (1 when no installed rule names it — e.g. during recovery before
        every rule of a dropped program is back)."""
        return max(
            (
                rule.stratum
                for rule in self.catalog.rules()
                if rule.function == function_name
            ),
            default=1,
        )

    def max_stratum(self) -> int:
        """The depth of the installed rule program (0 with no rules)."""
        return max((rule.stratum for rule in self.catalog.rules()), default=0)

    def _drop(self, stmt: ast.Drop) -> None:
        if stmt.kind == "table":
            self.catalog.drop_table(stmt.name)
        elif stmt.kind == "view":
            self.catalog.drop_view(stmt.name)
        elif stmt.kind == "rule":
            self.catalog.drop_rule(stmt.name)
            self._apply_strata(stratify(self.catalog.rules()))
        elif stmt.kind == "index":
            if stmt.table is not None:
                self.catalog.table(stmt.table).drop_index(stmt.name)
            else:
                for table in self.catalog.tables():
                    if stmt.name in table.indexes:
                        table.drop_index(stmt.name)
                        return
                raise CatalogError(f"no index {stmt.name!r} on any table")
        else:  # pragma: no cover - parser restricts kinds
            raise ExecutionError(f"cannot DROP {stmt.kind!r}")

    # --------------------------------------------------------------- tasks

    def submit(self, task: Task) -> Task:
        """Enqueue an application task (e.g. one update-stream transaction)."""
        self.task_manager.enqueue(task)
        return task

    def schedule_periodic(
        self,
        name: str,
        fn: UserFunction,
        interval: float,
        start: Optional[float] = None,
        until: Optional[float] = None,
    ) -> Task:
        """Schedule ``fn`` to run every ``interval`` virtual seconds.

        The paper notes that periodic recomputation (e.g. refreshing
        ``stock_stdev`` overnight) "is supported by STRIP" (section 3).
        Each run executes in its own task and transaction; the task
        re-enqueues its successor until ``until`` (or forever — bound your
        ``drain(until=...)`` in that case).
        """
        if interval <= 0:
            raise ExecutionError("periodic interval must be positive")
        from repro.core.functions import FunctionContext

        first_release = self.clock.now() + interval if start is None else start

        def make_body(release: float):
            def body(task: Task) -> None:
                with self.begin(task) as txn:
                    fn(FunctionContext(self, task, txn))
                successor = release + interval
                if until is None or successor <= until:
                    self.submit(
                        Task(
                            body=make_body(successor),
                            klass=f"periodic:{name}",
                            release_time=successor,
                            created_time=self.clock.now(),
                        )
                    )

            return body

        task = Task(
            body=make_body(first_release),
            klass=f"periodic:{name}",
            release_time=first_release,
            created_time=self.clock.now(),
        )
        return self.submit(task)

    def drain(self, until: Optional[float] = None) -> int:
        """Run every queued task to completion in virtual time.

        Jumps the clock forward to delayed release times.  Returns the
        number of tasks executed.  ``until`` stops once the next release
        lies beyond it (already-released work still completes).
        """
        from repro.sim.simulator import Simulator

        return Simulator(self).run(until=until)

    def advance(self, dt: float) -> None:
        """Move virtual time forward without running tasks (direct mode)."""
        self.clock.advance(dt)

    # --------------------------------------------------------------- stats

    def stats(self) -> dict[str, Any]:
        return {
            "now": self.clock.base,
            "committed_txns": self.committed_txns,
            "aborted_txns": self.aborted_txns,
            "tasks_pending": self.task_manager.pending,
            "tasks_held": self.task_manager.held_count,
            "max_stratum": self.max_stratum(),
            "unique_pending": self.unique_manager.pending_count(),
            "unique_batched_firings": self.unique_manager.batch_count,
            "compact_rows_in": self.unique_manager.compact_rows_in,
            "compact_rows_out": self.unique_manager.compact_rows_out,
            "rule_firings": self.rule_engine.firing_count,
            "background_cpu": self.background_meter.total,
            "faults_injected": self.faults.injected_count,
            "fault_retries": self.recovery.retry_count,
            "fault_dropped_tasks": self.recovery.drop_count,
            "wal_records": self.persist.records_logged,
            "checkpoints": self.persist.checkpoint_count,
        }
