"""Commit-time rule processing (paper section 6.3).

When a transaction commits, its log is scanned to find triggered rules.
For each triggered rule:

1. transition tables are built (once per table, shared across rules),
2. the condition queries run; the condition holds iff there are no queries
   or every query returns at least one row,
3. query results marked ``bind as`` become bound tables (with the
   ``commit_time`` pseudo column instantiated at bind time),
4. if the condition holds, ``evaluate`` queries run and are bound too,
5. the unique manager creates a new action task — or appends the bound
   rows onto a pending unique task — and new tasks enter the delay or
   ready queue with release time ``commit + after``.

Rule actions run in their own transaction via :meth:`make_action_body`;
because conditions are side-effect-free queries, condition evaluation can
never trigger further rules, and rule consideration order is immaterial.
Action *transactions*, however, go through the same commit-time scan, so a
rule whose trigger table is written by another rule's action cascades: the
dispatch carries the upstream task as ``origin`` and the downstream task
lands in a higher stratum (see :func:`repro.core.rules.stratify`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.core.functions import FunctionContext
from repro.core.rules import Rule
from repro.core.transition import TransitionTables, transition_schema, transition_static_map
from repro.errors import FunctionError
from repro.storage.schema import Schema
from repro.storage.table import Table
from repro.storage.temptable import StaticMap, TempTable
from repro.txn.tasks import Task
from repro.txn.transaction import Transaction

if TYPE_CHECKING:  # pragma: no cover
    from repro.database import Database


class RuleEngine:
    """Event detection, condition evaluation, binding, task creation."""

    def __init__(self, db: "Database") -> None:
        self.db = db
        # Cached per-table transition schemas / static maps so that plan
        # caching works across firings (same Schema object every time).
        self._transition_schemas: dict[str, Schema] = {}
        self._transition_maps: dict[tuple[str, str], StaticMap] = {}
        self.firing_count = 0  # conditions that evaluated to true
        self.check_count = 0  # rules whose events matched (condition ran)

    # ----------------------------------------------------- schema caching

    def transition_schema_for(self, table: Table) -> Schema:
        schema = self._transition_schemas.get(table.name)
        if schema is None or len(schema) != len(table.schema) + 1:
            schema = transition_schema(table.schema)
            self._transition_schemas[table.name] = schema
        return schema

    def transition_map_for(self, table: Table, kind: str) -> StaticMap:
        key = (table.name, kind)
        static_map = self._transition_maps.get(key)
        if static_map is None:
            static_map = transition_static_map(table.schema, label=f"{table.name}.{kind}")
            self._transition_maps[key] = static_map
        return static_map

    # ------------------------------------------------------ commit hook

    def process_commit(self, txn: Transaction) -> None:
        """Run rule processing for a committing transaction.  What the
        firings do to pending work lands on ``txn.effects``, for the commit
        to enqueue — or, if any rule fails, to take back; ``check_count`` and
        ``firing_count`` grow once every rule ran (never for a failed commit)."""
        db = self.db
        checks = firings = 0
        for table_name in txn.log.tables_touched():
            rules = [rule for rule in db.catalog.rules_on(table_name) if rule.enabled]
            if not rules:
                continue
            table = db.catalog.table(table_name)
            entries = txn.log.for_table(table_name)
            transitions: Optional[TransitionTables] = None
            try:
                for rule in rules:
                    db.charge("rule_log_scan", len(entries))
                    if not rule.matches(entries, table.schema):
                        continue
                    checks += 1
                    if db.tracer.enabled:
                        db.tracer.rule_check(rule.name, txn.txn_id, db.clock.now())
                    if transitions is None:
                        transitions = TransitionTables(db, table, entries)
                    if self._fire(rule, txn, transitions):
                        firings += 1
            finally:
                # Retire even when a condition or dispatch raised, so the
                # records pinned by this firing's temp tables are released.
                if transitions is not None:
                    transitions.retire()
        self.check_count += checks
        self.firing_count += firings

    def _fire(self, rule: Rule, txn: Transaction, transitions: TransitionTables) -> bool:
        """Condition check + binding + dispatch for one triggered rule;
        True when the condition held."""
        db = self.db
        namespace = transitions.namespace()
        if txn.task is not None and txn.task.bound_tables:
            # A rule can fire from an action transaction; its bound tables
            # stay visible (they are ordinary read-only tables to queries).
            merged = dict(txn.task.bound_tables)
            merged.update(namespace)
            namespace = merged
        pseudo = {"commit_time": txn.commit_time, "commit_seq": txn.commit_seq}
        bound: dict[str, TempTable] = {}
        try:
            for position, query in enumerate(rule.all_queries()):
                db.charge("condition_base")
                # A query with ``bind as`` comes back as its bound table,
                # filled by the plan's own loop nest.
                result = db.run_select(query, txn, pseudo=pseudo, namespace=namespace)
                if query.bind_as is not None:
                    bound[query.bind_as] = result
                if len(result) == 0 and position < len(rule.condition):
                    for table in bound.values():
                        table.retire()
                    return False
            tasks = db.unique_manager.dispatch(rule, bound, txn)
        except Exception:
            for table in bound.values():
                table.retire()
            raise
        if db.tracer.enabled:
            db.tracer.rule_fire(rule.name, txn.txn_id, len(tasks), db.clock.now())
        return True

    # ----------------------------------------------------- action bodies

    def make_action_body(self, function_name: str) -> Callable[[Task], None]:
        """The task body that runs one user function in a new transaction."""
        db = self.db

        def body(task: Task) -> None:
            db.charge("user_func_base")
            fn = db.functions.get(function_name)
            with db.begin(task) as txn:
                ctx = FunctionContext(db, task, txn)
                try:
                    fn(ctx)
                except Exception as exc:
                    # Only the function's error is wrapped, never the commit's.
                    raise FunctionError(
                        f"user function {function_name!r} failed: {exc}"
                    ) from exc

        return body
