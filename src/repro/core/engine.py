"""Commit-time rule processing (paper section 6.3).

When a transaction commits, its log is scanned to find triggered rules.
For each triggered rule:

1. the transition tables a matched rule names are built (once per table,
   shared across rules),
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
from repro.core.transition import TRANSITION_NAMES, TransitionShape
from repro.errors import CreateRuleError, FunctionError
from repro.sql import executor
from repro.sql.ast import table_names
from repro.sql.executor import PreparedSelect
from repro.storage.schema import Schema
from repro.storage.table import Table
from repro.storage.temptable import TempTable
from repro.txn.log import INSERT, UPDATE, LogEntry
from repro.txn.tasks import Task
from repro.txn.transaction import Transaction

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.unique import Route
    from repro.database import Database


class PreparedRule:
    """One rule as its firings run it, decided against its table's schema
    once: the change kinds that trigger it and the offsets ``updated c1, c2``
    names (an update triggers only if one of those values changed; a column
    the table lacks is a :class:`CreateRuleError`, at CREATE RULE), the
    transition tables its queries name, and each query prepared, with
    whether it is a condition (an empty result stops the firing); and the
    ``routes`` its firings dispatch through, one per bound shape (``Route``)."""

    __slots__ = (
        "rule", "inserted", "deleted", "any_update", "offsets", "reads", "queries", "routes"
    )

    def __init__(self, rule: Rule, schema: Schema) -> None:
        self.rule = rule
        kinds = [event.kind for event in rule.events]
        self.inserted, self.deleted = "inserted" in kinds, "deleted" in kinds
        self.any_update = any(e.kind == "updated" and not e.columns for e in rule.events)
        columns = {c for e in rule.events if e.kind == "updated" for c in e.columns}
        unknown = sorted(columns - set(schema.names()))
        if unknown:
            raise CreateRuleError(f"rule {rule.name!r}: {rule.table} has no column {unknown[0]!r}")
        self.offsets = tuple(sorted(schema.offset(column) for column in columns))
        queries = rule.all_queries()
        named = set().union(*(table_names(query.select) for query in queries))
        self.reads = [name for name in TRANSITION_NAMES if name in named]
        self.queries = [
            (PreparedSelect(query.select, query.bind_as, TRANSITION_NAMES), at < len(rule.condition))
            for at, query in enumerate(queries)
        ]
        self.routes: list[Route] = []

    def hit(self, entries: list[LogEntry]) -> bool:
        """True if any of one table's logged changes triggers the rule."""
        for entry in entries:
            if entry.kind == UPDATE:
                if self.any_update:
                    return True
                old, new = entry.old_record.values, entry.new_record.values
                for offset in self.offsets:
                    if old[offset] != new[offset]:
                        return True
            elif self.inserted if entry.kind == INSERT else self.deleted:
                return True
        return False


class RuleEngine:
    """Event detection, condition evaluation, binding, task creation."""

    def __init__(self, db: "Database") -> None:
        self.db = db
        #: Per table with rules (the ``Table`` object, never its name): the
        #: shape of its transition tables and its rules in creation order.
        self._programs: dict[Table, tuple[TransitionShape, list[PreparedRule]]] = {}
        self._version = -1  # the catalog version the programs were built at
        self.firing_count = 0  # conditions that evaluated to true
        self.check_count = 0  # rules whose events matched (condition ran)

    def programs(self) -> dict[Table, tuple[TransitionShape, list[PreparedRule]]]:
        """The prepared programs, rebuilt when the catalog version moved."""
        catalog = self.db.catalog
        if self._version != catalog.version:
            self._programs = {}
            for rule in catalog.rules():
                table = catalog.table(rule.table)
                if table not in self._programs:
                    self._programs[table] = (TransitionShape(table), [])
                self._programs[table][1].append(PreparedRule(rule, table.schema))
            self._version = catalog.version
        return self._programs

    # ------------------------------------------------------ commit hook

    def process_commit(self, txn: Transaction) -> None:
        """Run rule processing for a committing transaction.  What the
        firings do to pending work lands on ``txn.effects``, for the commit
        to enqueue — or, if any rule fails, to take back; ``check_count`` and
        ``firing_count`` grow once every rule ran (never for a failed commit).

        ``rule.enabled`` is read here, per commit: ALTER RULE, checkpoint
        restore and tests assign it directly."""
        db = self.db
        catalog = db.catalog
        programs = self.programs()
        checks = firings = 0
        pseudo = {"commit_time": txn.commit_time, "commit_seq": txn.commit_seq}
        for name in txn.log.tables_touched():
            program = programs.get(catalog.table(name)) if catalog.has_table(name) else None
            if program is None:
                continue
            shape, prepared_rules = program
            entries = txn.log.for_table(name)
            # Masks first (they charge nothing), so that the transition
            # tables built are the ones some matched rule names.
            rules = [(each, each.hit(entries)) for each in prepared_rules if each.rule.enabled]
            meter, cost = db.metering()
            count = len(entries)
            scan = cost["rule_log_scan"] * count  # what charge("rule_log_scan", n) adds
            transitions: Optional[dict[str, TempTable]] = None
            try:
                for prepared, hit in rules:
                    meter.total += scan
                    meter.ops["rule_log_scan"] += count
                    if not hit:
                        continue
                    checks += 1
                    if db.tracer.enabled:
                        db.tracer.rule_check(prepared.rule.name, txn.txn_id, db.clock.now())
                    if transitions is None:
                        reads = {read for each, named in rules if named for read in each.reads}
                        transitions = shape.build(db, entries, reads)
                    if self._fire(prepared, txn, transitions, pseudo):
                        firings += 1
            finally:
                # Retire even when a condition or dispatch raised, so the
                # records pinned by this firing's temp tables are released.
                if transitions is not None:
                    for table in transitions.values():
                        table.retire()
        self.check_count += checks
        self.firing_count += firings

    def _fire(
        self, prepared: PreparedRule, txn: Transaction, transitions: dict, pseudo: dict
    ) -> bool:
        """Condition check + binding + dispatch for one triggered rule;
        True when the condition held."""
        db = self.db
        namespace = transitions
        if txn.task is not None and txn.task.bound_tables:
            # A rule can fire from an action transaction; its bound tables
            # stay visible (they are ordinary read-only tables to queries),
            # behind the transition tables of the same name.
            namespace = {**txn.task.bound_tables, **transitions}
        bound: dict[str, TempTable] = {}
        meter, cost = db.metering()
        try:
            for query, condition in prepared.queries:
                meter.total += cost["condition_base"]
                meter.ops["condition_base"] += 1
                # A query with ``bind as`` comes back as its bound table,
                # filled by the plan's own loop nest.  ``execute_select`` is
                # looked up per call: the e2e tracer's sql.select seam.
                result = executor.execute_select(db, query, txn, None, pseudo, namespace)
                if query.bind_as is not None:
                    bound[query.bind_as] = result
                if condition and len(result) == 0:
                    for table in bound.values():
                        table.retire()
                    return False
            tasks = db.unique_manager.dispatch(prepared, bound, txn)
        except Exception:
            for table in bound.values():
                table.retire()
            raise
        if db.tracer.enabled:
            db.tracer.rule_fire(prepared.rule.name, txn.txn_id, len(tasks), db.clock.now())
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
