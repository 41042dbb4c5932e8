"""Unique transactions: the paper's batching mechanism.

A transaction being *unique* means at most one task executing a given user
function is queued at any time; further rule firings append their bound-
table rows to the pending task instead of enqueueing new work (section 2).
``unique on (columns)`` refines this to one pending task per distinct
combination of the named bound-table columns, per the semantics of
Appendix A:

* ``T^u`` is the set of bound tables containing at least one unique column;
* the pending-task key space is the projection of the unique columns over
  the product of the ``T^u`` tables;
* the task for key ``(v1..vp)`` receives each ``T^u`` table filtered to the
  rows matching its own unique columns' values, and every other bound table
  whole.  (The published scan's formula has the two branches visibly
  garbled by OCR; this is the reading consistent with the paper's
  ``unique on comp`` walkthrough in section 3.)

The implementation mirrors section 6.3: a hash table per user function maps
unique column values to the pending task's TCB; the entry is removed when
the task starts running, after which new firings open a fresh task.  (The
paper guards these hash tables with spinlocks; our engine is single-
threaded so no locking is needed.)

``compact on (columns)`` rules additionally run the **delta-compaction
fast path** (an opt-in departure from the paper's no-net-effect stance,
section 2): each bound table containing every compaction key column is
carried as a :class:`~repro.core.net_effect.FoldedTable`, which keeps
itself folded to net effect per key while the task is pending — a firing
absorbed into the task costs one key probe and one fold per row
(``compact_lookup``/``compact_row``), and the action transaction's row
count is bounded by the number of *distinct* keys touched in the window
rather than the number of firings.  The manager only *appends rows to* and
*seals* such tables; the fold, its index and its undo live in the table.
Folded tables are fully materialized, so the source records' pins are
released at dispatch time instead of task retirement.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.core.net_effect import CompactSpec, FoldedTable, compact_spec
from repro.core.transition import TRANSITION_NAMES, transition_schema
from repro.errors import BindingError, CreateRuleError, PlanError, RuleError, SchemaError
from repro.sql.planner import output_names
from repro.storage.schema import Schema
from repro.storage.temptable import TempTable
from repro.txn.log import PendingEffect
from repro.txn.tasks import Task, TaskState

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.rules import Rule
    from repro.database import Database
    from repro.txn.transaction import Transaction


#: The states in which a pending task still takes a firing's rows.
_BATCHING = (TaskState.DELAYED, TaskState.READY)


def _full_copy(source: TempTable) -> TempTable:
    copy = TempTable(source.name, source.schema, source.static_map)
    copy.absorb(source)
    return copy


def _partitions(
    keys: list[tuple],
    owners: dict[str, tuple[list[int], dict[tuple, list]]],
    bound: dict[str, TempTable],
) -> list[dict[str, TempTable]]:
    """The bound tables of each key of a firing with several keys (or none).

    An owner's rows move, with their pins, into one table per group; a key
    with no rows in an owner gets an empty table.  Every other table goes
    whole.  A table that several keys receive — a non-owner, or one owner
    group under a product of owners — goes to the first and is copied, with
    pins, for each of the others.  The sources end empty and retired, or
    handed to a partition; with no key they are retired here.
    """
    if not keys:
        for table in bound.values():
            table.retire()
        return []
    partitions: list[dict[str, TempTable]] = [{} for _ in keys]
    for name, source in bound.items():
        if name in owners:
            positions, groups = owners[name]
            parts = source.split(groups)
            column = [parts.get(tuple(key[at] for at in positions)) for key in keys]
        else:
            column = [source] * len(keys)
        given: set[TempTable] = set()
        for partition, table in zip(partitions, column):
            if table is None:
                table = TempTable(source.name, source.schema, source.static_map)
            elif table in given:
                table = _full_copy(table)
            else:
                given.add(table)
            partition[name] = table
    return partitions


def _owners(
    rule: "Rule", has_column: dict[str, Callable[[str], bool]]
) -> tuple[dict[str, list[int]], bool]:
    """Appendix A's ``T^u`` among bound tables given by name and column
    test: per *owner* (a table holding unique columns) the positions of its
    columns in the key, and whether some unique column is shared.

    Derived-view maintenance rules routinely bind several delta tables that
    all carry the view's key (an insert delta and a deletion-mark query,
    say): the same key names the same logical group in each.  So a shared
    column is allowed when every owner carries the *full* key; partial
    overlap is ambiguous.  A unique column no table holds is an error too.
    """
    positions_of: dict[str, list[int]] = {}
    shared: Optional[tuple[str, list[str]]] = None
    for position, column in enumerate(rule.unique_on):
        names = [name for name, has in has_column.items() if has(column)]
        if not names:
            raise RuleError(
                f"rule {rule.name!r}: unique column {column!r} is in no bound table"
            )
        if len(names) > 1 and shared is None:
            shared = (column, names)
        for name in names:
            positions_of.setdefault(name, []).append(position)
    if shared is not None and any(
        len(positions) < len(rule.unique_on) for positions in positions_of.values()
    ):
        column, names = shared
        raise RuleError(
            f"rule {rule.name!r}: unique column {column!r} is ambiguous "
            f"({', '.join(names)})"
        )
    return positions_of, shared is not None


def _compaction_specs(
    rule: "Rule", columns: dict[str, Sequence[str]]
) -> dict[str, Optional[CompactSpec]]:
    """Per bound table (by name, with its column names) the folding spec,
    or None for a table lacking a compaction key column (it takes the
    ordinary path).  No table with every key column is an error."""
    specs: dict[str, Optional[CompactSpec]] = {}
    for name, names in columns.items():
        try:
            specs[name] = compact_spec(names, rule.compact_on)
        except SchemaError:
            specs[name] = None
    if all(spec is None for spec in specs.values()):
        raise RuleError(
            f"rule {rule.name!r}: no bound table contains all compaction "
            f"key columns {list(rule.compact_on)}"
        )
    return specs


def check_columns(db: "Database", rule: "Rule", schema: Schema) -> None:
    """CREATE RULE's check of ``unique on`` / ``compact on``: the routing
    and folding errors every firing of ``rule`` would otherwise raise at
    commit, raised once, as :class:`CreateRuleError`.  A bound table's
    columns are the planner's own output names over the trigger table's
    transition tables (``schema``) and the catalog; a query that reads a
    name neither knows (say, an upstream task's bound table) leaves the
    rule to be checked by its firings."""
    shadowing = dict.fromkeys(TRANSITION_NAMES, transition_schema(schema))
    try:
        columns = {
            query.bind_as: output_names(db, query.select, shadowing)
            for query in rule.all_queries()
            if query.bind_as is not None
        }
    except PlanError:
        return
    try:
        if rule.unique_on:
            _owners(rule, {name: set(names).__contains__ for name, names in columns.items()})
        if rule.compact_on:
            _compaction_specs(rule, columns)
    except RuleError as exc:
        raise CreateRuleError(str(exc)) from None


class Route:
    """How the firings of one rule with one bound shape dispatch, decided by
    the first of them and kept, by the firing program that resolved it,
    until ``Catalog.version`` moves (the shape is each bound table's name and
    static map, which the queries' plans fix); ``owners`` are Appendix A's
    ``T^u``, each with its key positions and compiled grouper."""

    __slots__ = ("rule", "owners", "shared", "others", "klass", "rule_name", "stratum", "body")

    def __init__(
        self,
        rule: "Rule",
        bound: dict[str, TempTable],
        make_body: Callable[[str], Callable[[Task], None]],
    ) -> None:
        self.rule = rule
        self.owners, self.shared, self.others = (), False, ()
        if rule.unique_on:
            positions_of, self.shared = _owners(
                rule, {name: table.schema.has_column for name, table in bound.items()}
            )
            self.owners = tuple(
                (name, positions, bound[name].static_map.grouper(
                    [bound[name].schema.offset(rule.unique_on[at]) for at in positions]
                ))
                for name, positions in positions_of.items()
            )
            self.others = tuple(name for name in bound if name not in positions_of)
        self.klass = f"recompute:{rule.function}"
        self.rule_name = f"{rule.name}@{rule.maintenance}" if rule.maintenance else rule.name
        self.stratum = rule.stratum
        # Stateless: it looks the function up when the task runs.
        self.body = make_body(rule.function)


class UniqueManager:
    """Tracks pending unique tasks and batches new firings onto them."""

    def __init__(self, db: "Database") -> None:
        self.db = db
        # function name -> unique key -> pending (not yet started) task
        self._pending: dict[str, dict[tuple, Task]] = {}
        self.batch_count = 0  # firings absorbed into a pending task
        self.task_count = 0  # tasks created through dispatch
        # Delta-compaction totals across released tasks: rows that entered
        # compacted bound tables vs rows the action transactions saw.
        self.compact_count = 0
        self.compact_rows_in = 0
        self.compact_rows_out = 0

    # ------------------------------------------------------------ dispatch

    def dispatch(
        self, route: Route, bound: dict[str, TempTable], txn: "Transaction"
    ) -> list[Task]:
        """Create or extend action tasks for one firing of ``route.rule`` by
        the committing ``txn``, through ``route``: the rule engine's program
        resolved it for the rule's bound shape at its first firing and keeps
        it until ``Catalog.version`` moves (a routing error is raised by
        every firing that would resolve it, and none keeps a route).

        Takes ownership of ``bound``: tables handed to a new task are kept,
        tables absorbed into a pending task (or split into partitions) are
        retired here.  Returns the newly created tasks (possibly empty when
        every partition was absorbed by pending work); they, and every
        absorb, are also on ``txn.effects``, where a failing commit finds
        them (:meth:`rescind`).

        A firing out of a rule-action transaction is a cascade: the
        upstream task is the ``origin`` stamped onto the new or extended
        task, so staleness accounting inherits the originating mutation
        stamps instead of minting fresh ones.
        """
        rule = route.rule
        origin = txn.task if txn.task is not None and txn.task.function_name else None
        if not rule.unique:
            return [self._new_task(rule, route, bound, txn, None, origin)]

        meter, cost = self.db.metering()
        if not route.owners:
            # Coarse batching: one pending task per user function.
            keys, partitions = [()], [bound]
        else:
            owners = {}
            for name, positions, group in route.owners:
                source = bound[name]
                owners[name] = (positions, group(source))
                rows = max(len(source), 1)  # what charge("partition_row", rows) adds
                meter.total += cost["partition_row"] * rows
                meter.ops["partition_row"] += rows
            if len(owners) == 1:
                ((_at, groups),) = owners.values()
                keys = list(groups)
            elif route.shared:
                # Every owner carries the full key: the same key names the
                # same group in each, so the keys are their union.
                keys = list(dict.fromkeys(key for _at, groups in owners.values() for key in groups))
            else:
                keys = []
                for combo in itertools.product(*(groups for _at, groups in owners.values())):
                    key: list = [None] * len(rule.unique_on)
                    for (positions, _groups), part in zip(owners.values(), combo):
                        for position, value in zip(positions, part):
                            key[position] = value
                    keys.append(tuple(key))
            # One key (almost every firing): each owner's rows all belong
            # to it, so every table goes over whole, rows and pins untouched.
            partitions = [bound] if len(keys) == 1 else _partitions(keys, owners, bound)
        pending = self._pending.setdefault(rule.function, {})
        new_tasks: list[Task] = []
        for at, (key, partition) in enumerate(zip(keys, partitions)):
            meter.total += cost["unique_lookup"]
            meter.ops["unique_lookup"] += 1
            # Every non-owner a key receives is charged, moved or copied.
            for name in route.others:
                rows = max(len(partition[name]), 1)
                meter.total += cost["partition_row"] * rows
                meter.ops["partition_row"] += rows
            try:
                # Batch onto the key's pending task, or open and register one.
                task = pending.get(key)
                if task is not None and task.state in _BATCHING:
                    self._absorb(task, partition, txn, origin)
                else:
                    pending[key] = task = self._new_task(rule, route, partition, txn, key, origin)
                    new_tasks.append(task)
            except Exception:
                # Ours until a task owns them (the caller retires ``bound``).
                for unowned in partitions[at:]:
                    for table in unowned.values():
                        table.retire()
                raise
        return new_tasks

    def _absorb(
        self,
        task: Task,
        bound: dict[str, TempTable],
        txn: "Transaction",
        origin: Optional[Task],
    ) -> None:
        """Append a new firing's rows onto a pending task's bound tables."""
        db = self.db
        if db.faults.enabled:
            db.faults.check_raise("unique.absorb", task.klass)
        targets = task.bound_tables
        if bound.keys() != targets.keys():
            raise BindingError(
                f"function {task.function_name!r}: bound tables differ across rules "
                f"({sorted(bound)} vs {sorted(targets)})"
            )
        effect = PendingEffect(task, marks=[])
        if db.persist.enabled:
            # Capture the incoming rows by value before they are folded in
            # (and the fresh tables retired): the WAL's absorb event must
            # replay against a resurrected, fully materialized task.
            effect.rows = {
                name: [list(values) for values in fresh.scan_values()]
                for name, fresh in bound.items()
            }
        # On the list before the first row moves: a commit that fails from
        # here on rolls the tables back.
        txn.effects.append(effect)
        meter, cost = db.metering()
        appended = 0
        for name, fresh in bound.items():
            target = targets[name]
            if target.folding:
                effect.marks.append((target, target.savepoint()))
                appended += self._fold_into(target, fresh)
                fresh.retire()
                continue
            if fresh:  # an empty one moves nothing: no mark to roll back to
                effect.marks.append((target, target.savepoint()))
            shape = target.static_map
            if (
                shape is not fresh.static_map
                and shape.ptr_slots == 0
                and shape.signature() != fresh.static_map.signature()
                and fresh.schema == target.schema
            ):
                # A resurrected task, or one sealed before its faulted
                # attempt, holds fully materialized tables; take the
                # fresh pointer-backed rows in by value.
                added = len(fresh)
                for values in fresh.scan_values():
                    target.append_values(values)
                fresh.retire()
            else:
                # The firing's table is ours alone: its rows move over with
                # the pins they already hold, and it is left retired.
                added = target.move_from(fresh)
            appended += added
            added = max(added, 1)  # what charge("unique_append_row", added) adds
            meter.total += cost["unique_append_row"] * added
            meter.ops["unique_append_row"] += added
        self.batch_count += 1
        effect.time = now = db.clock.now()
        if db.tracer.enabled:
            db.tracer.unique_append(task, appended, now, origin=origin)

    def _new_task(
        self,
        rule: "Rule",
        route: Route,
        bound: dict[str, TempTable],
        txn: "Transaction",
        unique_key: Optional[tuple],
        origin: Optional[Task],
    ) -> Task:
        db = self.db
        if db.faults.enabled:
            db.faults.check_raise("unique.dispatch", route.klass)
        meter, cost = db.metering()
        meter.total += cost["task_create"]
        meter.ops["task_create"] += 1
        if rule.compact_on:
            bound = self._fold_bound(rule, bound)
        task = Task(
            body=route.body,
            klass=route.klass,
            release_time=txn.commit_time + rule.after,
            created_time=txn.commit_time,
            function_name=rule.function,
            rule_name=route.rule_name,
            unique_key=unique_key,
            bound_tables=bound,
            estimated_cpu=cost["user_func_base"] + sum(map(len, bound.values())) * cost["user_row"],
            stratum=route.stratum,
        )
        if origin is not None:
            task.cascade_from = origin.task_id
        self.task_count += 1
        txn.effects.append(PendingEffect(task))
        if db.tracer.enabled:
            db.tracer.unique_new(task, db.clock.now(), origin=origin)
        return task

    # --------------------------------------------------- delta compaction

    def _fold_into(self, target: FoldedTable, fresh: TempTable) -> int:
        """Fold one firing's rows into a pending folded table: one key probe
        plus one fold per incoming row, replacing the ``unique_append_row``
        charge of the ordinary path.  Returns the incoming row count (the
        firing's contribution, as reported to the tracer)."""
        n = len(fresh)
        self.db.charge("compact_lookup", max(n, 1))
        self.db.charge("compact_row", max(n, 1))
        return target.absorb(fresh)

    def _fold_bound(
        self, rule: "Rule", bound: dict[str, TempTable]
    ) -> dict[str, TempTable]:
        """Replace compactible bound tables with folded copies.

        A table is compactible when it carries *every* compaction key
        column; other tables pass through on the ordinary absorb path.
        Source tables that were folded are retired here — their record
        pins drop at dispatch instead of task retirement.
        """
        specs = _compaction_specs(
            rule, {name: table.schema.names() for name, table in bound.items()}
        )
        out: dict[str, TempTable] = {}
        for name, table in bound.items():
            spec = specs[name]
            if spec is None:
                out[name] = table
                continue
            out[name] = FoldedTable(table.name, table.schema, spec)
            self._fold_into(out[name], table)
            table.retire()
        return out

    def _seal(self, task: Task, folded: list[FoldedTable]) -> None:
        """Close out a compacted task as it leaves the pending table: seal
        its folded tables (dropping net no-ops where the schema carries
        old/new image pairs) and record the compaction totals."""
        faults = self.db.faults
        if faults.enabled:
            # Checked before anything is sealed: a retried task re-runs
            # this with its folded tables intact.
            faults.check_raise("unique.compact", task.klass)
        rows_in = rows_out = 0
        for table in folded:
            if table.spec.can_drop_noops and len(table):
                self.db.charge("compact_row", len(table))
            rows_in += table.rows_in
            rows_out += table.seal()
        self.compact_count += 1
        self.compact_rows_in += rows_in
        self.compact_rows_out += rows_out
        persist = self.db.persist
        if persist.enabled and task.function_name is not None:
            # The noop drop above is deterministic given the folded tables,
            # so the WAL event carries no rows — replay re-runs the seal on
            # the resurrected task.
            persist.task_compact(task)
        if self.db.tracer.enabled:
            self.db.tracer.unique_compact(task, rows_in, rows_out, self.db.clock.now())

    # ----------------------------------------------------------- lifecycle

    def close_batch(self, task: Task) -> None:
        """Remove the pending-table entry the moment the task begins to run:
        from here on, new firings start a fresh transaction (section 6.3).
        Compacted tasks also drop their net-noop rows here — the batch is
        sealed, so the fold is final."""
        folded = [table for table in task.bound_tables.values() if table.folding]
        if folded:
            self._seal(task, folded)
        self.forget(task)

    def readopt(self, task: Task) -> None:
        """Put a fault-retried task back in the pending table (recovery).

        Firings that land before the retry's backoff release then batch
        onto it again, restoring the at-most-one-pending-task invariant.
        If a *newer* live task already owns the key (possible when the
        failed attempt's own writes triggered further rules), the newer
        entry keeps it and the retry simply runs from the delay queue.
        """
        if task.function_name is None or task.unique_key is None:
            return
        pending = self._pending.setdefault(task.function_name, {})
        current = pending.get(task.unique_key)
        if (
            current is not None
            and current is not task
            and current.state in _BATCHING
        ):
            return
        pending[task.unique_key] = task

    def forget(self, task: Task) -> None:
        """Drop a task's pending entry, if it still holds one."""
        if task.function_name is None or task.unique_key is None:
            return
        pending = self._pending.get(task.function_name)
        if pending is not None and pending.get(task.unique_key) is task:
            del pending[task.unique_key]

    def abandon(self, task: Task, outcome: str) -> None:
        """Give ``task`` up — the one way a task ends without running to
        completion (firm-deadline drop, retry budget exhausted, superseded,
        creating commit rolled back, recovery orphan past its budget).  No
        firing can batch onto it any more, its pins are released, the log
        gets its terminal record if it knew the task; the queues skip it by
        state when popped.  Callers add only their own charge and event."""
        self.forget(task)
        task.state = TaskState.ABORTED
        task.retire_bound_tables()
        persist = self.db.persist
        if persist.enabled and task.function_name is not None:
            persist.task_finished(task, outcome)

    def rescind(self, effect: PendingEffect, txn: "Transaction") -> None:
        """Take back one effect of ``txn``, whose commit failed (it walks
        its effects newest first).  The retry re-fires the rules, so nothing
        may stay behind: a task it opened would sit pending yet never reach
        the scheduler, swallowing every later firing's rows; an absorbed
        delta would be applied twice by an incremental action.  Counters
        and the tracer's stamps go back too."""
        task = effect.task
        if effect.marks is None:
            self.task_count -= 1
            task.log_closed = True  # never logged as created: no terminal record
            self.abandon(task, "aborted")
        else:
            for table, mark in reversed(effect.marks):
                table.rollback(mark)
            if effect.time is None:
                return  # raised part-way: never counted, never stamped
            self.batch_count -= 1
        if self.db.tracer.enabled:
            self.db.tracer.unique_rescind(
                task, effect.marks is None, self.db.clock.now(), origin=txn.task
            )

    def supersede(
        self, function: str, unique_key: tuple, now: float
    ) -> Optional[Task]:
        """Abandon the pending task for one unique key because newer state
        made its work moot (e.g. a deletion removed every derived row the
        task would have maintained).

        Only DELAYED/READY tasks can be superseded — once a task starts it
        runs to completion and the maintenance logic itself must cope.
        Returns the aborted task, or None when there was nothing pending.
        """
        task = self._pending.get(function, {}).get(unique_key)
        if task is None or task.state not in _BATCHING:
            return None
        self.db.charge("unique_lookup")
        self.abandon(task, "superseded")
        if self.db.tracer.enabled:
            self.db.tracer.task_superseded(task, now)
        return task

    def pending_tasks(self, function: Optional[str] = None) -> list[Task]:
        if function is not None:
            return list(self._pending.get(function, {}).values())
        return [task for table in self._pending.values() for task in table.values()]

    def pending_count(self, function: Optional[str] = None) -> int:
        return len(self.pending_tasks(function))
