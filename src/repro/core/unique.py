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
from typing import TYPE_CHECKING, Optional

from repro.core.net_effect import FoldedTable, compact_spec
from repro.errors import BindingError, RuleError, SchemaError
from repro.storage.temptable import TempTable
from repro.txn.log import PendingEffect
from repro.txn.tasks import Task, TaskState

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.rules import Rule
    from repro.database import Database
    from repro.txn.transaction import Transaction


def _full_copy(source: TempTable, charge) -> TempTable:
    copy = TempTable(source.name, source.schema, source.static_map)
    charge("partition_row", max(len(source), 1))
    copy.absorb(source)
    return copy


def _group_rows(source: TempTable, offsets: list[int]) -> dict[tuple, list]:
    """``source``'s raw rows grouped by their values at ``offsets``, in
    first-seen key order (one pass; partitions are built from the groups,
    never by rescanning the source)."""
    groups: dict[tuple, list] = {}
    for key, raw in zip(source.scan_columns(offsets), source.scan_raw()):
        group = groups.get(key)
        if group is None:
            groups[key] = [raw]
        else:
            group.append(raw)
    return groups


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
        self, rule: "Rule", bound: dict[str, TempTable], txn: "Transaction"
    ) -> list[Task]:
        """Create or extend action tasks for one rule firing of the
        committing ``txn``.

        Takes ownership of ``bound``: tables handed to a new task are kept,
        tables absorbed into a pending task (or partitioned into copies) are
        retired here.  Returns the newly created tasks (possibly empty when
        every partition was absorbed by pending work); they, and every
        absorb, are also on ``txn.effects``, where a failing commit finds
        them (:meth:`rescind`).

        A firing out of a rule-action transaction is a cascade: the
        upstream task is the ``origin`` stamped onto the new or extended
        task, so staleness accounting inherits the originating mutation
        stamps instead of minting fresh ones.
        """
        charge = self.db.charge
        origin = txn.task if txn.task is not None and txn.task.function_name else None
        if not rule.unique:
            return [self._new_task(rule, bound, txn, unique_key=None, origin=origin)]

        if not rule.unique_on:
            # Coarse batching: one pending task per user function.
            charge("unique_lookup")
            fresh = self._absorb_or_create(rule, (), bound, txn, origin)
            return [] if fresh is None else [fresh]

        keys, owners = self._route(rule, bound)
        new_tasks: list[Task] = []
        for key in keys:
            charge("unique_lookup")
            # Owners are filtered to the key's rows (possibly none),
            # straight from the grouped raw rows; every other bound
            # table is passed whole.
            partition: dict[str, TempTable] = {}
            for name, table in bound.items():
                if name in owners:
                    positions, groups = owners[name]
                    part = tuple(key[position] for position in positions)
                    partition[name] = table.subset(groups.get(part, ()))
                else:
                    partition[name] = _full_copy(table, charge)
            try:
                fresh = self._absorb_or_create(rule, key, partition, txn, origin)
            except Exception:
                # Ours until a task owns it (the caller retires ``bound``).
                for table in partition.values():
                    table.retire()
                raise
            if fresh is not None:
                new_tasks.append(fresh)
        for table in bound.values():
            table.retire()
        return new_tasks

    def _route(
        self, rule: "Rule", bound: dict[str, TempTable]
    ) -> tuple[list[tuple], dict[str, tuple[list[int], dict[tuple, list]]]]:
        """Appendix A routing of one ``unique on`` firing.

        Returns the pending-task keys the firing touches and, per *owner*
        (a bound table holding unique columns — the paper's ``T^u``), the
        positions of its columns in the key plus its rows grouped by them.

        When every unique column has one owner the keys are the product of
        the owners' groups.  Derived-view maintenance rules routinely bind
        several delta tables that all carry the view's key (an insert delta
        and a deletion-mark query, say): the same key names the same logical
        group in each, and the product reading would call that ambiguous.
        So when a column is shared and every owner carries the *full* key,
        the keys are the union of the owners' keys; partial overlap keeps
        the ambiguity error.
        """
        positions_of: dict[str, list[int]] = {}
        shared: Optional[tuple[str, list[str]]] = None
        for position, column in enumerate(rule.unique_on):
            names = [
                name for name, table in bound.items() if table.schema.has_column(column)
            ]
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
        owners = {}
        for name, positions in positions_of.items():
            source = bound[name]
            offsets = [source.schema.offset(rule.unique_on[p]) for p in positions]
            owners[name] = (positions, _group_rows(source, offsets))
            self.db.charge("partition_row", max(len(source), 1))
        if shared is not None:
            union = dict.fromkeys(
                key for _positions, groups in owners.values() for key in groups
            )
            return list(union), owners
        keys = []
        for combo in itertools.product(*(groups for _positions, groups in owners.values())):
            key: list = [None] * len(rule.unique_on)
            for (positions, _groups), part in zip(owners.values(), combo):
                for position, value in zip(positions, part):
                    key[position] = value
            keys.append(tuple(key))
        return keys, owners

    def _absorb_or_create(
        self,
        rule: "Rule",
        key: tuple,
        bound: dict[str, TempTable],
        txn: "Transaction",
        origin: Optional[Task],
    ) -> Optional[Task]:
        """Batch ``bound`` onto the key's pending task, or open (and
        register) a new one — which is returned."""
        pending = self._pending.setdefault(rule.function, {})
        task = pending.get(key)
        if task is not None and task.state in (TaskState.DELAYED, TaskState.READY):
            self._absorb(task, bound, txn, origin)
            return None
        fresh = self._new_task(rule, bound, txn, unique_key=key, origin=origin)
        pending[key] = fresh
        return fresh

    def _absorb(
        self,
        task: Task,
        bound: dict[str, TempTable],
        txn: "Transaction",
        origin: Optional[Task],
    ) -> None:
        """Append a new firing's rows onto a pending task's bound tables."""
        charge = self.db.charge
        faults = self.db.faults
        if faults.enabled:
            faults.check_raise("unique.absorb", task.klass)
        if bound.keys() != task.bound_tables.keys():
            raise BindingError(
                f"function {task.function_name!r}: bound tables differ across rules "
                f"({sorted(bound)} vs {sorted(task.bound_tables)})"
            )
        effect = PendingEffect(task, marks=[])
        if self.db.persist.enabled:
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
        appended = 0
        for name, fresh in bound.items():
            target = task.bound_tables[name]
            effect.marks.append((target, target.savepoint()))
            if target.folding:
                appended += self._fold_into(target, fresh)
            else:
                if (
                    target.static_map.ptr_slots == 0
                    and target.static_map.signature() != fresh.static_map.signature()
                    and fresh.schema == target.schema
                ):
                    # A resurrected task, or one sealed before its faulted
                    # attempt, holds fully materialized tables; take the
                    # fresh pointer-backed rows in by value.
                    added = len(fresh)
                    for values in fresh.scan_values():
                        target.append_values(values)
                else:
                    # The firing's table is ours alone: its rows move over
                    # with the pins they already hold.
                    added = target.move_from(fresh)
                appended += added
                charge("unique_append_row", max(added, 1))
            fresh.retire()
        self.batch_count += 1
        effect.time = now = self.db.clock.now()
        if self.db.tracer.enabled:
            self.db.tracer.unique_append(task, appended, now, origin=origin)

    def _new_task(
        self,
        rule: "Rule",
        bound: dict[str, TempTable],
        txn: "Transaction",
        unique_key: Optional[tuple],
        origin: Optional[Task],
    ) -> Task:
        charge = self.db.charge
        faults = self.db.faults
        if faults.enabled:
            faults.check_raise("unique.dispatch", f"recompute:{rule.function}")
        charge("task_create")
        if rule.compact_on:
            bound = self._fold_bound(rule, bound)
        body = self.db.rule_engine.make_action_body(rule.function)
        rows = sum(len(table) for table in bound.values())
        cost_model = self.db.cost_model
        estimated = cost_model.seconds("user_func_base") + rows * cost_model.seconds("user_row")
        task = Task(
            body=body,
            klass=f"recompute:{rule.function}",
            release_time=txn.commit_time + rule.after,
            created_time=txn.commit_time,
            function_name=rule.function,
            rule_name=(
                f"{rule.name}@{rule.maintenance}" if rule.maintenance else rule.name
            ),
            unique_key=unique_key,
            bound_tables=bound,
            estimated_cpu=estimated,
            stratum=rule.stratum,
        )
        if origin is not None:
            task.cascade_from = origin.task_id
        self.task_count += 1
        txn.effects.append(PendingEffect(task))
        if self.db.tracer.enabled:
            self.db.tracer.unique_new(task, self.db.clock.now(), origin=origin)
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
        out: dict[str, TempTable] = {}
        for name, table in bound.items():
            try:
                spec = compact_spec(table.schema.names(), rule.compact_on)
            except SchemaError:
                out[name] = table
                continue
            out[name] = FoldedTable(table.name, table.schema, spec)
            self._fold_into(out[name], table)
            table.retire()
        if not any(table.folding for table in out.values()):
            raise RuleError(
                f"rule {rule.name!r}: no bound table contains all compaction "
                f"key columns {list(rule.compact_on)}"
            )
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

    def on_task_start(self, task: Task) -> None:
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
            and current.state in (TaskState.DELAYED, TaskState.READY)
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
        if task is None or task.state not in (TaskState.DELAYED, TaskState.READY):
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
