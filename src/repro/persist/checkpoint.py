"""Fuzzy checkpoints: snapshot the database *and* the pending-task set.

A checkpoint captures everything recovery cannot rebuild from the WAL
tail alone:

* the catalog — table schemas, rows, and secondary indexes (DDL does not
  run inside transactions, so it is never WAL-logged);
* every installed rule, round-tripped through the Figure 2 SQL grammar
  (:func:`repro.sql.printer.rule_to_sql`) plus its enabled flag;
* the virtual clock and the WAL high-water mark (``lsn``): replay skips
  records at or below it, which is what makes replay idempotent when a
  crash lands between checkpoint write and WAL truncation;
* **the full pending-task set** — STRIP's signature state.  Each pending
  unique task is serialized with its partition key (``unique on``), its
  release deadline and retry budget, and the *contents* of its bound
  tables, including per-table ``compact on`` key columns so a still-
  folding table comes back as one (rebuilding its index) on recovery.

Checkpoints are "fuzzy" in the main-memory sense: they run between tasks
(never mid-commit), so the snapshot is transaction-consistent, and the
write is crash-safe — serialized to a temp file and atomically renamed
over the previous checkpoint.

Only *rule-action* tasks (``task.function_name is not None``) are
persisted.  Application update-stream and periodic tasks are the
workload's replayable input feed, not engine state (docs/PERSISTENCE.md
covers the contract).
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, Any, Optional

from repro.core.net_effect import FoldedTable, compact_spec
from repro.errors import PersistenceError
from repro.persist.codec import JSON_ENCODER
from repro.sql import ast
from repro.sql.printer import rule_to_sql
from repro.storage.schema import Column, ColumnType, Schema
from repro.storage.temptable import TempTable
from repro.txn.tasks import Task, TaskState

if TYPE_CHECKING:  # pragma: no cover
    from repro.database import Database

SNAPSHOT_VERSION = 1
CHECKPOINT_FILE = "checkpoint.json"


# --------------------------------------------------------------- tasks


def task_to_record(task: Task) -> dict:
    """Serialize one pending rule-action task (its TCB plus bound data)."""
    bound: dict[str, dict] = {}
    folding = [table for table in task.bound_tables.values() if table.folding]
    for name, table in task.bound_tables.items():
        entry: dict[str, Any] = {
            "columns": [[c.name, c.type.value] for c in table.schema.columns],
            "rows": [list(values) for values in table.scan_values()],
        }
        if table.folding:
            names = table.schema.names()
            entry["compact_keys"] = [names[i] for i in table.spec.key_offsets]
        bound[name] = entry
    return {
        "task_id": task.task_id,
        "function": task.function_name,
        "klass": task.klass,
        "unique_key": list(task.unique_key) if task.unique_key is not None else None,
        "release_time": task.release_time,
        "created_time": task.created_time,
        "deadline": task.deadline,
        "value": task.value,
        "estimated_cpu": task.estimated_cpu,
        "retries": task.retries,
        "stratum": task.stratum,
        "compact_rows_in": sum(t.rows_in for t in folding) if folding else None,
        "bound": bound,
    }


def record_to_task(db: "Database", record: dict) -> Task:
    """Resurrect a pending task from its serialized form.

    The new task gets a fresh ``task_id`` (ids are process-local); callers
    keep an old-id -> task map while replaying the WAL tail.  Bound tables
    come back fully materialized — their source records died with the old
    process — which is exactly the representation a fault-retried task
    already uses, so every downstream path (absorb, the compaction seal,
    the action body) handles it unchanged.
    """
    bound: dict[str, TempTable] = {}
    # The record carries one task-wide ``compact_rows_in``; each folded
    # table counts its own rows as they come back, so what remains is the
    # rows folded away before the snapshot — only ever read as part of the
    # task total, it rides on the first folded table.
    folded_away = record.get("compact_rows_in") or 0
    for name, entry in record["bound"].items():
        schema = Schema.of(
            *[Column(cname, ColumnType(ctype)) for cname, ctype in entry["columns"]]
        )
        keys = entry.get("compact_keys")
        if keys:
            table = FoldedTable(name, schema, compact_spec(schema.names(), tuple(keys)))
            folded_away -= len(entry["rows"])
        else:
            table = TempTable(name, schema)
        for values in entry["rows"]:
            table.append_values(values)
        bound[name] = table
    folding = [table for table in bound.values() if table.folding]
    if folding:
        folding[0].rows_in += max(folded_away, 0)
    body = db.rule_engine.make_action_body(record["function"])
    key = record["unique_key"]
    task = Task(
        body=body,
        klass=record["klass"],
        release_time=record["release_time"],
        created_time=record["created_time"],
        deadline=record["deadline"],
        value=record["value"],
        function_name=record["function"],
        unique_key=tuple(key) if key is not None else None,
        bound_tables=bound,
        estimated_cpu=record["estimated_cpu"],
        # Older checkpoints predate cascade strata; the rules are restored
        # before any task, so the installed program supplies the stratum.
        stratum=record.get("stratum") or db.stratum_for_function(record["function"]),
    )
    task.retries = record["retries"]
    return task


def pending_persistable_tasks(db: "Database") -> list[Task]:
    """Every queued rule-action task, in task-id order (deterministic)."""
    seen: dict[int, Task] = {}
    for task in db.task_manager.delay:
        if task.function_name is not None and task.state is TaskState.DELAYED:
            seen[task.task_id] = task
    # Cascade tasks gated behind a lower stratum are due-but-held; they are
    # as pending as anything in the delay queue and must survive a crash.
    for task in db.task_manager.held:
        if task.function_name is not None and task.state is TaskState.DELAYED:
            seen.setdefault(task.task_id, task)
    for task in db.task_manager.ready:
        if task.function_name is not None and task.state is TaskState.READY:
            seen.setdefault(task.task_id, task)
    return [seen[task_id] for task_id in sorted(seen)]


# ------------------------------------------------------------ snapshot


def _rule_to_record(rule: Any) -> dict:
    stmt = ast.CreateRule(
        name=rule.name,
        table=rule.table,
        events=rule.events,
        condition=rule.condition,
        evaluate=rule.evaluate,
        function=rule.function,
        unique=rule.unique,
        unique_on=rule.unique_on,
        compact_on=rule.compact_on,
        after=rule.after,
        writes=rule.writes,
    )
    return {"name": rule.name, "sql": rule_to_sql(stmt), "enabled": rule.enabled}


def build_snapshot(db: "Database", last_lsn: int) -> dict:
    """Build the checkpoint payload.  ``last_lsn`` is the highest LSN the
    snapshot reflects; recovery skips WAL records at or below it."""
    tables = []
    for table in db.catalog.tables():
        tables.append(
            {
                "name": table.name,
                "columns": [[c.name, c.type.value] for c in table.schema.columns],
                "rows": [list(record.values) for record in table.scan()],
                "indexes": [
                    {"name": index.name, "columns": list(index.columns), "kind": index.kind}
                    for index in table.indexes.values()
                ],
            }
        )
    return {
        "version": SNAPSHOT_VERSION,
        "lsn": last_lsn,
        "now": db.clock.now(),
        "tables": tables,
        "rules": [_rule_to_record(rule) for rule in db.catalog.rules()],
        "tasks": [task_to_record(task) for task in pending_persistable_tasks(db)],
    }


def write_snapshot(snapshot: dict, path: str) -> int:
    """Atomically persist ``snapshot`` (temp file + rename); returns bytes."""
    blob = JSON_ENCODER.encode(snapshot).encode("utf-8")
    tmp = path + ".tmp"
    with open(tmp, "wb") as handle:
        handle.write(blob)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return len(blob)


def load_snapshot(path: str) -> Optional[dict]:
    """Read a checkpoint; ``None`` when none was ever written."""
    try:
        with open(path, "rb") as handle:
            snapshot = json.loads(handle.read().decode("utf-8"))
    except FileNotFoundError:
        return None
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, as in decode_payload
        raise PersistenceError(f"{path}: corrupt checkpoint ({exc})") from exc
    if snapshot.get("version") != SNAPSHOT_VERSION:
        raise PersistenceError(
            f"{path}: unsupported checkpoint version {snapshot.get('version')!r}"
        )
    return snapshot


def restore_snapshot(db: "Database", snapshot: dict) -> dict[int, Task]:
    """Rebuild catalog, rules, clock, and pending tasks into a fresh ``db``.

    Returns the old-task-id -> resurrected-task map; tasks are **not**
    enqueued — WAL replay may still absorb into, requeue, or retire them.
    """
    if next(iter(db.catalog.tables()), None) is not None:
        raise PersistenceError("recovery requires an empty database")
    for entry in snapshot["tables"]:
        schema = Schema.of(
            *[Column(cname, ColumnType(ctype)) for cname, ctype in entry["columns"]]
        )
        table = db.catalog.create_table(entry["name"], schema)
        for values in entry["rows"]:
            table.insert(values)
        for index in entry["indexes"]:
            table.create_index(index["name"], index["columns"], kind=index["kind"])
    for entry in snapshot["rules"]:
        db.execute(entry["sql"])
    by_name = {rule.name: rule for rule in db.catalog.rules()}
    for entry in snapshot["rules"]:
        # rule_to_sql has no enabled/disabled clause; restore the flag directly.
        rule = by_name.get(entry["name"])
        if rule is not None:
            rule.enabled = entry["enabled"]
    db.clock.set_base(snapshot["now"])
    return {
        record["task_id"]: record_to_task(db, record) for record in snapshot["tasks"]
    }
