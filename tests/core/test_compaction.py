"""Tests for the ``compact on`` delta-compaction fast path.

Covers the whole thread: SQL clause parsing and printing, Rule validation,
the UniqueManager's incremental fold (setup, absorb, release-time no-op
dropping), cost-model charging, tracer/metrics surfacing, pin accounting,
and the equivalence of the incremental fold with the batch reference
:func:`repro.core.net_effect.compact_table_rows`.
"""

import random

import pytest

from repro.core.net_effect import FoldedTable, compact_spec, compact_table_rows
from repro.core.rules import Rule
from repro.database import Database
from repro.errors import CreateRuleError, RuleError, SqlError
from repro.obs.tracer import TraceCollector
from repro.sql import ast
from repro.sql.parser import parse_statement
from repro.sql.printer import rule_to_sql
from repro.storage.schema import ColumnType, Schema
from repro.storage.temptable import StaticMap, TempTable
from repro.storage.tuples import Record


RULE_SQL = (
    "create rule watch on t when updated "
    "if select old.k as k, old.v as old_v, new.v as new_v "
    "from old, new where old.execute_order = new.execute_order bind as m "
    "then execute f {clause} after 1 seconds"
)


@pytest.fixture
def db():
    database = Database()
    database.execute("create table t (k text, v real)")
    database.execute("create index t_k on t (k)")
    return database


def install(db, clause="unique on k compact on k", seen=None):
    seen = seen if seen is not None else []

    def fn(ctx):
        seen.append(ctx.bound("m").to_dicts())

    db.register_function("f", fn)
    db.execute(RULE_SQL.format(clause=clause))
    return seen


def seed(db, rows=(("a", 1.0), ("b", 5.0))):
    for key, value in rows:
        db.execute(f"insert into t values ('{key}', {value})")
    db.drain()


class TestSqlClause:
    def test_parse_compact_on(self):
        stmt = parse_statement(
            "create rule r on t when inserted then execute f "
            "unique on k compact on k, grp after 2 seconds"
        )
        assert stmt.unique and stmt.unique_on == ("k",)
        assert stmt.compact_on == ("k", "grp")
        assert stmt.after == 2.0

    def test_parse_compact_with_coarse_unique(self):
        stmt = parse_statement(
            "create rule r on t when inserted then execute f unique compact on k"
        )
        assert stmt.unique and stmt.unique_on == ()
        assert stmt.compact_on == ("k",)

    def test_print_round_trip(self):
        stmt = parse_statement(
            "create rule r on t when inserted then execute f "
            "unique on k compact on k after 1.5 seconds"
        )
        text = rule_to_sql(stmt)
        assert "compact on k" in text
        again = parse_statement(text)
        assert again.compact_on == stmt.compact_on

    def test_absent_clause_prints_nothing(self):
        stmt = parse_statement("create rule r on t when inserted then execute f unique")
        assert stmt.compact_on == ()
        assert "compact" not in rule_to_sql(stmt)


class TestRuleValidation:
    def test_compact_requires_unique(self):
        with pytest.raises(RuleError, match="COMPACT ON requires UNIQUE"):
            Rule(
                name="r",
                table="t",
                events=(ast.Event("inserted"),),
                function="f",
                compact_on=("k",),
            )

    def test_compact_requires_unique_via_sql(self, db):
        db.register_function("f", lambda ctx: None)
        with pytest.raises(RuleError):
            db.execute(RULE_SQL.format(clause="compact on k"))

    def test_no_compactible_bound_table_is_refused_at_create_rule(self, db):
        with pytest.raises(CreateRuleError, match="compaction key"):
            install(db, clause="unique on k compact on missing_col")
        assert list(db.catalog.rules()) == []
        seed(db)
        assert db.execute("update t set v = 2.0 where k = 'a'") == 1


class TestIncrementalFold:
    def test_update_chain_folds_to_net_effect(self, db):
        seen = install(db)
        seed(db)
        for value in (2.0, 3.0, 4.0):
            db.execute(f"update t set v = {value} where k = 'a'")
        [task] = db.unique_manager.pending_tasks("f")
        # The pending bound table already holds the folded row.
        assert task.bound_tables["m"].to_dicts() == [
            {"k": "a", "old_v": 1.0, "new_v": 4.0}
        ]
        db.drain()
        assert seen == [[{"k": "a", "old_v": 1.0, "new_v": 4.0}]]

    def test_round_trip_dropped_at_release(self, db):
        seen = install(db)
        seed(db)
        db.execute("update t set v = 6.0 where k = 'b'")
        db.execute("update t set v = 5.0 where k = 'b'")
        # While pending, the folded no-op row is still present (a later
        # firing could extend the chain) ...
        [task] = db.unique_manager.pending_tasks("f")
        assert task.bound_tables["m"].to_dicts() == [
            {"k": "b", "old_v": 5.0, "new_v": 5.0}
        ]
        # ... and is dropped when the task is sealed at start.
        db.drain()
        assert seen == [[]]
        assert db.unique_manager.compact_rows_in == 2
        assert db.unique_manager.compact_rows_out == 0

    def test_unique_on_partitions_fold_independently(self, db):
        seen = install(db)
        seed(db)
        db.execute("update t set v = 2.0 where k = 'a'")
        db.execute("update t set v = 3.0 where k = 'a'")
        db.execute("update t set v = 9.0 where k = 'b'")
        assert db.unique_manager.pending_count("f") == 2
        db.drain()
        flat = sorted((row for batch in seen for row in batch), key=lambda r: r["k"])
        assert flat == [
            {"k": "a", "old_v": 1.0, "new_v": 3.0},
            {"k": "b", "old_v": 5.0, "new_v": 9.0},
        ]

    def test_coarse_unique_folds_across_keys(self, db):
        seen = install(db, clause="unique compact on k")
        seed(db)
        for value in (2.0, 3.0):
            db.execute(f"update t set v = {value} where k = 'a'")
        db.execute("update t set v = 9.0 where k = 'b'")
        assert db.unique_manager.pending_count("f") == 1
        db.drain()
        [batch] = seen
        assert sorted(batch, key=lambda r: r["k"]) == [
            {"k": "a", "old_v": 1.0, "new_v": 3.0},
            {"k": "b", "old_v": 5.0, "new_v": 9.0},
        ]

    def test_stats_expose_totals(self, db):
        install(db)
        seed(db)
        for value in (2.0, 3.0, 4.0):
            db.execute(f"update t set v = {value} where k = 'a'")
        db.drain()
        stats = db.stats()
        assert stats["compact_rows_in"] == 3
        assert stats["compact_rows_out"] == 1

    def test_without_compact_every_row_kept(self, db):
        seen = install(db, clause="unique on k")
        seed(db)
        for value in (2.0, 3.0, 4.0):
            db.execute(f"update t set v = {value} where k = 'a'")
        db.drain()
        [batch] = seen
        assert len(batch) == 3  # the paper's audit-trail default
        assert db.unique_manager.compact_rows_in == 0


class TestCharging:
    def test_cost_model_has_compaction_kinds(self, db):
        assert db.cost_model.seconds("compact_row") > 0
        assert db.cost_model.seconds("compact_lookup") > 0

    def test_fold_charged_to_triggering_transactions(self, db):
        install(db)
        seed(db)
        db.execute("update t set v = 2.0 where k = 'a'")
        db.execute("update t set v = 3.0 where k = 'a'")
        ops = db.background_meter.ops
        assert ops.get("compact_lookup", 0) >= 2
        assert ops.get("compact_row", 0) >= 2
        # Compacted tables bypass the ordinary append path entirely.
        assert ops.get("unique_append_row", 0) == 0
        db.drain()

    def test_uncompacted_rule_pays_no_fold(self, db):
        install(db, clause="unique on k")
        seed(db)
        db.execute("update t set v = 2.0 where k = 'a'")
        db.execute("update t set v = 3.0 where k = 'a'")
        ops = db.background_meter.ops
        assert ops.get("compact_lookup", 0) == 0
        assert ops.get("compact_row", 0) == 0
        assert ops.get("unique_append_row", 0) >= 1
        db.drain()


class TestTracing:
    def make_db(self):
        collector = TraceCollector()
        database = Database(tracer=collector)
        database.execute("create table t (k text, v real)")
        database.execute("create index t_k on t (k)")
        return database, collector

    def test_compact_event_and_ratio_histogram(self):
        db, collector = self.make_db()
        install(db)
        seed(db)
        for value in (2.0, 3.0, 4.0):
            db.execute(f"update t set v = {value} where k = 'a'")
        db.drain()
        assert collector.count("unique.compact") == 1
        [event] = [e for e in collector.events if e.kind == "unique.compact"]
        assert event.track == "unique"
        assert event.args["rows_in"] == 3
        assert event.args["rows_out"] == 1
        rollup = collector.rollup()
        assert rollup.counters["unique_compactions"] == 1
        hist = rollup.histograms["compaction_ratio"].snapshot()
        assert hist["count"] == 1

    def test_histogram_pre_created_when_unused(self):
        _db, collector = self.make_db()
        assert "compaction_ratio" in collector.rollup().histograms

    def test_batch_rows_histogram_sees_folded_count(self):
        db, collector = self.make_db()
        install(db)
        seed(db)
        for value in (2.0, 3.0, 4.0):
            db.execute(f"update t set v = {value} where k = 'a'")
        db.drain()
        hist = collector.rollup().histograms["batch_size_rows"].snapshot()
        # One recompute batch, counted after compaction: 1 row, not 3.
        assert hist["count"] == 1
        assert hist["total"] == 1


class TestPinAccounting:
    """No bound-table record pin may leak through partition/absorb/compact."""

    def all_pins(self, db):
        return sum(record.pins for record in db.catalog.table("t").scan())

    @pytest.mark.parametrize(
        "clause",
        [
            "unique on k",
            "unique on k compact on k",
            "unique compact on k",
            "unique",
        ],
    )
    def test_pins_drop_to_zero_after_drain(self, db, clause):
        install(db, clause=clause)
        seed(db)
        for value in (2.0, 3.0, 4.0):
            db.execute(f"update t set v = {value} where k = 'a'")
        db.execute("update t set v = 9.0 where k = 'b'")
        db.drain()
        assert self.all_pins(db) == 0

    def test_compacted_tables_release_pins_at_dispatch(self, db):
        """Compaction materializes the bound rows, so the source records'
        pins drop while the task is still pending (the memory win)."""
        install(db, clause="unique on k compact on k")
        seed(db)
        db.execute("update t set v = 2.0 where k = 'a'")
        assert db.unique_manager.pending_count("f") == 1
        assert self.all_pins(db) == 0
        db.drain()

    def test_uncompacted_pending_task_holds_pins(self, db):
        install(db, clause="unique on k")
        seed(db)
        db.execute("update t set v = 2.0 where k = 'a'")
        assert db.unique_manager.pending_count("f") == 1
        assert self.all_pins(db) > 0  # bound table still references records
        db.drain()
        assert self.all_pins(db) == 0


class TestAbortedTasks:
    def test_dropped_task_records_no_compaction(self, db):
        from repro.sim.simulator import drop_task
        from repro.txn.tasks import TaskState

        install(db)
        seed(db)
        db.execute("update t set v = 2.0 where k = 'a'")
        [task] = db.unique_manager.pending_tasks("f")
        drop_task(db, task, db.clock.base)
        assert task.state is TaskState.ABORTED
        # Dropped, not sealed: the retired tables hold nothing to compact.
        assert all(len(table) == 0 for table in task.bound_tables.values())
        assert db.unique_manager.compact_count == 0
        assert db.unique_manager.pending_count("f") == 0


class TestEquivalence:
    """The incremental fold must match compact_table_rows row for row."""

    COLUMNS = ("k", "grp", "old_v", "new_v")

    def test_incremental_matches_batch_reference(self, db):
        rng = random.Random(7)
        db.execute("drop table t")
        db.execute("create table t (k text, grp text, v real)")
        db.execute("create index t_k on t (k)")
        seen = []

        def fn(ctx):
            seen.append([list(row.values()) for row in ctx.bound("m").to_dicts()])

        db.register_function("f", fn)
        db.execute(
            "create rule watch on t when updated "
            "if select old.k as k, old.grp as grp, old.v as old_v, new.v as new_v "
            "from old, new where old.execute_order = new.execute_order bind as m "
            "then execute f unique compact on k after 1 seconds"
        )
        keys = ["a", "b", "c", "d"]
        state = {}
        for key in keys:
            state[key] = round(rng.uniform(1, 9), 1)
            db.execute(f"insert into t values ('{key}', 'g', {state[key]})")
        db.drain()
        seen.clear()

        raw_rows = []
        for _ in range(30):
            key = rng.choice(keys)
            new_value = round(rng.uniform(1, 9), 1)
            raw_rows.append((key, "g", state[key], new_value))
            state[key] = new_value
            db.execute(f"update t set v = {new_value} where k = '{key}'")
        db.drain()

        expected = [
            list(row)
            for row in compact_table_rows(self.COLUMNS, ("k",), raw_rows)
        ]
        incremental = [row for batch in seen for row in batch]
        assert incremental == expected

    @pytest.mark.parametrize("seed", range(25))
    def test_rollback_leaves_no_trace(self, seed):
        """Fold a random prefix, savepoint, fold more, roll back, fold the
        rest: rows, index and ``rows_in`` equal a run that never saw the
        rolled-back rows — and sealing still matches the batch reference.
        The same mark/rollback contract holds for a plain (pointer-backed,
        append-only) bound table, down to the record pins."""
        rng = random.Random(seed)
        keys = ["a", "b", "c", "d"]
        state = {key: round(rng.uniform(1, 9), 1) for key in keys}

        def chain(n, state):
            rows = []
            for _ in range(n):
                key = rng.choice(keys)
                # A quarter of the updates return to an earlier value, so
                # chains that net out to nothing occur.
                value = state[key] if rng.random() < 0.25 else round(rng.uniform(1, 9), 1)
                rows.append((key, "g", state[key], value))
                state[key] = value
            return rows

        prefix = chain(rng.randrange(0, 12), state)
        doomed = chain(rng.randrange(1, 12), dict(state))  # never happened
        rest = chain(rng.randrange(0, 12), state)
        new_mark = [True] + [rng.random() < 0.3 for _ in doomed[1:]]

        schema = Schema.of(
            ("k", ColumnType.TEXT), ("grp", ColumnType.TEXT),
            ("old_v", ColumnType.REAL), ("new_v", ColumnType.REAL),
        )
        spec = compact_spec(self.COLUMNS, ("k",))

        def run(table, append, with_rollback):
            for row in prefix:
                append(table, row)
            if with_rollback:
                # One commit can absorb into the same table several times:
                # a mark per absorb, rolled back newest first.
                marks = []
                for row, marked in zip(doomed, new_mark):
                    if marked:
                        marks.append(table.savepoint())
                    append(table, row)
                for mark in reversed(marks):
                    table.rollback(mark)
            for row in rest:
                append(table, row)
            return table

        def fold(table, row):
            table.append_values(row)

        folded = run(FoldedTable("m", schema, spec), fold, True)
        clean = run(FoldedTable("m", schema, spec), fold, False)
        assert list(folded.scan_values()) == list(clean.scan_values())
        assert folded.index == clean.index
        assert folded.rows_in == clean.rows_in == len(prefix) + len(rest)
        folded.seal()
        assert [tuple(row) for row in folded.scan_values()] == compact_table_rows(
            self.COLUMNS, ("k",), prefix + rest
        )

        records = {}

        def point(table, row):
            record = records.setdefault(row, Record(list(row)))
            table.append_row((record,))

        pointer_map = StaticMap.all_pointer(schema)
        plain = run(TempTable("m", schema, pointer_map), point, True)
        pins = {row: record.pins for row, record in records.items()}
        for record in records.values():
            record.pins = 0
        clean = run(TempTable("m", schema, pointer_map), point, False)
        assert list(plain.scan_values()) == list(clean.scan_values())
        assert len(plain) == len(prefix) + len(rest)
        assert pins == {row: record.pins for row, record in records.items()}


class TestExperimentOffAndOn:
    """The PTA experiment with the knob off and on (was an inline block of
    ci.yml's smoke job; it belongs where the fold's reader is changed)."""

    def test_off_path_matches_baseline_and_on_path_folds_rows(self):
        from repro.pta.tables import Scale
        from repro.pta.workload import VIEW

        scale = Scale.tiny()
        baseline = VIEW.run(scale=scale, view="comps", variant="unique", delay=3.0, seed=0)
        off = VIEW.run(scale=scale, view="comps", variant="unique", delay=3.0, seed=0, compact=False)
        # compact=False must be byte-identical to the pre-knob baseline.
        assert off.row() == baseline.row(), (off.row(), baseline.row())
        assert off.compact_rows_in == 0 and off.compaction_ratio == 1.0

        on = VIEW.run(scale=scale, view="comps", variant="unique", delay=3.0, seed=0, compact=True)
        assert on.compaction_ratio > 1.0, on.compaction_ratio
        assert on.compact_rows_out < on.compact_rows_in
        assert on.cpu_recompute < off.cpu_recompute
