"""Tests for the user-function registry and FunctionContext."""

import pytest

from repro.core.functions import FunctionRegistry
from repro.database import Database
from repro.errors import FunctionError, SchemaError, SimulationError


@pytest.fixture
def db():
    database = Database()
    database.execute("create table t (k text, v real)")
    database.execute("create index t_k on t (k)")
    return database


class TestRegistry:
    def test_register_and_get(self):
        registry = FunctionRegistry()
        fn = lambda ctx: None
        registry.register("f", fn)
        assert registry.get("f") is fn
        assert registry.has("f")
        assert registry.names() == ["f"]

    def test_duplicate_rejected(self):
        registry = FunctionRegistry()
        registry.register("f", lambda ctx: None)
        with pytest.raises(FunctionError):
            registry.register("f", lambda ctx: None)

    def test_replace(self):
        registry = FunctionRegistry()
        registry.register("f", lambda ctx: 1)
        fresh = lambda ctx: 2
        registry.register("f", fresh, replace=True)
        assert registry.get("f") is fresh

    def test_missing(self):
        with pytest.raises(FunctionError):
            FunctionRegistry().get("nope")


class TestContext:
    def run_with_context(self, db, fn):
        db.register_function("f", fn)
        db.execute(
            "create rule r on t when inserted "
            "if select k, v from inserted bind as m then execute f"
        )
        db.execute("insert into t values ('a', 1.0)")
        db.drain()

    def test_bound_lookup(self, db):
        seen = {}

        def fn(ctx):
            seen["has"] = ctx.has_bound("m")
            seen["missing"] = ctx.has_bound("zzz")
            seen["rows"] = ctx.bound("m").to_dicts()

        self.run_with_context(db, fn)
        assert seen == {"has": True, "missing": False, "rows": [{"k": "a", "v": 1.0}]}

    def test_bound_missing_raises(self, db):
        def fn(ctx):
            ctx.bound("zzz")

        with pytest.raises(FunctionError):
            self.run_with_context(db, fn)

    def test_query_sees_bound_table_by_name(self, db):
        """Bound tables shadow catalog names for the running task (6.3)."""
        seen = {}

        def fn(ctx):
            seen["v"] = ctx.query("select sum(v) as s from m").scalar()

        self.run_with_context(db, fn)
        assert seen["v"] == 1.0

    def test_query_joins_bound_with_standard(self, db):
        db.execute("create table factors (k text, f real)")
        db.execute("insert into factors values ('a', 10.0)")
        seen = {}

        def fn(ctx):
            seen["rows"] = ctx.query(
                "select v * f as scaled from m, factors where m.k = factors.k"
            ).rows()

        self.run_with_context(db, fn)
        assert seen["rows"] == [[10.0]]

    def test_execute_writes_through_action_txn(self, db):
        def fn(ctx):
            ctx.execute("insert into t values ('made', 9.0)")

        db.register_function("f", fn)
        db.execute("create rule r on t when updated then execute f")
        db.execute("insert into t values ('a', 1.0)")
        db.execute("update t set v = 2.0 where k = 'a'")
        db.drain()
        assert db.query("select v from t where k = 'made'").scalar() == 9.0

    def test_rows_charges_user_cost(self, db):
        def fn(ctx):
            list(ctx.rows("m"))

        db.register_function("f", fn)
        db.execute(
            "create rule r on t when inserted "
            "if select k, v from inserted bind as m then execute f"
        )
        db.execute("insert into t values ('a', 1.0)")
        task = db.task_manager.ready.peek()
        db.drain()
        assert task.meter.ops["user_row"] == 1

    def test_now_reflects_virtual_time(self, db):
        seen = {}

        def fn(ctx):
            seen["now"] = ctx.now

        db.advance(5.0)
        self.run_with_context(db, fn)
        assert seen["now"] >= 5.0

    def test_columns_yields_tuples_in_the_order_asked(self, db):
        seen = {}

        def fn(ctx):
            seen["vk"] = list(ctx.columns("m", "v", "k"))
            seen["none"] = list(ctx.columns("m"))
            seen["rows"] = list(ctx.rows("m"))

        self.run_with_context(db, fn)
        assert seen == {"vk": [(1.0, "a")], "none": [()], "rows": [{"k": "a", "v": 1.0}]}

    def test_wrong_names_fail_at_the_call_even_if_never_iterated(self, db):
        """``rows`` used to be a generator body: an un-iterated call with a
        wrong name was silent."""
        errors = []

        def fn(ctx):
            for call in (
                lambda: ctx.rows("typo"),
                lambda: ctx.columns("typo", "k"),
                lambda: ctx.columns("m", "k", "typo"),
            ):
                with pytest.raises(FunctionError) as caught:
                    call()  # never iterated
                errors.append(str(caught.value))

        self.run_with_context(db, fn)
        assert "available: ['m']" in errors[0] and "available: ['m']" in errors[1]
        assert "'m'" in errors[2] and "'typo'" in errors[2] and "('k', 'v')" in errors[2]

    @pytest.mark.parametrize("read", ["rows", "columns"])
    def test_user_row_count_lands_when_the_consumer_breaks_out(self, db, read):
        def fn(ctx):
            rows = ctx.rows("m") if read == "rows" else ctx.columns("m", "k")
            for index, _row in enumerate(rows):
                if index == 1:
                    break
            del rows
            fn.ops = dict(ctx.task.meter.ops)
            fn.total = ctx.task.meter.total

        db.register_function("f", fn)
        db.execute(
            "create rule r on t when inserted "
            "if select k, v from inserted bind as m then execute f"
        )
        db.execute("insert into t values ('a', 1.0), ('b', 2.0), ('c', 3.0)")
        before = db.task_manager.ready.peek().meter.total
        db.drain()
        assert fn.ops["user_row"] == 2
        assert fn.total >= before + 2 * db.cost_model.seconds("user_row")

    def test_a_bound_table_kept_past_its_task_refuses_to_be_read(self, db):
        """Reproduced on the parent: the second task read the first one's
        retired table as empty — one row a task earlier, none now, no
        error — and ``value_at`` raised an untyped IndexError."""
        kept, seen = [], []

        def fn(ctx):
            if not kept:
                kept.append(ctx.bound("m"))
                assert kept[0].to_dicts() == [{"k": "a", "v": 1.0}]
                return
            stale = kept[0]
            assert stale.retired and len(stale) == 0
            for read in (
                lambda: list(stale.scan_values()),
                stale.to_dicts,
                lambda: stale.value_at(0, 0),
                lambda: ctx.bound("m").absorb(stale),
                lambda: stale.split({}),
            ):
                with pytest.raises(SchemaError, match="temp table 'm' is retired"):
                    read()
                seen.append(read)

        db.register_function("f", fn)
        db.execute(
            "create rule r on t when inserted "
            "if select k, v from inserted bind as m then execute f"
        )
        db.execute("insert into t values ('a', 1.0)")
        db.drain()
        db.execute("insert into t values ('b', 2.0)")
        db.drain()
        assert len(seen) == 5


def _reference_columns(ctx, name, *columns):
    """The read before a per-row charge rode in it: the compiled reader
    mapped over the rows, ``user_row`` added before each one is handed over
    and counted once in a ``finally``."""
    table = ctx.bound(name)
    rows = table.scan_columns([table.schema.offset(column) for column in columns])
    meter, cost = ctx.db.metering()
    count = 0
    try:
        for values in rows:
            meter.total += cost["user_row"]
            count += 1
            yield values
    finally:
        if count:
            meter.ops["user_row"] += count


class TestPerRowCharges:
    """``ctx.columns(..., per_row=...)`` charges what a loop body charging
    ``ctx.charge(op, count)`` first thing in each row charged: the same
    additions in the same order (``meter.total`` to the bit) and the same
    ``meter.ops``, values and key order, however the loop ends."""

    def through(ctx, row):
        return False

    def breaks(ctx, row):
        return row[0] == "b"

    def raises(ctx, row):
        if row[0] == "b":
            raise ValueError("the body failed")
        return False

    def charges_more(ctx, row):
        ctx.charge("index_probe")  # a key of its own after the moved charge's
        return False

    BODIES = {"through": through, "break": breaks, "raise": raises, "charges": charges_more}

    def run(self, read, bound="m"):
        """``read(ctx)`` as the action of one three-row firing: the rows it
        saw and the task's meter right after its loop."""
        db = Database()
        db.execute("create table t (k text, v real)")
        seen = {}

        def fn(ctx):
            rows = []
            try:
                read(ctx, rows)
            except ValueError:
                pass
            meter = ctx.task.meter
            seen.update(rows=rows, total=meter.total.hex(), ops=list(meter.ops.items()))

        db.register_function("f", fn)
        db.execute(
            "create rule r on t when inserted deleted then evaluate "
            "select k, v from inserted bind as m, select k, v from deleted bind as gone "
            "execute f"
        )
        db.execute("insert into t values ('a', 1.0), ('b', 2.0), ('c', 3.0)")
        db.drain()
        return seen

    @pytest.mark.parametrize("body", sorted(BODIES))
    @pytest.mark.parametrize(
        "per_row",
        [{"user_group_row": 1}, {"arith": 2}, {"arith": 2, "f_bs": 1}, {}],
        ids=["count-1", "count-2", "two-ops", "none"],
    )
    @pytest.mark.parametrize("bound", ["m", "gone"])
    def test_the_reader_charges_what_the_loop_body_did(self, per_row, body, bound):
        step = self.BODIES[body]

        def reference(ctx, rows):
            for row in _reference_columns(ctx, bound, "k", "v"):
                for op, count in per_row.items():
                    ctx.charge(op, count)
                rows.append(row)
                if step(ctx, row):
                    break

        def charged(ctx, rows):
            for row in ctx.columns(bound, "k", "v", per_row=per_row):
                rows.append(row)
                if step(ctx, row):
                    break

        expected = self.run(reference)
        got = self.run(charged)
        assert got == expected
        ops = dict(got["ops"])
        if bound == "gone":  # no rows: nothing charged, no key stored
            assert got["rows"] == [] and "user_row" not in ops
            assert not set(per_row) & set(ops)
        else:
            kept = 2 if body in ("break", "raise") else 3
            assert got["rows"] == [("a", 1.0), ("b", 2.0), ("c", 3.0)][:kept]
            assert ops["user_row"] == len(got["rows"])

    def test_a_retired_table_or_an_unknown_op_fails_at_the_call(self):
        errors = []

        def read(ctx, rows):
            with pytest.raises(SimulationError, match="unknown cost-model operation 'nosuch'"):
                ctx.columns("m", "k", per_row={"arith": 1, "nosuch": 1})  # never iterated
            ctx.bound("m").retire()
            with pytest.raises(SchemaError, match="temp table 'm' is retired") as caught:
                ctx.columns("m", "k", per_row={"arith": 1})
            errors.append(caught.value)

        got = self.run(read)
        assert len(errors) == 1
        assert "arith" not in dict(got["ops"]) and "user_row" not in dict(got["ops"])


class TestColumnsAcrossTableKinds:
    """``ctx.columns`` reads the same values whatever map the bound table
    has: pointer-backed, folded (``compact on``), materialised by recovery,
    or pointing through an upstream task's bound table."""

    RULE = (
        "create rule watch on t when updated "
        "if select old.k as k, old.v as old_v, new.v as new_v from old, new "
        "where old.execute_order = new.execute_order bind as m "
        "then execute f unique {compact} after 1 seconds"
    )

    def build(self, compact, seen, persist=None):
        db = Database(persist=persist) if persist is not None else Database()
        db.execute("create table t (k text, v real)")
        db.execute("create index t_k on t (k)")

        def fn(ctx):
            table = ctx.bound("m")
            seen.append(
                (
                    type(table).__name__,
                    table.static_map.ptr_slots,
                    list(ctx.columns("m", "new_v", "k", "old_v")),
                    [(row["new_v"], row["k"], row["old_v"]) for row in ctx.rows("m")],
                    ctx.task.meter.ops["user_row"],
                )
            )

        db.register_function("f", fn)
        db.execute(self.RULE.format(compact=compact))
        db.execute("insert into t values ('a', 1.0), ('b', 5.0)")
        return db, fn

    def updates(self, db):
        db.execute("update t set v = 2.0 where k = 'a'")
        db.execute("update t set v = 6.0 where k = 'b'")
        db.execute("update t set v = 3.0 where k = 'a'")

    def test_pointer_backed_and_folded(self):
        seen = []
        for compact in ("", "compact on k"):
            db, _fn = self.build(compact, seen)
            self.updates(db)
            db.drain()
        plain, folded = seen
        rows = [(2.0, "a", 1.0), (6.0, "b", 5.0), (3.0, "a", 2.0)]
        assert plain == ("TempTable", 2, rows, rows, 6)
        net = [(3.0, "a", 1.0), (6.0, "b", 5.0)]  # first old image, last new
        assert folded == ("FoldedTable", 0, net, net, 4)

    def test_a_task_resurrected_by_recovery(self, tmp_path):
        from repro.persist import recover
        from repro.persist.manager import PersistenceManager

        seen = []
        manager = PersistenceManager(str(tmp_path))
        manager.enabled = False
        db, fn = self.build("", seen, persist=manager)
        manager.enabled = True
        manager.checkpoint()
        self.updates(db)
        manager.wal.close()  # the crash: the task is pending, nothing ran
        assert not seen

        recovered = Database()
        recover(recovered, str(tmp_path), functions={"f": fn})
        recovered.drain()
        rows = [(2.0, "a", 1.0), (6.0, "b", 5.0), (3.0, "a", 2.0)]
        assert seen == [("TempTable", 0, rows, rows, 6)]  # materialised: another map

    def test_a_cascade_firing_reads_its_upstream_task_s_bound_table(self):
        seen = []
        db = Database()
        db.execute("create table t (k text, v real)")
        db.execute("create table u (w real)")

        def upstream(ctx):
            for k, v in ctx.columns("m", "k", "v"):
                ctx.execute("insert into u values (:w)", {"w": v * 10})

        def downstream(ctx):
            seen.append(list(ctx.columns("m2", "w", "k", "v")))

        db.register_function("upstream", upstream)
        db.register_function("downstream", downstream)
        db.execute(
            "create rule r1 on t when inserted "
            "if select k, v from inserted bind as m then execute upstream writes u"
        )
        db.execute(
            "create rule r2 on u when inserted "
            "if select inserted.w as w, m.k as k, m.v as v from inserted, m "
            "where inserted.w = m.v * 10 bind as m2 then execute downstream unique"
        )
        db.execute("insert into t values ('a', 1.0), ('b', 2.0)")
        db.drain()
        # The upstream task and its table are long retired; the rows it
        # bound are still pinned through m2's own pointers.
        assert seen == [[(10.0, "a", 1.0), (20.0, "b", 2.0)]]
