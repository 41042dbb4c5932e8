"""Crash-recovery tests: the crash-at-every-WAL-record sweep, orphan retry
accounting, end-to-end crash injection, and the no-overhead invariant.

The sweep is the subsystem's strongest guarantee made executable: for a
completed run's WAL, truncate the log after *every single record* in turn
— each truncation is a crash the torn-tail rule would produce — recover
into a fresh database, drain the resurrected tasks, and require the
convergence oracle to find zero divergent rows every time.
"""

import os
import shutil
import tempfile
from collections import Counter
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.database import Database
from repro.errors import PersistenceError
from repro.fault import RetryPolicy, check_convergence
from repro.persist import recover
from repro.persist.manager import WAL_FILE, PersistenceManager
from repro.persist.checkpoint import CHECKPOINT_FILE, build_snapshot, write_snapshot
from repro.persist.recovery import WalApplier
from repro.persist.wal import MAGIC, iter_frames, read_wal
from repro.pta.rules import function_registry
from repro.pta.tables import Scale
from repro.pta.workload import VIEW
from repro.replic import Standby, check_replica_equivalence
from repro.sim.simulator import Simulator
from repro.storage.index import HashIndex
from repro.storage.table import Table
from tests.persist.crashes import crash_recover_converge

#: Small enough that the every-record sweep stays in the sub-second range,
#: big enough to exercise absorbs, retirements, and multiple partitions.
MICRO = Scale(
    n_stocks=12, n_comps=3, stocks_per_comp=4,
    n_options=10, duration=8.0, n_updates=60,
)


@pytest.fixture(scope="module")
def completed_run(tmp_path_factory):
    """One full persistence-on run: its WAL directory, result, and final db."""
    wal_dir = str(tmp_path_factory.mktemp("wal"))
    result = VIEW.run(
        scale=MICRO, view="comps", variant="unique", delay=1.0, seed=0,
        wal_dir=wal_dir,
    )
    return wal_dir, result, result.run.db


def frame_offsets(wal_path):
    """Byte offset of each record's end (magic included)."""
    with open(wal_path, "rb") as handle:
        data = handle.read()
    assert data.startswith(MAGIC)
    return [len(MAGIC) + end for _payload, end in iter_frames(data[len(MAGIC):])]


def crashed_copy(wal_dir, target, cut_offset, garbage=b""):
    """The on-disk state of a process that died at ``cut_offset``."""
    os.makedirs(target, exist_ok=True)
    shutil.copy(
        os.path.join(wal_dir, CHECKPOINT_FILE),
        os.path.join(target, CHECKPOINT_FILE),
    )
    with open(os.path.join(wal_dir, WAL_FILE), "rb") as handle:
        data = handle.read()
    with open(os.path.join(target, WAL_FILE), "wb") as handle:
        handle.write(data[:cut_offset] + garbage)


def recover_and_drain(wal_dir, **kwargs):
    db = Database()
    report = recover(db, wal_dir, functions=function_registry(), **kwargs)
    Simulator(db).run()
    return db, report


class TestCrashAtEveryRecord:
    def test_every_prefix_recovers_and_converges(self, completed_run, tmp_path):
        wal_dir, _result, _db = completed_run
        offsets = frame_offsets(os.path.join(wal_dir, WAL_FILE))
        assert len(offsets) >= 40  # the sweep must actually cover something
        for index, cut in enumerate([len(MAGIC)] + offsets):
            target = str(tmp_path / f"crash{index}")
            crashed_copy(wal_dir, target, cut)
            db, report = recover_and_drain(target)
            oracle = check_convergence(db)
            assert oracle.ok, (
                f"crash after record {index}: {oracle.format()}\n{report.describe()}"
            )
            assert oracle.rows_checked > 0

    def test_torn_tail_at_every_boundary_is_survivable(self, completed_run, tmp_path):
        """A crash mid-write leaves a partial frame; recovery must drop it
        and still converge from the intact prefix."""
        wal_dir, _result, _db = completed_run
        offsets = frame_offsets(os.path.join(wal_dir, WAL_FILE))
        for index, cut in enumerate(offsets[:: max(len(offsets) // 8, 1)]):
            target = str(tmp_path / f"torn{index}")
            crashed_copy(wal_dir, target, cut, garbage=b"\x07" * 13)
            db, report = recover_and_drain(target)
            assert report.torn_bytes == 13
            assert check_convergence(db).ok

    def test_full_replay_matches_the_completed_run(self, completed_run, tmp_path):
        """Recovering the complete WAL and draining reproduces the dead
        process's final derived state row for row."""
        wal_dir, _result, original_db = completed_run
        target = str(tmp_path / "full")
        offsets = frame_offsets(os.path.join(wal_dir, WAL_FILE))
        crashed_copy(wal_dir, target, offsets[-1])
        db, report = recover_and_drain(target)
        for name in ("stocks", "comp_prices"):
            original = sorted(
                tuple(r.values) for r in original_db.catalog.table(name).scan()
            )
            recovered = sorted(
                tuple(r.values) for r in db.catalog.table(name).scan()
            )
            assert recovered == original, name
        assert report.wal_records == len(offsets)


class TestRecoverErrors:
    def test_recover_without_checkpoint_raises(self, tmp_path):
        with pytest.raises(PersistenceError):
            recover(Database(), str(tmp_path))

    def test_replay_rejects_unknown_record_kind(self, completed_run, tmp_path):
        wal_dir, _result, _db = completed_run
        target = str(tmp_path / "bad")
        crashed_copy(wal_dir, target, len(MAGIC))
        from repro.persist.wal import WriteAheadLog

        wal = WriteAheadLog(os.path.join(target, WAL_FILE))
        wal.append({"kind": "time_travel", "lsn": 10**9})
        wal.close()
        with pytest.raises(PersistenceError):
            recover(Database(), target, functions=function_registry())


class TestOrphanRetryAccounting:
    """The PR's small fix: started-but-unfinished tasks are re-enqueued
    through retry accounting, not blindly."""

    def _orphaned_dir(self, tmp_path, retries=0):
        wal_dir = str(tmp_path / "orphan")
        persist = PersistenceManager(wal_dir)
        persist.enabled = False
        db = Database(persist=persist)
        db.execute("create table t (k text, grp text, v real)")
        db.register_function("f", lambda ctx: None)
        db.execute(
            "create rule r on t when inserted "
            "if select k, grp, v from inserted bind as m "
            "then execute f unique on grp after 5.0 seconds"
        )
        persist.enabled = True
        persist.checkpoint()
        db.execute("insert into t values ('a', 'g1', 1.0)")
        (task,) = [
            t for t in db.task_manager.delay if t.function_name is not None
        ]
        if retries:
            # Prior fault retries reach the WAL as requeue records (the
            # creation snapshot in the commit record predates them).
            task.retries = retries
            persist.task_requeued(task)
        # The process dies mid-execution: started, never finished.
        persist.task_started(task)
        persist.close()
        return wal_dir, task

    def test_orphan_is_retried_with_backoff(self, tmp_path):
        wal_dir, original = self._orphaned_dir(tmp_path)
        db = Database()
        report = recover(
            db, wal_dir, functions={"f": lambda ctx: None},
            retry=RetryPolicy(max_retries=5, backoff=0.25),
        )
        assert report.orphans_retried == 1
        assert report.orphans_dropped == 0
        (resurrected,) = report.resurrected
        assert resurrected.retries == original.retries + 1
        assert resurrected.release_time >= report.recovered_now + 0.25
        assert resurrected.unique_key == original.unique_key
        # And it actually runs to completion afterwards.
        assert Simulator(db).run() == 1

    def test_orphan_backoff_compounds_with_retries(self, tmp_path):
        wal_dir, _original = self._orphaned_dir(tmp_path, retries=3)
        db = Database()
        report = recover(
            db, wal_dir, functions={"f": lambda ctx: None},
            retry=RetryPolicy(max_retries=5, backoff=0.25, multiplier=2.0),
        )
        (resurrected,) = report.resurrected
        assert resurrected.retries == 4
        assert resurrected.release_time >= report.recovered_now + 0.25 * 2.0**3

    def test_orphan_past_budget_is_dropped(self, tmp_path):
        wal_dir, _original = self._orphaned_dir(tmp_path, retries=5)
        db = Database()
        report = recover(db, wal_dir, functions={"f": lambda ctx: None})
        assert report.orphans_dropped == 1
        assert report.orphans_retried == 0
        assert report.tasks_resurrected == 0
        assert Simulator(db).run() == 0


class TestEndToEndCrash:
    """Injected crashes at every persistence seam, recovered and checked."""

    @pytest.mark.parametrize(
        "plan",
        [
            "wal.append:crash@nth=30",
            "wal.flush:crash@nth=55",
            "checkpoint.write:crash@nth=2",
        ],
    )
    def test_crash_recover_converge(self, tmp_path, plan):
        crashed, oracle = crash_recover_converge(
            VIEW, str(tmp_path / "wal"), scale=MICRO, view="comps", variant="unique",
            delay=1.0, faults=plan, checkpoint_every=2.0,
        )
        assert crashed, plan
        assert oracle.ok, oracle.format()
        assert oracle.rows_checked > 0

    def test_crash_preserves_pending_task_deadlines(self, tmp_path):
        """Resurrected tasks carry their original release deadlines (not
        reset, not re-derived) unless orphaned."""
        wal_dir = str(tmp_path / "wal")
        try:
            VIEW.run(
                scale=MICRO, view="comps", variant="unique", delay=1.0, seed=0,
                wal_dir=wal_dir, faults="wal.append:crash@nth=45",
            )
        except Exception:
            pass  # the injected crash
        db = Database()
        report = recover(db, wal_dir, functions=function_registry())
        records, _valid, _torn = read_wal(os.path.join(wal_dir, WAL_FILE))
        logged = {}
        for record in records:
            for task_record in record.get("tasks_new", []):
                logged[task_record["task_id"]] = task_record
        assert report.tasks_resurrected > 0
        for task in report.resurrected:
            if task.retries:
                continue  # orphans legitimately move their deadline
            match = [
                r for r in logged.values()
                if tuple(r["unique_key"]) == task.unique_key
            ]
            assert match, task.unique_key
            assert task.release_time == match[-1]["release_time"]


class TestNoOverheadInvariant:
    """Persistence must not perturb the simulated experiment at all."""

    @staticmethod
    def check(scale, tmp_path):
        default = VIEW.run(scale=scale, view="comps", variant="unique", delay=1.0, seed=0)
        durable = VIEW.run(
            scale=scale, view="comps", variant="unique", delay=1.0, seed=0,
            wal_dir=str(tmp_path / "wal"), checkpoint_every=2.0,
        )
        default_row = default.row()
        durable_row = {
            k: v for k, v in durable.row().items()
            if k not in ("wal_records", "checkpoints")
        }
        assert durable_row == default_row
        assert durable.end_time == default.end_time
        assert durable.wal_records > 0
        assert durable.checkpoints >= 2  # initial + at least one fuzzy

    def test_wal_run_matches_default_run(self, tmp_path):
        self.check(MICRO, tmp_path)

    def test_wal_run_matches_default_run_at_tiny_scale(self, tmp_path):
        self.check(Scale.tiny(), tmp_path)


class TestLiveVersusReplayedBatches:
    """Differential: the live engine and ``WalApplier`` must agree row for
    row on what every pending batch holds — the live side absorbs (and,
    under ``compact on``, folds) each firing as it commits, the replayed
    side rebuilds the same tasks from the checkpoint and the WAL alone."""

    RULE = (
        "create rule watch on t when updated "
        "if select old.k as k, old.grp as grp, old.v as old_v, new.v as new_v "
        "from old, new where old.execute_order = new.execute_order bind as m "
        "then execute f unique on grp {compact} after 4 seconds"
    )

    @pytest.mark.parametrize("compact", ["", "compact on k"], ids=["plain", "compact"])
    def test_pending_bound_tables_identical(self, tmp_path, compact):
        import random

        from repro.persist.checkpoint import load_snapshot, restore_snapshot
        from repro.persist.recovery import WalApplier

        def install(db):
            db.register_function("f", lambda ctx: None)

        manager = PersistenceManager(str(tmp_path))
        manager.enabled = False
        db = Database(persist=manager)
        db.execute("create table t (k text, grp text, v real)")
        install(db)
        db.execute(self.RULE.format(compact=compact))
        keys = [("a", "g1"), ("b", "g1"), ("c", "g2"), ("d", "g2"), ("e", "g3")]
        for k, grp in keys:
            db.execute("insert into t values (:k, :g, 1.0)", {"k": k, "g": grp})
        manager.enabled = True
        manager.checkpoint()

        rng = random.Random(11)
        for step in range(60):
            # One to three updates per transaction; values come from a small
            # pool so chains return to where they began (net no-ops).
            with db.begin() as txn:
                for k, _grp in rng.sample(keys, rng.randint(1, 3)):
                    txn.execute(
                        "update t set v = :v where k = :k",
                        {"k": k, "v": float(rng.randint(1, 3))},
                    )
            db.advance(0.5)
            if step % 7 == 6:
                # Let the due batches run (and seal): the tasks pending at
                # the end then mix fresh ones with ones absorbed many times.
                Simulator(db).run(until=db.clock.now())
            if step == 30:
                # Mid-run checkpoint: from here the replayed side resurrects
                # half-built batches from the snapshot, then keeps absorbing.
                assert db.unique_manager.pending_count("f")
                manager.checkpoint()
        live = {task.task_id: task for task in db.unique_manager.pending_tasks("f")}
        assert live
        manager.close()

        replica = Database()
        install(replica)
        snapshot = load_snapshot(os.path.join(str(tmp_path), CHECKPOINT_FILE))
        applier = WalApplier(
            replica,
            start_lsn=snapshot["lsn"],
            pending=restore_snapshot(replica, snapshot),
            start_time=snapshot["now"],
        )
        records, _valid, torn = read_wal(os.path.join(str(tmp_path), WAL_FILE))
        assert torn == 0
        for record in records:
            applier.apply(record)

        assert applier.pending.keys() == live.keys()
        folded_away = 0
        for task_id, task in live.items():
            replayed = applier.pending[task_id]
            assert replayed.unique_key == task.unique_key
            for name, table in task.bound_tables.items():
                twin = replayed.bound_tables[name]
                assert list(twin.scan_values()) == list(table.scan_values())
                assert twin.folding == table.folding == bool(compact)
                if compact:
                    assert twin.index == table.index
                    assert twin.rows_in == table.rows_in
                    folded_away += table.rows_in - len(table)
        assert bool(folded_away) == bool(compact)  # the fold really ran


# ------------------------------------------------------- locate by probe


def scan_find(table, values):
    """The reference locator — the table walk replay used to do."""
    for record in table.scan():
        if list(record.values) == values:
            return record
    return None


#: Indexes the generated table ``t (k text, n int, x real)`` may carry.
#: Only ``k`` is ever NULL; both index kinds hold a NULL key.
INDEX_MENU = [
    ("k_hash", ("k",), "hash"),
    ("k_tree", ("k",), "rbtree"),
    ("kn_tree", ("k", "n"), "rbtree"),
    ("n_hash", ("n",), "hash"),
    ("n_tree", ("n",), "rbtree"),
    ("x_hash", ("x",), "hash"),
    ("x_tree", ("x",), "rbtree"),
    ("kn_hash", ("k", "n"), "hash"),
    ("nx_tree", ("n", "x"), "rbtree"),
]
# Small pools: fully duplicate rows, shared keys and re-used images are the
# common case, and 0.1 + 0.2 must survive the log at repr() precision.
_POOLS = {
    "k": st.sampled_from([None, "a", "b"]),
    "n": st.sampled_from([0, 1, 2]),
    "x": st.sampled_from([0.5, 0.1 + 0.2, -1.25]),
}
_ROW = st.tuples(_POOLS["k"], _POOLS["n"], _POOLS["x"])
_COLUMN_VALUE = st.sampled_from(sorted(_POOLS)).flatmap(
    lambda column: st.tuples(st.just(column), _POOLS[column])
)
_TABLE = st.sampled_from(["t", "plain"])  # ``plain`` never has an index
_STEP = st.one_of(
    st.tuples(st.just("insert"), _TABLE, _ROW),
    st.tuples(st.just("update"), _TABLE, _COLUMN_VALUE, _COLUMN_VALUE),
    st.tuples(st.just("delete"), _TABLE, _COLUMN_VALUE),
    st.tuples(st.just("reinsert"), _TABLE, _ROW),
    st.tuples(st.just("touch"), _TABLE, st.integers(0, 40), _COLUMN_VALUE),
    st.tuples(st.just("index"), st.integers(0, len(INDEX_MENU) - 1)),
)


def _equals(column, value, param):
    return f"{column} is null" if value is None else f"{column} = :{param}"


def _toggle_index(db, position):
    name, columns, kind = INDEX_MENU[position]
    if name in db.catalog.table("t").indexes:
        db.execute(f"drop index {name} on t")
    else:
        db.execute(f"create index {name} on t ({', '.join(columns)}) using {kind}")


def _run_step(db, step):
    kind, table = step[0], step[1]
    if kind == "insert":
        k, n, x = step[2]
        db.execute(f"insert into {table} values (:k, :n, :x)", {"k": k, "n": n, "x": x})
    elif kind == "update":
        (column, value), (where, wanted) = step[2], step[3]
        db.execute(
            f"update {table} set {column} = :v where {_equals(where, wanted, 'w')}",
            {"v": value, "w": wanted},
        )
    elif kind == "delete":
        where, wanted = step[2]
        db.execute(f"delete from {table} where {_equals(where, wanted, 'w')}", {"w": wanted})
    elif kind == "touch":
        # One record through the cursor path, as the Table 1 feed writes.  SQL
        # cannot tell the copies of a duplicated row apart, so only this step
        # shows *which* copy replay picks; aimed at the first copy of its
        # image, the primary stays the in-order reference.
        target = db.catalog.table(table)
        records = list(target.scan())
        if records:
            image = records[step[2] % len(records)].values
            first = next(record for record in records if record.values == image)
            column, value = step[3]
            with db.begin() as txn:
                txn.update_columns(target, first, {column: value})
    else:  # delete every copy of an image and put one back, in one commit
        k, n, x = step[2]
        params = {"k": k, "n": n, "x": x}
        with db.begin() as txn:
            txn.execute(
                f"delete from {table} where n = :n and x = :x and {_equals('k', k, 'k')}",
                params,
            )
            txn.execute(f"insert into {table} values (:k, :n, :x)", params)


def _rows_in_order(db):
    return {
        table.name: [record.values for record in table.scan()]
        for table in db.catalog.tables()
    }


def _index_names(db):
    return {table.name: sorted(table.indexes) for table in db.catalog.tables()}


def _assert_indexes_agree_with_a_scan(db):
    """Every bucket holds the scanned records under its key, in scan order."""
    for table in db.catalog.tables():
        scanned = list(table.scan())
        assert all(record.in_table for record in scanned)
        for index in table.indexes.values():
            assert len(index) == len(scanned)
            by_key: dict = {}
            for record in scanned:
                by_key.setdefault(index.key_of(record.values), []).append(record)
            assert index.key_count() == len(by_key)
            for key, records in by_key.items():
                assert list(index.lookup(key)) == records


def _checkpoint_bytes(db, path):
    write_snapshot(build_snapshot(db, 0), path)
    with open(path, "rb") as handle:
        return handle.read()


class TestLocateByProbe:
    """Redo finds its row by probing the replica's own index
    (``Table.find``); held here to the scan it replaced and to the live
    primary."""

    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        initial_indexes=st.lists(
            st.integers(0, len(INDEX_MENU) - 1), max_size=3, unique=True
        ),
        initial_rows=st.lists(st.tuples(_TABLE, _ROW), max_size=6),
        steps=st.lists(_STEP, min_size=1, max_size=25),
    )
    def test_probe_agrees_with_scan_and_with_the_primary(
        self, initial_indexes, initial_rows, steps
    ):
        with tempfile.TemporaryDirectory(prefix="repro-probe-") as wal_dir:
            manager = PersistenceManager(wal_dir)
            manager.enabled = False
            primary = Database(persist=manager)
            for name in ("t", "plain"):
                primary.execute(f"create table {name} (k text, n int, x real)")
            for table, row in initial_rows:
                _run_step(primary, ("insert", table, row))
            for position in initial_indexes:
                _toggle_index(primary, position)
            manager.enabled = True
            manager.checkpoint()
            standby = Standby("r0", wal_dir)  # bootstraps from the first checkpoint

            shipped = []  # every record ever logged, across re-checkpoints
            for step in steps:
                if step[0] == "index":
                    # Index DDL never reaches the log: re-checkpoint makes it
                    # durable (and truncates, so collect the records first).
                    _toggle_index(primary, step[1])
                    shipped.extend(read_wal(manager.wal_path)[0])
                    manager.checkpoint()
                else:
                    _run_step(primary, step)
            manager.close()
            shipped.extend(read_wal(manager.wal_path)[0])
            expected = _rows_in_order(primary)

            recovered = Database()
            report = recover(recovered, wal_dir)
            assert _rows_in_order(recovered) == expected
            _assert_indexes_agree_with_a_scan(recovered)
            assert _index_names(recovered) == _index_names(primary)

            for start in range(0, len(shipped), 3):
                standby.receive(shipped[start:start + 3], arrival=float(start))
            assert standby.applied_lsn == manager.next_lsn - 1
            assert _rows_in_order(standby.db) == expected
            _assert_indexes_agree_with_a_scan(standby.db)

            reference = Database()
            with mock.patch.object(Table, "find", scan_find):
                reference_report = recover(reference, wal_dir)
            assert reference_report.ops_applied == report.ops_applied
            assert _checkpoint_bytes(recovered, os.path.join(wal_dir, "probe.json")) == (
                _checkpoint_bytes(reference, os.path.join(wal_dir, "scan.json"))
            )

    def test_stale_image_is_a_typed_miss(self):
        """Updated twice, first image replayed: the row that image names is
        gone, and replay says so in the parent's words."""
        db = Database()
        db.execute("create table t (k text, v real)")
        db.execute("create index t_k on t (k)")
        db.execute("insert into t values ('a', 1.0), ('b', 1.0)")
        applier = WalApplier(db, start_lsn=0)

        def commit(lsn, *ops):
            return {
                "kind": "commit", "lsn": lsn, "time": 0.0, "ops": list(ops),
                "tasks_new": [], "absorbs": [], "finished_task": None,
            }

        def update(old, new):
            return {"op": "update", "table": "t", "old": old, "new": new}

        applier.apply(commit(1, update(["a", 1.0], ["a", 2.0])))
        applier.apply(commit(2, update(["a", 2.0], ["a", 3.0])))
        with pytest.raises(PersistenceError) as raised:
            applier.apply(commit(3, update(["a", 1.0], ["a", 4.0])))
        assert str(raised.value) == (
            "replay: no row in 't' matches update image ['a', 1.0]"
        )
        with pytest.raises(PersistenceError) as raised:
            applier.apply(commit(3, {"op": "delete", "table": "t", "values": ["c", 1.0]}))
        assert str(raised.value) == (
            "replay: no row in 't' matches delete image ['c', 1.0]"
        )
        assert applier.applied_lsn == 2  # a refused record is not applied
        assert sorted(r.values for r in db.catalog.table("t").scan()) == [
            ["a", 3.0], ["b", 1.0],
        ]


# --------------------------------------------------- replay work, counted


def _durable_tiny_run(wal_dir):
    """A ``Scale.tiny()`` comps / ``unique`` run: final db and WAL records."""
    result = VIEW.run(
        scale=Scale.tiny(), view="comps", variant="unique", delay=1.0, seed=0,
        wal_dir=wal_dir,
    )
    records, _valid, torn = read_wal(os.path.join(wal_dir, WAL_FILE))
    assert torn == 0
    return result.run.db, records


class TestReplayWorkCounted:
    """What replaying one write costs, counted from outside, not timed: one
    index probe and about one compared row per located row — the work is
    proportional to the log, never to the table."""

    @pytest.fixture
    def counts(self, monkeypatch):
        """Calls of ``Table.scan`` / ``HashIndex.lookup`` made from inside
        ``WalApplier.apply`` (bootstrap and verification are not replay)."""
        counts: Counter = Counter()
        applying = [0]
        apply = WalApplier.apply

        def scoped_apply(self, record):
            applying[0] += 1
            try:
                return apply(self, record)
            finally:
                applying[0] -= 1

        monkeypatch.setattr(WalApplier, "apply", scoped_apply)
        for owner, name in ((Table, "scan"), (HashIndex, "lookup")):
            def counted(*args, _original=getattr(owner, name), _key=name):
                counts[_key] += applying[0]
                return _original(*args)

            monkeypatch.setattr(owner, name, counted)
        return counts

    def test_replay_probes_and_never_walks_a_table(self, tmp_path, counts):
        wal_dir = str(tmp_path)
        primary, records = _durable_tiny_run(wal_dir)
        located = sum(
            op["op"] != "insert"
            for record in records if record["kind"] == "commit"
            for op in record["ops"]
        )
        assert located > 500  # stocks and comp_prices updates

        recovered = Database()
        report = recover(recovered, wal_dir, functions=function_registry())
        # A standby boots through the same durable tail, the same way.
        standby = Standby("r0", wal_dir, functions=function_registry())

        assert +counts == {"lookup": 2 * located}  # once per located row; no scan
        for replayed, its_report in ((recovered, report), (standby.db, standby.report)):
            assert its_report.ops_applied >= located
            assert located <= its_report.rows_examined <= 1.05 * its_report.ops_applied
            assert check_replica_equivalence(primary, replayed).ok

    def test_without_an_index_replay_falls_back_to_the_scan(
        self, tmp_path, counts, monkeypatch
    ):
        checkpoint = PersistenceManager.checkpoint

        def drop_every_index_first(self):
            for table in self._db.catalog.tables():
                for name in list(table.indexes):
                    table.drop_index(name)
            return checkpoint(self)

        monkeypatch.setattr(PersistenceManager, "checkpoint", drop_every_index_first)
        wal_dir = str(tmp_path)
        primary, _records = _durable_tiny_run(wal_dir)

        recovered = Database()
        report = recover(recovered, wal_dir, functions=function_registry())
        assert not any(table.indexes for table in recovered.catalog.tables())
        assert check_replica_equivalence(primary, recovered).ok
        assert counts["lookup"] == 0
        assert counts["scan"] > 500  # one table walk per located row
        assert report.rows_examined > 20 * report.ops_applied
