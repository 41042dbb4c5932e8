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

import pytest

from repro.database import Database
from repro.errors import PersistenceError
from repro.fault import RetryPolicy, check_convergence
from repro.persist import recover
from repro.persist.manager import WAL_FILE, PersistenceManager
from repro.persist.checkpoint import CHECKPOINT_FILE
from repro.persist.wal import MAGIC, iter_frames, read_wal
from repro.pta.distributed import crash_recover_converge
from repro.pta.rules import function_registry
from repro.pta.tables import Scale
from repro.pta.workload import run_experiment
from repro.sim.simulator import Simulator

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
    db_out = []
    result = run_experiment(
        MICRO, "comps", "unique", delay=1.0, seed=0,
        wal_dir=wal_dir, db_out=db_out,
    )
    return wal_dir, result, db_out[0]


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
        result = crash_recover_converge(
            MICRO, str(tmp_path / "wal"), view="comps", variant="unique",
            delay=1.0, faults=plan, checkpoint_every=2.0,
        )
        assert result.crashed, plan
        assert result.ok, result.describe()
        assert result.recovery is not None
        assert result.oracle.rows_checked > 0

    def test_crash_preserves_pending_task_deadlines(self, tmp_path):
        """Resurrected tasks carry their original release deadlines (not
        reset, not re-derived) unless orphaned."""
        wal_dir = str(tmp_path / "wal")
        try:
            run_experiment(
                MICRO, "comps", "unique", delay=1.0, seed=0,
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

    def test_wal_run_matches_default_run(self, tmp_path):
        default = run_experiment(MICRO, "comps", "unique", delay=1.0, seed=0)
        durable = run_experiment(
            MICRO, "comps", "unique", delay=1.0, seed=0,
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
