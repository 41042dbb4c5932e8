"""Standby tests: continuous apply, reorder buffering, idempotence, lag.

The fixture is a real completed primary run (checkpoint + WAL on disk).
A standby boots through whatever durable WAL tail its directory holds, so
the standbys here boot from a directory holding the checkpoint only and
are fed the WAL's records by hand, which lets every delivery order —
in-order, gapped, stale, overlapping — be staged precisely.
"""

import os
import shutil

import pytest

from repro.errors import PersistenceError
from repro.persist.checkpoint import CHECKPOINT_FILE
from repro.persist.manager import WAL_FILE
from repro.persist.wal import WriteAheadLog, read_wal
from repro.pta.rules import function_registry
from repro.pta.tables import Scale
from repro.pta.workload import VIEW
from repro.replic import Standby, check_replica_equivalence

MICRO = Scale(
    n_stocks=12, n_comps=3, stocks_per_comp=4,
    n_options=10, duration=8.0, n_updates=60,
)


@pytest.fixture(scope="module")
def primary_run(tmp_path_factory):
    """A completed persistence-on run: a directory holding its checkpoint
    only, the final db, and the WAL records the checkpoint does not hold."""
    wal_dir = str(tmp_path_factory.mktemp("repl-primary"))
    result = VIEW.run(
        scale=MICRO, view="comps", variant="unique", delay=1.0, seed=0,
        wal_dir=wal_dir,
    )
    records, _valid, _torn = read_wal(os.path.join(wal_dir, WAL_FILE))
    assert len(records) >= 40
    boot_dir = str(tmp_path_factory.mktemp("repl-checkpoint-only"))
    shutil.copy(os.path.join(wal_dir, CHECKPOINT_FILE), boot_dir)
    return boot_dir, result.run.db, records


def make_standby(wal_dir, name="r0"):
    return Standby(name, wal_dir, functions=function_registry())


def chunks(records, size):
    return [records[i : i + size] for i in range(0, len(records), size)]


class TestContinuousApply:
    def test_in_order_apply_reaches_primary_state(self, primary_run):
        wal_dir, primary_db, records = primary_run
        standby = make_standby(wal_dir)
        arrival = 0.0
        for chunk in chunks(records, 8):
            arrival += 0.1
            standby.receive(chunk, arrival)
        assert standby.applied_lsn == records[-1]["lsn"]
        assert standby.applied_records == len(records)
        report = check_replica_equivalence(primary_db, standby.db)
        assert report.ok, report.format()

    def test_commit_lag_is_recorded(self, primary_run):
        wal_dir, _primary_db, records = primary_run
        standby = make_standby(wal_dir)
        commit_time = max(r["time"] for r in records if r["kind"] == "commit")
        standby.receive(records, commit_time + 2.0)
        assert standby.lag_hist.count > 0
        assert standby.lag_hist.min >= 0.0
        # Freshness vs. the primary clock: applied up to commit_time, so a
        # primary at commit_time + 5 sees exactly 5s of staleness.
        assert standby.lag_behind(commit_time + 5.0) == pytest.approx(5.0)


class TestReordering:
    def test_gapped_frame_is_parked_then_drained(self, primary_run):
        wal_dir, _primary_db, records = primary_run
        standby = make_standby(wal_dir)
        first, second = records[:8], records[8:16]
        standby.receive(second, 1.0)  # arrives before its predecessor
        assert standby.applied_lsn == first[0]["lsn"] - 1
        assert standby.frames_buffered == 1
        standby.receive(first, 2.0)  # the gap fills; both frames apply
        assert standby.applied_lsn == second[-1]["lsn"]
        assert not standby.buffer

    def test_stale_retransmit_is_a_noop(self, primary_run):
        wal_dir, _primary_db, records = primary_run
        standby = make_standby(wal_dir)
        standby.receive(records[:8], 1.0)
        applied = standby.applied_records
        standby.receive(records[:8], 2.0)
        assert standby.frames_stale == 1
        assert standby.applied_records == applied

    def test_overlapping_retransmit_applies_only_the_new_suffix(
        self, primary_run
    ):
        wal_dir, _primary_db, records = primary_run
        standby = make_standby(wal_dir)
        standby.receive(records[:8], 1.0)
        standby.receive(records[4:12], 2.0)  # 4..8 already applied
        assert standby.applied_lsn == records[11]["lsn"]
        assert standby.applied_records == 12


class TestReads:
    def test_serves_select_from_own_catalog(self, primary_run):
        wal_dir, primary_db, records = primary_run
        standby = make_standby(wal_dir)
        standby.receive(records, 1.0)
        rows = standby.read("select count(*) as n from stocks")
        expected = primary_db.query("select count(*) as n from stocks")
        assert rows.dicts() == expected.dicts()


class TestBootstrap:
    def test_missing_checkpoint_raises(self, tmp_path):
        with pytest.raises(PersistenceError):
            Standby("r0", str(tmp_path))

    def test_boots_through_the_durable_tail_as_recovery_does(
        self, primary_run, tmp_path
    ):
        """Checkpoint + WAL in the directory: the standby starts at the newest
        durable record, row-identical to the primary, having been shipped
        nothing — and a retransmission of that tail is stale."""
        boot_dir, primary_db, records = primary_run
        shutil.copy(os.path.join(boot_dir, CHECKPOINT_FILE), tmp_path)
        wal = WriteAheadLog(tmp_path / WAL_FILE)
        for record in records:
            wal.append(record)
        wal.close()
        standby = make_standby(str(tmp_path))
        assert standby.applied_lsn == records[-1]["lsn"]
        assert standby.report.records_replayed == len(records)
        assert standby.applied_records == 0
        assert standby.last_commit_time == max(
            r["time"] for r in records if r["kind"] == "commit"
        )
        report = check_replica_equivalence(primary_db, standby.db)
        assert report.ok, report.format()
        standby.receive(records[-8:], 1.0)
        assert standby.frames_stale == 1 and standby.applied_records == 0


class TestPromotion:
    def test_promote_discards_unfillable_buffer(self, primary_run):
        wal_dir, _primary_db, records = primary_run
        standby = make_standby(wal_dir)
        standby.receive(records[:8], 1.0)
        standby.receive(records[16:24], 1.5)  # gapped: 8..16 never arrive
        assert standby.frames_buffered == 1
        standby.promote()
        assert standby.promoted
        assert standby.discarded_frames == 1
        assert not standby.buffer
        assert standby.applied_lsn == records[7]["lsn"]
