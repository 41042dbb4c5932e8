"""Property test: WAL replay is idempotent under prefix + overlap re-apply.

Replication's central soundness claim is that retransmission is safe:
however the go-back-N protocol slices, repeats, and overlaps the record
stream, a standby that applies a prefix and then re-applies an
overlapping range ends up in exactly the state of a standby that applied
the stream once, cleanly.  Hypothesis drives the slicing.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.database import Database
from repro.persist.checkpoint import CHECKPOINT_FILE, load_snapshot, restore_snapshot
from repro.persist.manager import WAL_FILE
from repro.persist.recovery import WalApplier
from repro.persist.wal import read_wal
from repro.pta.rules import function_registry
from repro.pta.tables import Scale
from repro.pta.workload import VIEW
from repro.replic import check_replica_equivalence

#: Small on purpose: every hypothesis example replays the WAL twice.
NANO = Scale(
    n_stocks=8, n_comps=2, stocks_per_comp=3,
    n_options=6, duration=5.0, n_updates=25,
)


@pytest.fixture(scope="module")
def wal_run(tmp_path_factory):
    wal_dir = str(tmp_path_factory.mktemp("replay-wal"))
    VIEW.run(scale=NANO, view="comps", variant="unique", delay=1.0, seed=0, wal_dir=wal_dir)
    records, _valid, _torn = read_wal(os.path.join(wal_dir, WAL_FILE))
    assert len(records) >= 20
    return wal_dir, records


def fresh_applier(wal_dir):
    """Bootstrap a database + applier from the checkpoint, as a standby does."""
    db = Database()
    for name, fn in function_registry().items():
        db.functions.register(name, fn, replace=True)
    snapshot = load_snapshot(os.path.join(wal_dir, CHECKPOINT_FILE))
    pending = restore_snapshot(db, snapshot)
    applier = WalApplier(
        db,
        start_lsn=snapshot["lsn"],
        pending=pending,
        start_time=snapshot["now"],
    )
    return db, applier


def state_of(db, applier):
    return (
        applier.applied_lsn,
        sorted(applier.pending),
        sorted(applier.running),
        applier.max_time,
    )


class TestReplayIdempotence:
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_prefix_then_overlap_equals_one_clean_pass(self, wal_run, data):
        wal_dir, records = wal_run
        n = len(records)
        cut = data.draw(st.integers(0, n), label="prefix end")
        back = data.draw(st.integers(0, cut), label="re-apply start")

        db_messy, messy = fresh_applier(wal_dir)
        for record in records[:cut]:
            messy.apply(record)
        for record in records[back:]:
            messy.apply(record)

        db_clean, clean = fresh_applier(wal_dir)
        applied = sum(clean.apply(record) for record in records)
        assert applied == n  # a clean pass applies every record exactly once

        assert state_of(db_messy, messy) == state_of(db_clean, clean)
        report = check_replica_equivalence(db_clean, db_messy)
        assert report.ok, report.format()

    def test_double_full_replay_applies_nothing_twice(self, wal_run):
        wal_dir, records = wal_run
        db, applier = fresh_applier(wal_dir)
        assert sum(applier.apply(r) for r in records) == len(records)
        assert sum(applier.apply(r) for r in records) == 0  # all skipped
        db_clean, clean = fresh_applier(wal_dir)
        for record in records:
            clean.apply(record)
        assert check_replica_equivalence(db_clean, db).ok
