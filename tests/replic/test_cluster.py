"""Cluster tests: end-to-end replicated runs, commit modes, read routing."""

import pytest

from repro.database import Database
from repro.errors import PersistenceError
from repro.persist.manager import PersistenceManager
from repro.pta.distributed import run_replicated_experiment
from repro.pta.tables import Scale
from repro.replic import (
    NetworkConfig,
    ReplicationCluster,
    ReplicationError,
    check_replica_equivalence,
)

MICRO = Scale(
    n_stocks=12, n_comps=3, stocks_per_comp=4,
    n_options=10, duration=8.0, n_updates=60,
)


@pytest.fixture(scope="module")
def async_run():
    db_out, cluster_out = [], []
    result = run_replicated_experiment(
        MICRO, replicas=2, mode="async",
        db_out=db_out, cluster_out=cluster_out,
    )
    return result, db_out[0], cluster_out[0]


class TestAsyncMode:
    def test_converges_with_identical_replicas(self, async_run):
        result, _db, _cluster = async_run
        assert not result.crashed
        assert result.oracle_report.ok
        assert set(result.equivalence_reports) == {"r0", "r1"}
        assert all(r.ok for r in result.equivalence_reports.values())
        assert result.converged

    def test_clean_network_never_resends_or_waits(self, async_run):
        result, _db, _cluster = async_run
        assert result.resent_frames == 0
        assert result.send_dropped == result.ack_dropped == 0
        assert result.commit_waits == 0  # async commits never block
        assert result.shipped_bytes > 0

    def test_replicas_report_apply_lag(self, async_run):
        result, _db, _cluster = async_run
        for stats in result.replica_stats:
            assert stats["apply_lag"]["count"] > 0
            # One-way latency (20ms default) bounds the best-case lag.
            assert stats["apply_lag"]["min"] >= 0.02

    def test_async_matches_unreplicated_timing(self, async_run):
        """Shipping rides between tasks: the primary's virtual end time
        must equal a plain (persistence-only) run of the same workload."""
        from repro.pta.workload import run_experiment

        result, _db, _cluster = async_run
        import tempfile

        baseline = run_experiment(
            MICRO, "comps", "unique", delay=1.0, seed=0,
            wal_dir=tempfile.mkdtemp(prefix="repro-baseline-"),
        )
        assert result.end_time == pytest.approx(baseline.end_time)


class TestSemisyncMode:
    def test_commits_wait_for_the_first_ack(self):
        result = run_replicated_experiment(
            MICRO, replicas=2, mode="semisync",
            network=NetworkConfig(latency=0.02, bandwidth=1e9),
        )
        assert result.converged
        assert result.commit_waits > 0
        # Each wait is at least the frame's flight plus the ack's flight.
        assert result.commit_wait_mean >= 2 * 0.02

    def test_semisync_pays_latency_async_does_not(self):
        fast = run_replicated_experiment(MICRO, replicas=1, mode="async")
        slow = run_replicated_experiment(MICRO, replicas=1, mode="semisync")
        assert slow.end_time > fast.end_time
        assert fast.commit_wait_total == 0.0
        assert slow.commit_wait_total > 0.0


class TestLossyNetwork:
    def test_drops_and_reorders_still_converge(self):
        result = run_replicated_experiment(
            MICRO, replicas=2,
            network=NetworkConfig(
                latency=0.02, jitter=0.01, drop=0.1, reorder=0.3
            ),
            net_seed=4,
        )
        assert result.converged
        assert result.send_dropped + result.ack_dropped > 0
        assert result.resent_frames > 0

    def test_network_fault_plan_drives_the_seams(self):
        result = run_replicated_experiment(
            MICRO, replicas=2,
            faults="ship.send:drop@p=0.05;ship.ack:drop@p=0.05;"
            "apply.frame:drop@p=0.02",
            fault_seed=7,
        )
        assert result.converged
        assert result.faults_injected > 0
        assert result.send_dropped + result.ack_dropped > 0


class TestReadRouting:
    def test_reads_round_robin_standbys_and_fall_back(self, async_run):
        _result, db, cluster = async_run
        sql = "select count(*) as n from stocks"
        expected = db.query(sql).dicts()
        before = cluster.reads_standby
        assert cluster.read(sql).dicts() == expected
        assert cluster.read(sql).dicts() == expected
        assert cluster.reads_standby == before + 2
        # Read-your-writes past every replica's applied LSN: only the
        # primary can answer.
        top = max(s.applied_lsn for s in cluster.standbys)
        primary_before = cluster.reads_primary
        assert cluster.read(sql, min_lsn=top + 1).dicts() == expected
        assert cluster.reads_primary == primary_before + 1

    def test_min_lsn_at_applied_watermark_uses_a_standby(self, async_run):
        _result, _db, cluster = async_run
        watermark = min(s.applied_lsn for s in cluster.standbys)
        before = cluster.reads_standby
        cluster.read("select count(*) as n from stocks", min_lsn=watermark)
        assert cluster.reads_standby == before + 1


@pytest.fixture
def durable(tmp_path):
    """Factory for a small durable primary — ``t (k int, v real)``, indexed
    on ``k``, five rows, none of it logged.  Every manager it opened is
    closed at teardown (a refused cluster never owned it)."""
    managers = []

    def make(enabled=True, **kwargs):
        persist = PersistenceManager(str(tmp_path), sync=False, **kwargs)
        managers.append(persist)
        persist.enabled = False  # set-up goes into the checkpoint, as in the harnesses
        db = Database(persist=persist)
        db.execute("create table t (k int, v real)")
        db.execute("create index t_k on t (k)")
        for k in range(5):
            db.execute("insert into t values (:k, 0.0)", {"k": k})
        persist.enabled = enabled
        return db, persist

    yield make
    for persist in managers:
        persist.close()


class TestConfigurationGuards:
    def test_periodic_checkpoints_are_forbidden(self, durable):
        db, persist = durable(checkpoint_every=5.0)
        with pytest.raises(ReplicationError, match="checkpoint"):
            ReplicationCluster(db, persist, replicas=1)

    def test_unknown_mode_rejected(self, durable):
        db, persist = durable()
        with pytest.raises(ReplicationError, match="repl-mode"):
            ReplicationCluster(db, persist, replicas=1, mode="sync")

    def test_zero_replicas_rejected(self, durable):
        db, persist = durable()
        with pytest.raises(ReplicationError, match="replica"):
            ReplicationCluster(db, persist, replicas=0)

    def test_disarmed_persistence_rejected(self, durable):
        db, persist = durable(enabled=False)  # still in setup
        with pytest.raises(ReplicationError, match="armed"):
            ReplicationCluster(db, persist, replicas=1)


class TestCheckpointsAndAttachment:
    """The WAL is pinned while replicas are attached, and replicas may
    attach to a primary that has committed since its checkpoint."""

    @pytest.fixture
    def primary(self, durable):
        return durable()

    @staticmethod
    def bump(db, k, v):
        db.execute("update t set v = :v where k = :k", {"k": k, "v": v})

    @staticmethod
    def assert_converged(db, persist, cluster):
        cluster.finish()
        for standby in cluster.standbys:
            assert standby.applied_lsn == persist.next_lsn - 1
            assert check_replica_equivalence(db, standby.db).ok

    def test_checkpoint_is_refused_while_replicas_are_attached(self, primary):
        db, persist = primary
        cluster = ReplicationCluster(db, persist, replicas=1)
        self.bump(db, 0, 1.0)
        cluster.pump(db.clock.now())
        with open(persist.wal_path, "rb") as handle:
            before = handle.read()
        with pytest.raises(PersistenceError, match="replicas are attached"):
            persist.checkpoint()
        with open(persist.wal_path, "rb") as handle:
            assert handle.read() == before  # not truncated under the shipper
        self.bump(db, 1, 2.0)
        self.bump(db, 2, 3.0)
        assert persist.next_lsn - 1 == 3
        self.assert_converged(db, persist, cluster)

    def test_replicas_attach_after_commits_since_the_checkpoint(self, primary):
        db, persist = primary
        persist.checkpoint()
        self.bump(db, 0, 1.0)  # lsn 1: in the WAL, not in the checkpoint
        cluster = ReplicationCluster(db, persist, replicas=2)
        assert cluster.shipper.first_lsn == 1
        self.bump(db, 1, 2.0)
        self.assert_converged(db, persist, cluster)

    def test_attach_skips_records_the_checkpoint_already_reflects(self, primary):
        """A crash between checkpoint write and WAL truncation leaves the
        head of the log at or below the checkpoint's LSN."""
        db, persist = primary
        persist.checkpoint()
        self.bump(db, 0, 1.0)
        self.bump(db, 1, 2.0)
        with open(persist.wal_path, "rb") as handle:
            untruncated = handle.read()
        persist.checkpoint()  # reflects lsn 1-2 ...
        with open(persist.wal_path, "wb") as handle:
            handle.write(untruncated)  # ... which the log still holds
        self.bump(db, 2, 3.0)
        cluster = ReplicationCluster(db, persist, replicas=1)
        assert cluster.shipper.poll_wal() == 1  # lsn 3 only
        assert cluster.shipper.first_lsn == 3
        self.assert_converged(db, persist, cluster)
