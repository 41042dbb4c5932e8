"""Cluster tests: end-to-end replicated runs, commit modes."""

import builtins

import pytest

from repro.database import Database
from repro.errors import InjectedCrashError
from repro.fault import FaultInjector, check_convergence
from repro.persist import bootstrap, recover
from repro.persist.manager import WAL_FILE, PersistenceManager
from repro.pta.distributed import REPLICATED
from repro.pta.rules import function_registry
from repro.pta.scaffold import OUTCOME, ExperimentRun, Result
from repro.pta.tables import Scale
from repro.pta.workload import populate_trace, trace_tasks, view_rule
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
    result = REPLICATED.run(
        scale=MICRO, replicas=2, mode="async",
    )
    return result, result.run.db, result.cluster


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
        from repro.pta.workload import VIEW

        result, _db, _cluster = async_run
        import tempfile

        baseline = VIEW.run(
            scale=MICRO, view="comps", variant="unique", delay=1.0, seed=0,
            wal_dir=tempfile.mkdtemp(prefix="repro-baseline-"),
        )
        assert result.end_time == pytest.approx(baseline.end_time)


class TestSemisyncMode:
    def test_commits_wait_for_the_first_ack(self):
        result = REPLICATED.run(
            scale=MICRO, replicas=2, mode="semisync",
            network=NetworkConfig(latency=0.02, bandwidth=1e9),
        )
        assert result.converged
        assert result.commit_waits > 0
        # Each wait is at least the frame's flight plus the ack's flight.
        assert result.commit_wait_mean >= 2 * 0.02

    def test_semisync_pays_latency_async_does_not(self):
        fast = REPLICATED.run(scale=MICRO, replicas=1, mode="async")
        slow = REPLICATED.run(scale=MICRO, replicas=1, mode="semisync")
        assert slow.end_time > fast.end_time
        assert fast.commit_wait_total == 0.0
        assert slow.commit_wait_total > 0.0


class TestLossyNetwork:
    def test_drops_and_reorders_still_converge(self):
        result = REPLICATED.run(
            scale=MICRO, replicas=2,
            network=NetworkConfig(
                latency=0.02, jitter=0.01, drop=0.1, reorder=0.3
            ),
            net_seed=4,
        )
        assert result.converged
        assert result.send_dropped + result.ack_dropped > 0
        assert result.resent_frames > 0

    def test_network_fault_plan_drives_the_seams(self):
        result = REPLICATED.run(
            scale=MICRO, replicas=2,
            faults="ship.send:drop@p=0.05;ship.ack:drop@p=0.05;"
            "apply.frame:drop@p=0.02",
            fault_seed=7,
        )
        assert result.converged
        assert result.faults_injected > 0
        assert result.send_dropped + result.ack_dropped > 0


@pytest.fixture
def durable(tmp_path):
    """Factory for a small durable primary — ``t (k int, v real)``, indexed
    on ``k``, five rows, none of it logged.  Every manager it opened is
    closed at teardown (a refused cluster never owned it)."""
    managers = []

    def make(enabled=True, faults=None, **kwargs):
        persist = PersistenceManager(str(tmp_path), sync=False, **kwargs)
        managers.append(persist)
        persist.enabled = False  # set-up goes into the checkpoint, as in the harnesses
        injector = FaultInjector(faults, seed=0) if faults else None
        db = Database(persist=persist, faults=injector)
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


def bump(db, k, v):
    db.execute("update t set v = :v where k = :k", {"k": k, "v": v})


def rows_in_order(db):
    return {
        table.name: [record.values for record in table.scan()]
        for table in db.catalog.tables()
    }


class TestCheckpointsAndAttachment:
    """A standby boots the way recovery does — checkpoint, then the durable
    WAL tail — so replicas may attach to a primary that has committed since
    its checkpoint, and they start at its newest durable record."""

    @pytest.fixture
    def primary(self, durable):
        return durable()

    @staticmethod
    def assert_converged(db, persist, cluster):
        cluster.finish()
        for standby in cluster.standbys:
            assert standby.applied_lsn == persist.next_lsn - 1
            assert check_replica_equivalence(db, standby.db).ok

    def test_replicas_attach_after_commits_since_the_checkpoint(self, primary):
        db, persist = primary
        persist.checkpoint()
        bump(db, 0, 1.0)  # lsn 1: in the WAL, not in the checkpoint
        cluster = ReplicationCluster(db, persist, replicas=2)
        assert [standby.applied_lsn for standby in cluster.standbys] == [1, 1]
        assert cluster.shipper.first_lsn == 2 and not cluster.shipper.records
        bump(db, 1, 2.0)
        self.assert_converged(db, persist, cluster)

    def test_attach_skips_records_the_checkpoint_already_reflects(self, primary):
        """A crash between checkpoint write and WAL truncation leaves the
        head of the log at or below the checkpoint's LSN."""
        db, persist = primary
        persist.checkpoint()
        bump(db, 0, 1.0)
        bump(db, 1, 2.0)
        with open(persist.wal_path, "rb") as handle:
            untruncated = handle.read()
        persist.checkpoint()  # reflects lsn 1-2 ...
        with open(persist.wal_path, "wb") as handle:
            handle.write(untruncated)  # ... which the log still holds
        bump(db, 2, 3.0)
        cluster = ReplicationCluster(db, persist, replicas=1)
        standby = cluster.standbys[0]
        assert standby.report.wal_records == 3
        assert standby.report.records_replayed == 1  # lsn 3 only
        assert cluster.shipper.first_lsn == 4
        self.assert_converged(db, persist, cluster)


LOSSY = NetworkConfig(latency=0.02, jitter=0.01, drop=0.05, reorder=0.2)
STEPS = 90


def run_script(db, persist, mode, replicas, network, scenario):
    """Inserts, updates and deletes 30 ms apart, pumped after each as the
    simulator's post-task hooks would; returns the cluster, not yet quiesced."""

    def attach():
        return ReplicationCluster(
            db, persist, replicas=replicas, mode=mode, network=network, net_seed=3
        )

    persist.checkpoint()
    cluster = None if scenario == "late-attach" else attach()
    for step in range(STEPS):
        if step == STEPS // 3 and cluster is None:
            cluster = attach()  # 30 commits since the checkpoint
        # A semi-sync commit's wait is the committing task's time.
        waited = cluster.commit_wait_total if cluster is not None else 0.0
        db.clock.set_base((step + 1) * 0.03 + waited)
        if step % 7 == 3:
            db.execute("insert into t values (:k, :v)", {"k": 100 + step, "v": 0.5})
        elif step % 11 == 5:
            db.execute("delete from t where k = :k", {"k": 100 + step - 2})
        else:
            bump(db, step % 5, float(step))
        if cluster is not None:
            cluster.pump(db.clock.base)
        persist.maybe_checkpoint()  # between tasks, as the simulator does
        if scenario == "checkpoint" and step in (STEPS // 3, 2 * STEPS // 3):
            persist.checkpoint()
    return cluster


class TestHandOffAgainstTheDirectory:
    """Live-vs-``WalApplier`` differential over the hand-off: whatever the
    checkpoints did to the file meanwhile, every standby (fed by the flush),
    a recovered database (fed by the directory) and the primary hold the
    same rows in the same order."""

    @pytest.mark.parametrize("scenario", ["plain", "checkpoint", "periodic", "late-attach"])
    @pytest.mark.parametrize("network", [NetworkConfig(), LOSSY], ids=["clean", "lossy"])
    @pytest.mark.parametrize("replicas", [1, 2])
    @pytest.mark.parametrize("mode", ["async", "semisync"])
    def test_standbys_recovery_and_primary_agree_in_order(
        self, durable, mode, replicas, network, scenario
    ):
        db, persist = durable(checkpoint_every=0.4 if scenario == "periodic" else None)
        cluster = run_script(db, persist, mode, replicas, network, scenario)
        cluster.finish()
        if scenario == "periodic":
            assert persist.checkpoint_count >= 6
        expected = rows_in_order(db)
        assert len(expected["t"]) > 5
        for standby in cluster.standbys:
            assert standby.applied_lsn == persist.next_lsn - 1
            assert rows_in_order(standby.db) == expected
        assert cluster.shipper.records == []  # everything acked, nothing kept
        persist.close()
        recovered = Database()
        recover(recovered, persist.wal_dir)
        assert rows_in_order(recovered) == expected

    def test_periodic_checkpoints_under_a_lossy_cluster_converge(self, tmp_path):
        """The whole stack: rules, pending unique tasks and absorbs crossing
        sixteen checkpoints while two standbys are fed over a lossy link."""
        run = ExperimentRun(wal_dir=str(tmp_path), checkpoint_every=0.5)
        db = run.db
        _trace, events = populate_trace(db, MICRO, 0)
        view_rule("comps")(db, "unique", 1.0)
        run.arm()
        cluster = ReplicationCluster(
            db, run.persist, replicas=2, network=LOSSY, net_seed=1,
            functions=function_registry(),
        )
        buffered = []

        def pump(now):
            cluster.pump(now)
            buffered.append(len(cluster.shipper.records))

        run.simulator.post_task_hooks.append(pump)
        run.run(trace_tasks(db, events))
        cluster.finish()
        run.finish(oracle=True)
        outcome = Result(run, OUTCOME)
        assert outcome.oracle_report.ok and outcome.checkpoints >= 12
        assert max(buffered) < outcome.wal_records / 4  # the window, not the history
        expected = rows_in_order(db)
        for standby in cluster.standbys:
            assert rows_in_order(standby.db) == expected
            assert check_convergence(standby.db).ok
        recovered = Database()
        recover(recovered, str(tmp_path), functions=function_registry())
        assert rows_in_order(recovered) == expected

    def test_the_log_is_never_read_back(self, durable, monkeypatch):
        """One way out of the log: from construction to quiescence, direct
        checkpoint included, nothing opens ``wal.log`` to read it."""
        db, persist = durable()
        opened = []
        real_open = builtins.open

        def spying_open(file, mode="r", *args, **kwargs):
            if str(file).endswith(WAL_FILE):
                opened.append(mode)
            return real_open(file, mode, *args, **kwargs)

        persist.checkpoint()
        cluster = ReplicationCluster(db, persist, replicas=2)  # boots read it
        with monkeypatch.context() as patched:
            patched.setattr(builtins, "open", spying_open)
            for step in range(30):
                bump(db, step % 5, float(step))
                cluster.pump(step * 0.03)
                if step == 15:
                    persist.checkpoint()
            cluster.finish()
        assert opened == ["wb", "ab"]  # the checkpoint's truncation, nothing else
        assert all(s.applied_lsn == 30 for s in cluster.standbys)


class TestDurablePrefix:
    """A standby is built from exactly what a crash would preserve: the
    record that died unflushed was never offered."""

    @pytest.mark.parametrize("nth", [1, 2, 7, 19, 40])
    @pytest.mark.parametrize("seam", ["wal.append", "wal.flush"])
    def test_no_standby_is_ahead_of_the_directory(self, durable, seam, nth):
        db, persist = durable(faults=f"{seam}:crash@nth={nth}")
        persist.checkpoint()
        cluster = ReplicationCluster(db, persist, replicas=2)
        db.faults.enabled = True
        with pytest.raises(InjectedCrashError):
            for step in range(nth):
                bump(db, step % 5, float(step))
                cluster.pump(step * 0.03)
        db.faults.enabled = False
        cluster.crash_primary()
        durable_lsn = bootstrap(Database(), persist.wal_dir).applied_lsn
        assert durable_lsn == nth - 1
        assert cluster.shipper.last_lsn == durable_lsn
        for standby in cluster.standbys:
            assert standby.applied_lsn <= durable_lsn
        # Everything that had reached the network before the crash landed.
        assert max(s.applied_lsn for s in cluster.standbys) >= durable_lsn - 1


class TestResendUnderSustainedLoad:
    def test_a_lost_frame_is_resent_while_the_primary_keeps_committing(self, durable):
        """Commits 50 ms apart never leave the window empty; the timeout must
        fire all the same.  Before the fix the standby sat at lsn 2 of 400
        with 396 frames parked until ``finish()``."""
        db, persist = durable(faults="ship.send:drop@nth=3")
        cluster = ReplicationCluster(db, persist, replicas=1)
        db.faults.enabled = True
        standby, link = cluster.standbys[0], cluster.shipper.links[0]
        healed = 3 * 0.05 + cluster.shipper.resend_timeout + 0.1
        for step in range(400):
            now = (step + 1) * 0.05
            db.clock.set_base(now)
            bump(db, step % 5, float(step))
            cluster.pump(now)
            if now >= healed:
                assert standby.lag_behind(now) <= 0.1
                assert not standby.buffer
        assert link.resend_rounds == 1
        assert standby.applied_lsn >= 398
