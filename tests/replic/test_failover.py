"""Failover drill tests: crash the primary, promote, verify convergence."""

from types import SimpleNamespace

import pytest

from repro.pta.distributed import REPLICATED
from repro.pta.tables import Scale
from repro.replic import FailoverController, NetworkConfig, ReplicationError

MICRO = Scale(
    n_stocks=12, n_comps=3, stocks_per_comp=4,
    n_options=10, duration=8.0, n_updates=60,
)

#: The acceptance drill: lossy, reordering network + mid-run primary crash.
DRILL_PLAN = (
    "ship.send:drop@p=0.05;ship.ack:drop@p=0.05;wal.append:crash@nth=40"
)


@pytest.fixture(scope="module")
def drill():
    return REPLICATED.run(
        scale=MICRO, replicas=2,
        network=NetworkConfig(latency=0.02, jitter=0.01, drop=0.05, reorder=0.3),
        net_seed=1,
        faults=DRILL_PLAN,
        fault_seed=7,
    )


class TestCrashDrill:
    def test_primary_crashes_and_a_standby_is_promoted(self, drill):
        assert drill.crashed
        assert drill.failover is not None
        assert drill.failover.promoted in {"r0", "r1"}
        assert drill.oracle_report is None  # the primary died; no oracle

    def test_promoted_standby_passes_the_convergence_oracle(self, drill):
        report = drill.failover.oracle_report
        assert report is not None
        assert report.ok, report.format()
        assert report.rows_checked > 0
        assert drill.converged

    def test_promotion_applied_a_durable_prefix(self, drill):
        # The promoted replica applied some prefix of what was durable —
        # never more than the primary logged before dying.
        assert 0 < drill.failover.applied_lsn <= drill.wal_records

    def test_drill_report_is_printable(self, drill):
        text = drill.failover.describe()
        assert "promoted" in text
        assert "convergence oracle" in text

    def test_clean_run_at_same_settings_does_not_crash(self):
        result = REPLICATED.run(
            scale=MICRO, replicas=2,
            network=NetworkConfig(latency=0.02, drop=0.05, reorder=0.3),
            net_seed=1,
        )
        assert not result.crashed
        assert result.converged


class TestController:
    def test_chooses_the_freshest_standby(self):
        lagging = SimpleNamespace(applied_lsn=10)
        fresh = SimpleNamespace(applied_lsn=25)
        controller = FailoverController([lagging, fresh])
        assert controller.choose() is fresh

    def test_ties_go_to_the_first_listed(self):
        a = SimpleNamespace(applied_lsn=10)
        b = SimpleNamespace(applied_lsn=10)
        assert FailoverController([a, b]).choose() is a

    def test_no_standbys_rejected(self):
        with pytest.raises(ReplicationError):
            FailoverController([])
