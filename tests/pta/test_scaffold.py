"""The experiment scaffold: arm/run/finish ordering and resource hygiene."""

import gc
import glob
import os
import tempfile
import warnings

import pytest

import repro.pta.scaffold as scaffold
from repro.errors import InjectedCrashError
from repro.persist.manager import WAL_FILE
from repro.persist.wal import read_wal
from repro.pta.distributed import REPLICATED
from repro.pta.rules import install_comp_rule
from repro.pta.scaffold import OUTCOME, ExperimentRun, Result
from repro.pta.tables import Scale
from repro.pta.workload import CASCADE, VIEW, populate_trace, trace_tasks
from tests.persist.crashes import crash_recover_converge

MICRO = Scale(
    n_stocks=12, n_comps=3, stocks_per_comp=4,
    n_options=10, duration=8.0, n_updates=60,
)

#: Hits a seam population crosses (txn.commit), one the run crosses
#: (task.exec), and the initial checkpoint (checkpoint.write) — which must
#: be taken *before* faults come on, so that crash may never fire.
PLAN = (
    "task.exec[recompute]:kill@every=3;"
    "txn.commit:abort@p=0.05;"
    "checkpoint.write:crash@nth=1"
)


class TestOrderingContract:
    @pytest.mark.parametrize("durable", [False, True], ids=["volatile", "durable"])
    @pytest.mark.parametrize("faults", [None, PLAN], ids=["clean", "faulted"])
    def test_arm_run_finish(self, faults, durable, tmp_path, monkeypatch):
        wal_dir = str(tmp_path / "wal") if durable else None
        run = ExperimentRun(faults=faults, fault_seed=3, wal_dir=wal_dir)
        db = run.db
        _trace, events = populate_trace(db, MICRO, seed=0)
        install_comp_rule(db, "unique", 1.0)

        # Setup is neither faulted nor logged.
        assert not db.faults.enabled and not db.persist.enabled
        assert db.faults.injected_count == 0
        assert db.persist.records_logged == 0
        assert db.persist.checkpoint_count == 0

        run.arm()
        assert db.faults.enabled == bool(faults)
        assert db.persist.enabled == durable
        # The initial checkpoint — taken clean — is all that is on disk.
        assert db.persist.checkpoint_count == (1 if durable else 0)
        assert db.persist.records_logged == 0
        assert db.faults.injected_count == 0

        armed_during_oracle = []
        real_oracle = scaffold.check_convergence

        def spying_oracle(database):
            armed_during_oracle.append(database.faults.enabled)
            return real_oracle(database)

        monkeypatch.setattr(scaffold, "check_convergence", spying_oracle)
        run.run(trace_tasks(db, events))
        run.finish(oracle=True)
        outcome = Result(run, OUTCOME)

        assert armed_during_oracle == [False]
        assert outcome.oracle_report.ok
        assert outcome.oracle_divergent == 0 and outcome.oracle_rows > 0
        assert outcome.faults == faults
        assert outcome.faults_injected == db.faults.injected_count
        assert outcome.fault_retries == db.recovery.retry_count
        assert outcome.fault_drops == db.recovery.drop_count
        assert (outcome.faults_injected > 0) == bool(faults)
        assert outcome.wal_dir == wal_dir
        assert outcome.wal_records == db.persist.records_logged
        assert outcome.checkpoints == db.persist.checkpoint_count
        assert (outcome.wal_records > 0) == durable
        if durable:
            assert run.persist.wal._file.closed
            records, _valid, torn = read_wal(os.path.join(wal_dir, WAL_FILE))
            assert len(records) == outcome.wal_records and torn == 0

    def test_oracle_is_optional(self):
        run = ExperimentRun()
        populate_trace(run.db, MICRO, seed=0)
        run.run()
        run.finish(oracle=False)
        outcome = Result(run, OUTCOME)
        assert outcome.oracle_report is None
        assert outcome.oracle_divergent is None and outcome.oracle_rows == 0
        assert outcome.row() == {}

    def test_crash_abandons_the_unflushed_tail(self, tmp_path):
        """A record appended but never flushed by the dead process must not
        become durable when the scaffold lets go of the WAL."""
        wal_dir = str(tmp_path / "wal")
        run = ExperimentRun(faults="wal.flush:crash@nth=20", wal_dir=wal_dir)
        _trace, events = populate_trace(run.db, MICRO, seed=0)
        install_comp_rule(run.db, "unique", 1.0)
        with pytest.raises(InjectedCrashError):
            run.run(trace_tasks(run.db, events))
        assert run.persist.wal._file.closed
        assert not run.db.faults.enabled
        records, _valid, _torn = read_wal(os.path.join(wal_dir, WAL_FILE))
        assert len(records) == 19


def _unclosed_files(action) -> list[str]:
    """ResourceWarnings raised while ``action`` runs and its garbage dies."""
    gc.collect()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        action()
        gc.collect()
    return [
        str(w.message) for w in caught if issubclass(w.category, ResourceWarning)
    ]


class TestCrashedRunsCloseTheirWal:
    CRASH = "wal.append:crash@nth=30"

    def test_run_experiment(self, tmp_path):
        def crash():
            with pytest.raises(InjectedCrashError):
                VIEW.run(scale=MICRO, wal_dir=str(tmp_path), faults=self.CRASH)

        assert _unclosed_files(crash) == []

    def test_run_cascade_experiment(self, tmp_path):
        def crash():
            with pytest.raises(InjectedCrashError):
                CASCADE.run(
                    scale=MICRO, wal_dir=str(tmp_path), faults=self.CRASH
                )

        assert _unclosed_files(crash) == []

    def test_crash_recover_converge_reopens_a_closed_directory(self, tmp_path):
        results = []

        def cycle():
            results.append(
                crash_recover_converge(VIEW, str(tmp_path), scale=MICRO, faults=self.CRASH)
            )

        assert _unclosed_files(cycle) == []
        crashed, oracle = results[0]
        assert crashed and oracle.ok

    def test_failover_drill(self, tmp_path):
        results = []

        def drill():
            results.append(
                REPLICATED.run(
                    scale=MICRO, replicas=1, wal_dir=str(tmp_path), faults=self.CRASH
                )
            )

        assert _unclosed_files(drill) == []
        assert results[0].crashed and results[0].converged


class TestReplicatedRunOwnsItsTempDir:
    @staticmethod
    def _leftovers() -> set[str]:
        return set(glob.glob(os.path.join(tempfile.gettempdir(), "repro-replic-*")))

    def test_default_wal_dir_is_removed(self):
        before = self._leftovers()
        result = REPLICATED.run(scale=MICRO, replicas=1)
        assert self._leftovers() == before
        assert result.converged
        assert result.wal_dir is None
        assert result.wal_records > 0

    def test_crashed_run_removes_it_too(self):
        before = self._leftovers()
        result = REPLICATED.run(
            scale=MICRO, replicas=1, faults="wal.append:crash@nth=30"
        )
        assert self._leftovers() == before
        assert result.crashed and result.converged

    def test_caller_supplied_dir_is_kept(self, tmp_path):
        result = REPLICATED.run(scale=MICRO, replicas=1, wal_dir=str(tmp_path))
        assert result.wal_dir == str(tmp_path)
        assert os.path.exists(tmp_path / WAL_FILE)
