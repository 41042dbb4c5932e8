"""The cascade fault/crash battery.

The two-level PTA scenario (quotes -> comp_prices -> sector_prices) runs
under every local fault seam, and its WAL is crash-swept at every record
boundary.  The pass conditions throughout: the convergence oracle finds
zero divergent rows after a two-level bottom-up recomputation, the
staleness tracker reports zero lost mutations, and recovered cascade
tasks re-enter the scheduler in their correct stratum.
"""

import os
import shutil

import pytest

from repro.database import Database
from repro.fault import check_convergence
from repro.obs.tracer import TraceCollector
from repro.persist import recover
from repro.persist.checkpoint import CHECKPOINT_FILE
from repro.persist.manager import WAL_FILE
from repro.persist.wal import MAGIC, iter_frames
from repro.pta.rules import function_registry
from repro.pta.tables import Scale
from repro.pta.workload import CASCADE
from repro.sim.simulator import Simulator
from tests.persist.crashes import crash_recover_converge

#: Small enough for the every-record sweep, big enough that both strata
#: see multiple batches, absorbs, and overlapping release windows.
MICRO = Scale(
    n_stocks=12, n_comps=3, stocks_per_comp=4,
    n_options=10, duration=8.0, n_updates=60,
)

#: One plan per local injection seam the cascade workload crosses.  Each
#: trigger is tuned to fire several times within the MICRO run.
SEAM_PLANS = [
    "txn.commit:abort@p=0.05",
    "lock.acquire:deadlock@p=0.02",
    "task.exec[recompute]:kill@every=4",
    "task.exec[recompute]:delay=0.05@every=3",
    "queue.delay:delay=0.1@every=5",
    "unique.dispatch:abort@every=6",
    "unique.absorb:abort@every=4",
    "unique.release:kill@every=5",
]


class TestCascadeFaultSeams:
    @pytest.mark.parametrize("plan", SEAM_PLANS)
    def test_every_seam_converges_with_zero_lost(self, plan):
        tracer = TraceCollector()
        result = CASCADE.run(
            scale=MICRO, variant="unique", delay=1.0, sector_delay=1.0,
            faults=plan, fault_seed=3, max_retries=8, tracer=tracer,
        )
        assert result.faults_injected >= 1, plan
        assert result.fault_drops == 0, plan
        assert result.oracle_divergent == 0, (
            plan, result.oracle_report.format()
        )
        assert result.oracle_rows > 0
        assert result.staleness["lost"] == 0, plan
        assert result.staleness["outstanding"] == 0, plan

    def test_compaction_seam_converges(self):
        """``unique.compact`` only exists on compacted runs."""
        tracer = TraceCollector()
        result = CASCADE.run(
            scale=MICRO, variant="unique", compact=True,
            faults="unique.compact:abort@every=2", fault_seed=3,
            max_retries=8, tracer=tracer,
        )
        assert result.faults_injected >= 1
        assert result.fault_drops == 0
        assert result.oracle_divergent == 0, result.oracle_report.format()
        assert result.staleness["lost"] == 0


@pytest.fixture(scope="module")
def completed_cascade_run(tmp_path_factory):
    """One full persistence-on cascade run: WAL directory, result, db."""
    wal_dir = str(tmp_path_factory.mktemp("cascade-wal"))
    result = CASCADE.run(
        scale=MICRO, variant="unique", delay=1.0, sector_delay=1.0, seed=0,
        wal_dir=wal_dir,
    )
    return wal_dir, result, result.run.db


def frame_offsets(wal_path):
    with open(wal_path, "rb") as handle:
        data = handle.read()
    assert data.startswith(MAGIC)
    return [len(MAGIC) + end for _payload, end in iter_frames(data[len(MAGIC):])]


def crashed_copy(wal_dir, target, cut_offset):
    os.makedirs(target, exist_ok=True)
    shutil.copy(
        os.path.join(wal_dir, CHECKPOINT_FILE),
        os.path.join(target, CHECKPOINT_FILE),
    )
    with open(os.path.join(wal_dir, WAL_FILE), "rb") as handle:
        data = handle.read()
    with open(os.path.join(target, WAL_FILE), "wb") as handle:
        handle.write(data[:cut_offset])


def pending_strata(db):
    """function name -> set of strata over every queued rule-action task."""
    strata = {}
    tasks = list(db.task_manager.delay) + list(db.task_manager.ready)
    tasks.extend(db.task_manager.held)
    for task in tasks:
        if task.function_name is not None:
            strata.setdefault(task.function_name, set()).add(task.stratum)
    return strata


class TestCascadeCrashSweep:
    def test_every_prefix_recovers_into_correct_strata(
        self, completed_cascade_run, tmp_path
    ):
        """Crash after every WAL record; recovery must (a) put every
        resurrected cascade task back into its stratum and (b) converge
        both levels once drained."""
        wal_dir, _result, _db = completed_cascade_run
        offsets = frame_offsets(os.path.join(wal_dir, WAL_FILE))
        assert len(offsets) >= 40  # the sweep must actually cover something
        sector_checked = 0
        for index, cut in enumerate([len(MAGIC)] + offsets):
            target = str(tmp_path / f"crash{index}")
            crashed_copy(wal_dir, target, cut)
            db = Database()
            report = recover(db, target, functions=function_registry())
            # The restored program stratifies exactly as the live one did.
            assert {r.name: r.stratum for r in db.catalog.rules()} == {
                "do_comps_unique": 1, "do_sectors": 2,
            }
            strata = pending_strata(db)
            assert strata.get("compute_comps2", {1}) == {1}
            assert strata.get("compute_sectors", {2}) == {2}
            if "compute_sectors" in strata:
                sector_checked += 1
            Simulator(db).run()
            oracle = check_convergence(db)
            assert oracle.ok, (
                f"crash after record {index}: {oracle.format()}\n"
                f"{report.describe()}"
            )
            assert "sector_prices" in oracle.views_checked
        # The sweep must have caught crashes with live stratum-2 tasks,
        # otherwise the stratum assertion above was vacuous.
        assert sector_checked > 0

    def test_crash_recover_converge_harness_supports_cascade(self, tmp_path):
        crashed, oracle = crash_recover_converge(
            CASCADE, str(tmp_path / "wal"), scale=MICRO, variant="unique",
            delay=1.0, faults="wal.append:crash@nth=60", checkpoint_every=2.0,
        )
        assert crashed
        assert oracle.ok, oracle.format()
        assert oracle.rows_checked > 0
