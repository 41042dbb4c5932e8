"""Crash-recover-converge: kill the process, rebuild it from disk.

The durability analogue of the fault oracle, as a test harness: run a
durable experiment under a fault plan with a ``crash`` action
(``wal.append`` / ``wal.flush`` / ``checkpoint.write`` points); if the crash
fires, abandon the dead database, rebuild a fresh one from the WAL
directory (:func:`repro.pta.distributed.recover_run`) — base tables,
installed rules, and every pending unique task with its bound rows,
partition key and release deadline — drain the resurrected queues, and run
the convergence oracle over the rebuilt state.  Zero divergences is the
pass condition.
"""

from __future__ import annotations

from typing import Optional

from repro.fault import ConvergenceReport, RetryPolicy, check_convergence, is_injected_crash
from repro.pta.distributed import recover_run
from repro.pta.scaffold import Spec
from repro.sim.simulator import Simulator


def crash_recover_converge(
    spec: Spec, wal_dir: str, retry: Optional[RetryPolicy] = None, **options
) -> tuple[bool, ConvergenceReport]:
    """One cycle of ``spec`` run with ``options`` logging into ``wal_dir``:
    whether the crash fired, and the oracle's report over the rebuilt
    database — or, if the plan never fired, over the finished run."""
    try:
        result = spec.run(wal_dir=wal_dir, **options)
    except Exception as exc:
        if not is_injected_crash(exc):
            raise
        db, _recovery = recover_run(wal_dir, retry)
        Simulator(db).run()
        return True, check_convergence(db)
    return False, result.oracle_report or check_convergence(result.run.db)
