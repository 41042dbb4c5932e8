"""Deterministic fault injection and the derived-data convergence oracle.

The subsystem has three parts (see docs/FAULTS.md):

* :mod:`repro.fault.plan` — the ``POINT:ACTION@TRIGGER`` plan grammar and
  the registry of named injection points threaded through the engine;
* :mod:`repro.fault.injector` — the seeded :class:`FaultInjector` the hook
  sites consult (the :class:`NullFaultInjector` default keeps every site a
  single attribute load, exactly like the ``obs`` tracer);
* :mod:`repro.fault.recovery` — the retry-with-backoff policy that
  re-enqueues a killed/aborted unique task with its still-pending bound
  rows, and :mod:`repro.fault.oracle` — the post-quiescence batch
  recomputation that must match the incrementally maintained state.

The crash-recover-converge harness over these (``crash`` actions at the
WAL/checkpoint seams kill the process, the persistence subsystem rebuilds
it, the oracle checks the rebuilt state; docs/PERSISTENCE.md) is the
tests' ``crash_recover_converge`` over
:func:`repro.pta.distributed.recover_run`.
"""

from repro.fault.injector import Fault, FaultInjector, NullFaultInjector
from repro.fault.oracle import ConvergenceReport, Divergence, check_convergence
from repro.fault.plan import POINTS, FaultPlan, FaultSpec, parse_plan
from repro.fault.recovery import NullRecovery, RetryPolicy, is_injected_crash

__all__ = [
    "POINTS",
    "ConvergenceReport",
    "Divergence",
    "Fault",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "NullFaultInjector",
    "NullRecovery",
    "RetryPolicy",
    "check_convergence",
    "is_injected_crash",
    "parse_plan",
]
