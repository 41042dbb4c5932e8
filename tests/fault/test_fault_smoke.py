"""A seeded faulted experiment injects faults, retries them and converges;
with faults off the result row is identical to a plain run, so the fault
subsystem is invisible unless armed."""

from repro.obs.tracer import TraceCollector
from repro.pta.tables import Scale
from repro.pta.workload import VIEW

SCALE = Scale.tiny()


def test_faults_injected_recovered_and_converged():
    collector = TraceCollector()
    faulted = VIEW.run(
        scale=SCALE, view="comps", variant="unique", delay=1.0, seed=0, tracer=collector,
        faults="task.exec[recompute]:kill@every=3", fault_seed=7,
    )
    assert collector.count("fault.inject") >= 1, "no fault.inject events in the traced run"
    assert faulted.faults_injected >= 1
    assert faulted.fault_retries >= 1 and faulted.fault_drops == 0
    assert faulted.oracle_divergent == 0, faulted.oracle_report.format()


def test_faults_off_leaves_the_result_row_unchanged():
    plain = VIEW.run(scale=SCALE, view="comps", variant="unique", delay=1.0, seed=0)
    off = VIEW.run(scale=SCALE, view="comps", variant="unique", delay=1.0, seed=0, faults=None)
    assert off.row() == plain.row(), (off.row(), plain.row())
