"""Determinism of faulted runs: the fault schedule is a pure function of
(plan, fault seed, workload), so identical seeds give identical runs and
different seeds give different injection schedules."""

from repro.obs.tracer import TraceCollector
from repro.pta.tables import Scale
from repro.pta.workload import VIEW

SCALE = Scale.tiny()
PLAN = "txn.commit:abort@p=0.01;task.exec[recompute]:kill@every=5"


def faulted_run(fault_seed):
    collector = TraceCollector()
    result = VIEW.run(
        scale=SCALE, view="comps", variant="unique", delay=1.0, seed=0,
        tracer=collector, faults=PLAN, fault_seed=fault_seed,
    )
    return result, collector


def fault_events(collector):
    # Task/txn ids come from process-global counters, so they differ between
    # two runs in one process; everything else must match exactly.
    return [
        (
            event.ts,
            event.kind,
            event.name,
            tuple(
                sorted(
                    (key, value)
                    for key, value in event.args.items()
                    if not key.endswith("_id")
                )
            ),
        )
        for event in collector.events
        if event.kind.startswith("fault.")
    ]


class TestDeterminism:
    def test_same_seed_is_identical(self):
        result_a, trace_a = faulted_run(fault_seed=3)
        result_b, trace_b = faulted_run(fault_seed=3)
        assert result_a.row() == result_b.row()
        assert result_a.faults_injected == result_b.faults_injected >= 1
        # The full event streams match, not just the fault track.
        assert [e.kind for e in trace_a.events] == [e.kind for e in trace_b.events]
        assert fault_events(trace_a) == fault_events(trace_b)

    def test_different_seeds_differ(self):
        _, trace_a = faulted_run(fault_seed=3)
        _, trace_b = faulted_run(fault_seed=4)
        # The p= spec draws from the seeded PRNG, so the injection schedule
        # must shift with the seed.
        assert fault_events(trace_a) != fault_events(trace_b)
