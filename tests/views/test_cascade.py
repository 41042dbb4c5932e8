"""Metamorphic cascade tests: incremental maintenance through a rule
cascade must equal a full bottom-up recomputation from the base tables.

Two scenario families:

* a two-level **materialized view** stack — a projection ``v1`` over base
  table ``x`` and an aggregate ``v2`` over ``v1`` — swept across every
  combination of the three maintenance strategies (incremental / dred /
  recompute) for both levels, with ``compact on`` both off and on for the
  projection level;
* the two-level **PTA scenario** (sector indexes over composite indexes
  over quotes), swept across batching variants and compaction.

The equivalence is checked two ways: the convergence oracle (which now
recomputes multi-level views bottom-up, substituting each level's expected
rows into the level above) and a direct diff against fresh SQL over the
base tables only.
"""

import pytest

from repro.database import Database
from repro.fault import check_convergence
from repro.obs.tracer import TraceCollector
from repro.sim.simulator import Simulator
from repro.views.maintain import STRATEGIES, materialize


def multi(db, statements):
    """Run several statements in one transaction (one rule firing)."""
    txn = db.begin()
    for statement in statements:
        db.execute_in_txn(statement, txn)
    txn.commit()


def build_stack(strategy1, strategy2, compact=False, tracer=None):
    """Base table -> projection v1 (stratum 1) -> aggregate v2 (stratum 2)."""
    db = Database(tracer=tracer)
    db.execute_script(
        """
        create table x (k text, g text, b real);
        insert into x values
            ('k1', 'g1', 1.0), ('k2', 'g1', 2.0),
            ('k3', 'g2', 5.0), ('k4', 'g3', 3.0);
        """
    )
    db.execute("create view v1 as select k, g, b * 2.0 as d from x")
    materialize(
        db, "v1", unique=True, delay=0.5, key=("k",),
        maintenance=strategy1, compact=compact,
    )
    db.execute("create view v2 as select g, sum(d) as total from v1 group by g")
    materialize(db, "v2", unique=True, delay=0.5, maintenance=strategy2)
    return db


def drive(db):
    """A mutation mix covering the cascade's interesting paths: multi-group
    transactions, key updates, a group emptied entirely, and re-creation."""
    db.execute("insert into x values ('k5', 'g2', 7.0)")
    db.execute("update x set b = 10.0 where k = 'k1'")
    multi(db, [
        "update x set b = 4.0 where k = 'k3'",
        "insert into x values ('k6', 'g1', 6.0)",
    ])
    db.execute("delete from x where k = 'k2'")
    # Empty group g3 completely (its v2 row must disappear) ...
    db.execute("delete from x where k = 'k4'")
    Simulator(db).run()
    # ... then bring it back in a later batch.
    db.execute("insert into x values ('k7', 'g3', 9.0)")
    db.execute("update x set g = 'g3' where k = 'k5'")
    Simulator(db).run()


def expected_from_base(db):
    """Bottom-up ground truth computed from ``x`` alone."""
    v1 = sorted(db.query("select k, g, b * 2.0 as d from x").rows())
    v2 = sorted(
        db.query("select g, sum(b * 2.0) as total from x group by g").rows()
    )
    return v1, v2


class TestMaterializedCascade:
    @pytest.mark.parametrize("strategy1", STRATEGIES)
    @pytest.mark.parametrize("strategy2", STRATEGIES)
    def test_cascade_equals_bottom_up(self, strategy1, strategy2):
        db = build_stack(strategy1, strategy2)
        assert {r.name: r.stratum for r in db.catalog.rules()} == {
            "maintain_v1_x": 1, "maintain_v2_v1": 2,
        }
        drive(db)
        want_v1, want_v2 = expected_from_base(db)
        assert sorted(db.query("select k, g, d from v1").rows()) == want_v1
        got_v2 = sorted(db.query("select g, total from v2").rows())
        assert len(got_v2) == len(want_v2)
        for (wg, wt), (gg, gt) in zip(want_v2, got_v2):
            assert wg == gg and gt == pytest.approx(wt)
        report = check_convergence(db)
        assert report.ok, report.format()
        assert set(report.views_checked) == {"v1", "v2"}

    @pytest.mark.parametrize("strategy2", STRATEGIES)
    def test_cascade_with_compaction(self, strategy2):
        """``compact on`` at the lower level folds its pending batches but
        must not change what the upper level converges to."""
        db = build_stack("incremental", strategy2, compact=True)
        drive(db)
        want_v1, want_v2 = expected_from_base(db)
        assert sorted(db.query("select k, g, d from v1").rows()) == want_v1
        got_v2 = sorted(db.query("select g, total from v2").rows())
        for (wg, wt), (gg, gt) in zip(want_v2, got_v2):
            assert wg == gg and gt == pytest.approx(wt)
        report = check_convergence(db)
        assert report.ok, report.format()

    def test_cascade_tasks_inherit_stamps(self):
        """Staleness accounting through the stack: one reflected mutation
        per base write, measured end-to-end at the deepest stratum."""
        tracer = TraceCollector()
        db = build_stack("incremental", "incremental", tracer=tracer)
        db.execute("insert into x values ('k9', 'g1', 4.0)")
        db.execute("update x set b = 8.0 where k = 'k3'")
        Simulator(db).run()
        snapshot = tracer.staleness.snapshot()
        assert snapshot["reflected"] == 2
        assert snapshot["lost"] == 0
        assert snapshot["outstanding"] == 0
        assert snapshot["strata"]["stratum-1"]["count"] == 2
        assert snapshot["strata"]["stratum-2"]["count"] == 2


class TestPtaCascade:
    @pytest.mark.parametrize("variant", ["unique", "on_comp"])
    @pytest.mark.parametrize("compact", [False, True])
    def test_sectors_equal_bottom_up(self, variant, compact):
        from repro.pta.tables import Scale
        from repro.pta.workload import CASCADE

        scale = Scale(
            n_stocks=16, n_comps=4, stocks_per_comp=6,
            n_options=10, duration=10.0, n_updates=80,
        )
        tracer = TraceCollector()
        result = CASCADE.run(
            scale=scale, variant=variant, compact=compact, tracer=tracer,
        )
        assert result.max_stratum == 2
        assert result.n_sector_recomputes > 0
        assert result.oracle_divergent == 0, result.oracle_report.format()
        assert {"comp_prices", "sector_prices"} <= set(
            result.oracle_report.views_checked
        )
        assert result.staleness["lost"] == 0
        assert result.staleness["outstanding"] == 0
        # Per-stratum lag is monotone: climbing a stratum only adds delay.
        strata = result.staleness["strata"]
        assert strata["stratum-2"]["mean"] > strata["stratum-1"]["mean"]

    def test_tiny_run_strata_hold_gate_and_oracle(self):
        """The two-level run at the tiny scale: strata, stamp inheritance,
        the stratum hold gate under a zero-delay burst, and the two-level
        oracle."""
        from repro.pta.tables import Scale
        from repro.pta.workload import CASCADE

        scale = Scale.tiny()
        result = CASCADE.run(
            scale=scale, variant="unique", delay=1.0, tracer=TraceCollector(),
        )
        assert result.max_stratum == 2, result.max_stratum
        assert result.n_comp_recomputes > 0
        assert result.n_sector_recomputes > 0
        # Bottom-up recompute across both levels finds zero divergence.
        assert result.oracle_divergent == 0, result.oracle_report.format()
        assert "sector_prices" in result.oracle_report.views_checked
        # Stamp inheritance: every base mutation reflected exactly once,
        # and the lag histogram is monotone per stratum.
        assert result.staleness["lost"] == 0
        assert result.staleness["outstanding"] == 0
        strata = result.staleness["strata"]
        assert strata["stratum-2"]["mean"] > strata["stratum-1"]["mean"]
        # A zero-delay burst makes both strata due at once: the stratum
        # gate must hold sector tasks behind live composite tasks, and the
        # run must still converge.
        burst = CASCADE.run(
            scale=scale, variant="on_comp", delay=0.0, sector_delay=0.0,
        )
        assert burst.tasks_held > 0, "the stratum hold gate never engaged"
        assert burst.oracle_divergent == 0, burst.oracle_report.format()

