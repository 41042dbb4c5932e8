"""Tests for the experiment specs and the runner itself."""

import pytest

from repro.pta.tables import Scale
from repro.bench.experiments import grid
from repro.pta.workload import DELETION, VIEW, clear_caches, get_trace, paper_grid

def sweep(scale, view, variants, delays):
    """The paper's (variant, delay) grid over one view."""
    return grid(VIEW, paper_grid(variants, delays), scale=scale, view=view)


TINY_DELETION = dict(
    n_symbols=6, positions_per_symbol=3, n_events=80, duration=20.0, seed=0
)


@pytest.fixture(scope="module")
def tiny_result():
    return VIEW.run(scale=Scale.tiny(), view="comps", variant="unique", delay=1.0)


class TestTraceCache:
    def test_same_scale_seed_shares_trace(self):
        first = get_trace(Scale.tiny(), 0)
        second = get_trace(Scale.tiny(), 0)
        assert first is second

    def test_different_seed_different_trace(self):
        first = get_trace(Scale.tiny(), 0)
        second = get_trace(Scale.tiny(), 1)
        assert first is not second

    def test_trace_kwargs_key(self):
        first = get_trace(Scale.tiny(), 0, {"burst_mean": 2.0})
        second = get_trace(Scale.tiny(), 0, {"burst_mean": 8.0})
        assert first is not second

    def test_clear(self):
        first = get_trace(Scale.tiny(), 0)
        clear_caches()
        second = get_trace(Scale.tiny(), 0)
        assert first is not second


class TestExperimentResult:
    def test_accounting_identities(self, tiny_result):
        result = tiny_result
        assert result.n_updates > 0
        assert result.cpu_update >= result.cpu_baseline_update * 0.999
        assert result.maintenance_cpu >= result.cpu_recompute
        assert 0.0 < result.cpu_fraction < 1.0
        assert result.end_time >= result.duration * 0.5

    def test_deterministic(self):
        first = VIEW.run(scale=Scale.tiny(), view="comps", variant="on_comp", delay=1.0)
        second = VIEW.run(scale=Scale.tiny(), view="comps", variant="on_comp", delay=1.0)
        assert first.cpu_fraction == second.cpu_fraction
        assert first.n_recomputes == second.n_recomputes

    def test_row_shape(self, tiny_result):
        row = tiny_result.row()
        assert set(row) == {
            "view",
            "variant",
            "delay_s",
            "cpu_fraction",
            "n_recomputes",
            "mean_length_ms",
            "batched_firings",
            "n_updates",
        }

    def test_observability_fields_default_none(self, tiny_result):
        assert tiny_result.staleness is None
        assert tiny_result.attribution is None

    def test_observability_fields_with_collector(self):
        from repro.obs import TraceCollector

        collector = TraceCollector()
        result = VIEW.run(
            scale=Scale.tiny(), view="comps", variant="unique", delay=1.0, tracer=collector
        )
        assert result.staleness is not None
        assert "comp_prices" in result.staleness["views"]
        assert result.staleness["reflected"] > 0
        assert result.staleness["outstanding"] == 0  # the run drained
        rules = {row["rule"] for row in result.attribution}
        assert "do_comps_unique" in rules and "update" in rules
        # Attaching the collector must not move the virtual results.
        plain = VIEW.run(scale=Scale.tiny(), view="comps", variant="unique", delay=1.0)
        assert result.row() == plain.row()

    def test_bad_view(self):
        with pytest.raises(ValueError):
            VIEW.run(scale=Scale.tiny(), view="bogus", variant="unique", delay=1.0)

    def test_result_carries_the_run(self, tiny_result):
        assert tiny_result.run.db.catalog.has_table("comp_prices")
        assert tiny_result.run.simulator.db is tiny_result.run.db

    def test_unknown_options_are_refused_and_the_rest_default(self):
        with pytest.raises(TypeError, match="takes no option sector_delay"):
            VIEW.run(scale=Scale.tiny(), sector_delay=1.0)
        options = VIEW.resolve(view="options")
        assert options["view"] == "options" and options["scale"] == Scale.tiny()
        assert options["policy"] == "fifo" and options["faults"] is None


class TestSweep:
    def test_grid_shape(self):
        results = sweep(Scale.tiny(), "comps", ["nonunique", "unique"], [0.5, 1.0])
        variants = [(r.variant, r.delay) for r in results]
        assert variants == [("nonunique", 0.0), ("unique", 0.5), ("unique", 1.0)]
        # A cached grid keeps metrics, not whole databases, and its rows.
        assert not hasattr(results[0], "run") and results[0].n_recomputes > 0
        assert results[1].row()["n_recomputes"] == results[1].n_recomputes

    def test_paper_orderings_hold_at_tiny(self):
        """Even at smoke scale, the headline orderings survive."""
        results = sweep(
            Scale.tiny(), "comps", ["nonunique", "unique", "on_comp"], [1.0, 3.0]
        )
        by_key = {(r.variant, r.delay): r for r in results}
        nonunique = by_key[("nonunique", 0.0)]
        assert by_key[("unique", 3.0)].cpu_fraction < nonunique.cpu_fraction
        assert by_key[("on_comp", 3.0)].cpu_fraction < nonunique.cpu_fraction
        assert (
            by_key[("on_comp", 3.0)].mean_recompute_length
            < by_key[("unique", 3.0)].mean_recompute_length
        )

    def test_batching_monotone_in_delay(self):
        results = sweep(Scale.tiny(), "comps", ["unique"], [0.5, 1.5, 3.0])
        counts = [r.n_recomputes for r in results]
        assert counts == sorted(counts, reverse=True)


class TestDeletionExperiment:
    @pytest.fixture(scope="class")
    def tiny_runs(self):
        return {
            strategy: DELETION.run(
                maintenance=strategy, **TINY_DELETION
            )
            for strategy in ("incremental", "dred", "recompute")
        }

    def test_every_strategy_converges(self, tiny_runs):
        for strategy, result in tiny_runs.items():
            assert result.oracle_divergent == 0, strategy
            assert result.oracle_rows > 0, strategy  # non-vacuous check

    def test_workload_is_deletion_heavy(self, tiny_runs):
        for strategy, result in tiny_runs.items():
            assert result.n_deletions > 0
            assert result.n_closeouts > 0 and result.n_delists > 0
            if strategy != "recompute":
                # deletions_seen counts mark rows; recompute rules bind
                # no marks — they truncate and repopulate regardless.
                assert result.deletions_seen > 0

    def test_strategy_resolution(self, tiny_runs):
        for strategy, result in tiny_runs.items():
            assert set(result.strategies.values()) == {strategy}

    def test_dred_passes_exercised(self, tiny_runs):
        dred = tiny_runs["dred"]
        assert dred.keys_marked > 0
        assert dred.rows_overdeleted > 0
        assert dred.rows_rederived > 0
        assert dred.full_recomputes == 0

    def test_dred_beats_recompute_on_rows_per_deletion(self, tiny_runs):
        dred = tiny_runs["dred"]
        recompute = tiny_runs["recompute"]
        assert recompute.full_recomputes > 0
        assert dred.rows_touched_per_deletion < recompute.rows_touched_per_deletion

    def test_delistings_supersede_pending_tasks(self, tiny_runs):
        assert tiny_runs["dred"].superseded > 0

    def test_deterministic(self):
        first = DELETION.run(maintenance="dred", **TINY_DELETION)
        second = DELETION.run(maintenance="dred", **TINY_DELETION)
        assert first.rows_touched == second.rows_touched
        assert first.end_time == second.end_time

    def test_auto_consults_advisor(self):
        result = DELETION.run(maintenance="auto", **TINY_DELETION)
        assert set(result.strategies.values()) <= {
            "incremental", "dred", "recompute"
        }
        assert result.oracle_divergent == 0

    def test_faulted_run_converges(self):
        from repro.bench.experiments import DEFAULT_FAULT_PLAN

        result = DELETION.run(
            maintenance="dred",
            faults=DEFAULT_FAULT_PLAN,
            fault_seed=1,
            **TINY_DELETION,
        )
        assert result.faults_injected > 0
        assert result.oracle_divergent == 0
        assert result.oracle_rows > 0

    def test_row_shape(self, tiny_runs):
        row = tiny_runs["dred"].row()
        assert row["maintenance"] == "dred"
        assert row["n_deletions"] > 0
        assert "rows_per_deletion" in row and "oracle_divergent" in row


class TestMaintenanceOverheadAttribution:
    def test_update_cpu_exceeds_baseline_when_rules_installed(self):
        result = VIEW.run(scale=Scale.tiny(), view="comps", variant="nonunique", delay=0.0)
        # Condition evaluation + binding runs inside update transactions.
        assert result.cpu_update > result.cpu_baseline_update

    def test_baseline_shared_across_variants(self):
        a = VIEW.run(scale=Scale.tiny(), view="comps", variant="unique", delay=1.0)
        b = VIEW.run(scale=Scale.tiny(), view="comps", variant="on_comp", delay=1.0)
        assert a.cpu_baseline_update == b.cpu_baseline_update
