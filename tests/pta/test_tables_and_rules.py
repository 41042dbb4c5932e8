"""Tests for PTA population (section 4.2) and the rule variants (section 3)."""

import pytest

from repro.database import Database
from repro.pta.blackscholes import call_price
from repro.pta.rules import (
    COMP_VARIANTS,
    OPTION_VARIANTS,
    install_comp_rule,
    install_option_rule,
)
from repro.pta.tables import Scale, populate


@pytest.fixture(scope="module")
def populated():
    db = Database()
    scale = Scale.tiny()
    info = populate(db, scale, seed=3)
    return db, scale, info


class TestScale:
    def test_paper_dimensions(self):
        scale = Scale.paper()
        assert scale.n_stocks == 6600
        assert scale.n_comps == 400
        assert scale.stocks_per_comp == 200
        assert scale.n_options == 50000
        assert scale.duration == 1800.0
        assert scale.n_updates == 60000

    def test_paper_fan_in(self):
        """~12 composite memberships per stock on average (section 5.1)."""
        assert Scale.paper().avg_comps_per_stock == pytest.approx(12.12, abs=0.01)

    def test_scaled(self):
        half = Scale.paper().scaled(0.5)
        assert half.n_stocks == 3300
        assert half.duration == 900.0


class TestPopulation:
    def test_table_cardinalities(self, populated):
        db, scale, _info = populated
        assert len(db.catalog.table("stocks")) == scale.n_stocks
        assert len(db.catalog.table("stock_stdev")) == scale.n_stocks
        assert len(db.catalog.table("comp_prices")) == scale.n_comps
        assert len(db.catalog.table("comps_list")) == scale.n_comps * scale.stocks_per_comp
        assert len(db.catalog.table("options_list")) == scale.n_options
        assert len(db.catalog.table("option_prices")) == scale.n_options

    def test_composite_prices_consistent(self, populated):
        """comp_prices equals the view definition over the base tables."""
        db, _scale, _info = populated
        recomputed = {
            row[0]: row[1]
            for row in db.query(
                "select comp, sum(price * weight) as price from stocks, comps_list "
                "where stocks.symbol = comps_list.symbol group by comp"
            ).rows()
        }
        for comp, price in db.query("select comp, price from comp_prices").rows():
            assert price == pytest.approx(recomputed[comp], rel=1e-9)

    def test_option_prices_consistent(self, populated):
        db, _scale, info = populated
        rows = db.query(
            "select option_prices.option_symbol as o, option_prices.price as p, "
            "stocks.price as s, strike, expiration, stock_symbol "
            "from option_prices, options_list, stocks "
            "where option_prices.option_symbol = options_list.option_symbol "
            "and options_list.stock_symbol = stocks.symbol limit 50"
        ).dicts()
        assert rows
        for row in rows:
            expected = call_price(
                row["s"], row["strike"], row["expiration"], info["stdevs"][row["stock_symbol"]]
            )
            assert row["p"] == pytest.approx(expected, rel=1e-9)

    def test_membership_tracks_activity(self, populated):
        """Active stocks sit in more composites (population is proportional
        to trading activity, section 4.2)."""
        db, scale, info = populated
        trace, events = info["trace"], info["events"]
        counts = trace.activity(events)
        ranked = sorted(counts, key=counts.get, reverse=True)
        busy = ranked[: max(len(ranked) // 10, 1)]
        quiet = [s for s in trace.symbols if counts.get(s, 0) == 0]
        memberships = info["memberships_per_stock"]
        if busy and quiet:
            busy_mean = sum(memberships.get(s, 0) for s in busy) / len(busy)
            quiet_mean = sum(memberships.get(s, 0) for s in quiet) / len(quiet)
            assert busy_mean > quiet_mean

    def test_population_charges_background(self, populated):
        db, _scale, _info = populated
        assert db.background_meter.total > 0
        assert db.metrics.records == []  # no tasks ran


class TestRuleInstallation:
    @pytest.mark.parametrize("variant", COMP_VARIANTS)
    def test_comp_variants_install(self, variant):
        db = Database()
        populate(db, Scale.tiny().scaled(0.5), seed=1)
        function = install_comp_rule(db, variant, delay=1.0)
        assert db.functions.has(function)
        rules = [rule for rule in db.catalog.rules() if rule.table == "stocks"]
        assert len(rules) == 1
        rule = rules[0]
        assert rule.unique == (variant != "nonunique")
        if variant == "on_comp":
            assert rule.unique_on == ("comp",)
        if variant == "on_symbol":
            assert rule.unique_on == ("symbol",)

    @pytest.mark.parametrize("variant", OPTION_VARIANTS)
    def test_option_variants_install(self, variant):
        db = Database()
        populate(db, Scale.tiny().scaled(0.5), seed=1)
        function = install_option_rule(db, variant, delay=1.0)
        assert db.functions.has(function)

    def test_unknown_variant(self):
        db = Database()
        populate(db, Scale.tiny().scaled(0.5), seed=1)
        from repro.errors import StripError

        with pytest.raises(StripError):
            install_comp_rule(db, "bogus")


class TestMaintenanceCorrectness:
    """After a burst of updates + drain, every variant leaves the derived
    tables equal to a from-scratch recomputation."""

    def drive(self, variant, view):
        db = Database()
        scale = Scale.tiny().scaled(0.5)
        info = populate(db, scale, seed=5)
        if view == "comps":
            install_comp_rule(db, variant, delay=0.5)
        else:
            install_option_rule(db, variant, delay=0.5)
        events = info["events"][:120]
        for event in events:
            db.advance(max(event.time - db.clock.base, 0.0))
            db.execute(
                "update stocks set price = :p where symbol = :s",
                {"p": event.price, "s": event.symbol},
            )
        db.drain()
        return db, info

    @pytest.mark.parametrize("variant", COMP_VARIANTS)
    def test_comp_prices_exact(self, variant):
        db, _info = self.drive(variant, "comps")
        expected = {
            row[0]: row[1]
            for row in db.query(
                "select comp, sum(price * weight) as price from stocks, comps_list "
                "where stocks.symbol = comps_list.symbol group by comp"
            ).rows()
        }
        for comp, price in db.query("select comp, price from comp_prices").rows():
            assert price == pytest.approx(expected[comp], abs=1e-6)

    @pytest.mark.parametrize("variant", OPTION_VARIANTS)
    def test_option_prices_exact(self, variant):
        db, info = self.drive(variant, "options")
        rows = db.query(
            "select option_prices.option_symbol as o, option_prices.price as p, "
            "stocks.price as s, strike, expiration, stock_symbol "
            "from option_prices, options_list, stocks "
            "where option_prices.option_symbol = options_list.option_symbol "
            "and options_list.stock_symbol = stocks.symbol"
        ).dicts()
        for row in rows:
            expected = call_price(
                row["s"], row["strike"], row["expiration"], info["stdevs"][row["stock_symbol"]]
            )
            assert row["p"] == pytest.approx(expected, rel=1e-9)


class TestOptionListingMaintenance:
    """The quarterly options_list churn (section 3's out-of-scope rule,
    implemented for completeness)."""

    @pytest.fixture
    def listing_db(self):
        from repro.pta.rules import install_options_list_rule

        db = Database()
        populate(db, Scale.tiny(), seed=2)
        install_options_list_rule(db)
        return db

    def test_new_listing_priced(self, listing_db):
        db = listing_db
        db.execute("insert into options_list values ('ONEW', 'S00000', 50.0, 0.5)")
        db.drain()
        price = db.query(
            "select price from option_prices where option_symbol = 'ONEW'"
        ).scalar()
        assert price is not None and price >= 0.0
        stock = db.query("select price from stocks where symbol = 'S00000'").scalar()
        stdev = db.query("select stdev from stock_stdev where symbol = 'S00000'").scalar()
        assert price == pytest.approx(call_price(stock, 50.0, 0.5, stdev))

    def test_expunged_listing_removed(self, listing_db):
        db = listing_db
        db.execute("delete from options_list where option_symbol = 'O000000'")
        db.drain()
        count = db.query(
            "select count(*) as n from option_prices where option_symbol = 'O000000'"
        ).scalar()
        assert count == 0

    def test_churn_keeps_tables_aligned(self, listing_db):
        db = listing_db
        db.execute("insert into options_list values ('OA', 'S00001', 40.0, 0.25)")
        db.execute("insert into options_list values ('OB', 'S00002', 60.0, 1.0)")
        db.execute("delete from options_list where option_symbol = 'OA'")
        db.drain()
        listed = db.query("select count(*) as n from options_list").scalar()
        priced = db.query("select count(*) as n from option_prices").scalar()
        assert listed == priced
