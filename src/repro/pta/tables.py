"""The PTA database: six tables, populated per paper section 4.2.

Tables (section 3):

* ``stocks(symbol, price)`` — base data, driven by the market feed;
* ``stock_stdev(symbol, stdev)`` — annualized return standard deviations
  (treated as base data during trading hours);
* ``comps_list(comp, symbol, weight)`` — composite membership ("other
  data"; 400 composites x 200 stocks = 80 000 rows at paper scale);
* ``comp_prices(comp, price)`` — the materialized composite view;
* ``options_list(option_symbol, stock_symbol, strike, expiration)`` —
  listed options (50 000 at paper scale);
* ``option_prices(option_symbol, price)`` — the materialized theoretical
  option price view.

Composite membership and the option-to-stock assignment are random **in
direct proportion to trading activity** — frequently traded stocks appear
in more composites and have more listed options — exactly as the paper
populates them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional, Sequence

from repro.pta.blackscholes import call_price
from repro.pta.trace import QuoteEvent, TaqTraceGenerator

if TYPE_CHECKING:  # pragma: no cover
    from repro.database import Database


@dataclass(frozen=True)
class Scale:
    """Workload dimensions.  :meth:`paper` is the full section 4.2 setup;
    smaller presets shrink every dimension proportionally so the benchmark
    suite runs in minutes on a laptop (EXPERIMENTS.md records the scale
    used for every reported number)."""

    n_stocks: int
    n_comps: int
    stocks_per_comp: int
    n_options: int
    duration: float  # seconds of trace
    n_updates: int  # total quotes in the trace
    #: How the scale was asked for (``tiny``, ``0.05``), for reports.
    name: str = field(default="", compare=False, repr=False)

    @classmethod
    def paper(cls) -> "Scale":
        return cls(
            n_stocks=6600,
            n_comps=400,
            stocks_per_comp=200,
            n_options=50000,
            duration=1800.0,
            n_updates=60000,
            name="paper",
        )

    @classmethod
    def small(cls) -> "Scale":
        """~1/8 of paper scale; keeps the fan-in/fan-out ratios."""
        return cls(
            n_stocks=825,
            n_comps=50,
            stocks_per_comp=200,
            n_options=6250,
            duration=225.0,
            n_updates=7500,
            name="small",
        )

    @classmethod
    def tiny(cls) -> "Scale":
        """Unit-test sized."""
        return cls(
            n_stocks=60,
            n_comps=8,
            stocks_per_comp=15,
            n_options=120,
            duration=30.0,
            n_updates=400,
            name="tiny",
        )

    @classmethod
    def parse(cls, name: str) -> "Scale":
        """A preset name (``paper`` / ``small`` / ``tiny``) or a float
        factor applied to the paper scale — the one spelling the CLI's
        ``--scale`` and the benches' ``REPRO_BENCH_SCALE`` both accept."""
        name = name.strip().lower()
        if name in ("paper", "small", "tiny"):
            return getattr(cls, name)()
        try:
            return replace(cls.paper().scaled(float(name)), name=name)
        except ValueError:
            raise ValueError(
                f"unknown scale {name!r}: use paper/small/tiny or a float factor"
            ) from None

    def scaled(self, factor: float) -> "Scale":
        return Scale(
            n_stocks=max(int(self.n_stocks * factor), 10),
            n_comps=max(int(self.n_comps * factor), 2),
            stocks_per_comp=max(int(self.stocks_per_comp * factor), 2),
            n_options=max(int(self.n_options * factor), 10),
            duration=max(self.duration * factor, 10.0),
            n_updates=max(int(self.n_updates * factor), 50),
        )

    @property
    def avg_comps_per_stock(self) -> float:
        """Average composite memberships per stock (~12 at paper scale)."""
        return self.n_comps * self.stocks_per_comp / self.n_stocks

    def make_trace(self, seed: int = 0, **kwargs) -> TaqTraceGenerator:
        return TaqTraceGenerator(
            n_stocks=self.n_stocks,
            duration=self.duration,
            target_updates=self.n_updates,
            seed=seed,
            **kwargs,
        )


def create_schema(db: "Database") -> None:
    """Create the six PTA tables and their indexes."""
    db.execute_script(
        """
        create table stocks (symbol text, price real);
        create index stocks_symbol on stocks (symbol);
        create table stock_stdev (symbol text, stdev real);
        create index stdev_symbol on stock_stdev (symbol);
        create table comps_list (comp text, symbol text, weight real);
        create index comps_list_symbol on comps_list (symbol);
        create index comps_list_comp on comps_list (comp);
        create table comp_prices (comp text, price real);
        create index comp_prices_comp on comp_prices (comp);
        create table options_list (
            option_symbol text, stock_symbol text, strike real, expiration real
        );
        create index options_list_stock on options_list (stock_symbol);
        create table option_prices (option_symbol text, price real);
        create index option_prices_symbol on option_prices (option_symbol);
        """
    )


def create_sector_schema(db: "Database") -> None:
    """Create the two sector tables of the multi-level (cascade) scenario.

    ``sectors_list(sector, comp, weight)`` groups the composites into
    sector indexes exactly the way ``comps_list`` groups stocks into
    composites; ``sector_prices(sector, price)`` is the second-level
    materialized view, maintained by a rule that triggers on
    ``comp_prices`` — i.e. on another rule's writes."""
    db.execute_script(
        """
        create table sectors_list (sector text, comp text, weight real);
        create index sectors_list_comp on sectors_list (comp);
        create index sectors_list_sector on sectors_list (sector);
        create table sector_prices (sector text, price real);
        create index sector_prices_sector on sector_prices (sector);
        """
    )


def populate_sectors(db: "Database", scale: Scale, seed: int = 0) -> dict[str, list[str]]:
    """Create and fill the sector tables over the already-populated comps.

    Every composite lands in exactly one sector (disjoint round-robin over
    a shuffled composite list), weighted equally within the sector, and
    ``sector_prices`` starts consistent with the current ``comp_prices``.
    Returns the sector -> member-composites map."""
    rng = random.Random(seed ^ 0x5EC707)
    create_sector_schema(db)
    comp_rows = {
        record.values[0]: record.values[1]
        for record in db.catalog.table("comp_prices").scan()
    }
    comps = sorted(comp_rows)
    rng.shuffle(comps)
    per_sector = max(2, min(4, len(comps)))  # four composites to a sector
    members: dict[str, list[str]] = {}
    sectors_list = db.catalog.table("sectors_list")
    sector_prices = db.catalog.table("sector_prices")
    txn = db.begin()
    for start in range(0, len(comps), per_sector):
        chunk = comps[start : start + per_sector]
        sector = f"X{start // per_sector:03d}"
        members[sector] = sorted(chunk)
        weight = 1.0 / len(chunk)
        price = 0.0
        for comp in chunk:
            txn.insert_record(sectors_list, [sector, comp, weight])
            price += weight * comp_rows[comp]
        txn.insert_record(sector_prices, [sector, price])
    txn.commit()
    return members


def _weighted_sample_without_replacement(
    rng: random.Random, population: Sequence[str], weights: Sequence[float], k: int
) -> list[str]:
    """Efraimidis-Spirakis weighted reservoir sampling (keys = u^(1/w))."""
    keyed = []
    for item, weight in zip(population, weights):
        if weight <= 0:
            weight = 1e-12
        keyed.append((rng.random() ** (1.0 / weight), item))
    keyed.sort(reverse=True)
    return [item for _key, item in keyed[:k]]


def populate(
    db: "Database",
    scale: Scale,
    trace: Optional[TaqTraceGenerator] = None,
    events: Optional[Sequence[QuoteEvent]] = None,
    seed: int = 0,
) -> dict[str, object]:
    """Create and fill the PTA tables.

    ``trace`` / ``events`` supply the activity distribution used to assign
    composite memberships and options; pass the same objects you will drive
    the experiment with.  Population happens outside any task so its cost
    lands on the background meter, not the experiment's metrics.
    """
    rng = random.Random(seed ^ 0xC0FFEE)
    if trace is None:
        trace = scale.make_trace(seed=seed)
    if events is None:
        events = trace.generate()

    create_schema(db)
    symbols = trace.symbols
    counts = trace.activity(events)
    # Activity weights for membership sampling: actual trace counts, with a
    # +1 floor so inactive stocks can still appear in composites.
    activity = [counts.get(symbol, 0) + 1.0 for symbol in symbols]
    total_activity = sum(activity)

    stocks = db.catalog.table("stocks")
    stdev_table = db.catalog.table("stock_stdev")
    stdevs: dict[str, float] = {}
    txn = db.begin()
    for symbol in symbols:
        txn.insert_record(stocks, [symbol, trace.initial_prices[symbol]])
        stdev = rng.uniform(0.15, 0.55)
        stdevs[symbol] = stdev
        txn.insert_record(stdev_table, [symbol, stdev])
    txn.commit()

    comps_list = db.catalog.table("comps_list")
    comp_prices = db.catalog.table("comp_prices")
    txn = db.begin()
    memberships_per_stock: dict[str, int] = {}
    for comp_index in range(scale.n_comps):
        comp = f"C{comp_index:04d}"
        members = _weighted_sample_without_replacement(
            rng, symbols, activity, min(scale.stocks_per_comp, len(symbols))
        )
        price = 0.0
        for symbol in members:
            weight = 1.0 / len(members)
            txn.insert_record(comps_list, [comp, symbol, weight])
            price += weight * trace.initial_prices[symbol]
            memberships_per_stock[symbol] = memberships_per_stock.get(symbol, 0) + 1
        txn.insert_record(comp_prices, [comp, price])
    txn.commit()

    options_list = db.catalog.table("options_list")
    option_prices = db.catalog.table("option_prices")
    txn = db.begin()
    probabilities = [a / total_activity for a in activity]
    owners = rng.choices(symbols, weights=probabilities, k=scale.n_options)
    options_per_stock: dict[str, int] = {}
    for option_index, stock_symbol in enumerate(owners):
        option_symbol = f"O{option_index:06d}"
        base_price = trace.initial_prices[stock_symbol]
        strike = round(base_price * rng.uniform(0.8, 1.2) * 8.0) / 8.0
        expiration = rng.uniform(30.0, 365.0) / 365.0
        txn.insert_record(options_list, [option_symbol, stock_symbol, strike, expiration])
        price = call_price(base_price, strike, expiration, stdevs[stock_symbol])
        txn.insert_record(option_prices, [option_symbol, price])
        options_per_stock[stock_symbol] = options_per_stock.get(stock_symbol, 0) + 1
    txn.commit()

    return {
        "trace": trace,
        "events": events,
        "stdevs": stdevs,
        "memberships_per_stock": memberships_per_stock,
        "options_per_stock": options_per_stock,
    }
