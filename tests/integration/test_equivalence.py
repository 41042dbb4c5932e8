"""Property-based cross-module invariants.

The central correctness property of unique transactions: for the PTA's
derived data, *any* batching configuration must converge to the same final
state as eager, non-batched maintenance — batching changes when and how
work happens, never what it computes.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.database import Database
from repro.errors import InjectedFaultError
from repro.fault import FaultInjector, RetryPolicy, check_convergence

SETUP = """
create table stocks (symbol text, price real);
create index stocks_sym on stocks (symbol);
create table comps_list (comp text, symbol text, weight real);
create index comps_sym on comps_list (symbol);
create table comp_prices (comp text, price real);
create index compp on comp_prices (comp);
"""

CONDITION = """
    select comp, comps_list.symbol as symbol, weight,
        old.price as old_price, new.price as new_price
    from comps_list, new, old
    where comps_list.symbol = new.symbol
        and new.execute_order = old.execute_order
    bind as matches
"""

SYMBOLS = ["S0", "S1", "S2", "S3"]
COMPS = {"C0": ["S0", "S1"], "C1": ["S1", "S2", "S3"], "C2": ["S0", "S3"]}


def aggregate_maintainer(ctx):
    for row in ctx.query(
        "select comp, sum((new_price - old_price) * weight) as diff "
        "from matches group by comp"
    ):
        ctx.execute(
            "update comp_prices set price += :d where comp = :c",
            {"d": row["diff"], "c": row["comp"]},
        )


def build_db(clause, faults=None, fault_seed=0, max_retries=8):
    if faults is not None:
        db = Database(
            faults=FaultInjector(faults, seed=fault_seed),
            recovery=RetryPolicy(max_retries=max_retries, backoff=0.25),
        )
        db.faults.enabled = False  # armed by the caller after setup
    else:
        db = Database()
    db.execute_script(SETUP)
    txn = db.begin()
    for symbol in SYMBOLS:
        txn.insert("stocks", {"symbol": symbol, "price": 50.0})
    for comp, members in COMPS.items():
        price = 0.0
        for member in members:
            weight = 1.0 / len(members)
            txn.insert("comps_list", {"comp": comp, "symbol": member, "weight": weight})
            price += weight * 50.0
        txn.insert("comp_prices", {"comp": comp, "price": price})
    txn.commit()
    db.register_function("maintain", aggregate_maintainer)
    db.execute(
        f"create rule r on stocks when updated price if {CONDITION} "
        f"then execute maintain {clause}"
    )
    return db


def apply_updates(db, updates, gap):
    """Apply (symbol, delta) updates as separate transactions, ``gap``
    virtual seconds apart, then drain everything."""
    price = {s: 50.0 for s in SYMBOLS}
    for symbol_index, delta in updates:
        symbol = SYMBOLS[symbol_index % len(SYMBOLS)]
        price[symbol] += delta
        db.execute(
            "update stocks set price = :p where symbol = :s",
            {"p": price[symbol], "s": symbol},
        )
        if gap:
            db.advance(gap)
    db.drain()
    return dict(db.query("select comp, price from comp_prices").rows())


def expected_prices(db):
    return {
        row[0]: row[1]
        for row in db.query(
            "select comp, sum(price * weight) as price from stocks, comps_list "
            "where stocks.symbol = comps_list.symbol group by comp"
        ).rows()
    }


CLAUSES = [
    "",
    "unique after 0.5 seconds",
    "unique after 5.0 seconds",
    "unique on comp after 1.0 seconds",
    "unique on symbol after 2.0 seconds",
]


updates_strategy = st.lists(
    st.tuples(st.integers(0, 3), st.sampled_from([-0.5, -0.125, 0.125, 0.25, 1.0])),
    min_size=1,
    max_size=25,
)


class TestBatchingEquivalence:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(updates=updates_strategy, clause=st.sampled_from(CLAUSES))
    def test_any_batching_matches_view_definition(self, updates, clause):
        db = build_db(clause)
        final = apply_updates(db, updates, gap=0.3)
        expected = expected_prices(db)
        for comp, price in final.items():
            assert price == pytest.approx(expected[comp], abs=1e-9)

    @settings(max_examples=15, deadline=None)
    @given(updates=updates_strategy)
    def test_batched_equals_eager(self, updates):
        eager = apply_updates(build_db(""), updates, gap=0.0)
        batched = apply_updates(
            build_db("unique after 3.0 seconds"), updates, gap=0.1
        )
        for comp in eager:
            assert batched[comp] == pytest.approx(eager[comp], abs=1e-9)

    def test_long_random_run_stays_consistent(self):
        rng = random.Random(11)
        updates = [(rng.randrange(4), rng.choice([-0.25, 0.125, 0.5])) for _ in range(300)]
        db = build_db("unique on comp after 1.5 seconds")
        final = apply_updates(db, updates, gap=0.2)
        expected = expected_prices(db)
        for comp, price in final.items():
            assert price == pytest.approx(expected[comp], abs=1e-8)

    def test_old_versions_reclaimed_after_drain(self):
        """Pins from bound tables are all released once tasks finish."""
        db = build_db("unique after 2.0 seconds")
        apply_updates(db, [(0, 0.125)] * 20, gap=0.1)
        table = db.catalog.table("stocks")
        for record in table.scan():
            assert record.pins == 0


def apply_updates_with_retry(db, updates, gap):
    """Like :func:`apply_updates`, but client-retry update transactions that
    an injected fault aborted (fault-free retries are what a real feed
    handler would do; the recovery policy covers the decoupled tasks)."""
    price = {s: 50.0 for s in SYMBOLS}
    for symbol_index, delta in updates:
        symbol = SYMBOLS[symbol_index % len(SYMBOLS)]
        price[symbol] += delta
        for _ in range(10):
            try:
                db.execute(
                    "update stocks set price = :p where symbol = :s",
                    {"p": price[symbol], "s": symbol},
                )
                break
            except InjectedFaultError:
                continue
        else:  # pragma: no cover - would mean an unreasonably hot schedule
            raise AssertionError("update transaction never got through")
        if gap:
            db.advance(gap)
    db.drain()
    return dict(db.query("select comp, price from comp_prices").rows())


#: A plan that exercises every recovery path the metamorphic claim relies
#: on: commit aborts (client retry), absorb aborts mid-rule-processing (the
#: walk over the failed commit's effects), and task kills (the retry policy).
METAMORPHIC_PLAN = (
    "txn.commit:abort@every=9;"
    "unique.absorb:abort@every=7;"
    "task.exec[maintain]:kill@every=3"
)


class TestFaultedConvergence:
    """Metamorphic property: a faulted run whose faults were all recovered
    (client retries + the retry policy, no drops) must converge to exactly
    the view contents of the fault-free run on the same updates."""

    def run_pair(self, updates, clause, fault_seed):
        clean = apply_updates(build_db(clause), updates, gap=0.2)
        db = build_db(clause, faults=METAMORPHIC_PLAN, fault_seed=fault_seed)
        db.faults.enabled = True
        faulted = apply_updates_with_retry(db, updates, gap=0.2)
        db.faults.enabled = False
        return clean, faulted, db

    def test_faulted_run_matches_fault_free(self):
        rng = random.Random(5)
        updates = [(rng.randrange(4), rng.choice([-0.25, 0.125, 0.5])) for _ in range(120)]
        clean, faulted, db = self.run_pair(updates, "unique on comp after 1.0 seconds", 1)
        assert db.faults.injected_count >= 1
        assert db.recovery.drop_count == 0
        assert sorted(faulted) == sorted(clean)
        for comp in clean:
            assert faulted[comp] == pytest.approx(clean[comp], abs=1e-9)
        # The convergence oracle agrees with the metamorphic comparison.
        report = check_convergence(db)
        assert report.ok, report.format()

    def test_faulted_compacted_run_matches_fault_free(self):
        rng = random.Random(6)
        updates = [(rng.randrange(4), rng.choice([-0.125, 0.25])) for _ in range(80)]
        clean, faulted, db = self.run_pair(
            updates, "unique on comp compact on comp, symbol after 1.0 seconds", 2
        )
        assert db.faults.injected_count >= 1
        for comp in clean:
            assert faulted[comp] == pytest.approx(clean[comp], abs=1e-9)
        assert check_convergence(db).ok
