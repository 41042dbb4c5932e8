"""The PTA rule families: ``do_comps1/2/3`` and ``do_options1/2/3``.

Each *variant* of a family pairs a rule definition (non-unique, coarse
``unique``, ``unique on symbol``, or ``unique on`` the derived key) with
the user function written the way the paper writes it:

* ``compute_comps1`` (Figure 3) walks the bound rows one at a time, reading
  and rewriting the affected composite per row;
* ``compute_comps2`` (Figure 6) groups the batch's rows by composite in
  application code first, so each composite is read, recomputed and written
  once — the paper notes STRIP v2.0 pushed this aggregation into the
  application, and the cost model charges it as ``user_group_row``;
* ``compute_comps3`` (Figure 7) receives rows for a single composite
  (the rule system partitioned them via ``unique on comp``) and simply
  accumulates;
* the option functions mirror Figure 8 plus the batched variants of
  section 5.2: batching lets the function price each option once from the
  *last* quote in the window instead of once per quote.

A function's per-row charge (``user_group_row`` for the grouping loops,
``arith`` for the others) is the one its loop body would make first thing
in each row; it is handed to ``ctx.columns`` as ``per_row``, which charges
it at that same point — right after the row's ``user_row`` — inside the
generated read, so a bound row costs no call to ``ctx.charge``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.errors import StripError
from repro.pta.blackscholes import call_price

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.functions import FunctionContext
    from repro.database import Database

COMP_VARIANTS = ("nonunique", "unique", "on_symbol", "on_comp")
OPTION_VARIANTS = ("nonunique", "unique", "on_symbol", "on_option")

#: The condition query shared by every composite rule (paper Figures 3/6/7).
_COMP_CONDITION = """
    select comp, comps_list.symbol as symbol, weight,
        old.price as old_price, new.price as new_price
    from comps_list, new, old
    where comps_list.symbol = new.symbol
        and new.execute_order = old.execute_order
    bind as matches
"""

#: The condition query of the sector rule (multi-level scenario): fires on
#: ``comp_prices`` — a table another rule's action writes — so its tasks
#: are cascades in stratum 2.
_SECTOR_CONDITION = """
    select sector, sectors_list.comp as comp, weight,
        old.price as old_price, new.price as new_price
    from sectors_list, new, old
    where sectors_list.comp = new.comp
        and new.execute_order = old.execute_order
    bind as matches
"""

#: The condition query shared by every option rule (paper Figure 8).
_OPTION_CONDITION = """
    select option_symbol, stock_symbol, strike, expiration,
        new.price as new_price
    from options_list, new
    where options_list.stock_symbol = new.symbol
    bind as matches
"""

#: What the functions read of a bound row, as ``ctx.columns`` hands it over
#: (a tuple in this order): the derived key first, then the delta's inputs.
_COMP_ROW = ("comp", "weight", "old_price", "new_price")
_SECTOR_ROW = ("sector", "weight", "old_price", "new_price")
_OPTION_ROW = ("option_symbol", "stock_symbol", "strike", "expiration", "new_price")


# --------------------------------------------------------------------------
# Composite maintenance functions
# --------------------------------------------------------------------------


def compute_comps1(ctx: "FunctionContext") -> None:
    """Figure 3: incremental update, one read-modify-write per bound row."""
    for comp, weight, old_price, new_price in ctx.columns(
        "matches", *_COMP_ROW, per_row={"arith": 2}
    ):
        change = weight * (new_price - old_price)
        ctx.execute(
            "update comp_prices set price += :d where comp = :c",
            {"d": change, "c": comp},
        )


def compute_comps2(ctx: "FunctionContext") -> None:
    """Figure 6: group the batch by composite in application code, then
    apply one aggregated change per composite."""
    diffs: dict[str, float] = {}
    for comp, weight, old_price, new_price in ctx.columns(
        "matches", *_COMP_ROW, per_row={"user_group_row": 1}
    ):
        delta = weight * (new_price - old_price)
        diffs[comp] = diffs.get(comp, 0.0) + delta
    for comp, diff in diffs.items():
        ctx.execute(
            "update comp_prices set price += :d where comp = :c",
            {"d": diff, "c": comp},
        )


def compute_comps3(ctx: "FunctionContext") -> None:
    """Figure 7: all rows concern one composite; accumulate and apply once."""
    total = 0.0
    comp = None
    for comp, weight, old_price, new_price in ctx.columns(
        "matches", *_COMP_ROW, per_row={"arith": 2}
    ):
        total += weight * (new_price - old_price)
    if comp is not None:
        ctx.execute(
            "update comp_prices set price += :d where comp = :c",
            {"d": total, "c": comp},
        )


def compute_sectors(ctx: "FunctionContext") -> None:
    """Second-level incremental maintenance: sector indexes over composite
    indexes.  Same telescoping-delta shape as :func:`compute_comps2`, one
    stratum up — the bound rows came from another rule's action writes."""
    diffs: dict[str, float] = {}
    for sector, weight, old_price, new_price in ctx.columns(
        "matches", *_SECTOR_ROW, per_row={"user_group_row": 1}
    ):
        delta = weight * (new_price - old_price)
        diffs[sector] = diffs.get(sector, 0.0) + delta
    for sector, diff in diffs.items():
        ctx.execute(
            "update sector_prices set price += :d where sector = :s",
            {"d": diff, "s": sector},
        )


# --------------------------------------------------------------------------
# Option maintenance functions
# --------------------------------------------------------------------------


def _stdev_of(ctx: "FunctionContext", symbol: str) -> float:
    """Application-level lookup of a stock's return standard deviation."""
    ctx.charge("index_probe")
    ctx.charge("cursor_fetch")
    record = ctx.db.catalog.table("stock_stdev").get_one("symbol", symbol)
    if record is None:
        raise StripError(f"no stdev for stock {symbol!r}")
    return record.values[1]


def _reprice(ctx: "FunctionContext", option_symbol: str, price: float) -> None:
    ctx.execute(
        "update option_prices set price = :p where option_symbol = :o",
        {"p": price, "o": option_symbol},
    )


def compute_options1(ctx: "FunctionContext") -> None:
    """Figure 8: recompute every bound row (one Black-Scholes per quote)."""
    for option_symbol, stock, strike, expiration, new_price in ctx.columns("matches", *_OPTION_ROW):
        stdev = _stdev_of(ctx, stock)
        ctx.charge("f_bs")
        price = call_price(new_price, strike, expiration, stdev)
        _reprice(ctx, option_symbol, price)


def compute_options2(ctx: "FunctionContext") -> None:
    """Coarse batching: group by option in application code, keep only the
    last quote per option, price once."""
    last: dict[str, tuple] = {}
    for row in ctx.columns("matches", *_OPTION_ROW, per_row={"user_group_row": 1}):
        last[row[0]] = row  # rows arrive in commit order
    stdev_cache: dict[str, float] = {}
    for option_symbol, stock, strike, expiration, new_price in last.values():
        stdev = stdev_cache.get(stock)
        if stdev is None:
            stdev = stdev_cache[stock] = _stdev_of(ctx, stock)
        ctx.charge("f_bs")
        price = call_price(new_price, strike, expiration, stdev)
        _reprice(ctx, option_symbol, price)


def compute_options_sym(ctx: "FunctionContext") -> None:
    """``unique on stock_symbol``: every row concerns one stock, so the
    stdev is fetched once and partial results are shared; only the last
    quote per option is priced."""
    last: dict[str, tuple] = {}
    for row in ctx.columns("matches", *_OPTION_ROW, per_row={"arith": 1}):
        last[row[0]] = row
    if not last:
        return
    any_row = next(iter(last.values()))
    stdev = _stdev_of(ctx, any_row[1])
    for option_symbol, _stock, strike, expiration, new_price in last.values():
        ctx.charge("f_bs")
        price = call_price(new_price, strike, expiration, stdev)
        _reprice(ctx, option_symbol, price)


def compute_options_opt(ctx: "FunctionContext") -> None:
    """``unique on option_symbol``: price the single option from its last
    quote in the window."""
    row = None
    for row in ctx.columns("matches", *_OPTION_ROW, per_row={"arith": 1}):
        pass
    if row is None:
        return
    option_symbol, stock, strike, expiration, new_price = row
    stdev = _stdev_of(ctx, stock)
    ctx.charge("f_bs")
    price = call_price(new_price, strike, expiration, stdev)
    _reprice(ctx, option_symbol, price)


# --------------------------------------------------------------------------
# Installation
# --------------------------------------------------------------------------

_COMP_FUNCTIONS: dict[str, tuple[str, Callable]] = {
    "nonunique": ("compute_comps1", compute_comps1),
    "unique": ("compute_comps2", compute_comps2),
    "on_symbol": ("compute_comps_sym", compute_comps2),
    "on_comp": ("compute_comps3", compute_comps3),
}

_OPTION_FUNCTIONS: dict[str, tuple[str, Callable]] = {
    "nonunique": ("compute_options1", compute_options1),
    "unique": ("compute_options2", compute_options2),
    "on_symbol": ("compute_options_sym", compute_options_sym),
    "on_option": ("compute_options_opt", compute_options_opt),
}


def function_registry() -> dict[str, Callable]:
    """Every registered-name → callable pair the PTA workload can install.

    Crash recovery re-registers user functions by name before resurrecting
    pending tasks from the WAL (function code itself is never persisted —
    like any database, the application must bring its own procedures)."""
    registry: dict[str, Callable] = {}
    for name, fn in _COMP_FUNCTIONS.values():
        registry[name] = fn
    for name, fn in _OPTION_FUNCTIONS.values():
        registry[name] = fn
    registry["maintain_option_listings"] = maintain_option_listings
    registry["compute_sectors"] = compute_sectors
    return registry


def _unique_clause(variant: str, family: str) -> str:
    if variant == "nonunique":
        return ""
    if variant == "unique":
        return "unique"
    if variant == "on_symbol":
        column = "symbol" if family == "comps" else "stock_symbol"
        return f"unique on {column}"
    if variant == "on_comp":
        return "unique on comp"
    if variant == "on_option":
        return "unique on option_symbol"
    raise StripError(f"unknown variant {variant!r}")


def _compact_clause(variant: str, family: str, compact: bool) -> str:
    """The ``compact on`` clause for a rule family, or the empty string.

    Composite rows fold per (comp, symbol): ``old_price`` keeps the first
    old image and ``new_price`` the last new image, so the telescoping
    ``weight * (new - old)`` delta the compute functions apply is exact.
    Option rows fold per option: the batched functions already price only
    the last quote per option, so last-wins folding is invisible.
    """
    if not compact:
        return ""
    if variant == "nonunique":
        raise StripError(
            f"the {variant!r} variant cannot use delta compaction "
            "(COMPACT ON requires UNIQUE)"
        )
    if family == "comps":
        return "compact on comp, symbol"
    return "compact on option_symbol"


#: Per view family: its variants, their functions, the rule's condition and
#: the derived table the rule writes.
_FAMILIES = {
    "comps": (COMP_VARIANTS, _COMP_FUNCTIONS, _COMP_CONDITION, "comp_prices"),
    "options": (OPTION_VARIANTS, _OPTION_FUNCTIONS, _OPTION_CONDITION, "option_prices"),
}


def _install_view_rule(
    db: "Database", family: str, variant: str, delay: float, compact: bool
) -> str:
    variants, functions, condition, view = _FAMILIES[family]
    if variant not in variants:
        raise StripError(f"variant must be one of {variants}, got {variant!r}")
    function_name, fn = functions[variant]
    db.register_function(function_name, fn, replace=True)
    clause = _unique_clause(variant, family)
    compact_sql = _compact_clause(variant, family, compact)
    after = f"after {delay} seconds" if delay > 0 else ""
    db.execute(
        f"""
        create rule do_{family}_{variant} on stocks
        when updated price
        if {condition}
        then execute {function_name}
        {clause}
        {compact_sql}
        {after}
        writes {view}
        """
    )
    if db.tracer.enabled:
        # The view is the derived table the rule maintains; registering it
        # labels the staleness series with the view, not the function.
        db.tracer.view_registered(view, function_name, (f"do_{family}_{variant}",), db.clock.now())
    return function_name


def install_comp_rule(
    db: "Database", variant: str, delay: float = 0.0, compact: bool = False
) -> str:
    """Install one composite-maintenance rule variant; returns the function
    name (the recompute task class is ``recompute:<function>``)."""
    return _install_view_rule(db, "comps", variant, delay, compact)


def install_option_rule(
    db: "Database", variant: str, delay: float = 0.0, compact: bool = False
) -> str:
    """Install one option-maintenance rule variant."""
    return _install_view_rule(db, "options", variant, delay, compact)


def install_sector_rule(
    db: "Database", delay: float = 0.0, compact: bool = False
) -> str:
    """Install the second-level sector-maintenance rule (cascade scenario).

    The rule triggers on ``comp_prices`` updates — writes that only ever
    come from a composite rule's action — and declares ``writes
    sector_prices``, so stratification places it one stratum above
    whichever composite rule is installed.  A composite rule must already
    be installed (its ``writes comp_prices`` declaration supplies the
    cascade edge); installing the sector rule against a program with no
    comp writer still works, it just sits in stratum 1."""
    db.register_function("compute_sectors", compute_sectors, replace=True)
    compact_sql = "compact on sector, comp" if compact else ""
    after = f"after {delay} seconds" if delay > 0 else ""
    db.execute(
        f"""
        create rule do_sectors on comp_prices
        when updated price
        if {_SECTOR_CONDITION}
        then execute compute_sectors
        unique
        {compact_sql}
        {after}
        writes sector_prices
        """
    )
    if db.tracer.enabled:
        db.tracer.view_registered(
            "sector_prices", "compute_sectors", ("do_sectors",), db.clock.now()
        )
    return "compute_sectors"


# --------------------------------------------------------------------------
# Option listing maintenance (the quarterly options_list churn, section 3)
# --------------------------------------------------------------------------


def maintain_option_listings(ctx: "FunctionContext") -> None:
    """Keep ``option_prices`` aligned with ``options_list``.

    The paper notes options_list "must be updated once every three months
    when the option exchanges create new options and expunge expired
    options" and leaves those rules out of its experiments; this is the
    rule the full application would carry."""
    for (option_symbol,) in ctx.columns("expunged", "option_symbol"):
        ctx.execute(
            "delete from option_prices where option_symbol = :o",
            {"o": option_symbol},
        )
    for option_symbol, stock_symbol, strike, expiration in ctx.columns("listed", *_OPTION_ROW[:4]):
        stock = ctx.db.catalog.table("stocks").get_one("symbol", stock_symbol)
        ctx.charge("index_probe")
        ctx.charge("cursor_fetch")
        if stock is None:
            continue
        stdev = _stdev_of(ctx, stock_symbol)
        ctx.charge("f_bs")
        price = call_price(stock.values[1], strike, expiration, stdev)
        ctx.execute(
            "insert into option_prices values (:o, :p)",
            {"o": option_symbol, "p": price},
        )


def install_options_list_rule(db: "Database") -> str:
    """Install the rule handling option listing/expunging events."""
    db.register_function("maintain_option_listings", maintain_option_listings, replace=True)
    db.execute(
        """
        create rule do_option_listings on options_list
        when inserted deleted
        then evaluate
            select option_symbol, stock_symbol, strike, expiration
            from inserted bind as listed,
            select option_symbol from deleted bind as expunged
        execute maintain_option_listings
        """
    )
    return "maintain_option_listings"
