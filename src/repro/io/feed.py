"""Import feeds: external update streams entering the task flow.

An :class:`ImportFeed` turns time-stamped records into update tasks for
the simulator's arrivals stream.  Each record is applied by a *handler*
(a callable receiving the transaction and the record) inside its own
transaction — one update transaction per feed record, exactly how the PTA
replays the TAQ quote file (paper section 4.3).

Ordering contract: records may arrive in any order — :meth:`ImportFeed.tasks`
sorts them into **release-time order** before they reach the simulator,
so an out-of-order feed file still applies chronologically.  Records
sharing a timestamp keep their **original relative order** (the sort is
stable), so two same-instant quotes for one symbol leave the later record
in the stream as the winner.  The network front-end leans on the same
contract: each accepted write is stamped with its server arrival time, so
retransmitted duplicates that slip past dedup would still apply in
arrival order, never reviving an older price.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional, Sequence

from repro.errors import SimulationError
from repro.txn.tasks import Task

if TYPE_CHECKING:  # pragma: no cover
    from repro.database import Database
    from repro.txn.transaction import Transaction

Handler = Callable[["Transaction", Any], None]


@dataclass(frozen=True)
class FeedRecord:
    """One external event: a timestamp and an arbitrary payload."""

    time: float
    payload: Any


class ImportFeed:
    """Builds update tasks from a record stream.

    Args:
        db: the target database.
        handler: ``handler(txn, payload)`` applies one record; the feed
            begins and commits the transaction around it (commit runs rule
            processing as usual).
        klass: metrics class for the generated tasks.
        deadline: optional relative deadline per task (real-time feeds).
    """

    def __init__(
        self,
        db: "Database",
        handler: Handler,
        klass: str = "import",
        deadline: Optional[float] = None,
    ) -> None:
        self.db = db
        self.handler = handler
        self.klass = klass
        self.deadline = deadline
        self.records_seen = 0

    def task_for(self, record: FeedRecord) -> Task:
        db = self.db
        handler = self.handler

        def body(task: Task) -> None:
            with db.begin(task) as txn:
                handler(txn, record.payload)

        self.records_seen += 1
        return Task(
            body=body,
            klass=self.klass,
            release_time=record.time,
            created_time=record.time,
            deadline=None if self.deadline is None else record.time + self.deadline,
        )

    def tasks(self, records: Iterable[FeedRecord]) -> list[Task]:
        """Arrival tasks for ``records`` (sorted by release time)."""
        tasks = [self.task_for(record) for record in records]
        tasks.sort(key=lambda task: task.release_time)
        return tasks

    def replay(
        self,
        records: Sequence[FeedRecord],
        until: Optional[float] = None,
        processors: int = 1,
        drop_late: bool = False,
    ) -> int:
        """Feed ``records`` through a simulator run; returns tasks executed."""
        from repro.sim.simulator import Simulator

        simulator = Simulator(self.db, processors=processors, drop_late=drop_late)
        return simulator.run(until=until, arrivals=self.tasks(records))


def quote_feed(db: "Database", table: str = "stocks") -> ImportFeed:
    """The PTA's market feed: payloads are ``(symbol, price)`` pairs."""
    stocks = db.catalog.table(table)
    symbol_offset = stocks.schema.offset("symbol")
    price_offset = stocks.schema.offset("price")

    def handler(txn: "Transaction", payload: Any) -> None:
        symbol, price = payload
        db.charge("cursor_open")
        db.charge("index_probe")
        record = stocks.get_one("symbol", symbol)
        db.charge("cursor_fetch")
        if record is None:
            raise SimulationError(f"feed quote for unknown symbol {symbol!r}")
        if record.values[price_offset] != price:
            values = list(record.values)
            values[price_offset] = price
            txn.update_record(stocks, record, values)
        db.charge("cursor_close")

    return ImportFeed(db, handler, klass="update")
