"""The trace event log: what a collector records, read back three ways.

A :class:`~repro.obs.TraceCollector` keeps every event in a columnar log;
``collector.events`` is a read-only sequence view of it whose items are
:class:`~repro.obs.TraceEvent` records.  This example batches five quotes
through one delayed ``unique`` rule, then reads the log by index, by kind,
and back from a JSONL export — equal, event for event (see
docs/OBSERVABILITY.md, "What an event costs").

Run:  python examples/event_log.py
"""

import os
import tempfile

from repro import Database
from repro.obs import TraceCollector, read_jsonl, write_jsonl


def main() -> None:
    collector = TraceCollector()
    db = Database(tracer=collector)
    db.execute("create table quotes (symbol text, price real)")
    db.register_function("reprice", lambda ctx: None)
    db.execute(
        "create rule reprice on quotes when inserted "
        "if select symbol, price from inserted bind as changed "
        "then execute reprice unique after 1 seconds"
    )
    for i in range(5):
        db.execute(f"insert into quotes values ('s{i}', {100.0 + i})")
    db.drain()

    events = collector.events
    print(f"{len(events)} events; the last: {events[-1]}")
    print(
        f"batching: {collector.count('unique.append')} firings appended to "
        f"{collector.count('unique.new')} pending task"
    )
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "events.jsonl")
        write_jsonl(collector, path)
        assert read_jsonl(path) == events  # the log is lossless
    print("JSONL round trip: equal, event for event")


if __name__ == "__main__":
    main()
