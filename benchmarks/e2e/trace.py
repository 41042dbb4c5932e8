"""Span tracing from outside the program: wrap public callables, time them.

The traced repetition patches the callables listed in :func:`targets` (class
or module attributes, restored on exit) with wrappers that record one span
per call — name, start, end, parent — on a single in-memory stack.  A
span's *self time* is its duration minus the durations of its direct
children, so layer self times add up to the time covered by spans.

Two known distortions, both stated in README.md: every wrapper costs about
a microsecond that lands in the *parent's* self time, and callables that
return lazy iterators (``Table.lookup``) are timed up to the return, not
through consumption.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import defaultdict
from typing import Any, Callable, NamedTuple, Optional

import numpy as np

Probe = Callable[[dict, tuple, Any], None]


class SpanStat(NamedTuple):
    count: int
    self_s: float


class SpanRecorder:
    """Records spans while ``recording`` is set; patches and restores."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("H")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("i")
        self._stack: list[int] = []
        self.recording = False
        #: Counts taken at span boundaries by probes (rows appended, tasks
        #: returned, indexed lookups) and by :meth:`counter` wrappers.
        self.counts: dict[str, int] = defaultdict(int)
        self._patched: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ wrapping

    def span(self, name: str, fn: Callable, probe: Optional[Probe] = None) -> Callable:
        """``fn`` wrapped so each call records one span named ``name``."""
        ident = self._ids.get(name)
        if ident is None:
            ident = self._ids[name] = len(self.names)
            self.names.append(name)
        name_ids, starts, ends, parents = self.name_ids, self.starts, self.ends, self.parents
        stack, counts, clock = self._stack, self.counts, time.perf_counter_ns

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            index = len(starts)
            name_ids.append(ident)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if probe is not None:
                probe(counts, args, result)
            return result

        return traced

    def counter(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped to count calls only — for callables so hot that a
        timer per call would measure the timer."""
        counts = self.counts

        def counted(*args, **kwargs):
            if self.recording:
                counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def __enter__(self) -> "SpanRecorder":
        for owner, attr, name, probe in targets():
            original = owner.__dict__[attr]
            if name.endswith("_calls"):
                wrapped = self.counter(name, original)
            else:
                wrapped = self.span(name, original, probe)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, wrapped)
        return self

    def __exit__(self, *exc_info) -> None:
        self.recording = False
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------- results

    def stats(self) -> dict[str, SpanStat]:
        """Per span name: calls and self seconds."""
        n = len(self.starts)
        if n == 0:
            return {}
        name_ids = np.frombuffer(self.name_ids, dtype=np.uint16)
        parents = np.frombuffer(self.parents, dtype=np.int32)
        durations = (
            np.frombuffer(self.ends, dtype=np.int64)
            - np.frombuffer(self.starts, dtype=np.int64)
        ).astype(np.float64)
        has_parent = parents >= 0
        in_children = np.bincount(
            parents[has_parent], weights=durations[has_parent], minlength=n
        )
        size = len(self.names)
        calls = np.bincount(name_ids, minlength=size)
        self_ns = np.bincount(name_ids, weights=durations - in_children, minlength=size)
        return {
            name: SpanStat(int(calls[i]), self_ns[i] / 1e9)
            for i, name in enumerate(self.names)
        }

    def dump(self, path: str) -> None:
        """Write every span: a JSON header line, then the four raw columns
        (name id uint16, start int64 ns, end int64 ns, parent int32)."""
        header = {"names": self.names, "spans": len(self.starts)}
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for column in (self.name_ids, self.starts, self.ends, self.parents):
                column.tofile(out)


def load_spans(path: str) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read a :meth:`SpanRecorder.dump` file back: names and the columns."""
    with open(path, "rb") as source:
        header = json.loads(source.readline())
        n = header["spans"]
        columns = [
            np.frombuffer(source.read(n * np.dtype(dtype).itemsize), dtype=dtype)
            for dtype in (np.uint16, np.int64, np.int64, np.int32)
        ]
    return (header["names"], *columns)


# ------------------------------------------------------------------ targets


def _probe_lookup(counts: dict, args: tuple, result: Any) -> None:
    table, columns = args[0], args[1]
    if table.index_on(columns) is not None:
        counts["storage.indexed_lookups"] += 1


def _probe_append_row(counts: dict, args: tuple, result: Any) -> None:
    counts["storage.temptable_rows"] += 1


def _probe_absorb(counts: dict, args: tuple, result: Any) -> None:
    counts["storage.temptable_rows"] += result


def _probe_dispatch(counts: dict, args: tuple, result: Any) -> None:
    counts["core.tasks_created"] += len(result)


def _probe_flush(counts: dict, args: tuple, result: Any) -> None:
    counts["persist.bytes"] += result


def targets() -> list[tuple[Any, str, str, Optional[Probe]]]:
    """``(owner, attribute, span name, probe)`` for every wrapped callable.

    Functions imported by name are patched where they are *looked up*
    (``repro.database.execute_select``), not only where they are defined.
    A name ending in ``_calls`` is counted, not timed.
    """
    import repro.database as database
    import repro.net.sim as net_sim
    import repro.sql.executor as executor
    from repro.core.engine import RuleEngine
    from repro.core.unique import UniqueManager
    from repro.net.server import NetServer
    from repro.persist.codec import FrameDecoder
    from repro.persist.wal import WriteAheadLog
    from repro.replic.cluster import ReplicationCluster
    from repro.replic.standby import Standby
    from repro.sim import simulator
    from repro.sql.planner import SelectResult
    from repro.storage.index import HashIndex
    from repro.storage.table import Table
    from repro.storage.temptable import TempTable
    from repro.txn.locks import LockManager
    from repro.txn.transaction import Transaction

    Database, TaskManager = database.Database, database.TaskManager
    return [
        (Table, "lookup", "storage.lookup", _probe_lookup),
        (HashIndex, "lookup", "storage.index_probe", None),
        (Table, "insert", "storage.write", None),
        (Table, "update", "storage.write", None),
        (Table, "delete", "storage.write", None),
        (TempTable, "append_row", "storage.temptable", _probe_append_row),
        (TempTable, "absorb", "storage.temptable", _probe_absorb),
        (TempTable, "retire", "storage.temptable", None),
        (Transaction, "commit", "txn.commit", None),
        (Transaction, "abort", "txn.abort", None),
        (LockManager, "acquire", "txn.lock_acquire", None),
        (LockManager, "release_all", "txn.lock_release", None),
        (TaskManager, "enqueue", "txn.queue", None),
        (TaskManager, "release_due", "txn.queue", None),
        (TaskManager, "pop_ready", "txn.queue", None),
        (Database, "parse", "sql.parse", None),
        (database, "parse_statement", "sql.parse_miss", None),
        (database, "execute_select", "sql.select", None),
        (executor, "execute_select", "sql.select", None),
        (executor, "select_plan", "sql.plan_lookup", None),
        (executor, "plan_select", "sql.plan_build", None),
        (SelectResult, "bind", "sql.bind", None),
        (database, "execute_insert", "sql.dml", None),
        (database, "execute_update", "sql.dml", None),
        (database, "execute_delete", "sql.dml", None),
        (RuleEngine, "process_commit", "core.process_commit", None),
        (UniqueManager, "dispatch", "core.dispatch", _probe_dispatch),
        (simulator.Simulator, "run", "sim.run", None),
        (simulator, "execute_task", "sim.task", None),
        (Database, "charge", "sim.charge_calls", None),
        (WriteAheadLog, "append", "persist.append", None),
        (WriteAheadLog, "flush", "persist.flush", _probe_flush),
        (ReplicationCluster, "pump", "replic.pump", None),
        (ReplicationCluster, "finish", "replic.drain", None),
        (Standby, "receive", "replic.apply", None),
        (NetServer, "handle", "net.handle", None),
        (net_sim, "encode_message", "net.codec", None),
        (FrameDecoder, "feed", "net.codec", None),
        (net_sim.SimNetTransport, "pump", "net.pump", None),
    ]
