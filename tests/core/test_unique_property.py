"""Property-based tests for the unique manager's batching invariants.

For any random firing sequence and any ``unique`` clause, the manager must
deliver every firing's rows to exactly one action task (no loss, no
duplication), keep each task's batch homogeneous in the unique columns and
in commit order, hand a bound table with no unique column whole to every
task the firing reaches, match the batch-compaction reference when
``compact on`` is active, and release every record pin once the queues
drain.  A transaction inserts one to three rows, so a ``unique on`` firing
can split into several partitions — and a fault at any one of them must
leave nothing behind.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.net_effect import compact_table_rows
from repro.core.unique import UniqueManager
from repro.database import Database
from repro.errors import InjectedFaultError
from repro.fault import FaultInjector
from repro.storage.temptable import TempTable

KEYS = ["a", "b", "c"]
GROUPS = ["g1", "g2"]
COLUMNS = ("k", "grp", "v")

#: clause -> offsets of the columns every batch must be homogeneous in.
CLAUSES = {
    "": (),
    "unique": (),
    "unique on k": (0,),
    "unique on grp": (1,),
    "unique on k, grp": (0, 1),
    "unique on k compact on k, grp": (0,),
}

#: ``notes`` carries no unique column: every task a firing reaches gets it
#: whole, moved to the first and copied for the others.
RULE = (
    "create rule r on t when inserted "
    "if select k, grp, v from inserted bind as m, select v as note from inserted bind as notes "
    "then execute f {clause} after 1 seconds"
)

#: One transaction: its rows (key index, group index), whether to drain
#: before it, and which earlier row (if any) a later transaction updates —
#: the old version stays alive only while a bound table still pins it.
txns_strategy = st.lists(
    st.tuples(
        st.lists(
            st.tuples(st.integers(0, len(KEYS) - 1), st.integers(0, len(GROUPS) - 1)),
            min_size=1,
            max_size=3,
        ),
        st.booleans(),
        st.none() | st.integers(0, 40),
    ),
    min_size=1,
    max_size=12,
)

SEAMS = ("unique.dispatch", "unique.absorb")


class Run:
    """One database under the rule, driven transaction by transaction; a
    drain flushes every pending task, closing one batching cycle."""

    def __init__(self, clause, plan=None):
        self.faults = FaultInjector(plan) if plan else None
        if self.faults is not None:
            self.faults.enabled = False
        self.db = db = Database(faults=self.faults)
        db.execute("create table t (k text, grp text, v real)")
        self.seen = []  # per task run: (m rows, notes)
        db.register_function("f", self._record)
        db.execute(RULE.format(clause=clause))
        self.records = []  # every record version ever made, for pin accounting
        self.live = []
        self.failed = 0  # commits the armed fault failed

    def _record(self, ctx):
        rows = [(row["k"], row["grp"], row["v"]) for row in ctx.bound("m").to_dicts()]
        self.seen.append((rows, [note for (note,) in ctx.columns("notes", "note")]))

    def _commit(self, rows):
        txn = self.db.begin()
        made = [txn.insert("t", row) for row in rows]
        self.records += made  # a failed commit's rows must drop their pins too
        txn.commit()
        return made

    def cycles(self, txns, fault_at=None):
        """Per cycle: the transactions' rows and the (m rows, notes) each
        task saw."""
        db, table = self.db, self.db.catalog.table("t")
        cycles, inserts, sequence, before = [], [], 0, 0
        for index, (picks, drain_first, touch) in enumerate(txns):
            if drain_first and inserts:
                db.drain()
                cycles.append((inserts, self.seen[before:]))
                inserts, before = [], len(self.seen)
            rows = []
            for key_index, group_index in picks:
                rows.append((KEYS[key_index], GROUPS[group_index], float(sequence)))
                sequence += 1
            if index == fault_at and self.faults is not None:
                self.faults.enabled = True
                try:
                    self.live += self._commit(rows)
                except InjectedFaultError:
                    self.failed += 1
                    self.faults.enabled = False
                    self.live += self._commit(rows)  # the retry, clean
                self.faults.enabled = False
            else:
                self.live += self._commit(rows)
            inserts.append(rows)
            if touch is not None:
                record = self.live.pop(touch % len(self.live))
                with db.begin() as txn:
                    self.live.append(txn.update_columns(table, record, {"v": -1.0}))
                self.records.append(self.live[-1])
            db.advance(0.25)
        if inserts:
            db.drain()
            cycles.append((inserts, self.seen[before:]))
        db.drain()
        return cycles

    def assert_drained(self):
        assert self.db.unique_manager.pending_count("f") == 0
        for record in self.records:
            assert record.pins == 0


def check_cycles(clause, cycles):
    for txns, batches in cycles:
        inserts = [row for rows in txns for row in rows]
        if "compact" in clause:
            # Each key's batch must equal the batch-compaction reference
            # over that key's rows for the cycle.
            for batch, _notes in batches:
                key = batch[0][0]
                key_rows = [row for row in inserts if row[0] == key]
                assert batch == compact_table_rows(COLUMNS, ("k", "grp"), key_rows)
        else:
            # No loss, no duplication: the batches partition the cycle.
            flat = [row for batch, _notes in batches for row in batch]
            assert sorted(flat) == sorted(inserts)
            # Commit order survives within each batch (values carry the
            # global sequence number, so order is total).
            for batch, _notes in batches:
                values = [row[2] for row in batch]
                assert values == sorted(values)
        for batch, notes in batches:
            # Batches are homogeneous in the unique columns.
            for offset in CLAUSES[clause]:
                assert len({row[offset] for row in batch}) == 1
            # Every firing the task absorbed brought its notes whole.
            if "compact" in clause:
                fired = [rows for rows in txns if any(row[0] == batch[0][0] for row in rows)]
            else:
                values = {row[2] for row in batch}
                fired = [rows for rows in txns if any(row[2] in values for row in rows)]
            assert notes == [row[2] for rows in fired for row in rows]


class TestUniquePartitioning:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(txns=txns_strategy, clause=st.sampled_from(sorted(CLAUSES)))
    def test_firing_sequences_batch_without_loss(self, txns, clause):
        run = Run(clause)
        check_cycles(clause, run.cycles(txns))
        # Everything drained: no pending work, every pin released.
        run.assert_drained()

    @settings(max_examples=15, deadline=None)
    @given(txns=txns_strategy)
    def test_unique_on_key_matches_batch_reference(self, txns):
        """Per-key batching must deliver, per key and cycle, exactly the
        rows a batch partition over the cycle's firings would."""
        for txns_in_cycle, batches in Run("unique on k").cycles(txns):
            reference: dict = {}
            for row in (row for rows in txns_in_cycle for row in rows):
                reference.setdefault(row[0], []).append(row)
            delivered = {batch[0][0]: batch for batch, _notes in batches}
            assert delivered == reference


class TestFailureMidSplit:
    """A fault at the n-th partition of a firing fails the commit; the
    retried commit must leave the database as a clean run leaves it."""

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        txns=txns_strategy,
        clause=st.sampled_from(["unique on k", "unique on grp", "unique on k, grp"]),
        fault=st.tuples(st.integers(0, 11), st.sampled_from(SEAMS), st.integers(1, 3)),
    )
    def test_a_failed_commit_leaves_what_a_clean_run_leaves(self, txns, clause, fault):
        at, seam, nth = fault
        faulted = Run(clause, f"{seam}:abort@nth={nth}")
        clean = Run(clause)
        assert faulted.cycles(txns, fault_at=at) == clean.cycles(txns)
        table = faulted.db.catalog.table("t")
        assert table.retired_pinned == clean.db.catalog.table("t").retired_pinned
        faulted.assert_drained()
        clean.assert_drained()

    @pytest.mark.parametrize("seam", SEAMS)
    @pytest.mark.parametrize("nth", [1, 2, 3])
    def test_a_fault_at_each_key_of_a_three_key_firing(self, monkeypatch, seam, nth):
        # Pending work for every key first, when the absorb is what fails.
        prelude = [([(0, 0), (1, 0), (2, 0)], False, None)] if seam == "unique.absorb" else []
        txns = prelude + [([(0, 0), (1, 1), (2, 0)], False, 0), ([(1, 0)], False, 2)]
        pins, inside = [], []  # pins taken per dispatch call
        real_absorb, real_dispatch = TempTable.absorb, UniqueManager.dispatch

        def dispatch(self, rule, bound, txn):
            inside.append(0)
            try:
                return real_dispatch(self, rule, bound, txn)
            finally:
                pins.append(inside.pop())

        def absorb(table, other):  # a copy pins each pointer of ``other`` again
            if inside:
                inside[-1] += sum(len(ptrs) for ptrs, _mats in other.scan_raw())
            return real_absorb(table, other)

        monkeypatch.setattr(UniqueManager, "dispatch", dispatch)
        monkeypatch.setattr(TempTable, "absorb", absorb)
        faulted = Run("unique on k", f"{seam}:abort@nth={nth}")
        got = faulted.cycles(txns, fault_at=len(prelude))
        assert faulted.failed == 1
        pins_seen = list(pins)
        monkeypatch.undo()
        clean = Run("unique on k")
        assert got == clean.cycles(txns)
        faulted.assert_drained()
        # The owner's rows moved into the partitions with the pins they
        # held; only the non-owner's copies for the second and third key
        # pinned anything (three notes each).
        assert pins_seen[len(prelude)] == 2 * 3
        retired_pinned = faulted.db.catalog.table("t").retired_pinned
        assert retired_pinned == clean.db.catalog.table("t").retired_pinned > 0


# ---------------------------------------------------------------------------
# Shared unique columns: several bound tables carry the key (union routing).
# ---------------------------------------------------------------------------

#: ``added`` and ``removed`` both carry the key; ``notes`` never does.
SHARED_RULE = (
    "create rule r on t when inserted deleted then evaluate "
    "select k, grp, v from inserted bind as added, "
    "select {removed} from deleted bind as removed, "
    "select v as note from inserted bind as notes "
    "execute f {clause} after 1 seconds"
)

#: One transaction: rows to insert, picks among the live rows to delete
#: first, and whether to drain (closing the batching cycle) afterwards.
txn_strategy = st.tuples(
    st.lists(
        st.tuples(st.integers(0, len(KEYS) - 1), st.integers(0, len(GROUPS) - 1)),
        max_size=4,
    ),
    st.lists(st.integers(0, 50), max_size=3),
    st.booleans(),
)


def union_reference(firings, owners, offsets):
    """The value-level reading of union routing, firing by firing: the keys
    a firing touches are the union of the owners' key values; each key's
    task gets every owner filtered to that key (possibly to nothing) and
    every other bound table whole."""
    tasks: dict = {}
    for firing in firings:
        keys = []
        for name in owners:
            for row in firing[name]:
                key = tuple(row[offset] for offset in offsets)
                if key not in keys:
                    keys.append(key)
        for key in keys:
            task = tasks.setdefault(key, {name: [] for name in firing})
            for name, rows in firing.items():
                task[name] += [
                    row
                    for row in rows
                    if name not in owners
                    or tuple(row[offset] for offset in offsets) == key
                ]
    return tasks


def run_shared(txns, clause, removed_items, always_drain=False):
    """Drive the shared-key rule; returns per-cycle (firings, delivered)."""
    delivered: dict = {}

    def fn(ctx):
        bound = {
            name: [tuple(row.values()) for row in ctx.bound(name).to_dicts()]
            for name in ("added", "removed", "notes")
        }
        assert ctx.task.unique_key not in delivered  # one task per key per cycle
        delivered[ctx.task.unique_key] = bound

    db = Database()
    db.execute("create table t (k text, grp text, v real)")
    db.register_function("f", fn)
    db.execute(SHARED_RULE.format(clause=clause, removed=removed_items))
    live, cycles, firings, sequence = [], [], [], 0
    for inserts, picks, drain in txns:
        firing = {"added": [], "removed": [], "notes": []}
        with db.begin() as txn:
            for pick in picks:
                if live:
                    record = live.pop(pick % len(live))
                    k, grp, v = record.values
                    firing["removed"].append(
                        (k, grp, v) if removed_items == "k, grp, v" else (v,)
                    )
                    txn.delete_record(db.catalog.table("t"), record)
            for key_index, group_index in inserts:
                row = (KEYS[key_index], GROUPS[group_index], float(sequence))
                sequence += 1
                live.append(txn.insert("t", row))
                firing["added"].append(row)
                firing["notes"].append((row[2],))
        if firing["added"] or firing["removed"]:
            firings.append(firing)
        db.advance(0.25)
        if drain or always_drain:
            db.drain()
            cycles.append((firings, dict(delivered)))
            firings = []
            delivered.clear()
    db.drain()
    cycles.append((firings, dict(delivered)))
    assert db.unique_manager.pending_count("f") == 0
    return cycles


class TestSharedKeyRouting:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        txns=st.lists(txn_strategy, min_size=1, max_size=8),
        unique_on=st.sampled_from([("k",), ("grp",), ("k", "grp"), ("grp", "k")]),
    )
    def test_shared_key_routes_by_value_level_union(self, txns, unique_on):
        offsets = [COLUMNS.index(column) for column in unique_on]
        clause = "unique on " + ", ".join(unique_on)
        for firings, delivered in run_shared(txns, clause, "k, grp, v"):
            assert delivered == union_reference(firings, ("added", "removed"), offsets)

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(txns=st.lists(txn_strategy, min_size=1, max_size=8))
    def test_single_owner_union_and_product_readings_coincide(self, txns):
        """With one owner there is nothing to unite: the router must agree
        with the union reference *and* with Appendix A's product."""
        from repro.core import appendix_a

        columns = {"added": COLUMNS, "removed": ("gone",), "notes": ("note",)}
        cycles = run_shared(txns, "unique on k", "v as gone", always_drain=True)
        for firings, delivered in cycles:
            assert delivered == union_reference(firings, ("added",), [0])
            for firing in firings:  # one firing per cycle
                assert delivered == appendix_a.partition(firing, columns, ["k"])
