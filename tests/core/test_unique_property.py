"""Property-based tests for the unique manager's batching invariants.

For any random firing sequence and any ``unique`` clause, the manager must
deliver every firing's rows to exactly one action task (no loss, no
duplication), keep each task's batch homogeneous in the unique columns and
in commit order, match the batch-compaction reference when ``compact on``
is active, and release every record pin once the queues drain.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.net_effect import compact_table_rows
from repro.database import Database

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

#: One op: (key index, group index, drain-before-inserting?).  The value
#: column gets the op's global sequence number, so every row is unique and
#: batch ordering is unambiguous.
ops_strategy = st.lists(
    st.tuples(
        st.integers(0, len(KEYS) - 1),
        st.integers(0, len(GROUPS) - 1),
        st.booleans(),
    ),
    min_size=1,
    max_size=20,
)


def build_db(clause, seen):
    db = Database()
    db.execute("create table t (k text, grp text, v real)")

    def fn(ctx):
        seen.append(
            [(row["k"], row["grp"], row["v"]) for row in ctx.bound("m").to_dicts()]
        )

    db.register_function("f", fn)
    db.execute(
        "create rule r on t when inserted if select k, grp, v from inserted "
        f"bind as m then execute f {clause} after 1 seconds"
    )
    return db


def run_cycles(db, ops, seen):
    """Insert each op in its own transaction; a drain flushes every pending
    task, closing one batching cycle.  Returns per-cycle (inserts, batches)
    pairs and the inserted records (for pin accounting)."""
    cycles, records = [], []
    inserts: list = []
    batches_before = 0

    def close_cycle():
        nonlocal inserts, batches_before
        db.drain()
        cycles.append((inserts, seen[batches_before:]))
        batches_before = len(seen)
        inserts = []

    for sequence, (key_index, group_index, drain_first) in enumerate(ops):
        if drain_first and inserts:
            close_cycle()
        row = (KEYS[key_index], GROUPS[group_index], float(sequence))
        with db.begin() as txn:
            records.append(txn.insert("t", row))
        inserts.append(row)
        db.advance(0.25)
    if inserts:
        close_cycle()
    db.drain()
    return cycles, records


class TestUniquePartitioning:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(ops=ops_strategy, clause=st.sampled_from(sorted(CLAUSES)))
    def test_firing_sequences_batch_without_loss(self, ops, clause):
        seen = []
        db = build_db(clause, seen)
        cycles, records = run_cycles(db, ops, seen)

        for inserts, batches in cycles:
            if "compact" in clause:
                # Each key's batch must equal the batch-compaction reference
                # over that key's rows for the cycle.
                for batch in batches:
                    key = batch[0][0]
                    key_rows = [row for row in inserts if row[0] == key]
                    assert batch == compact_table_rows(
                        COLUMNS, ("k", "grp"), key_rows
                    )
            else:
                # No loss, no duplication: the batches partition the cycle.
                flat = [row for batch in batches for row in batch]
                assert sorted(flat) == sorted(inserts)
                # Commit order survives within each batch (values carry the
                # global sequence number, so order is total).
                for batch in batches:
                    values = [row[2] for row in batch]
                    assert values == sorted(values)
            # Batches are homogeneous in the unique columns.
            for batch in batches:
                for offset in CLAUSES[clause]:
                    assert len({row[offset] for row in batch}) == 1

        # Everything drained: no pending work, every pin released.
        assert db.unique_manager.pending_count("f") == 0
        for record in records:
            assert record.pins == 0

    @settings(max_examples=15, deadline=None)
    @given(ops=ops_strategy)
    def test_unique_on_key_matches_batch_reference(self, ops):
        """Per-key batching must deliver, per key and cycle, exactly the
        rows a batch partition over the cycle's firings would."""
        seen = []
        db = build_db("unique on k", seen)
        cycles, _ = run_cycles(db, ops, seen)
        for inserts, batches in cycles:
            reference: dict = {}
            for row in inserts:
                reference.setdefault(row[0], []).append(row)
            delivered = {batch[0][0]: batch for batch in batches}
            assert delivered == reference


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
