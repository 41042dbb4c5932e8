"""Tests for the application-side net-effect calculation (section 2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.net_effect import (
    NetChange,
    compact_spec,
    compact_table_rows,
    fold_values,
    is_net_noop,
    net_effect,
)
from repro.database import Database
from repro.errors import SchemaError
from repro.storage.schema import Column, ColumnType, Schema
from repro.storage.temptable import TempTable


def make_table(rows, columns=("k", "v", "execute_order")):
    types = {
        "k": ColumnType.TEXT,
        "v": ColumnType.REAL,
        "execute_order": ColumnType.INT,
        "commit_time": ColumnType.TIME,
        "commit_seq": ColumnType.INT,
    }
    schema = Schema([Column(name, types[name]) for name in columns])
    table = TempTable("t", schema)
    for row in rows:
        table.append_values([row[name] for name in columns])
    return table


def change_map(changes):
    return {change.key: change for change in changes}


class TestCollapsing:
    def test_insert_then_delete_vanishes(self):
        changes = net_effect(
            ["k"],
            inserted=make_table([{"k": "a", "v": 1.0, "execute_order": 1}]),
            deleted=make_table([{"k": "a", "v": 1.0, "execute_order": 2}]),
        )
        assert changes == []

    def test_insert_then_updates_is_one_insert(self):
        changes = net_effect(
            ["k"],
            inserted=make_table([{"k": "a", "v": 1.0, "execute_order": 1}]),
            new=make_table([{"k": "a", "v": 3.0, "execute_order": 2}]),
            old=make_table([{"k": "a", "v": 1.0, "execute_order": 2}]),
        )
        [change] = changes
        assert change.kind == "insert"
        assert change.new == {"k": "a", "v": 3.0}

    def test_updates_collapse_first_old_last_new(self):
        changes = net_effect(
            ["k"],
            new=make_table(
                [
                    {"k": "a", "v": 2.0, "execute_order": 1},
                    {"k": "a", "v": 3.0, "execute_order": 2},
                ]
            ),
            old=make_table(
                [
                    {"k": "a", "v": 1.0, "execute_order": 1},
                    {"k": "a", "v": 2.0, "execute_order": 2},
                ]
            ),
        )
        [change] = changes
        assert change.kind == "update"
        assert change.old == {"k": "a", "v": 1.0}
        assert change.new == {"k": "a", "v": 3.0}

    def test_update_back_to_original_is_noop(self):
        changes = net_effect(
            ["k"],
            new=make_table(
                [
                    {"k": "a", "v": 2.0, "execute_order": 1},
                    {"k": "a", "v": 1.0, "execute_order": 2},
                ]
            ),
            old=make_table(
                [
                    {"k": "a", "v": 1.0, "execute_order": 1},
                    {"k": "a", "v": 2.0, "execute_order": 2},
                ]
            ),
        )
        assert changes == []

    def test_noop_kept_when_requested(self):
        changes = net_effect(
            ["k"],
            new=make_table([{"k": "a", "v": 1.0, "execute_order": 1}]),
            old=make_table([{"k": "a", "v": 1.0, "execute_order": 1}]),
            drop_noops=False,
        )
        assert changes[0].kind == "update"

    def test_delete_then_reinsert_is_update(self):
        changes = net_effect(
            ["k"],
            deleted=make_table([{"k": "a", "v": 1.0, "execute_order": 1}]),
            inserted=make_table([{"k": "a", "v": 9.0, "execute_order": 2}]),
        )
        [change] = changes
        assert change.kind == "update"
        assert change.old == {"k": "a", "v": 1.0}
        assert change.new == {"k": "a", "v": 9.0}

    def test_execute_order_beats_list_position(self):
        """Events interleave by execute_order even across tables."""
        changes = net_effect(
            ["k"],
            inserted=make_table([{"k": "a", "v": 5.0, "execute_order": 3}]),
            deleted=make_table([{"k": "a", "v": 4.0, "execute_order": 1}]),
        )
        [change] = changes
        assert change.kind == "update"  # delete(1) then insert(3)
        assert change.new == {"k": "a", "v": 5.0}

    def test_independent_keys(self):
        changes = net_effect(
            ["k"],
            inserted=make_table([{"k": "a", "v": 1.0, "execute_order": 1}]),
            deleted=make_table([{"k": "b", "v": 2.0, "execute_order": 2}]),
        )
        by_key = change_map(changes)
        assert by_key[("a",)].kind == "insert"
        assert by_key[("b",)].kind == "delete"

    def test_commit_time_orders_across_transactions(self):
        columns = ("k", "v", "execute_order", "commit_time")
        changes = net_effect(
            ["k"],
            new=make_table(
                [
                    {"k": "a", "v": 9.0, "execute_order": 1, "commit_time": 2.0},
                    {"k": "a", "v": 5.0, "execute_order": 1, "commit_time": 1.0},
                ],
                columns,
            ),
            old=make_table(
                [
                    {"k": "a", "v": 5.0, "execute_order": 1, "commit_time": 2.0},
                    {"k": "a", "v": 1.0, "execute_order": 1, "commit_time": 1.0},
                ],
                columns,
            ),
        )
        [change] = changes
        assert change.old == {"k": "a", "v": 1.0}
        assert change.new == {"k": "a", "v": 9.0}

    def test_commit_seq_orders_commits_at_one_instant(self):
        # Two transactions commit at virtual time 1.0; the later one (seq 2)
        # updated the key at its execute_order 1, the earlier at its 2.
        # Ordered by (commit_time, execute_order) the later would replay first.
        columns = ("k", "v", "execute_order", "commit_time", "commit_seq")
        rows = [
            {"k": "a", "execute_order": 2, "commit_time": 1.0, "commit_seq": 1},
            {"k": "a", "execute_order": 1, "commit_time": 1.0, "commit_seq": 2},
        ]
        changes = net_effect(
            ["k"],
            new=make_table([dict(rows[0], v=5.0), dict(rows[1], v=9.0)], columns),
            old=make_table([dict(rows[0], v=1.0), dict(rows[1], v=5.0)], columns),
        )
        [change] = changes
        assert change.old == {"k": "a", "v": 1.0}
        assert change.new == {"k": "a", "v": 9.0}

    def test_validation(self):
        with pytest.raises(SchemaError):
            net_effect([], inserted=make_table([]))
        with pytest.raises(SchemaError):
            net_effect(
                ["k"],
                new=make_table([{"k": "a", "v": 1.0, "execute_order": 1}]),
                old=make_table([]),
            )
        with pytest.raises(SchemaError):
            net_effect(
                ["missing"],
                inserted=make_table([{"k": "a", "v": 1.0, "execute_order": 1}]),
            )


class TestAgainstEngine:
    """Replaying the net effect must land on the same final table state as
    the raw audit trail did."""

    @settings(max_examples=25, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["insert", "update", "delete"]),
                st.sampled_from(["a", "b", "c"]),
                st.floats(1.0, 9.0),
            ),
            min_size=1,
            max_size=15,
        )
    )
    def test_net_effect_replay_matches(self, ops):
        db = Database()
        db.execute("create table t (k text, v real)")
        db.execute("create index t_k on t (k)")
        captured = {}

        def capture(ctx):
            captured["changes"] = net_effect(
                ["k"],
                inserted=ctx.bound("ins"),
                deleted=ctx.bound("del_rows"),
                new=ctx.bound("new_rows"),
                old=ctx.bound("old_rows"),
            )

        db.register_function("capture", capture)
        db.execute(
            "create rule r on t when inserted deleted updated then evaluate "
            "select k, v, execute_order from inserted bind as ins, "
            "select k, v, execute_order from deleted bind as del_rows, "
            "select k, v, execute_order from new bind as new_rows, "
            "select k, v, execute_order from old bind as old_rows "
            "execute capture"
        )
        table = db.catalog.table("t")
        txn = db.begin()
        for kind, key, value in ops:
            record = table.get_one("k", key)
            if kind == "insert" and record is None:
                txn.insert("t", {"k": key, "v": value})
            elif kind == "update" and record is not None:
                txn.update_columns(table, record, {"v": value})
            elif kind == "delete" and record is not None:
                txn.delete_record(table, record)
        txn.commit()
        db.drain()

        final = {row[0]: row[1] for row in db.query("select k, v from t").rows()}

        # Replay the net changes onto the initial (empty) state.
        replayed = {}
        for change in captured.get("changes", []):
            if change.kind == "insert":
                replayed[change.key[0]] = change.new["v"]
            elif change.kind == "update":
                replayed[change.key[0]] = change.new["v"]
            elif change.kind == "delete":
                replayed.pop(change.key[0], None)
        assert replayed == final


class TestAuditVisiblePairs:
    """Regression: with ``drop_noops=False`` nothing may vanish silently."""

    def test_insert_then_delete_kept_as_pair(self):
        # This pair used to be dropped even with drop_noops=False,
        # contradicting the audit-trail contract of the flag.
        changes = net_effect(
            ["k"],
            inserted=make_table([{"k": "a", "v": 1.0, "execute_order": 1}]),
            deleted=make_table([{"k": "a", "v": 1.0, "execute_order": 2}]),
            drop_noops=False,
        )
        assert [change.kind for change in changes] == ["insert", "delete"]
        insert, delete = changes
        assert insert.key == delete.key == ("a",)
        assert insert.new == {"k": "a", "v": 1.0}
        assert delete.old == {"k": "a", "v": 1.0}

    def test_pair_carries_last_transient_image(self):
        # insert v=1, update to v=7, delete: the pair shows the last image
        # the key ever had, so replaying it is still a no-op.
        changes = net_effect(
            ["k"],
            inserted=make_table([{"k": "a", "v": 1.0, "execute_order": 1}]),
            new=make_table([{"k": "a", "v": 7.0, "execute_order": 2}]),
            old=make_table([{"k": "a", "v": 1.0, "execute_order": 2}]),
            deleted=make_table([{"k": "a", "v": 7.0, "execute_order": 3}]),
            drop_noops=False,
        )
        assert [change.kind for change in changes] == ["insert", "delete"]
        assert changes[0].new == {"k": "a", "v": 7.0}
        assert changes[1].old == {"k": "a", "v": 7.0}

    def test_default_still_drops_the_pair(self):
        changes = net_effect(
            ["k"],
            inserted=make_table([{"k": "a", "v": 1.0, "execute_order": 1}]),
            deleted=make_table([{"k": "a", "v": 1.0, "execute_order": 2}]),
        )
        assert changes == []


class TestTieOrdering:
    """Regression: cross-stream ties must resolve deterministically (delete
    before update before insert), not by per-stream append position."""

    def test_delete_and_reinsert_tie_is_update(self):
        # Both rows sit at append index 0 of their streams and carry no
        # ordering columns: the delete must still sort first, making this a
        # delete-then-reinsert chain (an update), not insert-then-delete
        # (which would vanish).
        columns = ("k", "v")
        changes = net_effect(
            ["k"],
            inserted=make_table([{"k": "a", "v": 9.0}], columns),
            deleted=make_table([{"k": "a", "v": 1.0}], columns),
        )
        [change] = changes
        assert change.kind == "update"
        assert change.old == {"k": "a", "v": 1.0}
        assert change.new == {"k": "a", "v": 9.0}

    def test_tie_with_equal_execute_order(self):
        # Same, with an explicit but identical execute_order.
        changes = net_effect(
            ["k"],
            inserted=make_table([{"k": "a", "v": 9.0, "execute_order": 5}]),
            deleted=make_table([{"k": "a", "v": 1.0, "execute_order": 5}]),
        )
        [change] = changes
        assert change.kind == "update"

    def test_within_stream_index_still_decides(self):
        # Two updates of one key with no ordering columns: stream rank ties,
        # so the append index orders them (first old, last new).
        columns = ("k", "v")
        changes = net_effect(
            ["k"],
            new=make_table([{"k": "a", "v": 2.0}, {"k": "a", "v": 3.0}], columns),
            old=make_table([{"k": "a", "v": 1.0}, {"k": "a", "v": 2.0}], columns),
        )
        [change] = changes
        assert change.old == {"k": "a", "v": 1.0}
        assert change.new == {"k": "a", "v": 3.0}


class TestCompactPrimitives:
    """The CompactSpec folding primitives behind ``compact on``."""

    COLUMNS = ("comp", "symbol", "weight", "old_price", "new_price")

    def spec(self):
        return compact_spec(self.COLUMNS, ("comp", "symbol"))

    def test_spec_shape(self):
        spec = self.spec()
        assert spec.key_offsets == (0, 1)
        assert spec.first_offsets == frozenset({3})
        assert spec.image_pairs == ((3, 4),)
        assert spec.can_drop_noops

    def test_missing_key_column_raises(self):
        with pytest.raises(SchemaError):
            compact_spec(("a", "b"), ("missing",))

    def test_image_prefixed_key_rejected(self):
        with pytest.raises(SchemaError):
            compact_spec(self.COLUMNS, ("old_price",))

    def test_fold_first_old_last_new(self):
        spec = self.spec()
        first = ("DJX", "IBM", 2.0, 10.0, 11.0)
        last = ("DJX", "IBM", 2.0, 11.0, 12.0)
        assert fold_values(first, last, spec) == ("DJX", "IBM", 2.0, 10.0, 12.0)

    def test_noop_detection_pairs_only(self):
        spec = self.spec()
        assert is_net_noop(("DJX", "IBM", 2.0, 10.0, 10.0), spec)
        assert not is_net_noop(("DJX", "IBM", 2.0, 10.0, 12.0), spec)
        # A table without image pairs can never prove a no-op.
        pairless = compact_spec(("k", "price"), ("k",))
        assert not pairless.can_drop_noops
        assert not is_net_noop(("a", 5.0), pairless)

    def test_compact_table_rows_folds_chains(self):
        rows = [
            ("DJX", "IBM", 2.0, 10.0, 11.0),
            ("DJX", "HWP", 3.0, 50.0, 51.0),
            ("DJX", "IBM", 2.0, 11.0, 12.0),
            ("DJX", "IBM", 2.0, 12.0, 13.0),
        ]
        out = compact_table_rows(self.COLUMNS, ("comp", "symbol"), rows)
        assert out == [
            ("DJX", "IBM", 2.0, 10.0, 13.0),
            ("DJX", "HWP", 3.0, 50.0, 51.0),
        ]

    def test_compact_table_rows_drops_round_trips(self):
        rows = [
            ("DJX", "IBM", 2.0, 10.0, 11.0),
            ("DJX", "IBM", 2.0, 11.0, 10.0),
        ]
        assert compact_table_rows(self.COLUMNS, ("comp", "symbol"), rows) == []
        kept = compact_table_rows(
            self.COLUMNS, ("comp", "symbol"), rows, drop_noops=False
        )
        assert kept == [("DJX", "IBM", 2.0, 10.0, 10.0)]

    def test_order_columns_carry_last_raw_value(self):
        columns = ("k", "old_v", "new_v", "execute_order")
        rows = [("a", 1.0, 2.0, 4), ("a", 2.0, 3.0, 9)]
        out = compact_table_rows(columns, ("k",), rows)
        assert out == [("a", 1.0, 3.0, 9)]
