"""Tests for standard tables, records, versioning and indexes."""

import pytest

from repro.errors import SchemaError, StorageError
from repro.storage.catalog import Catalog
from repro.storage.index import HashIndex, RBTreeIndex
from repro.storage.schema import ColumnType, Schema
from repro.storage.table import Table
from repro.storage.temptable import StaticMap, TempTable
from repro.storage.tuples import Record, RecordList


def make_table(name="stocks"):
    return Table(name, Schema.of(("symbol", ColumnType.TEXT), ("price", ColumnType.REAL)))


class TestRecordList:
    def test_append_and_iterate(self):
        records = RecordList()
        a, b = Record(["a"]), Record(["b"])
        records.append(a)
        records.append(b)
        assert [r.values[0] for r in records] == ["a", "b"]
        assert len(records) == 2

    def test_unlink_middle(self):
        records = RecordList()
        a, b, c = Record([1]), Record([2]), Record([3])
        for record in (a, b, c):
            records.append(record)
        records.unlink(b)
        assert [r.values[0] for r in records] == [1, 3]
        assert not b.in_table

    def test_unlink_head_and_tail(self):
        records = RecordList()
        a, b = Record([1]), Record([2])
        records.append(a)
        records.append(b)
        records.unlink(a)
        assert records.head is b
        records.unlink(b)
        assert records.head is None and records.tail is None
        assert len(records) == 0

    def test_safe_iteration_while_unlinking(self):
        records = RecordList()
        for i in range(5):
            records.append(Record([i]))
        for record in records:
            records.unlink(record)
        assert len(records) == 0

    def test_double_append_rejected(self):
        records = RecordList()
        a = Record([1])
        records.append(a)
        with pytest.raises(StorageError):
            records.append(a)

    def test_unlink_not_linked(self):
        with pytest.raises(StorageError):
            RecordList().unlink(Record([1]))

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_replace_is_unlink_then_append(self, position):
        """One pass, one result: ``fresh`` at the end, ``old`` unlinked —
        for the head, a middle record and the tail alike."""
        one, two = RecordList(), RecordList()
        for records in (one, two):
            originals = [Record([i]) for i in range(3)]
            for record in originals:
                records.append(record)
            old, fresh = originals[position], Record([9])
            if records is one:
                records.replace(old, fresh)
            else:
                records.unlink(old)
                records.append(fresh)
            assert not old.in_table and old.prev is None and old.next is None
        assert [r.values for r in one] == [r.values for r in two]
        assert one.head.values == two.head.values and one.tail.values == [9]
        assert [r.values for r in _backwards(one)] == [r.values for r in _backwards(two)]

    def test_replace_the_only_record(self):
        records = RecordList()
        old, fresh = Record([1]), Record([2])
        records.append(old)
        records.replace(old, fresh)
        assert records.head is fresh and records.tail is fresh and len(records) == 1
        with pytest.raises(StorageError):
            records.replace(old, Record([3]))  # no longer linked
        with pytest.raises(StorageError):
            records.replace(fresh, fresh)  # already linked


def _backwards(records: RecordList) -> list:
    out, node = [], records.tail
    while node is not None:
        out.append(node)
        node = node.prev
    return out


class TestTable:
    def test_insert_validates(self):
        table = make_table()
        record = table.insert(["IBM", 100])
        assert record.values == ["IBM", 100.0]
        assert record.in_table
        assert len(table) == 1

    def test_insert_bad_type(self):
        with pytest.raises(SchemaError):
            make_table().insert([42, 100.0])

    def test_update_creates_new_record(self):
        """Section 6.1: records are never changed in place."""
        table = make_table()
        old = table.insert(["IBM", 100.0])
        new = table.update(old, ["IBM", 101.0])
        assert new is not old
        assert old.values == ["IBM", 100.0]  # old image preserved
        assert not old.in_table
        assert new.in_table
        assert len(table) == 1

    def test_delete_unlinks(self):
        table = make_table()
        record = table.insert(["IBM", 100.0])
        table.delete(record)
        assert len(table) == 0
        assert not record.in_table

    def test_update_columns(self):
        table = make_table()
        record = table.insert(["IBM", 100.0])
        fresh = table.update_columns(record, {"price": 105.0})
        assert fresh.values == ["IBM", 105.0]

    def test_pinned_old_version_survives(self):
        """The reference-counting scheme for bound tables (section 6.1)."""
        table = make_table()
        old = table.insert(["IBM", 100.0])
        bound = TempTable("bound", table.schema, StaticMap.all_pointer(table.schema))
        bound.append_row((old,))
        table.update(old, ["IBM", 101.0])
        assert not old.reclaimable  # pinned: must survive
        assert old.values == ["IBM", 100.0]
        bound.retire()
        assert old.reclaimable
        assert table.retired_pinned == 1

    def test_unpin_without_pin(self):
        """A table dropping a row takes back a pin its record no longer
        holds: refused, typed."""
        table = make_table()
        record = table.insert(["IBM", 100.0])
        bound = TempTable("bound", table.schema, StaticMap.all_pointer(table.schema))
        bound.append_row((record,))
        record.pins -= 1  # taken back behind the table's back
        with pytest.raises(StorageError, match="with no pins"):
            bound.retire()

    def test_scan_order(self):
        table = make_table()
        for i in range(3):
            table.insert([f"S{i}", float(i)])
        assert [r.values[0] for r in table.scan()] == ["S0", "S1", "S2"]

    def test_lookup_without_index_scans(self):
        table = make_table()
        table.insert(["A", 1.0])
        table.insert(["B", 2.0])
        assert [r.values[1] for r in table.lookup(("symbol",), "B")] == [2.0]

    def test_get_one(self):
        table = make_table()
        table.insert(["A", 1.0])
        assert table.get_one("symbol", "A").values == ["A", 1.0]
        assert table.get_one("symbol", "Z") is None

    def test_stats_counters(self):
        table = make_table()
        a = table.insert(["A", 1.0])
        b = table.update(a, ["A", 2.0])
        table.delete(b)
        assert (table.insert_count, table.update_count, table.delete_count) == (1, 1, 1)


class TestIndexMaintenance:
    @pytest.mark.parametrize("kind", ["hash", "rbtree"])
    def test_index_backfill(self, kind):
        table = make_table()
        table.insert(["A", 1.0])
        table.insert(["B", 2.0])
        index = table.create_index("by_symbol", ["symbol"], kind)
        assert [r.values[1] for r in index.lookup("A")] == [1.0]

    @pytest.mark.parametrize("kind", ["hash", "rbtree"])
    def test_index_tracks_updates(self, kind):
        table = make_table()
        record = table.insert(["A", 1.0])
        table.create_index("by_symbol", ["symbol"], kind)
        table.update(record, ["A2", 1.0])
        assert list(table.lookup(("symbol",), "A")) == []
        assert len(list(table.lookup(("symbol",), "A2"))) == 1

    @pytest.mark.parametrize("kind", ["hash", "rbtree"])
    def test_index_tracks_deletes(self, kind):
        table = make_table()
        record = table.insert(["A", 1.0])
        table.create_index("by_symbol", ["symbol"], kind)
        table.delete(record)
        assert list(table.lookup(("symbol",), "A")) == []

    @pytest.mark.parametrize("kind", ["hash", "rbtree"])
    def test_update_keeps_each_bucket_in_list_order(self, kind):
        """``replace`` swaps a fresh record into the slot of a key-keeping
        update's record when that record is its bucket's last; otherwise it
        removes and adds.  Either way a bucket lists its records in the
        table's list order."""
        table = Table("t", Schema.of(("k", ColumnType.INT), ("v", ColumnType.INT)))
        index = table.create_index("by_k", ["k"], kind)
        first, middle, last = (table.insert([7, v]) for v in range(3))
        table.insert([8, 0])
        for record, values in ((last, [7, 10]), (first, [7, 11]), (middle, [8, 12])):
            table.update(record, values)
            for key in (7, 8):
                assert list(index.lookup(key)) == [r for r in table.scan() if r.values[0] == key]
        assert [r.values[1] for r in index.lookup(7)] == [10, 11]

    @pytest.mark.parametrize("kind", ["hash", "rbtree"])
    def test_removing_a_record_the_index_lacks_is_a_storage_error(self, kind):
        table = make_table()
        index = table.create_index("by_symbol", ["symbol"], kind)
        with pytest.raises(StorageError, match="not in index by_symbol"):
            index.remove(Record(["A", 1.0]))

    def test_duplicate_keys(self):
        table = Table("t", Schema.of(("k", ColumnType.INT), ("v", ColumnType.INT)))
        table.create_index("by_k", ["k"])
        for v in range(3):
            table.insert([7, v])
        assert sorted(r.values[1] for r in table.lookup(("k",), 7)) == [0, 1, 2]

    def test_composite_key_index(self):
        table = Table(
            "t", Schema.of(("a", ColumnType.INT), ("b", ColumnType.INT), ("v", ColumnType.INT))
        )
        table.create_index("by_ab", ["a", "b"])
        table.insert([1, 2, 10])
        table.insert([1, 3, 20])
        assert [r.values[2] for r in table.lookup(("a", "b"), (1, 3))] == [20]

    def test_rbtree_range(self):
        table = Table("t", Schema.of(("k", ColumnType.INT),))
        index = table.create_index("by_k", ["k"], "rbtree")
        for k in (5, 1, 9, 3):
            table.insert([k])
        assert isinstance(index, RBTreeIndex)
        assert [r.values[0] for r in index.range(2, 6)] == [3, 5]

    def test_rbtree_range_holds_no_null(self):
        table = Table("t", Schema.of(("k", ColumnType.INT),))
        index = table.create_index("by_k", ["k"], "rbtree")
        for k in (5, None, 1):
            table.insert([k])
        assert [r.values[0] for r in index.range(None, 6)] == [1, 5]
        assert [r.values[0] for r in index.range(0, None, False, False)] == [1, 5]

    @pytest.mark.parametrize("kind", ["hash", "rbtree"])
    @pytest.mark.parametrize("columns", [("symbol",), ("symbol", "price")])
    def test_null_keyed_rows_are_indexed_like_any_other(self, kind, columns):
        """A NULL key used to reach the red-black tree as a bare ``None``,
        which orders against nothing: the TypeError came after the table
        had changed, leaving the row in the scan and in no bucket."""
        table = make_table()
        index = table.create_index("i", columns, kind)
        null_row = table.insert([None, 1.0])
        kept = table.insert(["A", 2.0])
        assert table.find([None, 1.0]) is null_row
        moved = table.update(kept, [None, 2.0])  # a key becomes NULL ...
        back = table.update(null_row, ["B", 1.0])  # ... and a NULL key a value
        table.delete(table.insert([None, None]))
        by_key: dict = {}
        for record in table.scan():
            by_key.setdefault(index.key_of(record.values), []).append(record)
        assert {key: list(index.lookup(key)) for key in by_key} == by_key
        assert len(index) == 2 and index.key_count() == 2
        assert table.find([None, 2.0]) is moved and table.find(["B", 1.0]) is back
        assert table.find([None, 1.0]) is None

    def test_a_key_of_another_type_equals_no_rbtree_key(self):
        table = make_table()
        table.create_index("i", ["price"], "rbtree")
        table.insert(["A", 1.0])
        assert list(table.lookup(("price",), "1.0")) == []  # as a hash index answers

    def test_duplicate_index_name(self):
        table = make_table()
        table.create_index("i", ["symbol"])
        with pytest.raises(SchemaError):
            table.create_index("i", ["price"])

    def test_unknown_index_kind(self):
        with pytest.raises(SchemaError):
            make_table().create_index("i", ["symbol"], "btree")

    def test_drop_index(self):
        table = make_table()
        table.create_index("i", ["symbol"])
        table.drop_index("i")
        assert table.index_on(("symbol",)) is None
        with pytest.raises(SchemaError):
            table.drop_index("i")

    def test_index_ddl_moves_the_catalog_version(self):
        catalog = Catalog()
        table = catalog.create_table("stocks", make_table().schema)
        v0 = catalog.version
        table.create_index("i", ["symbol"])
        assert catalog.version == v0 + 1
        table.drop_index("i")
        assert catalog.version == v0 + 2
        make_table().create_index("i", ["symbol"])  # a table no catalog holds
        assert catalog.version == v0 + 2


class TestFindByImage:
    """``Table.find``: the first current record equal to a full-row image,
    through the most selective index, or by scan when there is none."""

    KINDS = [None, "hash", "rbtree"]

    @staticmethod
    def indexed(kind, columns=("symbol",)):
        table = make_table()
        if kind is not None:
            table.create_index("i", columns, kind)
        return table

    @pytest.mark.parametrize("kind", KINDS)
    def test_empty_table_finds_nothing(self, kind):
        table = self.indexed(kind)
        assert table.find(["a", 1.0]) is None
        assert table.rows_examined == 0

    @pytest.mark.parametrize("kind", KINDS)
    def test_miss_in_a_non_empty_bucket(self, kind):
        table = self.indexed(kind)
        table.insert(["a", 1.0])
        table.insert(["a", 2.0])
        table.insert(["b", 3.0])
        assert table.find(["a", 3.0]) is None  # the key is there, the row is not
        assert table.rows_examined == (3 if kind is None else 2)
        assert table.find(["zzz", 1.0]) is None  # no such key
        assert table.rows_examined == (6 if kind is None else 2)

    @pytest.mark.parametrize("kind", KINDS)
    def test_first_of_fully_duplicate_rows_in_list_order(self, kind):
        table = self.indexed(kind)
        first = table.insert(["a", 1.0])
        other = table.insert(["b", 1.0])
        second = table.insert(["a", 1.0])
        assert table.find(["a", 1.0]) is first
        moved = table.update(first, ["a", 1.0])  # same image, now last in the list
        assert table.find(["a", 1.0]) is second
        table.delete(second)
        assert table.find(["a", 1.0]) is moved
        assert table.find(["b", 1.0]) is other

    @pytest.mark.parametrize("kind", KINDS)
    def test_never_returns_a_retired_version(self, kind):
        table = self.indexed(kind)
        old = table.insert(["a", 1.0])
        old.pins += 1  # a bound table still reads the old version
        new = table.update(old, ["a", 2.0])
        assert table.find(["a", 1.0]) is None
        assert table.find(["a", 2.0]) is new
        table.delete(new)
        new.pins += 1
        assert table.find(["a", 2.0]) is None
        assert not old.in_table and not new.in_table

    @pytest.mark.parametrize("kind", ["hash", "rbtree"])
    def test_composite_key_comes_from_the_image(self, kind):
        table = self.indexed(kind, ("symbol", "price"))
        table.insert(["a", 1.0])
        wanted = table.insert(["a", 0.1 + 0.2])
        assert table.find(["a", 0.30000000000000004]) is wanted
        assert table.rows_examined == 1

    def test_null_key_is_a_key(self):
        table = self.indexed("hash")
        table.insert(["a", 1.0])
        wanted = table.insert([None, 1.0])
        assert table.find([None, 1.0]) is wanted
        assert table.rows_examined == 1

    def test_probes_the_index_with_the_most_distinct_keys(self):
        table = make_table()
        by_price = table.create_index("by_price", ["price"])
        by_symbol = table.create_index("by_symbol", ["symbol"], "rbtree")
        for symbol in "abcd":
            table.insert([symbol, 1.0])
        assert (by_price.key_count(), by_symbol.key_count()) == (1, 4)
        assert table.find(["c", 1.0]).values == ["c", 1.0]
        assert table.rows_examined == 1  # one candidate under 'c', not four under 1.0
        # Decided per call from what the table holds now: spread the prices,
        # collapse the symbols, and the other index is the selective one.
        for price, record in enumerate(list(table.scan())):
            table.update(record, ["a", float(price)])
        assert (by_price.key_count(), by_symbol.key_count()) == (4, 1)
        assert table.find(["a", 2.0]).values == ["a", 2.0]
        assert table.rows_examined == 2

    def test_a_tie_goes_to_the_older_index(self, monkeypatch):
        table = make_table()
        table.create_index("older", ["symbol"])
        table.create_index("newer", ["price"])
        table.insert(["a", 1.0])
        probed = []
        lookup = HashIndex.lookup
        monkeypatch.setattr(
            HashIndex, "lookup",
            lambda self, key: probed.append(self.name) or lookup(self, key),
        )
        assert table.find(["a", 1.0]) is not None
        assert probed == ["older"]
