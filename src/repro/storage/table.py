"""Standard tables: linked lists of versioned records with secondary indexes.

Mirrors paper section 6.1:

* the table is a linked list of fixed-layout records;
* row order is unimportant;
* an update never changes a record in place — a new record is created and
  linked, the old one is unlinked and survives while pinned by temporary
  tables (see :mod:`repro.storage.tuples`);
* tables can be indexed with hash or red-black tree structures.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Iterator, Optional

from repro.errors import SchemaError, TransactionError
from repro.storage.index import BaseIndex, HashIndex, RBTreeIndex
from repro.storage.schema import Schema
from repro.storage.tuples import Record, RecordList

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.catalog import Catalog


class Table:
    """A named standard table."""

    is_temporary = False

    def __init__(self, name: str, schema: Schema) -> None:
        self.name = name
        self.schema = schema
        self._records = RecordList()
        self.indexes: dict[str, BaseIndex] = {}
        self.catalog: Optional["Catalog"] = None  # set by its catalog; index DDL moves its version
        # Statistics kept for the view advisor and for tests.
        self.insert_count = 0
        self.delete_count = 0
        self.update_count = 0
        self.retired_pinned = 0  # old versions kept alive for bound tables
        self.rows_examined = 0  # candidates `find` compared against an image

    # ------------------------------------------------------------- indexing

    def create_index(self, name: str, columns: Iterable[str], kind: str = "hash") -> BaseIndex:
        """Create and backfill a secondary index on ``columns``."""
        if name in self.indexes:
            raise SchemaError(f"index {name!r} already exists on table {self.name!r}")
        if kind == "hash":
            index: BaseIndex = HashIndex(name, self.schema, columns)
        elif kind == "rbtree":
            index = RBTreeIndex(name, self.schema, columns)
        else:
            raise SchemaError(f"unknown index kind {kind!r} (use 'hash' or 'rbtree')")
        for record in self._records:
            index.add(record)
        self.indexes[name] = index
        self._indexes_changed()
        return index

    def drop_index(self, name: str) -> None:
        try:
            del self.indexes[name]
        except KeyError:
            raise SchemaError(f"no index {name!r} on table {self.name!r}") from None
        self._indexes_changed()

    def _indexes_changed(self) -> None:
        if self.catalog is not None:
            self.catalog.version += 1

    def index_on(self, columns: Iterable[str]) -> Optional[BaseIndex]:
        """The first index whose key columns exactly match ``columns``."""
        wanted = tuple(columns)
        for index in self.indexes.values():
            if index.columns == wanted:
                return index
        return None

    # ----------------------------------------------------------------- DML

    def insert(self, values: Iterable[Any]) -> Record:
        """Append a new record (values are validated against the schema)."""
        record = Record(self.schema.validate_row(values))
        self._records.append(record)
        for index in self.indexes.values():
            index.add(record)
        self.insert_count += 1
        return record

    def _not_current(self, record: Record) -> TransactionError:
        """A write must name the *current* version of its row: an image
        already replaced or deleted (say, by this transaction's earlier
        update) is refused before any index is touched."""
        return TransactionError(
            f"record {record.rid} is no longer the current version of a row "
            f"in table {self.name!r}"
        )

    def delete(self, record: Record) -> None:
        """Unlink ``record``.  It stays alive while pinned by temp tables."""
        if not record.in_table:
            raise self._not_current(record)
        for index in self.indexes.values():
            index.remove(record)
        self._records.unlink(record)
        self.delete_count += 1
        if record.pins:
            self.retired_pinned += 1

    def update(self, record: Record, new_values: Iterable[Any]) -> Record:
        """Replace ``record`` with a fresh record holding ``new_values``.

        Returns the new record.  The old record is unlinked, never mutated,
        and remains readable through any temporary table that pinned it.
        """
        if not record.in_table:
            raise self._not_current(record)
        fresh = Record(self.schema.validate_row(new_values))
        indexes = self.indexes.values()
        for index in indexes:
            index.remove(record)
        self._records.unlink(record)
        self._records.append(fresh)
        for index in indexes:
            index.add(fresh)
        self.update_count += 1
        if record.pins:
            self.retired_pinned += 1
        return fresh

    def update_columns(self, record: Record, changes: dict[str, Any]) -> Record:
        """Update with only the changed columns named."""
        values = list(record.values)
        for column, value in changes.items():
            values[self.schema.offset(column)] = value
        return self.update(record, values)

    # --------------------------------------------------------------- access

    def scan(self) -> Iterator[Record]:
        """All current records, in list order."""
        return iter(self._records)

    def lookup(self, columns: Iterable[str], key: Any) -> Iterator[Record]:
        """Current records where ``columns`` equal ``key``, via an index if one
        matches, otherwise a full scan."""
        wanted = tuple(columns)
        index = self.index_on(wanted)
        if index is not None:
            return index.lookup(key)
        offsets = tuple(self.schema.offset(column) for column in wanted)
        if len(offsets) == 1:
            offset = offsets[0]
            return (r for r in self._records if r.values[offset] == key)
        return (
            r
            for r in self._records
            if tuple(r.values[offset] for offset in offsets) == key
        )

    def get_one(self, column: str, key: Any) -> Optional[Record]:
        """The first record with ``column == key`` or None."""
        return next(self.lookup((column,), key), None)

    def find(self, values: list) -> Optional[Record]:
        """The first current record, in list order, whose values equal the
        full-row image ``values`` — or None.

        The index with the most distinct keys (ties: the older one) narrows
        where to look; the whole-row comparison stays the check.  A bucket
        holds its records in list order (:meth:`BaseIndex.lookup`) and every
        record equal to the image shares its key, so the probe returns the
        record a scan would have returned, fully duplicate rows included.
        Only a table with no index is scanned.
        """
        best: Optional[BaseIndex] = None
        most = -1
        for index in self.indexes.values():
            count = index.key_count()
            if count > most:  # strictly: a tie stays with the older index
                best, most = index, count
        candidates = self.scan() if best is None else best.lookup(best.key_of(values))
        found = None
        examined = 0
        for record in candidates:
            examined += 1
            if record.values == values:
                found = record
                break
        self.rows_examined += examined
        return found

    def __len__(self) -> int:
        return len(self._records)

    def __repr__(self) -> str:
        return f"Table({self.name!r}, {len(self)} rows)"
