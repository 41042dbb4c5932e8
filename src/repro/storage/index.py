"""Secondary indexes over standard tables.

STRIP tables "can be indexed using either a hash or red-black tree
structure" (section 6.1).  Both index kinds map a key — the value of one
column, or a tuple of values for composite keys — to the set of *current*
records holding that key.  Indexes are maintained by the owning
:class:`~repro.storage.table.Table` on every insert/delete/update.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

from repro.errors import ExecutionError, SchemaError, StorageError
from repro.storage.rbtree import RedBlackTree
from repro.storage.schema import Schema
from repro.storage.tuples import Record


class BaseIndex:
    """Shared key-extraction logic for both index structures."""

    kind = "base"

    def __init__(self, name: str, schema: Schema, columns: Iterable[str]) -> None:
        self.name = name
        self.columns = tuple(columns)
        if not self.columns:
            raise SchemaError("an index needs at least one column")
        self._offsets = tuple(schema.offset(column) for column in self.columns)
        self._single = self._offsets[0] if len(self._offsets) == 1 else None

    def key_of(self, values: list) -> Any:
        """The index key held by a full row of ``values`` (a record's, or a
        logged image's: a composite key is a tuple either way)."""
        if self._single is not None:
            return values[self._single]
        return tuple(values[offset] for offset in self._offsets)

    # The concrete structures implement these four, and ``replace(old,
    # fresh)``: ``remove(old)`` then ``add(fresh)`` for an update, whose
    # ``fresh`` goes to the end of the table's list — so when the key is kept
    # and ``old`` is its bucket's last record, ``fresh`` just takes its slot.
    def add(self, record: Record) -> None:
        raise NotImplementedError

    def remove(self, record: Record) -> None:
        raise NotImplementedError

    def lookup(self, key: Any) -> Iterator[Record]:
        """Current records holding ``key``, in table-list order: ``add``
        appends to the bucket as the table appends to its list, and
        ``remove`` keeps the order of what stays."""
        raise NotImplementedError

    def key_count(self) -> int:
        """Distinct keys currently held, in O(1)."""
        raise NotImplementedError


class HashIndex(BaseIndex):
    """A non-unique hash index: key -> list of current records."""

    kind = "hash"

    def __init__(self, name: str, schema: Schema, columns: Iterable[str]) -> None:
        super().__init__(name, schema, columns)
        self._buckets: dict[Any, list[Record]] = {}

    def add(self, record: Record) -> None:
        self._buckets.setdefault(self.key_of(record.values), []).append(record)

    def remove(self, record: Record) -> None:
        key = self.key_of(record.values)
        bucket = self._buckets.get(key)
        if not bucket:
            raise StorageError(f"record {record.rid} not in index {self.name}")
        bucket.remove(record)
        if not bucket:
            del self._buckets[key]

    def replace(self, old: Record, fresh: Record) -> None:
        single = self._single
        key = fresh.values[single] if single is not None else self.key_of(fresh.values)
        bucket = self._buckets.get(key)
        if bucket and bucket[-1] is old:  # ``old`` is under ``fresh``'s key: it is kept
            bucket[-1] = fresh
        else:
            self.remove(old)
            self.add(fresh)

    def lookup(self, key: Any) -> Iterator[Record]:
        return iter(self._buckets.get(key, ()))

    def key_count(self) -> int:
        return len(self._buckets)

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())


def _ordered(key: Any) -> tuple:
    """``key`` in a total order with NULL first: ``None < 5`` is a TypeError,
    ``(False, None) < (True, 5)`` is not, so both index kinds take the same rows."""
    if type(key) is tuple:
        return tuple([(value is not None, value) for value in key])
    return (key is not None, key)


class RBTreeIndex(BaseIndex):
    """A non-unique ordered index backed by a red-black tree."""

    kind = "rbtree"

    def __init__(self, name: str, schema: Schema, columns: Iterable[str]) -> None:
        super().__init__(name, schema, columns)
        self._tree = RedBlackTree()
        self._count = 0

    def add(self, record: Record) -> None:
        key = _ordered(self.key_of(record.values))
        bucket = self._tree.get(key)
        if bucket is None:
            self._tree.insert(key, [record])
        else:
            bucket.append(record)
        self._count += 1

    def remove(self, record: Record) -> None:
        key = _ordered(self.key_of(record.values))
        bucket = self._tree.get(key)
        if not bucket:
            raise StorageError(f"record {record.rid} not in index {self.name}")
        bucket.remove(record)
        if not bucket:
            self._tree.delete(key)
        self._count -= 1

    def replace(self, old: Record, fresh: Record) -> None:
        bucket = self._tree.get(_ordered(self.key_of(fresh.values)))
        if bucket and bucket[-1] is old:
            bucket[-1] = fresh
        else:
            self.remove(old)
            self.add(fresh)

    def lookup(self, key: Any) -> Iterator[Record]:
        try:
            bucket = self._tree.get(_ordered(key))
        except TypeError:  # a key of another type equals no key held, as in a hash index
            bucket = None
        return iter(bucket) if bucket else iter(())

    def key_count(self) -> int:
        return len(self._tree)

    def range(
        self,
        low: Any = None,
        high: Any = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> Iterator[Record]:
        """All current records with index key in the given range, key-ordered;
        a NULL key is in no range, and a missing bound starts just past it."""
        below = None if high is None else _ordered(high)
        walk = self._tree.range(_ordered(low), below, include_low and low is not None, include_high)
        try:
            for _key, bucket in walk:
                yield from bucket
        except TypeError:
            held = next((type(key[1]).__name__ for key, _ in self._tree.items() if key[0]), "NULL")
            given = " and ".join(type(b).__name__ for b in (low, high) if b is not None)
            raise ExecutionError(f"cannot compare {held} with {given} ({self.name})") from None

    def __len__(self) -> int:
        return self._count
