"""Temporary tables with pointer-based tuples and static maps.

Paper section 6.1: a temporary tuple does not copy attribute values.  It
stores **one pointer per standard record that contributes at least one
attribute**, plus inline storage for aggregate/computed/timestamp attributes
that exist nowhere else.  A per-table *static map* records, for every column,
which pointer to follow and the offset inside the referenced record — or the
slot in the inline (materialized) area.

Because rule conditions are evaluated in the triggering transaction while
the rule action runs later in a decoupled transaction, a temporary table used
as a *bound table* pins every record it references; the storage layer keeps
retired record versions alive until the last referencing bound table is
retired (reference counting).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import starmap
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from repro.errors import BindingError, SchemaError
from repro.storage.schema import Schema
from repro.storage.tuples import Record


@dataclass(frozen=True)
class ColumnSource:
    """Where one temp-table column's value lives.

    ``kind`` is ``"ptr"`` (follow ``slot``-th record pointer, read attribute
    at ``offset``) or ``"mat"`` (read the ``slot``-th materialized value).
    """

    kind: str
    slot: int
    offset: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("ptr", "mat"):
            raise SchemaError(f"bad column source kind {self.kind!r}")

    def text(self, ptrs: str, mats: str) -> str:
        """The one spelling of "this column of a raw row", as source text
        over the expressions that name the row's pointer tuple and its
        materialized tuple.  Integers only (``:d`` refuses anything else):
        no table or column name ever reaches generated code."""
        if self.kind == "ptr":
            return f"{ptrs}[{self.slot:d}].values[{self.offset:d}]"
        return f"{mats}[{self.slot:d}]"


def generate(lines: Sequence[str], name: str, filename: str, names: dict[str, Any]) -> Callable:
    """Compile generated source that defines function ``name`` with
    ``names`` as its globals, and return the function.  The only ``exec``
    in the library (DESIGN.md 6a): the SELECT loop nests of
    ``sql/planner.py`` and the row readers below both come through here,
    and what they interpolate is offsets, slots and names they made up
    themselves — never text from a statement or a schema."""
    exec(compile("\n".join(lines), filename, "exec"), names)
    return names[name]


@functools.lru_cache(maxsize=512)
def _reader(sources: tuple[ColumnSource, ...], display: str) -> Callable:
    """``(ptrs, mats) -> values`` for one tuple of column sources, as a
    tuple (``display`` "()") or a fresh list ("[]").  Cached by the sources
    themselves, so every table, task and database with the same column
    shape shares one function and nothing is compiled per table."""
    items = "".join(source.text("ptrs", "mats") + ", " for source in sources)
    line = f"def read(ptrs, mats): return {display[0]}{items}{display[1]}"
    return generate([line], "read", f"<reader {display}>", {})


class StaticMap:
    """The static column map of one temporary table."""

    __slots__ = ("sources", "ptr_slots", "mat_slots", "ptr_labels")

    def __init__(self, sources: Sequence[ColumnSource], ptr_labels: Sequence[str] = ()) -> None:
        self.sources = tuple(sources)
        self.ptr_slots = 1 + max(
            (s.slot for s in self.sources if s.kind == "ptr"), default=-1
        )
        self.mat_slots = 1 + max(
            (s.slot for s in self.sources if s.kind == "mat"), default=-1
        )
        # Human-readable names of the contributing tables, for repr/debugging.
        self.ptr_labels = tuple(ptr_labels) if ptr_labels else tuple(
            f"src{i}" for i in range(self.ptr_slots)
        )

    @classmethod
    def all_materialized(cls, n_columns: int) -> "StaticMap":
        """A map where every column is stored inline (no pointers)."""
        return cls([ColumnSource("mat", i) for i in range(n_columns)])

    @classmethod
    def all_pointer(cls, schema: Schema, label: str = "src0") -> "StaticMap":
        """A map where every column comes from a single record pointer.

        Used for transition tables, whose rows each reference exactly one
        standard record.
        """
        return cls(
            [ColumnSource("ptr", 0, offset) for offset in range(len(schema))],
            ptr_labels=(label,),
        )

    def reader(self, offsets: Iterable[int]) -> Callable:
        """The compiled read of the columns at ``offsets`` from one raw
        row: ``(ptrs, mats) -> tuple``."""
        return _reader(tuple([self.sources[at] for at in offsets]), "()")

    def row_reader(self) -> Callable:
        """The compiled read of a whole row: ``(ptrs, mats) -> list``."""
        return _reader(self.sources, "[]")

    def signature(self) -> tuple:
        """A comparable shape identity (bound tables of one user function
        must be defined identically — paper section 2)."""
        return (self.sources, self.ptr_slots, self.mat_slots)

    def __repr__(self) -> str:
        parts = []
        for source in self.sources:
            if source.kind == "ptr":
                parts.append(f"({self.ptr_labels[source.slot]}, @{source.offset})")
            else:
                parts.append(f"(mat, #{source.slot})")
        return f"StaticMap[{', '.join(parts)}]"


class TempTable:
    """A temporary table: schema + static map + rows of (pointers, values).

    Rows are ``(ptrs, mats)`` pairs where ``ptrs`` is a tuple of pinned
    :class:`Record` references and ``mats`` a tuple of inline values.
    """

    is_temporary = True
    #: True while appended rows fold per key instead of accumulating — only
    #: ever on :class:`repro.core.net_effect.FoldedTable`, before its seal.
    folding = False

    def __init__(self, name: str, schema: Schema, static_map: Optional[StaticMap] = None) -> None:
        if static_map is None:
            static_map = StaticMap.all_materialized(len(schema))
        if len(static_map.sources) != len(schema):
            raise SchemaError(
                f"static map has {len(static_map.sources)} columns, schema has {len(schema)}"
            )
        self.name = name
        self.schema = schema
        self.static_map = static_map
        self._rows: list[tuple[tuple[Record, ...], tuple[Any, ...]]] = []
        self._retired = False

    # ------------------------------------------------------------ mutation

    def append_row(self, ptrs: Sequence[Record], mats: Sequence[Any] = ()) -> None:
        """Add one row, pinning every referenced record."""
        ptrs = tuple(ptrs)
        mats = tuple(mats)
        append = self.row_sink(len(ptrs), len(mats))
        for record in ptrs:
            record.pin()
        append((ptrs, mats))

    def row_sink(self, n_ptrs: int, n_mats: int):
        """The append of this table's row list, for a loop that adds many
        rows of one arity: the arity is checked here, once.  The caller
        appends ``(ptrs, mats)`` tuple pairs and has pinned each pointer
        once *before* appending its row, so a table abandoned half-built
        retires cleanly."""
        self._check_live()
        if n_ptrs != self.static_map.ptr_slots:
            raise SchemaError(
                f"row has {n_ptrs} pointers, static map needs {self.static_map.ptr_slots}"
            )
        if n_mats != self.static_map.mat_slots:
            raise SchemaError(
                f"row has {n_mats} materialized values, "
                f"static map needs {self.static_map.mat_slots}"
            )
        return self._rows.append

    def append_values(self, values: Sequence[Any]) -> None:
        """Add a fully materialized row (only valid for all-mat maps)."""
        if self.static_map.ptr_slots:
            raise SchemaError("append_values requires an all-materialized static map")
        self.append_row((), tuple(values))

    def _check_identical(self, other: "TempTable") -> None:
        """Batched tables must be *defined identically*: same schema, same
        static-map shape."""
        self._check_live()
        if other.schema != self.schema:
            raise BindingError(
                f"bound table {self.name!r}: schema mismatch when batching "
                f"({other.schema!r} vs {self.schema!r})"
            )
        if other.static_map.signature() != self.static_map.signature():
            raise BindingError(
                f"bound table {self.name!r}: static map mismatch when batching"
            )

    def absorb(self, other: "TempTable") -> int:
        """Append all of ``other``'s rows to this table (unique-transaction
        batching, paper sections 2 and 6.3), pinning their records again;
        ``other`` is left as it was.  Returns the number of rows added."""
        self._check_identical(other)
        other._check_live()
        for ptrs, mats in other._rows:
            for record in ptrs:
                record.pin()
            self._rows.append((ptrs, mats))
        return len(other._rows)

    def move_from(self, other: "TempTable") -> int:
        """:meth:`absorb` for a table nobody else will read: ``other``'s
        rows move here *with the pins they hold* and ``other`` is left
        retired.  Returns the number of rows moved."""
        self._check_identical(other)
        other._check_live()
        moved = len(other._rows)
        self._rows += other._rows
        other._rows = []
        other._retired = True
        return moved

    def subset(self, rows: Iterable[tuple]) -> "TempTable":
        """A fresh table defined identically to this one, holding ``rows`` —
        raw ``(ptrs, mats)`` pairs of this table (``unique on``
        partitioning) — and pinning their records."""
        self._check_live()
        copy = TempTable(self.name, self.schema, self.static_map)
        for ptrs, mats in rows:
            for record in ptrs:
                record.pin()
            copy._rows.append((ptrs, mats))
        return copy

    def savepoint(self) -> Any:
        """A mark :meth:`rollback` can return the table to.  Appends are all
        a plain table ever sees, so its length is the whole mark."""
        return len(self._rows)

    def rollback(self, mark: Any) -> None:
        """Drop every row appended since ``mark``, unpinning its records.
        A table retired in the meantime has nothing left to undo."""
        while len(self._rows) > mark:
            ptrs, _mats = self._rows.pop()
            for record in ptrs:
                record.unpin()

    def retire(self) -> None:
        """Release every pinned record.  Idempotent."""
        if self._retired:
            return
        self._retired = True
        for ptrs, _mats in self._rows:
            for record in ptrs:
                record.unpin()
        self._rows.clear()

    @property
    def retired(self) -> bool:
        return self._retired

    # -------------------------------------------------------------- access

    # Every read goes through the static map's compiled reader and refuses
    # a retired table as the writes do: a retired table holds no rows, and
    # reading "nothing" from it would let derived data go stale silently.

    def value_at(self, row_index: int, column_offset: int) -> Any:
        self._check_live()
        return self.static_map.reader((column_offset,))(*self._rows[row_index])[0]

    def row_values(self, row_index: int) -> list[Any]:
        self._check_live()
        return self.static_map.row_reader()(*self._rows[row_index])

    def scan_values(self) -> Iterator[list[Any]]:
        """Iterate rows as plain value lists (the executor's row source)."""
        self._check_live()
        return starmap(self.static_map.row_reader(), self._rows)

    def scan_columns(self, offsets: Iterable[int]) -> Iterator[tuple]:
        """Iterate rows as tuples of the columns at ``offsets`` only."""
        self._check_live()
        return starmap(self.static_map.reader(offsets), self._rows)

    def scan_raw(self) -> Iterator[tuple[tuple[Record, ...], tuple[Any, ...]]]:
        self._check_live()
        return iter(self._rows)

    def to_dicts(self) -> list[dict[str, Any]]:
        """Rows as dictionaries — convenient in user functions and tests."""
        names = self.schema.names()
        return [dict(zip(names, values)) for values in self.scan_values()]

    def __len__(self) -> int:
        return len(self._rows)

    def __repr__(self) -> str:
        state = "retired" if self._retired else f"{len(self._rows)} rows"
        return f"{type(self).__name__}({self.name!r}, {state})"

    def _check_live(self) -> None:
        if self._retired:
            raise SchemaError(f"temp table {self.name!r} is retired")


def project_columns(
    table: TempTable, name: str, columns: Iterable[str]
) -> TempTable:
    """A new all-materialized temp table holding a projection of ``table``."""
    offsets = [table.schema.offset(column) for column in columns]
    schema = Schema([table.schema.columns[offset] for offset in offsets])
    result = TempTable(name, schema)
    append = result.row_sink(0, len(offsets))
    for mats in table.scan_columns(offsets):
        append(((), mats))
    return result
