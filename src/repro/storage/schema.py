"""Column and table schemas.

STRIP v2.0 only supported fixed-length fields, so tuple layouts were static
and every column had a fixed offset within the record.  We keep the same
model: a :class:`Schema` is an ordered list of typed columns, and the column
*offset* (its position) is the Python analogue of the byte offset used by the
paper's static maps (section 6.1).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Any, Iterable, Iterator

from repro.errors import SchemaError


class ColumnType(enum.Enum):
    """Supported column types (a deliberately small, fixed-length set)."""

    INT = "int"
    REAL = "real"
    TEXT = "text"
    BOOL = "bool"
    TIME = "time"  # seconds since experiment start, stored as a float

    def validate(self, value: Any) -> Any:
        """Coerce ``value`` to this type, raising :class:`SchemaError` if impossible.

        ``None`` is allowed in every column (SQL NULL).
        """
        if value is None:
            return None
        try:
            if self is ColumnType.INT:
                if isinstance(value, bool):
                    raise SchemaError(f"cannot store bool {value!r} in INT column")
                if isinstance(value, float) and not value.is_integer():
                    raise SchemaError(f"cannot store non-integral {value!r} in INT column")
                return int(value)
            if self in (ColumnType.REAL, ColumnType.TIME):
                if isinstance(value, bool):
                    raise SchemaError(f"cannot store bool {value!r} in {self.name} column")
                result = float(value)
                if math.isnan(result):
                    raise SchemaError(f"cannot store NaN in {self.name} column")
                return result
            if self is ColumnType.TEXT:
                if not isinstance(value, str):
                    raise SchemaError(f"cannot store {value!r} in TEXT column")
                return value
            if self is ColumnType.BOOL:
                if not isinstance(value, bool):
                    raise SchemaError(f"cannot store {value!r} in BOOL column")
                return value
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"cannot store {value!r} in {self.name} column") from exc
        raise SchemaError(f"unknown column type {self!r}")  # pragma: no cover

    @classmethod
    def from_sql(cls, name: str) -> "ColumnType":
        """Map a SQL type name (``INTEGER``, ``FLOAT``, ``VARCHAR``...) to a type."""
        normalized = name.strip().lower()
        aliases = {
            "int": cls.INT,
            "integer": cls.INT,
            "bigint": cls.INT,
            "smallint": cls.INT,
            "real": cls.REAL,
            "float": cls.REAL,
            "double": cls.REAL,
            "numeric": cls.REAL,
            "decimal": cls.REAL,
            "text": cls.TEXT,
            "char": cls.TEXT,
            "varchar": cls.TEXT,
            "string": cls.TEXT,
            "bool": cls.BOOL,
            "boolean": cls.BOOL,
            "time": cls.TIME,
            "timestamp": cls.TIME,
        }
        try:
            return aliases[normalized]
        except KeyError:
            raise SchemaError(f"unknown SQL type {name!r}") from None


@dataclass(frozen=True)
class Column:
    """A single named, typed column."""

    name: str
    type: ColumnType

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "a").isalnum():
            raise SchemaError(f"invalid column name {self.name!r}")


#: The Python type a stored value of each column type has: what
#: :meth:`ColumnType.validate` returns for any value it accepts.
_STORED_AS = {
    ColumnType.INT: int,
    ColumnType.REAL: float,
    ColumnType.TEXT: str,
    ColumnType.BOOL: bool,
    ColumnType.TIME: float,
}


class Schema:
    """An ordered, immutable list of columns with fast name -> offset lookup."""

    __slots__ = ("columns", "_offsets", "_hash", "_stored")

    def __init__(self, columns: Iterable[Column]) -> None:
        self.columns: tuple[Column, ...] = tuple(columns)
        self._offsets: dict[str, int] = {}
        for offset, column in enumerate(self.columns):
            if column.name in self._offsets:
                raise SchemaError(f"duplicate column name {column.name!r}")
            self._offsets[column.name] = offset
        self._hash = hash(self.columns)  # plan-cache keys hash schemas per query
        self._stored = tuple(_STORED_AS[column.type] for column in self.columns)

    @classmethod
    def of(cls, *specs: tuple[str, ColumnType] | Column) -> "Schema":
        """Build a schema from ``("name", ColumnType.X)`` pairs or Columns."""
        columns = [spec if isinstance(spec, Column) else Column(*spec) for spec in specs]
        return cls(columns)

    def offset(self, name: str) -> int:
        """Return the position of column ``name``, raising if unknown."""
        try:
            return self._offsets[name]
        except KeyError:
            raise SchemaError(f"no column {name!r} in schema {self.names()}") from None

    def has_column(self, name: str) -> bool:
        return name in self._offsets

    def column(self, name: str) -> Column:
        return self.columns[self.offset(name)]

    def names(self) -> tuple[str, ...]:
        return tuple(column.name for column in self.columns)

    def validate_row(self, values: Iterable[Any]) -> list[Any]:
        """Type-check a full row, returning coerced values in column order.

        A value that already has exactly the type its column stores (and is
        not NaN) is what :meth:`ColumnType.validate` would hand back, so it
        passes through: most written values were read from a validated
        record.  NULL, coercions and every rejection take ``validate``."""
        row = list(values)
        stored = self._stored
        if len(row) != len(stored):
            raise SchemaError(
                f"row has {len(row)} values but schema has {len(stored)} columns"
            )
        offset = 0
        for value in row:
            if type(value) is not stored[offset] or value != value:
                row[offset] = self.columns[offset].type.validate(value)
            offset += 1
        return row

    def row_from_mapping(self, mapping: dict[str, Any]) -> list[Any]:
        """Build a full row from a ``{column: value}`` mapping (all columns required)."""
        unknown = set(mapping) - set(self._offsets)
        if unknown:
            raise SchemaError(f"unknown columns {sorted(unknown)}")
        missing = set(self._offsets) - set(mapping)
        if missing:
            raise SchemaError(f"missing columns {sorted(missing)}")
        return self.validate_row(mapping[column.name] for column in self.columns)

    def extended(self, *extra: Column) -> "Schema":
        """A new schema with ``extra`` columns appended."""
        return Schema(self.columns + tuple(extra))

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self) -> Iterator[Column]:
        return iter(self.columns)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self.columns == other.columns

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        cols = ", ".join(f"{c.name} {c.type.value}" for c in self.columns)
        return f"Schema({cols})"
