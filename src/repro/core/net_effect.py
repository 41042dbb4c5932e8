"""Net-effect computation over transition / bound tables.

STRIP deliberately does **not** reduce transition tables or bound tables to
net effect — every individual change is preserved as an audit trail, and
"it is always possible for the application to calculate net effect on its
own using the transition tables as provided" (paper section 2).  This
module is that application-side calculation, packaged once:

given the four change streams of one or more transactions (ordered by
``execute_order`` within a transaction and by batching order across
transactions), collapse them per key into at most one net change:

* insert then delete            -> nothing
* insert then updates           -> one insert with the final image
* updates only                  -> one update (first old image, last new)
* update back to the original   -> nothing
* delete then re-insert         -> an update from the old to the new image

The second half of the module applies the same folding to *bound tables*
(the opt-in ``compact on`` fast path): a bound table row that carries an
update's two images side by side — the paper's rules alias them
``old.price as old_price, new.price as new_price`` — is split into its old
and new images by the ``old_``/``new_`` column-prefix convention, and the
per-key chain collapses exactly as above.  :func:`compact_table_rows` is
the batch form (it literally builds the image streams and calls
:func:`net_effect`); :class:`FoldedTable` is the incremental form — the
bound table a ``compact on`` task carries, and the only place a pending
batch is folded, whether the row arrives from a live firing, WAL replay or
a checkpoint — with the same :class:`CompactSpec`, so the two agree row
for row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence, Union

from repro.errors import BindingError, SchemaError
from repro.storage.schema import Schema
from repro.storage.temptable import TempTable

INSERT = "insert"
DELETE = "delete"
UPDATE = "update"

#: Bound-table columns with these prefixes belong to the update's old/new
#: image respectively; unprefixed columns are carried data present in both.
OLD_IMAGE_PREFIX = "old_"
NEW_IMAGE_PREFIX = "new_"

#: Sort ranks for events that tie on (commit_time, execute_order, index):
#: a key dies before it is re-created at the same position, so a DELETE
#: sorts ahead of an UPDATE, which sorts ahead of an INSERT of the same
#: key.  This makes delete-then-reinsert interleavings deterministic when
#: the streams carry no explicit ordering columns.
_STREAM_RANK = {DELETE: 0, UPDATE: 1, INSERT: 2}

#: A change stream: a bound/transition TempTable, or plain row dicts.
ChangeStream = Union[TempTable, Sequence[dict]]


@dataclass(frozen=True)
class NetChange:
    """The net effect on one key."""

    kind: str  # insert | delete | update
    key: tuple
    old: Optional[dict]  # None for inserts
    new: Optional[dict]  # None for deletes


@dataclass(frozen=True)
class _Event:
    order: tuple  # sortable position: (commit order hint, execute_order)
    kind: str
    old: Optional[dict]
    new: Optional[dict]


def _events_from_tables(
    inserted: Optional[ChangeStream],
    deleted: Optional[ChangeStream],
    new: Optional[ChangeStream],
    old: Optional[ChangeStream],
) -> list[_Event]:
    events: list[_Event] = []

    def rows(table: Optional[ChangeStream]) -> list[dict]:
        if table is None:
            return []
        if isinstance(table, TempTable):
            return table.to_dicts()
        return list(table)

    def position(index: int, row: dict, kind: str) -> tuple:
        # commit_time (when bound) orders events across transactions, the
        # execute_order column orders them within one, and the bound-table
        # append index breaks remaining ties (paper section 2).  Events from
        # different streams can still collide (e.g. an insert and a delete
        # both appended 0th with no ordering columns) and each stream's
        # append index counts independently, so for cross-stream ties the
        # stream rank decides before the index does: deletes before updates
        # before inserts.
        return (
            row.get("commit_time", 0.0),
            row.get("execute_order", index),
            _STREAM_RANK[kind],
            index,
        )

    for index, row in enumerate(rows(inserted)):
        events.append(_Event(position(index, row, INSERT), INSERT, None, row))
    for index, row in enumerate(rows(deleted)):
        events.append(_Event(position(index, row, DELETE), DELETE, row, None))
    new_rows = rows(new)
    old_rows = rows(old)
    if len(new_rows) != len(old_rows):
        raise SchemaError(
            f"new/old row counts differ ({len(new_rows)} vs {len(old_rows)}); "
            "bind both images to compute net effect of updates"
        )
    for index, (new_row, old_row) in enumerate(zip(new_rows, old_rows)):
        events.append(_Event(position(index, new_row, UPDATE), UPDATE, old_row, new_row))
    return events


def net_effect(
    key_columns: Sequence[str],
    inserted: Optional[ChangeStream] = None,
    deleted: Optional[ChangeStream] = None,
    new: Optional[ChangeStream] = None,
    old: Optional[ChangeStream] = None,
    drop_noops: bool = True,
) -> list[NetChange]:
    """Collapse the audit trail into net changes, one per key.

    ``key_columns`` identify a logical row (e.g. ``["symbol"]``).  The
    ``new``/``old`` tables must bind rows pairwise in the same order (as
    the ``execute_order`` join in the paper's rules produces).  With
    ``drop_noops`` (default) keys whose final image equals their initial
    image produce no change at all; with ``drop_noops=False`` every key
    that saw activity stays audit-visible — an update back to the original
    image is emitted as an update, and an insert-then-delete chain is
    emitted as an insert/delete pair carrying the transient image.
    """
    if not key_columns:
        raise SchemaError("net_effect needs at least one key column")
    events = _events_from_tables(inserted, deleted, new, old)
    events.sort(key=lambda event: event.order)

    def key_of(row: dict) -> tuple:
        try:
            return tuple(row[column] for column in key_columns)
        except KeyError as exc:
            raise SchemaError(f"key column {exc.args[0]!r} missing from bound row") from None

    def strip(row: Optional[dict]) -> Optional[dict]:
        if row is None:
            return None
        return {
            column: value
            for column, value in row.items()
            if column not in ("execute_order", "commit_time")
        }

    first_old: dict[tuple, Optional[dict]] = {}
    last_new: dict[tuple, Optional[dict]] = {}
    last_image: dict[tuple, Optional[dict]] = {}
    existed_before: dict[tuple, bool] = {}
    order_seen: list[tuple] = []
    for event in events:
        row = event.new if event.new is not None else event.old
        key = key_of(row)  # type: ignore[arg-type]
        if key not in first_old:
            order_seen.append(key)
            existed_before[key] = event.kind != INSERT
            first_old[key] = strip(event.old)
        last_new[key] = strip(event.new)
        # The most recent image seen for the key, even if the key is later
        # deleted — the audit-visible transient of an insert-then-delete.
        last_image[key] = strip(event.new if event.new is not None else event.old)

    changes: list[NetChange] = []
    for key in order_seen:
        before = first_old[key]
        after = last_new[key]
        if existed_before[key]:
            if after is None:
                changes.append(NetChange(DELETE, key, before, None))
            elif drop_noops and after == before:
                continue
            else:
                changes.append(NetChange(UPDATE, key, before, after))
        else:
            if after is None:
                # Inserted then deleted: no net effect.  Without drop_noops
                # the pair stays audit-visible, carrying the last transient
                # image the key ever had (replaying the pair is a no-op).
                if not drop_noops:
                    transient = last_image[key]
                    changes.append(NetChange(INSERT, key, None, transient))
                    changes.append(NetChange(DELETE, key, transient, None))
                continue
            changes.append(NetChange(INSERT, key, None, after))
    return changes


# --------------------------------------------------------------------------
# Bound-table compaction (the ``compact on`` fast path's folding semantics)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CompactSpec:
    """How one bound table's rows fold per compaction key.

    ``key_offsets`` locate the ``compact on`` columns; ``first_offsets``
    are the ``old_``-prefixed columns (kept from the *first* row of a
    key's chain — the chain's initial image); every other column takes the
    *last* row's value.  ``image_pairs`` are the ``(old_x, new_x)`` offset
    pairs present in the schema: only a table carrying at least one full
    image pair can prove a chain returned to its initial image, so only
    those tables drop net no-ops.
    """

    columns: tuple[str, ...]
    key_offsets: tuple[int, ...]
    first_offsets: frozenset[int]
    image_pairs: tuple[tuple[int, int], ...]

    @property
    def can_drop_noops(self) -> bool:
        return bool(self.image_pairs)


def compact_spec(columns: Sequence[str], key_columns: Sequence[str]) -> CompactSpec:
    """Build the folding spec for one bound-table schema.

    Raises :class:`SchemaError` if a key column is missing — callers use
    this to decide which bound tables of a rule are compactible.
    """
    columns = tuple(columns)
    offsets = {name: i for i, name in enumerate(columns)}
    for column in key_columns:
        if column.startswith((OLD_IMAGE_PREFIX, NEW_IMAGE_PREFIX)):
            raise SchemaError(
                f"compaction key column {column!r} is an image column; "
                "key columns must be plain (present in both images)"
            )
    try:
        key_offsets = tuple(offsets[column] for column in key_columns)
    except KeyError as exc:
        raise SchemaError(
            f"compaction key column {exc.args[0]!r} missing from bound table"
        ) from None
    first_offsets = frozenset(
        i for i, name in enumerate(columns) if name.startswith(OLD_IMAGE_PREFIX)
    )
    image_pairs = tuple(
        (offsets[name], offsets[NEW_IMAGE_PREFIX + name[len(OLD_IMAGE_PREFIX):]])
        for name in columns
        if name.startswith(OLD_IMAGE_PREFIX)
        and NEW_IMAGE_PREFIX + name[len(OLD_IMAGE_PREFIX):] in offsets
    )
    return CompactSpec(columns, key_offsets, first_offsets, image_pairs)


def fold_values(first: Sequence[Any], last: Sequence[Any], spec: CompactSpec) -> tuple:
    """Fold two rows of one key's chain: old-image columns keep the chain's
    first value, everything else takes the latest (net_effect's
    first-old / last-new update folding)."""
    return tuple(
        first[i] if i in spec.first_offsets else last[i]
        for i in range(len(spec.columns))
    )


def is_net_noop(values: Sequence[Any], spec: CompactSpec) -> bool:
    """True when a folded row's old image equals its new image.

    Only the paired ``old_x``/``new_x`` columns are compared — unprefixed
    columns are carried data, not images — and a table with no image pairs
    never drops rows (there is nothing to prove a no-op with)."""
    if not spec.image_pairs:
        return False
    return all(values[old] == values[new] for old, new in spec.image_pairs)


class FoldedTable(TempTable):
    """A bound table kept folded to net effect per compaction key.

    Fully materialized, one row per distinct key: every further row of a
    key is folded into the row already held (:func:`fold_values`) instead
    of appended.  ``index`` is the key -> row-position hash (the section
    6.3-style lookup structure of the fast path) and ``rows_in`` counts
    every row that entered — what the task would have carried uncompacted.
    :meth:`seal` closes the batch when its task starts running; a sealed
    table appends like a plain one (a fault-retried task keeps batching
    firings, which its rerun then sees verbatim).
    """

    def __init__(self, name: str, schema: Schema, spec: CompactSpec) -> None:
        super().__init__(name, schema)
        self.spec = spec
        self.index: dict[tuple, int] = {}
        self.rows_in = 0
        self.folding = True
        # (position, previous row) of every fold since the last savepoint.
        self._journal: Optional[list] = None

    def append_row(self, ptrs: Sequence[Any], mats: Sequence[Any] = ()) -> None:
        if self.folding and not ptrs:
            self._fold(tuple(mats))
        else:  # sealed — or a pointer row, which the plain append rejects
            super().append_row(ptrs, mats)

    def _fold(self, mats: tuple) -> None:
        """Append ``mats`` as a new key's row, or fold it into the key's."""
        key = tuple([mats[offset] for offset in self.spec.key_offsets])
        at = self.index.get(key)
        if at is None:
            super().append_row((), mats)
            self.index[key] = len(self._rows) - 1
        else:
            self._check_live()
            previous = self._rows[at]
            if self._journal is not None:
                self._journal.append((at, previous))
            self._rows[at] = ((), fold_values(previous[1], mats, self.spec))
        self.rows_in += 1

    def absorb(self, other: TempTable) -> int:
        """Fold all of ``other``'s rows in *by value* — a firing's fresh
        bound table is pointer-backed, this one never is.  Returns the
        number of incoming rows, not the post-fold growth."""
        if other.schema != self.schema:
            raise BindingError(
                f"bound table {self.name!r}: schema mismatch when batching "
                f"({other.schema!r} vs {self.schema!r})"
            )
        take = self._fold if self.folding else self.append_values
        for values in other.scan_columns(range(len(self.schema))):
            take(values)
        return len(other)

    def move_from(self, other: TempTable) -> int:
        """Rows enter a folded table by value, so nothing can move: absorb,
        then retire ``other`` as a move would leave it."""
        moved = self.absorb(other)
        other.retire()
        return moved

    def savepoint(self) -> Any:
        """Start journaling folds; the mark also remembers length and
        ``rows_in``.  The journal stays attached until the next savepoint,
        rollback or seal, so it never outgrows one absorbed firing."""
        self._journal = []
        return len(self._rows), self.rows_in, self._journal

    def rollback(self, mark: Any) -> None:
        """Restore the rows folded since ``mark``, drop the rows appended
        since, and forget their keys (a sealed table, still absorbing for a
        retried task, has no keys left to forget)."""
        length, rows_in, journal = mark
        self._journal = None
        if self.retired:
            return
        for at, previous in reversed(journal):
            self._rows[at] = previous
        key_offsets = self.spec.key_offsets
        for _ptrs, mats in self._rows[length:]:
            self.index.pop(tuple(mats[offset] for offset in key_offsets), None)
        del self._rows[length:]
        self.rows_in = rows_in

    def seal(self) -> int:
        """Close the batch: drop net no-ops (an insert met by its delete,
        an update chain that ended where it began) and stop folding.
        Returns the number of surviving rows."""
        if self.spec.can_drop_noops:
            self._rows[:] = [
                row for row in self._rows if not is_net_noop(row[1], self.spec)
            ]
        self.folding = False
        self.index.clear()
        self._journal = None
        return len(self._rows)


def compact_table_rows(
    columns: Sequence[str],
    key_columns: Sequence[str],
    rows: Sequence[Sequence[Any]],
    drop_noops: bool = True,
) -> list[tuple]:
    """Batch-compact one bound table's rows to net effect per key.

    This is the reference form of the ``compact on`` fast path: each row is
    split into its old/new images (``old_``/``new_`` prefix convention,
    unprefixed columns in both) and the image streams are run through
    :func:`net_effect` as a single update chain; the surviving per-key
    changes are reassembled into rows in first-seen key order.
    :class:`FoldedTable` must produce exactly the same rows —
    ``tests/core/test_compaction.py`` holds the two to that.
    """
    spec = compact_spec(columns, key_columns)
    old_stream: list[dict] = []
    new_stream: list[dict] = []
    last_raw: dict[tuple, Sequence[Any]] = {}
    order_names = ("execute_order", "commit_time")
    for row in rows:
        old_image: dict = {}
        new_image: dict = {}
        for i, name in enumerate(spec.columns):
            if name.startswith(OLD_IMAGE_PREFIX):
                old_image[name[len(OLD_IMAGE_PREFIX):]] = row[i]
            elif name.startswith(NEW_IMAGE_PREFIX):
                new_image[name[len(NEW_IMAGE_PREFIX):]] = row[i]
            else:
                old_image[name] = row[i]
                new_image[name] = row[i]
        old_stream.append(old_image)
        new_stream.append(new_image)
        last_raw[tuple(row[i] for i in spec.key_offsets)] = row
    # Always fold with noops kept: the no-op test below is the pair-based
    # one shared with the incremental path (unprefixed columns are carried
    # data and must not influence whether a chain cancelled out).
    changes = net_effect(key_columns, new=new_stream, old=old_stream, drop_noops=False)

    out: list[tuple] = []
    for change in changes:
        raw = last_raw[change.key]
        values = []
        for i, name in enumerate(spec.columns):
            if name.startswith(OLD_IMAGE_PREFIX):
                base = name[len(OLD_IMAGE_PREFIX):]
                values.append(change.old[base])  # type: ignore[index]
            elif name.startswith(NEW_IMAGE_PREFIX):
                base = name[len(NEW_IMAGE_PREFIX):]
                values.append(change.new[base])  # type: ignore[index]
            elif name in order_names:
                # net_effect strips ordering pseudo-columns from its images;
                # carry the latest raw value (what the last firing saw).
                values.append(raw[i])
            else:
                values.append(change.new[name])  # type: ignore[index]
        folded = tuple(values)
        if drop_noops and is_net_noop(folded, spec):
            continue
        out.append(folded)
    return out
