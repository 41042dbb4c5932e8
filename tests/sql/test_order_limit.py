"""ORDER BY … LIMIT: the first key's pass keeps only the rows the output
loop takes (``heapq.nsmallest`` / ``nlargest``), held to a full stable sort
cut after ``k`` rows — ascending and descending keys, NULLs, ties, values
of several types, several keys, and ``k`` of 0, 1 and beyond the row count."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.database import Database
from repro.sql.planner import _ordered, _row_key

values = st.one_of(
    st.none(), st.integers(-2, 2), st.sampled_from([0.5, -1.5, 2.0]), st.booleans(),
    st.sampled_from(["", "a", "b"]),
)
limits = st.one_of(st.none(), st.sampled_from([0, 1]), st.integers(2, 16))
directions = st.lists(st.tuples(st.integers(0, 2), st.booleans()), min_size=1, max_size=3)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(values, values, values), max_size=12), directions, limits, st.booleans())
def test_ordered_keeps_what_a_full_sort_keeps(rows, keys, limit, distinct):
    items = [(at, *row) for at, row in enumerate(rows)]  # ``at`` tells ties apart
    order_keys = [(_row_key(lambda item, c=column: item[c + 1]), desc) for column, desc in keys]
    charged: list = []
    got = _ordered(list(items), order_keys, limit, distinct, charged.append)
    full = list(items)
    for key, descending in reversed(order_keys):
        full.sort(key=key, reverse=descending)
    cut = limit is not None and not distinct
    assert got == (full[:limit] if cut else full)
    assert charged == [len(items)] * len(keys)  # sort_row: every row, every key


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.one_of(st.none(), st.integers(-2, 2)), st.sampled_from(["x", "y", None])),
             max_size=10),
    st.booleans(), st.booleans(), st.sampled_from([0, 1, 3, 20]),
)
def test_order_by_limit_is_the_sorted_rows_cut(rows, desc_a, desc_s, limit):
    db = Database()
    db.execute("create table t (id int, a int, s text)")
    txn = db.begin()
    for at, (a, s) in enumerate(rows):
        txn.insert("t", (at, a, s))
    txn.commit()
    order = f"order by a {'desc' if desc_a else 'asc'}, s {'desc' if desc_s else 'asc'}"
    everything = db.query(f"select id, a, s from t {order}").rows()
    assert db.query(f"select id, a, s from t {order} limit {limit}").rows() == everything[:limit]
