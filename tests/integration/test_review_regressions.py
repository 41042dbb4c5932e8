"""Regression tests for defects found in the code-review pass."""

import pytest

from repro.database import Database
from repro.errors import RuleError, StripError


class TestCommitFailureRollsBack:
    """A failing rule fails the commit: the triggering transaction must be
    rolled back, its locks released, its changes undone."""

    def make_db(self):
        db = Database()
        db.execute("create table t (k text)")
        db.register_function("f", lambda ctx: None)
        # unique on a column absent from the bound table -> dispatch raises
        db.execute(
            "create rule broken on t when inserted "
            "if select k from inserted bind as m "
            "then execute f unique on missing_col"
        )
        return db

    def test_changes_undone_and_locks_released(self):
        db = self.make_db()
        with pytest.raises(StripError):
            db.execute("insert into t values ('a')")
        # The insert was rolled back...
        db.execute("alter rule broken disable")
        assert db.query("select count(*) as n from t").scalar() == 0
        # ...and no locks linger: a fresh transaction can write freely.
        db.execute("insert into t values ('b')")
        assert db.query("select count(*) as n from t").scalar() == 1
        assert db.aborted_txns >= 1

    def test_no_pinned_records_leak(self):
        db = self.make_db()
        db.execute("alter rule broken disable")
        db.execute("insert into t values ('a')")
        db.execute("alter rule broken enable")
        with pytest.raises(StripError):
            db.execute("insert into t values ('a2')")
        for record in db.catalog.table("t").scan():
            assert record.pins == 0


class TestEmptyAggregateWithRowColumn:
    def test_yields_null_not_crash(self):
        db = Database()
        db.execute("create table t (k text, v real)")
        row = db.query("select k, count(*) as n from t").first()
        assert row == {"k": None, "n": 0}

    def test_nonempty_still_uses_first_row(self):
        db = Database()
        db.execute("create table t (k text, v real)")
        db.execute("insert into t values ('a', 1.0)")
        row = db.query("select k, count(*) as n from t").first()
        assert row == {"k": "a", "n": 1}


class TestCountColumnViewRejected:
    def test_materialize_count_column_unsupported(self):
        from repro.views.maintain import UnsupportedViewError, materialize

        db = Database()
        db.execute("create table x (a text, b real)")
        db.execute("create view v as select a, count(b) as n from x group by a")
        with pytest.raises(UnsupportedViewError):
            materialize(db, "v")

    def test_count_star_still_fine(self):
        from repro.views.maintain import materialize

        db = Database()
        db.execute("create table x (a text, b real)")
        db.execute("create view v as select a, count(*) as n from x group by a")
        materialize(db, "v")
        db.execute("insert into x values ('g', null)")
        db.drain()
        assert db.query("select n from v where a = 'g'").scalar() == 1
