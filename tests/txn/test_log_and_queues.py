"""Tests for the transaction log, task queues and scheduling policies."""

import pytest

from repro.errors import SimulationError
from repro.storage.tuples import Record
from repro.txn.log import DELETE, INSERT, UPDATE, TransactionLog
from repro.txn.queues import DelayQueue, ReadyQueue
from repro.txn.scheduler import (
    EarliestDeadlinePolicy,
    FifoPolicy,
    ValueDensityPolicy,
    make_policy,
)
from repro.txn.tasks import Task, TaskState


def make_task(release=0.0, deadline=None, value=1.0, estimated=1e-4):
    return Task(
        body=lambda task: None,
        release_time=release,
        deadline=deadline,
        value=value,
        estimated_cpu=estimated,
    )


class TestTransactionLog:
    def test_execute_order_is_sequential(self):
        log = TransactionLog()
        a = log.log_insert("t", Record([1]))
        b = log.log_delete("t", Record([2]))
        c = log.log_update("t", Record([3]), Record([4]))
        assert (a.execute_order, b.execute_order, c.execute_order) == (1, 2, 3)

    def test_update_shares_one_order(self):
        """The old and new images of one update share an execute_order."""
        log = TransactionLog()
        entry = log.log_update("t", Record([1]), Record([2]))
        assert entry.kind == UPDATE
        assert entry.old_record.values == [1]
        assert entry.new_record.values == [2]

    def test_per_table_index(self):
        log = TransactionLog()
        log.log_insert("a", Record([1]))
        log.log_insert("b", Record([2]))
        log.log_insert("a", Record([3]))
        assert len(log.for_table("a")) == 2
        assert len(log.for_table("b")) == 1
        assert log.for_table("zzz") == []
        assert set(log.tables_touched()) == {"a", "b"}

    def test_changed_offsets(self):
        log = TransactionLog()
        entry = log.log_update("t", Record([1, "x", 3.0]), Record([1, "y", 3.0]))
        assert entry.changed_offsets() == {1}

    def test_changed_offsets_non_update(self):
        log = TransactionLog()
        entry = log.log_insert("t", Record([1]))
        assert entry.changed_offsets() == set()

    def test_no_net_effect_reduction(self):
        """Insert-then-delete of the same tuple keeps both log entries."""
        log = TransactionLog()
        record = Record([1])
        log.log_insert("t", record)
        log.log_delete("t", record)
        kinds = [entry.kind for entry in log.for_table("t")]
        assert kinds == [INSERT, DELETE]


class TestDelayQueue:
    def test_pop_due_in_release_order(self):
        queue = DelayQueue()
        late = make_task(release=2.0)
        early = make_task(release=1.0)
        queue.push(late)
        queue.push(early)
        assert queue.peek_time() == 1.0
        due = queue.pop_due(1.5)
        assert due == [early]
        assert queue.pop_due(5.0) == [late]
        assert not queue

    def test_pop_due_nothing(self):
        queue = DelayQueue()
        queue.push(make_task(release=10.0))
        assert queue.pop_due(5.0) == []
        assert len(queue) == 1

    def test_push_sets_state(self):
        queue = DelayQueue()
        task = make_task(release=1.0)
        queue.push(task)
        assert task.state is TaskState.DELAYED


class TestReadyQueue:
    def test_fifo_order(self):
        queue = ReadyQueue(FifoPolicy())
        a = make_task(release=2.0)
        b = make_task(release=1.0)
        queue.push(a)
        queue.push(b)
        assert queue.pop() is b
        assert queue.pop() is a

    def test_fifo_tiebreak_by_creation(self):
        queue = ReadyQueue(FifoPolicy())
        a = make_task(release=1.0)
        b = make_task(release=1.0)
        queue.push(b)
        queue.push(a)
        assert queue.pop() is a  # created first

    def test_edf_order(self):
        queue = ReadyQueue(EarliestDeadlinePolicy())
        no_deadline = make_task(release=0.0)
        tight = make_task(release=0.0, deadline=1.0)
        loose = make_task(release=0.0, deadline=9.0)
        for task in (no_deadline, loose, tight):
            queue.push(task)
        assert queue.pop() is tight
        assert queue.pop() is loose
        assert queue.pop() is no_deadline

    def test_vdf_order(self):
        queue = ReadyQueue(ValueDensityPolicy())
        dense = make_task(value=10.0, estimated=1e-4)
        sparse = make_task(value=1.0, estimated=1e-4)
        queue.push(sparse)
        queue.push(dense)
        assert queue.pop() is dense

    def test_peek(self):
        queue = ReadyQueue(FifoPolicy())
        assert queue.peek() is None
        task = make_task()
        queue.push(task)
        assert queue.peek() is task
        assert len(queue) == 1


class TestPolicyKeys:
    """Every policy key ends in task_id: heap order is total, and equal
    primary keys resolve to creation order (the documented tie-break)."""

    def test_fifo_key_carries_task_id(self):
        a, b = make_task(release=1.0), make_task(release=1.0)
        assert FifoPolicy().key(a) == (1.0, a.stratum, a.task_id)
        assert FifoPolicy().key(a) < FifoPolicy().key(b)

    def test_edf_key_carries_task_id(self):
        a = make_task(release=0.0, deadline=2.0)
        b = make_task(release=0.0, deadline=2.0)
        policy = EarliestDeadlinePolicy()
        assert policy.key(a) == (2.0, 0.0, a.stratum, a.task_id)
        assert policy.key(a) < policy.key(b)

    def test_vdf_key_carries_task_id(self):
        a = make_task(value=5.0, estimated=1e-4)
        b = make_task(value=5.0, estimated=1e-4)
        policy = ValueDensityPolicy()
        assert policy.key(a)[-1] == a.task_id
        assert policy.key(a) < policy.key(b)

    def test_keys_are_comparable_on_ties(self):
        # Identical primary keys must not make heap comparisons reach the
        # (uncomparable) Task object even without the queue's seq shim.
        tasks = [make_task(release=3.0) for _ in range(4)]
        for policy in (FifoPolicy(), EarliestDeadlinePolicy(), ValueDensityPolicy()):
            keyed = sorted((policy.key(task), task) for task in tasks)
            assert [task.task_id for _key, task in keyed] == sorted(
                task.task_id for task in tasks
            )


class TestPolicyFactory:
    @pytest.mark.parametrize("name", ["fifo", "edf", "vdf"])
    def test_known(self, name):
        assert make_policy(name).name == name

    def test_unknown(self):
        with pytest.raises(SimulationError):
            make_policy("random")


class TestTask:
    def test_bound_rows_and_retire(self):
        from repro.storage.schema import ColumnType, Schema
        from repro.storage.temptable import TempTable

        temp = TempTable("m", Schema.of(("a", ColumnType.INT)))
        temp.append_values([1])
        temp.append_values([2])
        task = make_task()
        task.bound_tables["m"] = temp
        assert task.bound_rows == 2
        task.retire_bound_tables()
        assert temp.retired
