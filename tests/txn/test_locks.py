"""Tests for the lock manager: modes, waiting, upgrades, deadlock."""

import pytest

from repro.errors import DeadlockError
from repro.txn.locks import LockManager, LockMode

S = LockMode.SHARED
X = LockMode.EXCLUSIVE
ROW = ("t", 1)
ROW2 = ("t", 2)
TABLE = ("t", None)


class TestModes:
    def test_compatibility(self):
        assert S.compatible_with(S)
        assert not S.compatible_with(X)
        assert not X.compatible_with(S)
        assert not X.compatible_with(X)


class TestGrants:
    def test_exclusive_grant(self):
        manager = LockManager()
        assert manager.acquire(1, ROW, X)
        assert manager.holds(1, ROW, X)

    def test_shared_sharing(self):
        manager = LockManager()
        assert manager.acquire(1, ROW, S)
        assert manager.acquire(2, ROW, S)
        assert manager.holds(2, ROW, S)

    def test_exclusive_blocks_shared(self):
        manager = LockManager()
        assert manager.acquire(1, ROW, X)
        assert not manager.acquire(2, ROW, S)
        assert not manager.holds(2, ROW, S)

    def test_shared_blocks_exclusive(self):
        manager = LockManager()
        assert manager.acquire(1, ROW, S)
        assert not manager.acquire(2, ROW, X)

    def test_reentrant(self):
        manager = LockManager()
        assert manager.acquire(1, ROW, X)
        assert manager.acquire(1, ROW, X)
        assert manager.acquire(1, ROW, S)  # weaker request is satisfied

    def test_upgrade_sole_holder(self):
        manager = LockManager()
        assert manager.acquire(1, ROW, S)
        assert manager.acquire(1, ROW, X)
        assert manager.holds(1, ROW, X)

    def test_upgrade_blocked_by_other_sharer(self):
        manager = LockManager()
        assert manager.acquire(1, ROW, S)
        assert manager.acquire(2, ROW, S)
        assert not manager.acquire(1, ROW, X)

    def test_independent_resources(self):
        manager = LockManager()
        assert manager.acquire(1, ROW, X)
        assert manager.acquire(2, ROW2, X)


class TestReleaseAndWaiters:
    def test_release_grants_fifo(self):
        manager = LockManager()
        manager.acquire(1, ROW, X)
        assert not manager.acquire(2, ROW, X)
        assert not manager.acquire(3, ROW, X)
        granted = manager.release_all(1)
        assert [txn for txn, _res, _m in granted] == [2]
        assert manager.holds(2, ROW, X)
        assert not manager.holds(3, ROW, X)

    def test_release_grants_multiple_shared(self):
        manager = LockManager()
        manager.acquire(1, ROW, X)
        assert not manager.acquire(2, ROW, S)
        assert not manager.acquire(3, ROW, S)
        granted = manager.release_all(1)
        assert sorted(txn for txn, _r, _m in granted) == [2, 3]

    def test_no_queue_jumping(self):
        """A shared request behind a waiting exclusive does not jump it."""
        manager = LockManager()
        manager.acquire(1, ROW, S)
        assert not manager.acquire(2, ROW, X)  # waits
        assert not manager.acquire(3, ROW, S)  # must queue behind 2

    def test_pending_upgrade_granted_on_release(self):
        manager = LockManager()
        manager.acquire(1, ROW, S)
        manager.acquire(2, ROW, S)
        assert not manager.acquire(1, ROW, X)  # pending upgrade
        granted = manager.release_all(2)
        assert (1, ROW, X) in [(t, r, m) for t, r, m in granted]
        assert manager.holds(1, ROW, X)

    def test_release_all_returns_resources(self):
        manager = LockManager()
        manager.acquire(1, ROW, X)
        manager.acquire(1, ROW2, X)
        assert manager.held_resources(1) == {ROW, ROW2}
        manager.release_all(1)
        assert manager.held_resources(1) == set()

    def test_cancel_waits(self):
        manager = LockManager()
        manager.acquire(1, ROW, X)
        assert not manager.acquire(2, ROW, X)
        manager.cancel_waits(2)
        granted = manager.release_all(1)
        assert granted == []


class TestDeadlock:
    def test_two_party_deadlock_detected(self):
        manager = LockManager()
        manager.acquire(1, ROW, X)
        manager.acquire(2, ROW2, X)
        assert not manager.acquire(1, ROW2, X)  # 1 waits for 2
        with pytest.raises(DeadlockError):
            manager.acquire(2, ROW, X)  # 2 waits for 1 -> cycle
        assert manager.deadlock_count == 1

    def test_three_party_cycle(self):
        manager = LockManager()
        row3 = ("t", 3)
        manager.acquire(1, ROW, X)
        manager.acquire(2, ROW2, X)
        manager.acquire(3, row3, X)
        assert not manager.acquire(1, ROW2, X)
        assert not manager.acquire(2, row3, X)
        with pytest.raises(DeadlockError):
            manager.acquire(3, ROW, X)

    def test_chain_without_cycle_allowed(self):
        manager = LockManager()
        manager.acquire(1, ROW, X)
        assert not manager.acquire(2, ROW, X)
        assert not manager.acquire(3, ROW, X)  # chain, no cycle

    def test_counters(self):
        manager = LockManager()
        manager.acquire(1, ROW, X)
        manager.acquire(2, ROW, S)
        assert manager.grant_count == 1
        assert manager.wait_count == 1


IX = LockMode.INTENTION_EXCLUSIVE


class TestIntentionMode:
    def test_holds_reports_held_ix(self):
        # Regression: holds() used to require mode equality via covers()
        # applied the wrong way around, answering False for a held IX.
        manager = LockManager()
        assert manager.acquire(1, TABLE, IX)
        assert manager.holds(1, TABLE, IX)

    def test_held_ix_does_not_satisfy_shared(self):
        manager = LockManager()
        assert manager.acquire(1, TABLE, IX)
        assert not manager.holds(1, TABLE, S)
        assert not manager.holds(1, TABLE, X)

    def test_exclusive_covers_everything(self):
        manager = LockManager()
        assert manager.acquire(1, TABLE, X)
        assert manager.holds(1, TABLE, S)
        assert manager.holds(1, TABLE, IX)

    def test_ix_sharing_and_reentry(self):
        manager = LockManager()
        assert manager.acquire(1, TABLE, IX)
        assert manager.acquire(2, TABLE, IX)  # row writers of different rows
        assert manager.acquire(1, TABLE, IX)  # re-entrant
        assert manager.holds(2, TABLE, IX)

    def test_ix_upgrade_to_exclusive_sole_holder(self):
        manager = LockManager()
        assert manager.acquire(1, TABLE, IX)
        assert manager.acquire(1, TABLE, X)
        assert manager.holds(1, TABLE, X)


class TestUpgradeQueueJump:
    def test_sole_holder_upgrade_jumps_waiters(self):
        """The documented FIFO exception: a sole holder's upgrade is granted
        ahead of queued waiters, because every waiter is blocked on the
        holder itself — queueing the upgrade behind them would deadlock."""
        manager = LockManager()
        assert manager.acquire(1, ROW, S)
        assert not manager.acquire(2, ROW, X)  # queued waiter
        assert manager.acquire(1, ROW, X)  # upgrade jumps the queue
        assert manager.holds(1, ROW, X)

    def test_jumped_waiter_granted_after_release(self):
        manager = LockManager()
        manager.acquire(1, ROW, S)
        assert not manager.acquire(2, ROW, X)
        manager.acquire(1, ROW, X)
        granted = manager.release_all(1)
        assert (2, ROW, X) in granted
        assert manager.holds(2, ROW, X)
