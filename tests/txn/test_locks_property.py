"""Property-based lock-manager invariants under random workloads."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DeadlockError
from repro.txn.locks import LockManager, LockMode

S = LockMode.SHARED
X = LockMode.EXCLUSIVE

operations = st.lists(
    st.tuples(
        st.sampled_from(["acquire_s", "acquire_x", "release"]),
        st.integers(1, 4),  # transaction id
        st.integers(0, 3),  # resource id
    ),
    max_size=60,
)


def check_invariants(manager: LockManager) -> None:
    """No resource may have incompatible concurrent holders, no waiter may
    be grantable-but-waiting while the queue head is grantable, and the
    count of queued requests (which lets a commit skip the wait queues)
    is the number in the queues."""
    assert manager._queued == sum(len(state.waiters) for state in manager._locks.values())
    for resource, state in manager._locks.items():
        modes = list(state.holders.values())
        if X in modes:
            assert len(modes) == 1, f"X lock shared on {resource}"
        if state.waiters:
            head_txn, head_mode = state.waiters[0]
            if head_txn not in state.holders:
                # The head must actually conflict with some holder;
                # otherwise release_all failed to grant it.
                compatible = all(
                    head_mode.compatible_with(mode) for mode in state.holders.values()
                )
                assert not compatible or state.holders, (
                    f"waiter {head_txn} starving on free resource {resource}"
                )


class TestLockInvariants:
    @settings(max_examples=150, deadline=None)
    @given(ops=operations)
    def test_random_workload(self, ops):
        manager = LockManager()
        blocked: set[int] = set()  # txns currently waiting (can't act)
        for action, txn, resource_id in ops:
            if txn in blocked:
                continue  # a blocked transaction cannot issue requests
            resource = ("t", resource_id)
            try:
                if action == "acquire_s":
                    granted = manager.acquire(txn, resource, S)
                elif action == "acquire_x":
                    granted = manager.acquire(txn, resource, X)
                else:
                    released = manager.release_all(txn)
                    for granted_txn, _res, _mode in released:
                        blocked.discard(granted_txn)
                    granted = True
            except DeadlockError:
                manager.cancel_waits(txn)
                manager.release_all(txn)
                blocked.discard(txn)
                continue
            if not granted:
                blocked.add(txn)
            check_invariants(manager)

    @settings(max_examples=80, deadline=None)
    @given(ops=operations)
    def test_release_everything_leaves_clean_state(self, ops):
        manager = LockManager()
        for action, txn, resource_id in ops:
            resource = ("t", resource_id)
            try:
                if action.startswith("acquire"):
                    manager.acquire(txn, resource, X if action.endswith("x") else S)
                else:
                    manager.release_all(txn)
            except DeadlockError:
                manager.cancel_waits(txn)
        for txn in range(1, 5):
            manager.cancel_waits(txn)
            manager.release_all(txn)
        assert all(
            not state.holders and not state.waiters
            for state in manager._locks.values()
        )
        assert manager._queued == 0
