"""Shipper protocol tests: tailing, batching, go-back-N, event-driven waits.

These run against a fake standby (contiguous-apply semantics only), so
they pin the *protocol* — windows, acks, resends, in-flight delivery —
without the cost of a real database behind every frame.
"""

import pytest

from repro.fault import FaultInjector
from repro.persist.wal import MAGIC, WriteAheadLog
from repro.replic.channel import NetworkConfig
from repro.replic.shipper import ReplicationError, WalShipper


class FakeStandby:
    """Applies contiguous LSNs, parks gapped frames — Standby's contract."""

    def __init__(self, name="r0", start_lsn=0):
        self.name = name
        self.applied_lsn = start_lsn
        self.buffer = {}
        self.applied = []

    def _apply(self, records):
        for record in records:
            if record["lsn"] == self.applied_lsn + 1:
                self.applied.append(record["lsn"])
                self.applied_lsn = record["lsn"]

    def receive(self, records, arrival):
        first = records[0]["lsn"]
        if first > self.applied_lsn + 1:
            self.buffer[first] = records
            return self.applied_lsn
        self._apply(records)
        while True:
            ready = [f for f in self.buffer if f <= self.applied_lsn + 1]
            if not ready:
                break
            for f in sorted(ready):
                self._apply(self.buffer.pop(f))
        return self.applied_lsn


def write_wal(path, n, start=1):
    wal = WriteAheadLog(path)
    for i in range(start, start + n):
        wal.append({"lsn": i, "kind": "noop"})
    wal.close()
    return str(path)


def make_shipper(path, **kwargs):
    return WalShipper(str(path), start_lsn=0, start_offset=len(MAGIC), **kwargs)


class TestTailing:
    def test_poll_reads_incrementally(self, tmp_path):
        path = tmp_path / "wal.log"
        write_wal(path, 5)
        shipper = make_shipper(path)
        assert shipper.poll_wal() == 5
        assert shipper.last_lsn == 5
        assert shipper.poll_wal() == 0  # nothing new
        wal = WriteAheadLog(path)  # reopen appends past the tail
        wal.append({"lsn": 6, "kind": "noop"})
        wal.close()
        assert shipper.poll_wal() == 1
        assert shipper.last_lsn == 6

    def test_head_records_at_or_below_the_start_are_skipped(self, tmp_path):
        path = tmp_path / "wal.log"
        write_wal(path, 5)
        shipper = WalShipper(str(path), start_lsn=3, start_offset=len(MAGIC))
        assert shipper.poll_wal() == 2
        assert [record["lsn"] for record in shipper.records] == [4, 5]
        assert shipper.read_offset == path.stat().st_size

    def test_a_log_truncated_under_the_shipper_is_out_of_sequence(self, tmp_path):
        path = tmp_path / "wal.log"
        write_wal(path, 3)
        shipper = make_shipper(path)
        assert shipper.poll_wal() == 3
        # By hand, what a checkpoint does: cut the log back to its magic.
        # Same-sized records then grow it past the shipper's byte offset.
        path.write_bytes(MAGIC)
        write_wal(path, 6, start=4)
        with pytest.raises(ReplicationError, match="read lsn 7, expected 4"):
            shipper.poll_wal()


class TestCleanShipping:
    def test_drain_delivers_everything_without_resends(self, tmp_path):
        path = tmp_path / "wal.log"
        write_wal(path, 20)
        shipper = make_shipper(path, batch_records=4)
        standby = FakeStandby()
        link = shipper.attach(standby, NetworkConfig(latency=0.02), seed=0)
        shipper.drain(0.0)
        assert standby.applied == list(range(1, 21))
        assert link.acked_lsn == 20
        assert link.frames_resent == 0
        assert link.frames_sent == 5  # 20 records / batch of 4

    def test_wait_for_ack_costs_a_round_trip(self, tmp_path):
        path = tmp_path / "wal.log"
        write_wal(path, 1)
        config = NetworkConfig(latency=0.02, bandwidth=1e9)
        shipper = make_shipper(path)
        shipper.attach(FakeStandby(), config, seed=0)
        shipper.poll_wal()
        acked_at = shipper.wait_for_ack(1, now=0.0)
        assert acked_at >= 2 * 0.02  # frame out + ack back

    def test_two_replicas_both_catch_up(self, tmp_path):
        path = tmp_path / "wal.log"
        write_wal(path, 10)
        shipper = make_shipper(path)
        replicas = [FakeStandby("r0"), FakeStandby("r1")]
        for index, standby in enumerate(replicas):
            shipper.attach(standby, NetworkConfig(), seed=index)
        shipper.drain(0.0)
        assert all(s.applied_lsn == 10 for s in replicas)


class TestLossyShipping:
    def test_drops_and_reorders_heal_via_go_back_n(self, tmp_path):
        path = tmp_path / "wal.log"
        write_wal(path, 60)
        config = NetworkConfig(
            latency=0.02, jitter=0.01, drop=0.3, reorder=0.5
        )
        shipper = make_shipper(path, batch_records=4, resend_timeout=0.25)
        standby = FakeStandby()
        link = shipper.attach(standby, config, seed=11)
        shipper.drain(0.0)
        assert standby.applied == list(range(1, 61))
        assert link.acked_lsn == 60
        assert link.frames_resent > 0  # the loss actually exercised resend

    def test_apply_frame_seam_drops_then_recovers(self, tmp_path):
        path = tmp_path / "wal.log"
        write_wal(path, 12)
        injector = FaultInjector("apply.frame:drop@nth=1", seed=0)
        injector.enabled = True
        shipper = make_shipper(path, batch_records=4, faults=injector)
        standby = FakeStandby()
        shipper.attach(standby, NetworkConfig(), seed=0)
        shipper.drain(0.0)
        assert shipper.frames_apply_dropped == 1
        assert standby.applied_lsn == 12  # resend healed the lost apply

    def test_black_hole_raises_instead_of_spinning(self, tmp_path):
        path = tmp_path / "wal.log"
        write_wal(path, 3)
        shipper = make_shipper(path, max_pump_rounds=50)
        shipper.attach(FakeStandby(), NetworkConfig(drop=1.0), seed=0)
        with pytest.raises(ReplicationError):
            shipper.drain(0.0)


class TestCrashDelivery:
    def test_deliver_in_flight_lands_the_network_and_stops(self, tmp_path):
        path = tmp_path / "wal.log"
        write_wal(path, 8)
        shipper = make_shipper(path, batch_records=4)
        standby = FakeStandby()
        link = shipper.attach(standby, NetworkConfig(latency=0.05), seed=0)
        shipper.pump(0.0)  # frames enter the network, nothing arrived yet
        assert standby.applied_lsn == 0
        shipper.deliver_in_flight(0.0)
        assert shipper.dead
        assert standby.applied_lsn == 8
        assert not link.inflight and not link.acks
        # A dead shipper never sends again, even if pumped.
        sent_before = link.frames_sent
        shipper.pump(100.0)
        assert link.frames_sent == sent_before

    def test_deliver_in_flight_does_not_resend_lost_frames(self, tmp_path):
        path = tmp_path / "wal.log"
        write_wal(path, 8)
        shipper = make_shipper(path, batch_records=4)
        standby = FakeStandby()
        # Seed chosen so at least one frame is dropped on first send.
        config = NetworkConfig(latency=0.05, drop=0.5)
        link = shipper.attach(standby, config, seed=1)
        shipper.pump(0.0)
        dropped = link.send_channel.dropped
        shipper.deliver_in_flight(0.0)
        if dropped:  # whatever was lost stays lost after the crash
            assert standby.applied_lsn < 8
        assert link.frames_resent == 0
