"""Shipper protocol tests: hand-off, retention, batching, go-back-N, waits.

These run against a fake standby (contiguous-apply semantics only), so
they pin the *protocol* — windows, acks, resends, in-flight delivery —
without the cost of a real database behind every frame.
"""

import pytest

from repro.fault import FaultInjector
from repro.persist.codec import encode_frame
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


def noop(lsn):
    return encode_frame({"lsn": lsn, "kind": "noop"})


def make_shipper(n, start_lsn=0, **kwargs):
    """A shipper that has been offered ``n`` records past ``start_lsn`` —
    what the persistence manager's flush does, one frame at a time."""
    shipper = WalShipper(start_lsn=start_lsn, **kwargs)
    for lsn in range(start_lsn + 1, start_lsn + n + 1):
        shipper.offer(noop(lsn))
    return shipper


class TestHandOff:
    def test_offer_buffers_what_the_bytes_say(self):
        shipper = make_shipper(3, start_lsn=4)
        assert shipper.first_lsn == 5 and shipper.last_lsn == 7
        assert shipper.records == [{"lsn": lsn, "kind": "noop"} for lsn in (5, 6, 7)]
        assert shipper.sizes == [len(noop(lsn)) for lsn in (5, 6, 7)]

    @pytest.mark.parametrize("lsn", [2, 3, 5], ids=["repeat-older", "repeat", "gap"])
    def test_offer_refuses_anything_but_the_next_lsn(self, lsn):
        shipper = make_shipper(3)
        with pytest.raises(ReplicationError, match=f"lsn {lsn}, expected 4"):
            shipper.offer(noop(lsn))
        assert shipper.last_lsn == 3

    def test_offer_refuses_a_record_without_an_lsn(self):
        with pytest.raises(ReplicationError, match="out of sequence"):
            WalShipper(start_lsn=0).offer(encode_frame({"kind": "noop"}))

    @pytest.mark.parametrize(
        "frame",
        [
            b"",
            noop(1)[:-1],  # torn
            noop(1) + noop(2),  # two records
            noop(1) + b"\x00",  # trailing garbage
            noop(1)[:-1] + b"~",  # body no longer matches its CRC
        ],
        ids=["empty", "torn", "two", "trailing", "corrupt"],
    )
    def test_offer_refuses_bytes_that_are_not_one_record(self, frame):
        shipper = WalShipper(start_lsn=0)
        with pytest.raises(ReplicationError, match="exactly one WAL record"):
            shipper.offer(frame)
        assert shipper.records == []

    def test_attach_refuses_a_standby_behind_the_buffer(self):
        shipper = make_shipper(4, start_lsn=10)  # buffer holds 11..14
        shipper.attach(FakeStandby("level", start_lsn=10), NetworkConfig())
        shipper.attach(FakeStandby("ahead", start_lsn=12), NetworkConfig())
        with pytest.raises(ReplicationError, match="'late' starts at lsn 9"):
            shipper.attach(FakeStandby("late", start_lsn=9), NetworkConfig())
        assert [link.name for link in shipper.links] == ["level", "ahead"]


class TestRetention:
    """A record is kept until every standby has acked it, and no longer."""

    def test_clean_link_keeps_only_the_unacked_window(self):
        shipper = WalShipper(start_lsn=0, batch_records=4)
        link = shipper.attach(FakeStandby(), NetworkConfig(latency=0.02), seed=0)
        peak = 0
        for lsn in range(1, 201):
            now = lsn * 0.01
            shipper.offer(noop(lsn))
            shipper.pump(now)
            assert len(shipper.records) == shipper.last_lsn - link.acked_lsn
            assert shipper.first_lsn == link.acked_lsn + 1
            peak = max(peak, len(shipper.records))
        assert 0 < peak <= 8  # a round trip (40 ms) of 10 ms commits, not 200
        shipper.drain(2.0)
        assert shipper.records == [] and shipper.sizes == []
        assert shipper.first_lsn == 201 and shipper.last_lsn == 200

    def test_the_slowest_replica_holds_the_buffer(self):
        shipper = WalShipper(start_lsn=0, batch_records=4)
        fast = shipper.attach(FakeStandby("fast"), NetworkConfig(latency=0.005), seed=0)
        slow = shipper.attach(FakeStandby("slow"), NetworkConfig(latency=0.5), seed=2)
        for lsn in range(1, 101):
            shipper.offer(noop(lsn))
            shipper.pump(lsn * 0.01)
            assert shipper.first_lsn == min(fast.acked_lsn, slow.acked_lsn) + 1
        # One second in: the fast link is level, the slow one has acked nothing
        # yet (its round trip is the whole second), so everything is still held
        # and a go-back-N rewind of the slow link would find every record.
        assert fast.acked_lsn >= 98 and slow.acked_lsn == 0
        assert len(shipper.records) == 100
        shipper.drain(1.0)
        assert slow.standby.applied == list(range(1, 101))
        assert shipper.records == []

    def test_without_a_replica_nothing_is_dropped(self):
        shipper = make_shipper(5)
        shipper.pump(1.0)
        assert len(shipper.records) == 5  # a standby may still attach at lsn 0


class TestCleanShipping:
    def test_drain_delivers_everything_without_resends(self):
        shipper = make_shipper(20, batch_records=4)
        standby = FakeStandby()
        link = shipper.attach(standby, NetworkConfig(latency=0.02), seed=0)
        shipper.drain(0.0)
        assert standby.applied == list(range(1, 21))
        assert link.acked_lsn == 20
        assert link.frames_resent == 0
        assert link.frames_sent == 5  # 20 records / batch of 4

    def test_wait_for_ack_costs_a_round_trip(self):
        config = NetworkConfig(latency=0.02, bandwidth=1e9)
        shipper = make_shipper(1)
        shipper.attach(FakeStandby(), config, seed=0)
        acked_at = shipper.wait_for_ack(1, now=0.0)
        assert acked_at >= 2 * 0.02  # frame out + ack back

    def test_two_replicas_both_catch_up(self):
        shipper = make_shipper(10)
        replicas = [FakeStandby("r0"), FakeStandby("r1")]
        for index, standby in enumerate(replicas):
            shipper.attach(standby, NetworkConfig(), seed=index)
        shipper.drain(0.0)
        assert all(s.applied_lsn == 10 for s in replicas)


class TestLossyShipping:
    def test_drops_and_reorders_heal_via_go_back_n(self):
        config = NetworkConfig(
            latency=0.02, jitter=0.01, drop=0.3, reorder=0.5
        )
        shipper = make_shipper(60, batch_records=4, resend_timeout=0.25)
        standby = FakeStandby()
        link = shipper.attach(standby, config, seed=11)
        shipper.drain(0.0)
        assert standby.applied == list(range(1, 61))
        assert link.acked_lsn == 60
        assert link.frames_resent > 0  # the loss actually exercised resend

    def test_apply_frame_seam_drops_then_recovers(self):
        injector = FaultInjector("apply.frame:drop@nth=1", seed=0)
        injector.enabled = True
        shipper = make_shipper(12, batch_records=4, faults=injector)
        standby = FakeStandby()
        shipper.attach(standby, NetworkConfig(), seed=0)
        shipper.drain(0.0)
        assert shipper.frames_apply_dropped == 1
        assert standby.applied_lsn == 12  # resend healed the lost apply

    def test_a_late_frame_that_can_move_the_ack_holds_off_the_resend(self):
        """The stand-down: the frame covering ``acked_lsn + 1`` is slow, not
        lost, so the timeout passes without a rewind and nothing is resent."""
        injector = FaultInjector("ship.send:delay=1.0@nth=1", seed=0)
        injector.enabled = True
        shipper = WalShipper(start_lsn=0, batch_records=1, faults=injector)
        standby = FakeStandby()
        link = shipper.attach(standby, NetworkConfig(latency=0.02), seed=0)
        for lsn in range(1, 16):  # 0.05 s apart: well past the 0.25 s timeout
            shipper.offer(noop(lsn))
            shipper.pump(lsn * 0.05)
        assert standby.applied_lsn == 0
        assert sorted(standby.buffer) == list(range(2, 15))  # 15 is in flight
        assert link.resend_rounds == 0
        shipper.drain(0.75)
        assert standby.applied == list(range(1, 16))
        assert link.resend_rounds == 0 and link.frames_sent == 15

    def test_frames_past_a_gap_do_not_hold_off_the_resend(self):
        """The same load with the first frame *lost*: what is still in
        flight can only be parked, so the one timeout fires on time."""
        injector = FaultInjector("ship.send:drop@nth=1", seed=0)
        injector.enabled = True
        shipper = WalShipper(start_lsn=0, batch_records=1, faults=injector)
        standby = FakeStandby()
        link = shipper.attach(standby, NetworkConfig(latency=0.02), seed=0)
        for lsn in range(1, 16):
            now = lsn * 0.05
            shipper.offer(noop(lsn))
            shipper.pump(now)
            if now >= 0.05 + shipper.resend_timeout + 0.05:
                assert not standby.buffer and standby.applied_lsn >= lsn - 1
        assert link.resend_rounds == 1

    def test_black_hole_raises_instead_of_spinning(self):
        shipper = make_shipper(3, max_pump_rounds=50)
        shipper.attach(FakeStandby(), NetworkConfig(drop=1.0), seed=0)
        with pytest.raises(ReplicationError):
            shipper.drain(0.0)


class TestCrashDelivery:
    def test_deliver_in_flight_lands_the_network_and_stops(self):
        shipper = make_shipper(8, batch_records=4)
        standby = FakeStandby()
        link = shipper.attach(standby, NetworkConfig(latency=0.05), seed=0)
        shipper.pump(0.0)  # frames enter the network, nothing arrived yet
        assert standby.applied_lsn == 0
        landed = shipper.deliver_in_flight(0.0)
        assert shipper.dead
        assert landed == pytest.approx(2 * 0.05, abs=0.001)  # the last ack
        assert standby.applied_lsn == 8
        assert not link.inflight and not link.acks
        # A dead shipper never sends again, even if pumped.
        sent_before = link.frames_sent
        shipper.pump(100.0)
        assert link.frames_sent == sent_before

    def test_deliver_in_flight_does_not_resend_lost_frames(self):
        shipper = make_shipper(8, batch_records=4)
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
