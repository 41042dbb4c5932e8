"""The primary-side WAL shipper: take each durable frame, stream acked batches.

The shipper never touches the log file.  The persistence manager hands it
every frame **once the flush that made it durable has returned**
(:meth:`WalShipper.offer`) — the very bytes the file now holds, so what a
standby is sent is what a crash would have preserved — and the shipper
decodes it through the shared codec, once for all replicas, into an
in-memory retransmission buffer that holds a record until every standby
has acked it.  Per replica, a :class:`ReplicaLink` tracks a classic
go-back-N window:

* ``sent_lsn`` — highest LSN handed to the link's send channel;
* ``acked_lsn`` — highest LSN the standby has cumulatively acked;
* on ack-progress timeout, ``sent_lsn`` rewinds to ``acked_lsn`` and the
  window is resent (drops and reorders on either direction heal here).

Everything else happens inside :meth:`WalShipper.pump`, called with the
current virtual time: buffered records are batched into frames and offered to
each link's :class:`~repro.replic.channel.SimChannel`; frames whose
arrival time has passed are delivered to the standby (through the
``apply.frame`` fault seam); acks ride the reverse channel with their own
latency, loss, and the ``ship.ack`` seam.  The simulator's post-task hook
pumps between tasks (async mode); :meth:`wait_for_ack` runs the same
event loop forward in time for **semi-synchronous commits**, returning
the virtual instant the first standby acked — the committing task's
meter is charged the difference, which is exactly the durability-vs-
latency price the mode trades (docs/REPLICATION.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.errors import StripError
from repro.persist.codec import iter_frames
from repro.replic.channel import NetworkConfig, SimChannel

if TYPE_CHECKING:  # pragma: no cover
    from repro.replic.standby import Standby


class ReplicationError(StripError):
    """The replication subsystem was misconfigured or failed to converge."""


#: Framing overhead modelled per shipped record (length + crc), plus a
#: fixed per-frame header; acks are a tiny fixed-size message.
FRAME_HEADER_BYTES = 24
ACK_BYTES = 16


@dataclass
class ShipFrame:
    """One batch of contiguous records in flight to one replica."""

    first_lsn: int
    last_lsn: int
    records: list[dict]


@dataclass
class ReplicaLink:
    """Shipper-side state for one standby's connection."""

    standby: "Standby"
    send_channel: SimChannel
    ack_channel: SimChannel
    acked_lsn: int
    sent_lsn: int
    # (arrival, seq, frame) for frames the network accepted
    inflight: list[tuple[float, int, ShipFrame]] = field(default_factory=list)
    # (arrival, acked_lsn) for acks the network accepted
    acks: list[tuple[float, int]] = field(default_factory=list)
    last_progress: float = 0.0
    frames_sent: int = 0
    frames_resent: int = 0
    resend_rounds: int = 0
    acks_received: int = 0

    @property
    def name(self) -> str:
        return self.standby.name


class WalShipper:
    """Streams every durable record it is offered to every attached replica."""

    def __init__(
        self,
        start_lsn: int,
        faults=None,
        batch_records: int = 8,
        resend_timeout: float = 0.25,
        max_pump_rounds: int = 100_000,
    ) -> None:
        self.faults = faults
        self.batch_records = max(batch_records, 1)
        self.resend_timeout = resend_timeout
        self.max_pump_rounds = max_pump_rounds
        # Retransmission buffer: records[i] has lsn == first_lsn + i, and a
        # record stays until every standby has acked it (see pump).
        self.first_lsn = start_lsn + 1
        self.records: list[dict] = []
        self.sizes: list[int] = []
        self.links: list[ReplicaLink] = []
        self.dead = False  # a crashed primary ships nothing more
        self._seq = 0
        self.frames_apply_dropped = 0

    # ----------------------------------------------------------- attachment

    def attach(
        self,
        standby: "Standby",
        config: NetworkConfig,
        seed: int = 0,
    ) -> ReplicaLink:
        """Connect one standby over a fresh pair of simulated channels."""
        if standby.applied_lsn < self.first_lsn - 1:
            raise ReplicationError(
                f"standby {standby.name!r} starts at lsn {standby.applied_lsn}, "
                f"before the buffer does ({self.first_lsn}): the records "
                "between were acked by every replica and dropped"
            )
        link = ReplicaLink(
            standby=standby,
            send_channel=SimChannel(
                config, seed=seed, point="ship.send",
                label=standby.name, faults=self.faults,
            ),
            ack_channel=SimChannel(
                config, seed=seed + 1, point="ship.ack",
                label=standby.name, faults=self.faults,
            ),
            acked_lsn=standby.applied_lsn,
            sent_lsn=standby.applied_lsn,
        )
        self.links.append(link)
        return link

    # ------------------------------------------------------------- hand-off

    @property
    def last_lsn(self) -> int:
        """Highest LSN the shipper has been offered."""
        return self.first_lsn + len(self.records) - 1

    def offer(self, frame: bytes) -> None:
        """Take one frame the primary's flush just made durable.  It is
        decoded here, once for every replica, from the bytes and not from
        the primary's payload: the buffer holds what a crash would keep."""
        decoded = list(iter_frames(frame))
        if len(decoded) != 1 or decoded[0][1] != len(frame):
            raise ReplicationError(
                f"offered {len(frame)} bytes that do not decode to exactly "
                "one WAL record"
            )
        payload = decoded[0][0]
        if payload.get("lsn") != self.last_lsn + 1:
            raise ReplicationError(
                f"offered record out of sequence: lsn {payload.get('lsn')}, "
                f"expected {self.last_lsn + 1}"
            )
        self.records.append(payload)
        self.sizes.append(len(frame))

    # ---------------------------------------------------------------- pump

    def pump(self, now: float) -> None:
        """Advance the whole pipeline to virtual time ``now``."""
        for link in self.links:
            # Land what the network owes us first, so a stale ack never
            # triggers a spurious go-back-N rewind.
            self._deliver(link, now)
            self._collect_acks(link, now)
            if not self.dead:
                self._maybe_resend(link, now)
                self._fill_window(link, now)
        if self.links:
            # Retention is by acknowledgement: what every standby has acked
            # can never be resent, so it leaves the buffer.
            keep_from = min(link.acked_lsn for link in self.links) + 1
            if keep_from > self.first_lsn:
                del self.records[: keep_from - self.first_lsn]
                del self.sizes[: keep_from - self.first_lsn]
                self.first_lsn = keep_from

    def _fill_window(self, link: ReplicaLink, now: float) -> None:
        if link.sent_lsn <= link.acked_lsn and link.sent_lsn < self.last_lsn:
            # The window goes from empty to non-empty: silence counts from
            # here (and not from every later send — under sustained load
            # that would postpone the timeout forever).
            link.last_progress = max(link.last_progress, now)
        while link.sent_lsn < self.last_lsn:
            first = link.sent_lsn + 1
            last = min(first + self.batch_records - 1, self.last_lsn)
            lo = first - self.first_lsn
            hi = last - self.first_lsn + 1
            nbytes = sum(self.sizes[lo:hi]) + FRAME_HEADER_BYTES
            frame = ShipFrame(first, last, self.records[lo:hi])
            link.sent_lsn = last
            link.frames_sent += 1
            arrival = link.send_channel.send(nbytes, now)
            if arrival is not None:
                self._seq += 1  # equal arrivals land in send order
                link.inflight.append((arrival, self._seq, frame))

    def _deliver(self, link: ReplicaLink, now: float) -> None:
        if not link.inflight:
            return
        due = [entry for entry in link.inflight if entry[0] <= now]
        if not due:
            return
        link.inflight = [entry for entry in link.inflight if entry[0] > now]
        faults = self.faults
        for arrival, _seq, frame in sorted(due):
            if faults is not None and faults.enabled:
                fault = faults.check("apply.frame", link.name)
                if fault is not None and fault.action == "drop":
                    # The frame reached the replica but its apply was lost
                    # (e.g. the apply process hiccuped); go-back-N resends.
                    self.frames_apply_dropped += 1
                    continue
            acked = link.standby.receive(frame.records, arrival)
            ack_arrival = link.ack_channel.send(ACK_BYTES, arrival)
            if ack_arrival is not None:
                link.acks.append((ack_arrival, acked))

    def _collect_acks(self, link: ReplicaLink, now: float) -> None:
        if not link.acks:
            return
        due = [entry for entry in link.acks if entry[0] <= now]
        if not due:
            return
        link.acks = [entry for entry in link.acks if entry[0] > now]
        for arrival, acked in sorted(due):
            link.acks_received += 1
            if acked > link.acked_lsn:
                link.acked_lsn = acked
                link.last_progress = max(link.last_progress, arrival)

    def _maybe_resend(self, link: ReplicaLink, now: float) -> None:
        """Go-back-N: no ack progress for a full timeout rewinds the
        window to the last cumulative ack and resends everything."""
        if link.acked_lsn >= link.sent_lsn:
            return
        if now - link.last_progress < self.resend_timeout:
            return
        wanted = link.acked_lsn + 1
        if any(
            frame.first_lsn <= wanted <= frame.last_lsn
            for _arrival, _s, frame in link.inflight
        ) or any(acked >= wanted for _arrival, acked in link.acks):
            # Something that can move the cumulative ack is still on its
            # way; let it land first.  Frames past a gap do not count — they
            # will only be parked, however many more the primary commits.
            return
        outstanding = link.sent_lsn - link.acked_lsn
        link.sent_lsn = link.acked_lsn
        link.resend_rounds += 1
        link.frames_resent += (
            outstanding + self.batch_records - 1
        ) // self.batch_records
        link.last_progress = now  # one rewind per timeout window

    # --------------------------------------------------- event-driven waits

    def _next_event_time(self, after: float) -> Optional[float]:
        """Earliest future instant at which pumping could make progress."""
        candidates: list[float] = []
        for link in self.links:
            candidates.extend(arrival for arrival, _s, _f in link.inflight)
            candidates.extend(arrival for arrival, _a in link.acks)
            if link.acked_lsn < link.sent_lsn:
                candidates.append(link.last_progress + self.resend_timeout)
        future = [when for when in candidates if when > after]
        return min(future) if future else None

    def _run_until(self, now: float, done) -> float:
        time = now
        for _round in range(self.max_pump_rounds):
            self.pump(time)
            if done():
                return time
            nxt = self._next_event_time(time)
            if nxt is None:
                # Nothing scheduled but not done: force a resend window.
                nxt = time + self.resend_timeout
            time = nxt
        raise ReplicationError(
            "replication did not converge (is every send dropped by the "
            "fault plan or a drop probability of 1.0?)"
        )

    def wait_for_ack(self, lsn: int, now: float) -> float:
        """Semi-sync commit: run the pipeline forward until the *first*
        standby acks ``lsn``; returns that virtual instant."""
        if not self.links:
            return now
        return self._run_until(
            now, lambda: any(link.acked_lsn >= lsn for link in self.links)
        )

    def drain(self, now: float) -> float:
        """Run until **every** standby acked the newest durable record
        (quiescence); returns the virtual instant it happened."""
        target = self.last_lsn
        return self._run_until(
            now, lambda: all(link.acked_lsn >= target for link in self.links)
        )

    def deliver_in_flight(self, now: float) -> float:
        """After a primary crash: packets already in the network still
        arrive, but nothing new is sent and nothing is retransmitted.
        Returns the time the last of them landed."""
        self.dead = True
        return self._run_until(
            now, lambda: not any(link.inflight or link.acks for link in self.links)
        )

    # -------------------------------------------------------------- stats

    def stats(self) -> dict:
        return {
            "last_lsn": self.last_lsn,
            "links": [
                {
                    "replica": link.name,
                    "acked_lsn": link.acked_lsn,
                    "sent_lsn": link.sent_lsn,
                    "frames_sent": link.frames_sent,
                    "frames_resent": link.frames_resent,
                    "resend_rounds": link.resend_rounds,
                    "acks_received": link.acks_received,
                    "send": link.send_channel.stats(),
                    "ack": link.ack_channel.stats(),
                }
                for link in self.links
            ],
            "frames_apply_dropped": self.frames_apply_dropped,
        }
