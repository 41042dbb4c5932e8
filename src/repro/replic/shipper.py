"""The primary-side WAL shipper: tail the log, stream acked batches.

The shipper polls the primary's WAL file **by byte offset** — it
remembers the offset of the last intact frame it has seen and re-reads
only appended bytes (:func:`repro.persist.wal.read_wal_from`) — so a run
of N records costs O(N) total read work, not O(N²).  Every durable
record enters an in-memory retransmission buffer; per replica, a
:class:`ReplicaLink` tracks a classic go-back-N window:

* ``sent_lsn`` — highest LSN handed to the link's send channel;
* ``acked_lsn`` — highest LSN the standby has cumulatively acked;
* on ack-progress timeout, ``sent_lsn`` rewinds to ``acked_lsn`` and the
  window is resent (drops and reorders on either direction heal here).

Everything happens inside :meth:`WalShipper.pump`, called with the
current virtual time: new records are batched into frames and offered to
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
from repro.persist.wal import read_wal_from
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

    seq: int
    first_lsn: int
    last_lsn: int
    records: list[dict]
    nbytes: int
    sent_at: float


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
    """Tails one WAL file and streams it to every attached replica."""

    def __init__(
        self,
        wal_path: str,
        start_lsn: int,
        start_offset: int,
        faults=None,
        batch_records: int = 8,
        resend_timeout: float = 0.25,
        max_pump_rounds: int = 100_000,
    ) -> None:
        self.wal_path = wal_path
        self.read_offset = start_offset
        self.faults = faults
        self.batch_records = max(batch_records, 1)
        self.resend_timeout = resend_timeout
        self.max_pump_rounds = max_pump_rounds
        # Retransmission buffer: records[i] has lsn == first_lsn + i.
        self.first_lsn = start_lsn + 1
        self.records: list[dict] = []
        self.sizes: list[int] = []
        self.links: list[ReplicaLink] = []
        self.dead = False  # a crashed primary ships nothing more
        self._seq = 0
        self.frames_apply_dropped = 0
        self.torn_bytes = 0

    # ----------------------------------------------------------- attachment

    def attach(
        self,
        standby: "Standby",
        config: NetworkConfig,
        seed: int = 0,
    ) -> ReplicaLink:
        """Connect one standby over a fresh pair of simulated channels."""
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

    # ------------------------------------------------------------- tailing

    @property
    def last_lsn(self) -> int:
        """Highest LSN the shipper has read from the durable log."""
        return self.first_lsn + len(self.records) - 1

    def poll_wal(self) -> int:
        """Pull newly durable frames off the file; returns records gained."""
        frames, valid, torn = read_wal_from(self.wal_path, self.read_offset)
        self.torn_bytes = torn
        gained = 0
        for payload, end in frames:
            expected = self.first_lsn + len(self.records)
            lsn = payload.get("lsn", 0)
            if lsn < expected and not self.records:
                # Head-of-file records the standbys' checkpoint already
                # reflects (a crash between checkpoint write and WAL
                # truncation leaves them); WalApplier would skip them too.
                self.read_offset = end
                continue
            if lsn != expected:
                raise ReplicationError(
                    f"WAL tail out of sequence: read lsn {lsn}, expected "
                    f"{expected} (was the log truncated under the shipper?)"
                )
            self.records.append(payload)
            self.sizes.append(end - self.read_offset)
            self.read_offset = end
            gained += 1
        return gained

    # ---------------------------------------------------------------- pump

    def pump(self, now: float) -> None:
        """Advance the whole pipeline to virtual time ``now``."""
        if not self.dead:
            self.poll_wal()
        for link in self.links:
            # Land what the network owes us first, so a stale ack never
            # triggers a spurious go-back-N rewind.
            self._deliver(link, now)
            self._collect_acks(link, now)
            if not self.dead:
                self._maybe_resend(link, now)
                self._fill_window(link, now)

    def _fill_window(self, link: ReplicaLink, now: float) -> None:
        while link.sent_lsn < self.last_lsn:
            first = link.sent_lsn + 1
            last = min(first + self.batch_records - 1, self.last_lsn)
            lo = first - self.first_lsn
            hi = last - self.first_lsn + 1
            nbytes = sum(self.sizes[lo:hi]) + FRAME_HEADER_BYTES
            frame = ShipFrame(
                seq=self._seq,
                first_lsn=first,
                last_lsn=last,
                records=self.records[lo:hi],
                nbytes=nbytes,
                sent_at=now,
            )
            self._seq += 1
            link.sent_lsn = last
            link.frames_sent += 1
            if link.last_progress < now:
                link.last_progress = now
            arrival = link.send_channel.send(nbytes, now)
            if arrival is not None:
                link.inflight.append((arrival, frame.seq, frame))

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
        if any(arrival > now for arrival, _s, _f in link.inflight) or any(
            arrival > now for arrival, _a in link.acks
        ):
            return  # the pipe is still moving; let deliveries land first
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
        self.poll_wal()
        target = self.last_lsn
        return self._run_until(
            now, lambda: all(link.acked_lsn >= target for link in self.links)
        )

    def deliver_in_flight(self, now: float) -> float:
        """After a primary crash: packets already in the network still
        arrive, but nothing new is sent and nothing is retransmitted.
        Returns the time the last of them landed."""
        self.dead = True
        time = now
        while any(link.inflight or link.acks for link in self.links):
            pending = [
                entry[0]
                for link in self.links
                for entry in (*link.inflight, *link.acks)
            ]
            time = max(time, max(pending))
            self.pump(time)
        return time

    # -------------------------------------------------------------- stats

    def stats(self) -> dict:
        return {
            "last_lsn": self.last_lsn,
            "read_offset": self.read_offset,
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
