"""The network front-end: protocol, server, admission control, clients.

External clients reach the engine through a socket protocol
(:mod:`repro.net.protocol`: binary frames on the WAL's shared codec) handled by a transport-agnostic server core
(:mod:`repro.net.server`) that bridges accepted writes into the same
:class:`~repro.io.feed.ImportFeed` task path internal workloads use —
commits run rule processing, staleness stamps, WAL, and replication, and
the ``ok`` acknowledgement is only sent after the commit.

Writes pass two admission gates (:mod:`repro.net.admission`): a
per-session token bucket, and a global controller polling
:meth:`~repro.obs.tracer.TraceCollector.backpressure` that first delays
(``throttle`` + ``retry_after``) and then sheds — STRIP's bounded-
staleness trade applied at the front door.

Two transports: seeded in-process simulated channels on the virtual
clock (:mod:`repro.net.sim`, with the ``net.accept`` / ``net.recv`` /
``net.send`` fault seams) and real asyncio sockets
(:mod:`repro.net.aio`).  :mod:`repro.net.client` holds the protocol
state machine and the bursty load generator.  See ``docs/NETWORK.md``
(the PTA experiment over the wire is the ``NETWORKED`` spec of
:mod:`repro.pta.distributed`, in the experiment layer above this package).
"""

from repro.net.admission import AdmissionConfig, AdmissionController, TokenBucket
from repro.net.client import (
    ClientStats,
    LoadConfig,
    NetClient,
    QuoteRequest,
    quote_stream,
)
from repro.net.protocol import (
    PROTOCOL_VERSION,
    FrameDecoder,
    FrameError,
    ProtocolError,
    encode_message,
)
from repro.net.server import AckRecord, NetServer, ServerConfig, Session
from repro.net.sim import SimNetTransport

__all__ = [
    "AckRecord",
    "AdmissionConfig",
    "AdmissionController",
    "ClientStats",
    "FrameDecoder",
    "FrameError",
    "LoadConfig",
    "NetClient",
    "NetServer",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "QuoteRequest",
    "ServerConfig",
    "Session",
    "SimNetTransport",
    "TokenBucket",
    "encode_message",
    "quote_stream",
]
