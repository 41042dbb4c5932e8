"""WAL-shipping replication: hot standbys, read scaling, failover drills.

PR 4's redo WAL is a checksummed, length-prefixed, LSN-ordered,
idempotently-replayable stream — exactly a replication log.  This
subsystem ships it:

* :mod:`repro.replic.channel` — the simulated transport (latency,
  bandwidth, jitter, drop, reorder on the virtual clock) with the
  ``ship.send`` / ``ship.ack`` fault seams;
* :mod:`repro.replic.shipper` — the primary side: each durable frame
  handed over by the flush and kept until acked, batched frames,
  cumulative acks, go-back-N retransmission, async and semi-synchronous
  commit modes;
* :mod:`repro.replic.standby` — a replica database continuously rebuilt
  through the crash-recovery apply path, serving read-only SELECTs and
  reporting apply lag;
* :mod:`repro.replic.failover` — promotion of the freshest standby with
  orphan-retry resurrection, queue drain, and the convergence oracle;
* :mod:`repro.replic.cluster` — the cluster harness.

The PTA experiment on top of a cluster is the ``REPLICATED`` spec of
:mod:`repro.pta.distributed`, in the experiment layer above this package.

See docs/REPLICATION.md for modes, lag semantics, and the drill recipe.
"""

from repro.replic.channel import NetworkConfig, SimChannel
from repro.replic.cluster import ReplicationCluster, check_replica_equivalence
from repro.replic.failover import FailoverController, FailoverReport
from repro.replic.shipper import ReplicaLink, ReplicationError, ShipFrame, WalShipper
from repro.replic.standby import Standby

__all__ = [
    "FailoverController",
    "FailoverReport",
    "NetworkConfig",
    "ReplicaLink",
    "ReplicationCluster",
    "ReplicationError",
    "ShipFrame",
    "SimChannel",
    "Standby",
    "WalShipper",
    "check_replica_equivalence",
]
