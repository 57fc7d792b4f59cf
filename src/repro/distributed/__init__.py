"""Distributed work-stealing sweep executor (ROADMAP item 1).

A coordinator owns a run directory and leases pending point indices to
workers over a length-prefixed JSON/TCP protocol; workers compute
points through the exact same ``expand_payload_at`` /
``evaluate_payload`` machinery as a local run and stream deterministic
shard bytes back, sha256-verified.  Before serving anything the
coordinator solves the run's planned DP tables — the ones ``--jobs``
publishes to shared memory — and a content-addressed table service ships
each to every worker once, under the table's own ``(L, c, p, method)``
key.

See ``docs/distributed.md`` for the protocol frames, the lease
lifecycle, and the failure matrix.
"""

from .coordinator import Coordinator, DistributedError, Lease, PointLedger
from .executor import run_spec_distributed
from .protocol import PROTOCOL_VERSION, Connection, ProtocolError
from .worker import WorkerClient, WorkerStats

__all__ = [
    "Coordinator",
    "DistributedError",
    "Lease",
    "PointLedger",
    "run_spec_distributed",
    "PROTOCOL_VERSION",
    "Connection",
    "ProtocolError",
    "WorkerClient",
    "WorkerStats",
]
