"""Worker side of the distributed sweep executor.

A worker is stateless: it connects, adopts the coordinator's spec (or
verifies its own copy by digest), fetches the DP tables the ``welcome``
lists, then loops lease -> expand -> evaluate -> stream the shard bytes
back.  All the actual science runs through the exact same code paths as
a local run — ``expand_payload_at`` + ``evaluate_payload`` — so a worker
can never produce different numbers than ``--jobs`` on one machine.

The fetched tables are the run's planned tables, the ones ``--jobs``
publishes.  The worker publishes them into *local* shared memory through
its own :class:`~repro.experiments.cache.SharedTablePublisher` and runs
every point with their handles in ``config.shared_tables``: inline
evaluation and the worker's own process-pool children adopt them as
pool children of a local run do, so a table crosses the network once
per worker and the machine's RAM once.  If shared memory is unavailable
the worker degrades to preloading its in-process caches — slower with
many local jobs, never wrong.
"""

from __future__ import annotations

import hashlib
import threading
import time
import uuid
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional, Sequence, Set, Tuple

from ..experiments.cache import (
    SharedTablePublisher,
    deserialize_table,
    shared_cache,
)
from ..experiments.orchestrator import ExperimentConfig, _worker_cache
from ..specs import (
    evaluate_payload,
    expand_payload_at,
    parse_spec,
    payload_config,
    payload_digest,
    spec_digest,
)
from ..runstore import row_to_shard_bytes
from .protocol import (
    PROTOCOL_VERSION,
    Connection,
    ProtocolError,
    check_error,
    connect,
)

__all__ = ["WorkerStats", "WorkerClient"]


@dataclass
class WorkerStats:
    """What one worker did, for logs and tests."""

    worker_id: str = ""
    points_completed: int = 0
    points_duplicate: int = 0
    leases_lost: int = 0
    tables_fetched: int = 0
    table_bytes_received: int = 0
    shard_bytes_sent: int = 0
    lease_ids_seen: Set[str] = field(default_factory=set)


class WorkerClient:
    """One worker process's connection to a coordinator.

    Parameters
    ----------
    host, port:
        Coordinator address.
    spec:
        Optional local copy of the experiment spec.  When given, its
        digest rides the handshake and a mismatch with the coordinator's
        spec is refused up front; when omitted the worker adopts the
        spec shipped in the ``welcome`` message.
    jobs:
        Local evaluation processes.  ``1`` evaluates inline; ``n > 1``
        keeps up to ``n`` leases in flight through a process pool.
    cache_dir:
        On-disk DP cache directory for tables solved here (tables from the
        table service never touch it — they arrive solved).
    connect_retry_for:
        Seconds to tolerate connection refusal at startup (workers often
        race their coordinator's bind).
    """

    def __init__(self, host: str, port: int, *,
                 spec=None, worker_id: Optional[str] = None,
                 jobs: int = 1, cache_dir: Optional[str] = None,
                 connect_retry_for: float = 10.0,
                 socket_timeout: float = 600.0):
        self._host, self._port = host, int(port)
        self._spec = spec
        self._jobs = max(1, int(jobs))
        self._cache_dir = cache_dir
        self._connect_retry_for = connect_retry_for
        self._socket_timeout = socket_timeout
        self.stats = WorkerStats(worker_id=worker_id or uuid.uuid4().hex[:12])
        self._held_leases: Set[str] = set()
        self._lost_leases: Set[str] = set()
        self._lease_lock = threading.Lock()
        self._stop_heartbeat = threading.Event()

    # -- lease bookkeeping (shared with the heartbeat thread) -----------
    def _hold(self, lease_id: str) -> None:
        with self._lease_lock:
            self._held_leases.add(lease_id)
            self.stats.lease_ids_seen.add(lease_id)

    def _drop(self, lease_id: str) -> bool:
        """Forget a lease; False when a heartbeat reported it lost."""
        with self._lease_lock:
            self._held_leases.discard(lease_id)
            return lease_id not in self._lost_leases

    def _heartbeat_loop(self, conn: Connection, interval: float) -> None:
        while not self._stop_heartbeat.wait(interval):
            with self._lease_lock:
                held = sorted(self._held_leases)
            if not held:
                continue
            try:
                reply, _ = conn.request({"type": "heartbeat",
                                         "worker_id": self.stats.worker_id,
                                         "lease_ids": held})
            except (ProtocolError, OSError):
                return  # the main loop will hit the same broken socket
            lost = reply.get("lost") or []
            if lost:
                with self._lease_lock:
                    self._lost_leases.update(str(lease) for lease in lost)
                self.stats.leases_lost += len(lost)

    # -- table service ---------------------------------------------------
    def _fetch_tables(self, conn: Connection, keys: Sequence[Sequence],
                      config: Optional[ExperimentConfig],
                      publisher: SharedTablePublisher
                      ) -> Optional[ExperimentConfig]:
        """Fetch the run's planned DP tables once and publish them locally.

        Returns ``config`` carrying the shared-memory handles, which every
        point then adopts; tables that cannot be published go into this
        process's caches instead.
        """
        handles = []
        for raw in keys:
            key = (int(raw[0]), int(raw[1]), int(raw[2]), str(raw[3]))
            reply, blob = conn.request({"type": "table", "key": list(key)})
            check_error(reply)
            digest = hashlib.sha256(blob).hexdigest()
            if digest != reply.get("sha256"):
                raise ProtocolError(
                    f"table {key!r} arrived corrupt: sha256 {digest[:12]}... "
                    f"!= announced {str(reply.get('sha256'))[:12]}...")
            table = deserialize_table(blob, key=key)
            self.stats.tables_fetched += 1
            self.stats.table_bytes_received += len(blob)
            try:
                handles.append(publisher.publish(table, method=key[3]))
            except OSError:
                # No shared memory here: preload this process's caches so
                # inline evaluation still never re-solves; pool children
                # fall back to solving locally (slower, never wrong).
                _worker_cache(config.cache_dir).preload(table, method=key[3])
                shared_cache().preload(table, method=key[3])
        if handles:
            return replace(config, shared_tables=tuple(handles))
        return config

    # -- main loop -------------------------------------------------------
    def run(self) -> WorkerStats:
        """Work until the coordinator reports the run done."""
        conn = connect(self._host, self._port,
                       timeout=self._socket_timeout,
                       retry_for=self._connect_retry_for)
        heartbeat: Optional[threading.Thread] = None
        pool: Optional[ProcessPoolExecutor] = None
        publisher = SharedTablePublisher()
        try:
            hello = {"type": "hello", "protocol": PROTOCOL_VERSION,
                     "worker_id": self.stats.worker_id}
            if self._spec is not None:
                hello["spec_digest"] = spec_digest(self._spec)
            welcome, _ = conn.request(hello)
            check_error(welcome)
            spec = (self._spec if self._spec is not None
                    else parse_spec(welcome["spec"],
                                    source=f"coordinator:{welcome['run_id']}"))
            ttl = float(welcome.get("lease_ttl", 60.0))
            config = self._fetch_tables(
                conn, welcome.get("tables", ()),
                payload_config(spec, cache_dir=self._cache_dir), publisher)

            self._stop_heartbeat.clear()
            heartbeat = threading.Thread(
                target=self._heartbeat_loop,
                args=(conn, max(ttl / 3.0, 0.05)),
                name="repro-worker-heartbeat", daemon=True)
            heartbeat.start()

            if self._jobs <= 1:
                self._run_inline(conn, spec, config)
            else:
                pool = ProcessPoolExecutor(max_workers=self._jobs)
                self._run_pooled(conn, spec, config, pool)
            try:
                conn.request({"type": "bye",
                              "worker_id": self.stats.worker_id})
            except (ProtocolError, OSError):
                pass
            return self.stats
        finally:
            self._stop_heartbeat.set()
            if heartbeat is not None:
                heartbeat.join(timeout=5.0)
            if pool is not None:
                pool.shutdown(wait=False)
            publisher.close()
            conn.close()

    def _lease(self, conn: Connection) -> Optional[Dict[str, Any]]:
        """One lease request; returns a grant, or None when the run is done.

        Blocks through ``wait`` replies (everything currently leased out)."""
        while True:
            reply, _ = conn.request({"type": "lease",
                                     "worker_id": self.stats.worker_id})
            check_error(reply)
            kind = reply.get("type")
            if kind == "grant":
                self._hold(str(reply["lease_id"]))
                return reply
            if kind == "done":
                return None
            time.sleep(float(reply.get("retry_after", 0.2)))

    def _expand(self, spec, config: Optional[ExperimentConfig],
                grant: Dict[str, Any]):
        """Materialise the granted point's payload, digest-verified."""
        index = int(grant["index"])
        payload = expand_payload_at(spec, index, config=config)
        expected = grant.get("payload_digest")
        if expected is not None and payload_digest(payload) != expected:
            raise ProtocolError(
                f"payload digest mismatch at point {index}: the "
                "coordinator's manifest and this worker's grid expansion "
                "disagree — refusing to compute (version skew between "
                "coordinator and worker?)")
        return payload

    def _submit_result(self, conn: Connection, index: int, lease_id: str,
                       row: Dict[str, Any]) -> None:
        if not self._drop(lease_id):
            # Heartbeat says this lease expired and the point went back
            # to pending — submit anyway: the bytes are deterministic, so
            # we either win the race or land as an identical duplicate.
            pass
        blob = row_to_shard_bytes(row)
        reply, _ = conn.request(
            {"type": "result", "worker_id": self.stats.worker_id,
             "index": index, "lease_id": lease_id,
             "sha256": hashlib.sha256(blob).hexdigest()},
            blob)
        check_error(reply)
        self.stats.shard_bytes_sent += len(blob)
        if reply.get("duplicate"):
            self.stats.points_duplicate += 1
        else:
            self.stats.points_completed += 1

    def _run_inline(self, conn: Connection, spec,
                    config: ExperimentConfig) -> None:
        while True:
            grant = self._lease(conn)
            if grant is None:
                return
            payload = self._expand(spec, config, grant)
            self._submit_result(conn, int(grant["index"]),
                                str(grant["lease_id"]),
                                evaluate_payload(payload))

    def _run_pooled(self, conn: Connection, spec,
                    config: ExperimentConfig,
                    pool: ProcessPoolExecutor) -> None:
        futures: Dict[Any, Tuple[int, str]] = {}
        draining = False
        while True:
            while not draining and len(futures) < self._jobs:
                grant = self._lease(conn)
                if grant is None:
                    draining = True
                    break
                payload = self._expand(spec, config, grant)
                future = pool.submit(evaluate_payload, payload)
                futures[future] = (int(grant["index"]),
                                   str(grant["lease_id"]))
            if not futures:
                return
            finished, _ = wait(futures, return_when=FIRST_COMPLETED)
            for future in finished:
                index, lease_id = futures.pop(future)
                self._submit_result(conn, index, lease_id, future.result())
