"""Coordinator side of the distributed sweep executor.

Owns the run directory and the authoritative point ledger.  Before it
serves anything, the coordinator solves the DP tables the run's pending
points need — the same plan ``--jobs`` publishes to shared memory, see
:func:`~repro.experiments.orchestrator.solve_table_plan`.  Workers
connect over TCP, fetch those tables from the content-addressed table
service, lease pending point indices (work-stealing: whoever asks first
gets the next point), and stream completed shard bytes back.  The
coordinator is the *only* process that writes the run store, so every
atomicity/resume/vouch guarantee of a single-machine run carries over
verbatim — a remotely computed shard lands through the same
temp-file + rename path as a local one.

Fault model: a worker that dies (or whose leases expire while it grinds
on a slow point) simply returns its points to the pending set; whoever
completes a point first wins, and a late duplicate completion is
accepted only if its bytes are identical to what the winner wrote
(shard bytes are deterministic functions of the row, so an honest
duplicate *is* byte-identical).
"""

from __future__ import annotations

import hashlib
import os
import socket
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple, Union

from ..core.exceptions import CycleStealingError
from ..experiments.cache import (
    CacheKey,
    DPTableCache,
    serialize_table,
    table_key,
)
from ..experiments.orchestrator import solve_table_plan, spec_table_plan
from ..runstore import DEFAULT_RUNS_DIR, Run, RunStore, RunStoreError, run_spec
from ..specs import (
    ExperimentSpec,
    default_run_id,
    spec_digest,
    spec_to_dict,
)
from .protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    fatal_error,
    recv_frame,
    send_frame,
    soft_error,
)

__all__ = ["Lease", "PointLedger", "Coordinator", "DistributedError"]

#: Seconds a worker should wait before re-asking when everything is
#: leased out but not yet done.
WAIT_RETRY_AFTER = 0.2


class DistributedError(CycleStealingError):
    """Cluster-level failure (no workers left, unresolvable run state)."""


@dataclass
class Lease:
    """One outstanding claim on a point index."""

    index: int
    lease_id: str
    worker_id: str
    expires_at: float


@dataclass
class LedgerCounts:
    """Point-state census used by ``/metrics`` and the wait loop."""

    pending: int
    leased: int
    done: int
    total: int


class PointLedger:
    """Thread-safe pending/leased/done bookkeeping with lease expiry.

    Expiry is lazy: expired leases are reaped to the pending set inside
    :meth:`lease`, :meth:`renew` and :meth:`counts` — there is no timer
    thread, so a test can drive the clock with tiny TTLs and the
    production path has one fewer moving part.
    """

    def __init__(self, pending, *, ttl: float, total: int,
                 done: Optional[Set[int]] = None):
        self._lock = threading.Lock()
        self._pending: List[int] = sorted(pending)
        self._leases: Dict[int, Lease] = {}
        self._done: Set[int] = set(done or ())
        self._ttl = float(ttl)
        self._total = int(total)
        self.granted = 0
        self.expired = 0

    @property
    def ttl(self) -> float:
        return self._ttl

    def _reap_expired(self, now: float) -> None:
        # caller holds the lock
        stale = [lease for lease in self._leases.values()
                 if lease.expires_at <= now]
        for lease in stale:
            del self._leases[lease.index]
            self._pending.append(lease.index)
            self.expired += 1
        if stale:
            self._pending.sort()

    def lease(self, worker_id: str) -> Union[Lease, str]:
        """Grant the lowest pending index, or ``"wait"`` / ``"done"``."""
        now = time.monotonic()
        with self._lock:
            self._reap_expired(now)
            if self._pending:
                index = self._pending.pop(0)
                lease = Lease(index=index, lease_id=uuid.uuid4().hex,
                              worker_id=worker_id,
                              expires_at=now + self._ttl)
                self._leases[index] = lease
                self.granted += 1
                return lease
            return "done" if len(self._done) >= self._total else "wait"

    def renew(self, worker_id: str,
              lease_ids) -> Tuple[List[str], List[str]]:
        """Heartbeat: extend the given leases; report which were lost."""
        now = time.monotonic()
        wanted = set(lease_ids)
        renewed: List[str] = []
        with self._lock:
            self._reap_expired(now)
            for lease in self._leases.values():
                if lease.lease_id in wanted and lease.worker_id == worker_id:
                    lease.expires_at = now + self._ttl
                    renewed.append(lease.lease_id)
        return renewed, sorted(wanted - set(renewed))

    def complete(self, index: int) -> bool:
        """Mark a point done (idempotent); True when it was newly done."""
        with self._lock:
            if index in self._done:
                return False
            self._done.add(index)
            self._leases.pop(index, None)
            try:
                self._pending.remove(index)
            except ValueError:
                pass
            return True

    def is_done(self, index: int) -> bool:
        with self._lock:
            return index in self._done

    def all_done(self) -> bool:
        with self._lock:
            return len(self._done) >= self._total

    def release_worker(self, worker_id: str) -> int:
        """Return a dead worker's leases to the pending set."""
        with self._lock:
            stale = [lease for lease in self._leases.values()
                     if lease.worker_id == worker_id]
            for lease in stale:
                del self._leases[lease.index]
                self._pending.append(lease.index)
            if stale:
                self._pending.sort()
            return len(stale)

    def counts(self) -> LedgerCounts:
        now = time.monotonic()
        with self._lock:
            self._reap_expired(now)
            return LedgerCounts(pending=len(self._pending),
                                leased=len(self._leases),
                                done=len(self._done), total=self._total)


@dataclass
class CoordinatorMetrics:
    """Counters the ``/metrics`` endpoint and benchmarks read."""

    workers_seen: Set[str] = field(default_factory=set)
    workers_connected: int = 0
    table_requests: int = 0
    table_bytes_streamed: int = 0
    shards_streamed: int = 0
    shard_bytes_streamed: int = 0
    duplicates_identical: int = 0
    duplicates_rejected: int = 0


class Coordinator:
    """TCP server that owns a run and leases its pending points.

    The run directory is created (or opened for resume) exactly as
    :func:`repro.runstore.run_spec` would, so ``repro resume``,
    ``repro report`` and the consolidation/vouch machinery treat a
    distributed run identically to a local one.

    Start with :meth:`start` (binds, solves the planned DP tables, then
    accepts in the background and returns), wait for completion with
    :meth:`wait`, and always :meth:`stop` in a ``finally``.  ``port=0``
    binds an ephemeral port; read :attr:`address` after ``start()``.
    """

    def __init__(self, spec: ExperimentSpec, *,
                 runs_dir: Union[str, os.PathLike] = DEFAULT_RUNS_DIR,
                 run_id: Optional[str] = None,
                 host: str = "127.0.0.1", port: int = 0,
                 lease_ttl: float = 60.0,
                 resume: bool = False,
                 cache_dir: Optional[str] = None):
        self.spec = spec
        self.spec_digest = spec_digest(spec)
        self._spec_data = spec_to_dict(spec)
        self._host, self._port = host, int(port)
        self._lease_ttl = float(lease_ttl)
        self.metrics = CoordinatorMetrics()
        self._metrics_lock = threading.Lock()
        self._write_lock = threading.Lock()
        self._finished = threading.Event()
        self._failure: Optional[BaseException] = None
        self._server_sock: Optional[socket.socket] = None
        self._threads: List[threading.Thread] = []

        store = RunStore(runs_dir)
        run_id = run_id or default_run_id(spec)
        if store.exists(run_id):
            if not resume:
                raise RunStoreError(
                    f"run {run_id!r} already exists under {store.root!r}; "
                    "pass resume=True (or `repro resume`) to continue it")
            self.run: Run = store.open(run_id)
            if self.run.spec() != spec:
                raise RunStoreError(
                    f"run {run_id!r} was created from a different spec; "
                    "refusing to mix results (start a fresh run id instead)")
        else:
            # Creating through run_spec with max_points=0 reuses its full
            # manifest construction (payload digests included) without
            # computing any points here — the cluster computes them.
            self.run = run_spec(spec, runs_dir=runs_dir, run_id=run_id,
                                max_points=0, cache_dir=cache_dir)
        done = self.run.completed_points()
        total = self.run.num_points
        pending = [i for i in range(total) if i not in done]
        self.ledger = PointLedger(pending, ttl=self._lease_ttl, total=total,
                                  done=done)
        self._payload_digests = self.run.manifest.get("payload_digests")
        # Solved by start(), once the socket is bound.
        self._plan = spec_table_plan(spec, pending)
        self._cache_dir = cache_dir
        self._tables: Dict[CacheKey, Tuple[bytes, str]] = {}
        self._dp_solves = 0
        if self.ledger.all_done():
            self._finalise()

    def _solve_tables(self) -> None:
        """Solve the planned DP tables into wire bytes and sha256.

        Each table is listed under its own key.  A larger covering table
        found on disk is listed under its key, not the planned one, so
        every key maps to exactly one blob.
        """
        cache = DPTableCache(cache_dir=self._cache_dir)
        wire = {}
        for (_L, _c, _p, method), table in zip(
                self._plan, solve_table_plan(self._plan, cache)):
            blob = serialize_table(table)
            wire[table_key(table, method)] = (
                blob, hashlib.sha256(blob).hexdigest())
        self._tables = dict(sorted(wire.items()))
        self._dp_solves = cache.stats.misses

    # -- lifecycle ------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` actually bound (valid after :meth:`start`)."""
        if self._server_sock is None:
            raise DistributedError("coordinator not started")
        return self._server_sock.getsockname()[:2]

    def start(self) -> "Coordinator":
        sock = socket.create_server((self._host, self._port), backlog=64)
        self._server_sock = sock
        # Bound first: workers that connect while the tables are solved
        # wait in the listen backlog instead of being refused.
        self._solve_tables()
        acceptor = threading.Thread(target=self._accept_loop,
                                    name="repro-coordinator-accept",
                                    daemon=True)
        acceptor.start()
        self._threads.append(acceptor)
        return self

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until every point is done (True) or timeout (False)."""
        finished = self._finished.wait(timeout)
        if finished and self._failure is not None:
            raise DistributedError(
                f"coordinator failed: {self._failure}") from self._failure
        return finished

    def stop(self, grace: float = 5.0) -> None:
        """Stop accepting and drain in-flight connections.

        Closing the listening socket stops new workers; existing
        connection handlers are then given ``grace`` seconds (total, not
        each) to flush their final replies and observe their workers'
        ``bye`` — without this, a coordinator process exiting right
        after the last point completes races its own daemon handler
        threads and a worker can lose the ``ok`` for the result it just
        streamed.  Handlers still blocked after the grace (a worker dead
        mid-point) are abandoned; their sockets die with the process.
        """
        sock, self._server_sock = self._server_sock, None
        if sock is not None:
            try:
                # shutdown() wakes a thread blocked in accept() (closing
                # alone does not, on Linux) so the acceptor exits now
                # instead of eating the whole grace below.
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        deadline = time.monotonic() + grace
        current = threading.current_thread()
        for thread in self._threads:
            if thread is current:
                continue
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            thread.join(timeout=remaining)

    def __enter__(self) -> "Coordinator":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- metrics --------------------------------------------------------
    def metrics_snapshot(self) -> Dict[str, Any]:
        counts = self.ledger.counts()
        with self._metrics_lock:
            m = self.metrics
            return {
                "points": {"pending": counts.pending, "leased": counts.leased,
                           "done": counts.done, "total": counts.total},
                "workers": {"connected": m.workers_connected,
                            "seen": len(m.workers_seen)},
                "table_service": {"requests": m.table_requests,
                                  "dp_solves": self._dp_solves,
                                  "bytes_streamed": m.table_bytes_streamed},
                "shards": {"streamed": m.shards_streamed,
                           "bytes_streamed": m.shard_bytes_streamed,
                           "duplicates_identical": m.duplicates_identical,
                           "duplicates_rejected": m.duplicates_rejected},
                "leases": {"granted": self.ledger.granted,
                           "expired": self.ledger.expired},
            }

    # -- server internals ----------------------------------------------
    def _accept_loop(self) -> None:
        while True:
            sock = self._server_sock
            if sock is None:
                return
            try:
                conn, _addr = sock.accept()
            except OSError:
                return  # stop() closed the socket
            thread = threading.Thread(target=self._serve_connection,
                                      args=(conn,),
                                      name="repro-coordinator-conn",
                                      daemon=True)
            thread.start()
            self._threads.append(thread)

    def _serve_connection(self, conn: socket.socket) -> None:
        worker_id: Optional[str] = None
        try:
            conn.settimeout(max(4 * self._lease_ttl, 10.0))
            header, _blob = recv_frame(conn)
            worker_id = self._handshake(conn, header)
            if worker_id is None:
                return
            while True:
                header, blob = recv_frame(conn)
                kind = header.get("type")
                if kind == "lease":
                    send_frame(conn, self._handle_lease(header))
                elif kind == "heartbeat":
                    send_frame(conn, self._handle_heartbeat(header))
                elif kind == "table":
                    reply, table_blob = self._handle_table(header)
                    send_frame(conn, reply, table_blob)
                elif kind == "result":
                    send_frame(conn, self._handle_result(header, blob))
                elif kind == "bye":
                    send_frame(conn, {"type": "ok"})
                    return
                else:
                    send_frame(conn, fatal_error(
                        f"unknown message type {kind!r}"))
                    return
        except (ProtocolError, OSError):
            pass  # worker vanished; its leases are released below
        except BaseException as exc:  # surface real bugs to wait()
            self._failure = exc
            self._finished.set()
        finally:
            if worker_id is not None:
                self.ledger.release_worker(worker_id)
                with self._metrics_lock:
                    self.metrics.workers_connected -= 1
            try:
                conn.close()
            except OSError:
                pass

    def _handshake(self, conn: socket.socket,
                   header: Dict[str, Any]) -> Optional[str]:
        if header.get("type") != "hello":
            send_frame(conn, fatal_error(
                f"expected hello, got {header.get('type')!r}"))
            return None
        if header.get("protocol") != PROTOCOL_VERSION:
            send_frame(conn, fatal_error(
                f"protocol version mismatch: coordinator speaks "
                f"{PROTOCOL_VERSION}, worker offered "
                f"{header.get('protocol')!r}"))
            return None
        offered = header.get("spec_digest")
        if offered is not None and offered != self.spec_digest:
            send_frame(conn, fatal_error(
                "spec digest mismatch: this coordinator runs "
                f"{self.run.run_id!r} with spec digest "
                f"{self.spec_digest[:12]}..., the worker offered "
                f"{str(offered)[:12]}... — point the worker at the same "
                "spec file (or omit --spec to adopt the coordinator's)"))
            return None
        worker_id = str(header.get("worker_id") or uuid.uuid4().hex)
        with self._metrics_lock:
            self.metrics.workers_seen.add(worker_id)
            self.metrics.workers_connected += 1
        send_frame(conn, {"type": "welcome", "run_id": self.run.run_id,
                          "num_points": self.run.num_points,
                          "lease_ttl": self._lease_ttl,
                          "worker_id": worker_id,
                          "spec": self._spec_data,
                          "tables": [list(key) for key in self._tables]})
        return worker_id

    def _handle_lease(self, header: Dict[str, Any]) -> Dict[str, Any]:
        worker_id = str(header.get("worker_id", ""))
        outcome = self.ledger.lease(worker_id)
        if outcome == "done":
            return {"type": "done"}
        if outcome == "wait":
            return {"type": "wait", "retry_after": WAIT_RETRY_AFTER}
        digest = None
        if self._payload_digests \
                and outcome.index < len(self._payload_digests):
            digest = self._payload_digests[outcome.index]
        return {"type": "grant", "index": outcome.index,
                "lease_id": outcome.lease_id, "ttl": self._lease_ttl,
                "payload_digest": digest}

    def _handle_heartbeat(self, header: Dict[str, Any]) -> Dict[str, Any]:
        renewed, lost = self.ledger.renew(
            str(header.get("worker_id", "")),
            [str(lease) for lease in header.get("lease_ids", ())])
        return {"type": "ok", "renewed": renewed, "lost": lost}

    def _handle_table(self,
                      header: Dict[str, Any]) -> Tuple[Dict[str, Any], bytes]:
        raw = header.get("key")
        try:
            blob, digest = self._tables[tuple(raw)]
        except (KeyError, TypeError):  # unplanned, malformed or unhashable
            return soft_error(
                f"table {raw!r} is not one of this run's planned tables "
                f"{[list(key) for key in self._tables]}"), b""
        with self._metrics_lock:
            self.metrics.table_requests += 1
            self.metrics.table_bytes_streamed += len(blob)
        return {"type": "table", "key": raw, "sha256": digest}, blob

    def _handle_result(self, header: Dict[str, Any],
                       blob: bytes) -> Dict[str, Any]:
        try:
            index = int(header["index"])
        except (KeyError, TypeError, ValueError):
            return soft_error("result without a valid point index")
        if not 0 <= index < self.run.num_points:
            return soft_error(f"point index {index} out of range")
        claimed = str(header.get("sha256", ""))
        actual = hashlib.sha256(blob).hexdigest()
        if claimed != actual:
            return soft_error(
                f"shard digest mismatch for point {index}: stream carried "
                f"{actual[:12]}..., header claimed {claimed[:12]}... — "
                "shard discarded, point stays pending")
        # Writes are serialised: the duplicate check and the write must be
        # atomic with respect to one another, or two racing workers could
        # both see "not done" and both write (harmless for identical bytes,
        # but the duplicate accounting would lie).
        with self._write_lock:
            if self.ledger.is_done(index):
                return self._verify_duplicate(index, blob, actual)
            try:
                self.run.write_point_bytes(index, blob)
            except RunStoreError as exc:
                return soft_error(
                    f"shard for point {index} failed validation: {exc}")
            self.ledger.complete(index)
        with self._metrics_lock:
            self.metrics.shards_streamed += 1
            self.metrics.shard_bytes_streamed += len(blob)
        if self.ledger.all_done():
            self._finalise()
        return {"type": "ok", "accepted": True, "duplicate": False}

    def _verify_duplicate(self, index: int, blob: bytes,
                          digest: str) -> Dict[str, Any]:
        """Second completion of a done point: identical bytes or rejected."""
        try:
            with open(self.run.shard_path(index), "rb") as handle:
                existing = hashlib.sha256(handle.read()).hexdigest()
        except OSError:
            existing = None
        if existing == digest:
            with self._metrics_lock:
                self.metrics.duplicates_identical += 1
            return {"type": "ok", "accepted": False, "duplicate": True}
        with self._metrics_lock:
            self.metrics.duplicates_rejected += 1
        return soft_error(
            f"duplicate completion of point {index} with different bytes "
            f"(got {digest[:12]}..., first writer published "
            f"{str(existing)[:12]}...); first write wins — rejected")

    def _finalise(self) -> None:
        """All points done: consolidate, mark complete, release waiters."""
        with self._write_lock:
            if self._finished.is_set():
                return
            try:
                self.run.consolidate_columns(force=True)
            except (OSError, RunStoreError):
                pass
            self.run.mark_complete()
            self._finished.set()
