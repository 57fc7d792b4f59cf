"""Tests for the distributed work-stealing executor (:mod:`repro.distributed`).

The headline property mirrors the run-store's: a sweep computed by a
coordinator + N worker processes over loopback TCP publishes a run
directory **byte-identical** (manifest, every shard, ``columns.npz``) to
the same spec run with ``--jobs N`` on one machine — including when a
worker is SIGKILLed mid-point.  The lease-protocol edge cases (duplicate
completion, expiry during a long point, spec-digest mismatch) are pinned
against a raw protocol client so the coordinator's replies, not just the
bundled worker's behaviour, are under test.
"""

import hashlib
import json
import multiprocessing
import os
import socket
import time
import urllib.request

import pytest

from repro.distributed import (
    Coordinator,
    PointLedger,
    ProtocolError,
    WorkerClient,
    run_spec_distributed,
)
import repro.distributed.coordinator as coordinator_module
import repro.runstore as runstore_module
from repro.distributed.executor import _worker_entry
from repro.distributed.protocol import (
    PROTOCOL_VERSION,
    Connection,
    connect,
    recv_frame,
    resolve_bind,
    send_frame,
)
from repro.dp import solve
from repro.experiments.cache import DPTableCache, serialize_table
from repro.experiments.orchestrator import solve_table_plan, spec_table_plan
from repro.runstore import RunStore, row_to_shard_bytes, run_spec
from repro.specs import (
    default_run_id,
    evaluate_payload,
    expand_payload_at,
    parse_spec,
    spec_digest,
    spec_to_dict,
)

# 64 analytic points (4 lifespans x 2 costs x 2 budgets x 4 schedulers),
# DP optimum on — 16 distinct (L, c, p) keys, planned as one covering
# table per setup cost.
SWEEP_64_SPEC = {
    "experiment": {"name": "dist-64", "kind": "sweep", "seed": 0,
                   "replications": 0},
    "sweep": {"lifespans": [60.0, 80.0, 100.0, 120.0],
              "setup_costs": [1.0, 2.0], "interrupts": [1, 2],
              "schedulers": ["equalizing-adaptive", "rosenberg-nonadaptive",
                             "fixed-period", "single-period"],
              "optimal": True},
}

# Two instant analytic points — the raw-protocol fixtures' workload.
TINY_SPEC = {
    "experiment": {"name": "dist-tiny", "kind": "sweep", "seed": 0,
                   "replications": 0},
    "sweep": {"lifespans": [40.0, 50.0], "setup_costs": [1.0],
              "interrupts": [1], "schedulers": ["equalizing-adaptive"]},
}

# Eight analytic points with the DP optimum (grid order: cost, budget,
# lifespan), planned as one covering table per setup cost, (80, c, 2).
TABLE_SPEC = {
    "experiment": {"name": "dist-tables", "kind": "sweep", "seed": 0,
                   "replications": 0},
    "sweep": {"lifespans": [60.0, 80.0], "setup_costs": [1.0, 2.0],
              "interrupts": [1, 2], "schedulers": ["equalizing-adaptive"],
              "optimal": True},
}

# Four Monte-Carlo points for the worker-death test (the point delay
# hook stretches each one so a kill reliably lands mid-point).
MC_SPEC = {
    "experiment": {"name": "dist-mc", "kind": "sweep", "seed": 3,
                   "replications": 4, "backend": "batch"},
    "sweep": {"lifespans": [80.0, 120.0], "setup_costs": [1.0],
              "interrupts": [1],
              "schedulers": ["equalizing-adaptive", "single-period"],
              "adversaries": ["poisson-owner"]},
}


def run_tree(run):
    """``{relpath: sha256}`` of a run directory, minus the advisory vouch.

    ``columns.vouch.json`` records local ``(size, mtime_ns)`` stat
    signatures — machine-local by construction, excluded from the run's
    content digest, and therefore from byte-identity too.
    """
    out = {}
    for dirpath, _dirs, files in os.walk(run.root):
        for name in files:
            if name == "columns.vouch.json":
                continue
            path = os.path.join(dirpath, name)
            with open(path, "rb") as handle:
                digest = hashlib.sha256(handle.read()).hexdigest()
            out[os.path.relpath(path, run.root)] = digest
    return out


def handshake(coordinator, *, worker_id="raw", digest=None,
              protocol=PROTOCOL_VERSION):
    """Raw client: connect + hello; returns (connection, welcome-or-error)."""
    host, port = coordinator.address
    conn = connect(host, port, timeout=30.0)
    hello = {"type": "hello", "protocol": protocol, "worker_id": worker_id}
    if digest is not None:
        hello["spec_digest"] = digest
    reply, _ = conn.request(hello)
    return conn, reply


def shard_bytes_for(spec, index):
    row = evaluate_payload(expand_payload_at(spec, index))
    blob = row_to_shard_bytes(row)
    return blob, hashlib.sha256(blob).hexdigest()


def submit_result(conn, index, lease_id, blob, digest, worker_id="raw"):
    return conn.request({"type": "result", "worker_id": worker_id,
                         "index": index, "lease_id": lease_id,
                         "sha256": digest}, blob)[0]


@pytest.fixture
def tiny_coordinator(tmp_path):
    coordinator = Coordinator(parse_spec(TINY_SPEC),
                              runs_dir=tmp_path / "runs", lease_ttl=30.0)
    coordinator.start()
    yield coordinator
    coordinator.stop()


class TestProtocol:
    def test_frame_round_trip_with_blob(self):
        left, right = socket.socketpair()
        try:
            send_frame(left, {"type": "result", "index": 7}, b"\x00" * 1024)
            header, blob = recv_frame(right)
            assert header["type"] == "result"
            assert header["index"] == 7
            assert header["blob_len"] == 1024
            assert blob == b"\x00" * 1024
        finally:
            left.close()
            right.close()

    def test_garbage_length_prefix_rejected(self):
        left, right = socket.socketpair()
        try:
            left.sendall(b"\xff\xff\xff\xff" + b"x" * 16)
            with pytest.raises(ProtocolError) as excinfo:
                recv_frame(right)
            assert "bound" in str(excinfo.value)
        finally:
            left.close()
            right.close()

    def test_truncated_frame_is_an_error_not_a_hang(self):
        left, right = socket.socketpair()
        try:
            send_frame(left, {"type": "x"}, b"one-intact-frame")
            left.close()
            header, blob = recv_frame(right)  # the intact frame is fine
            assert blob == b"one-intact-frame"
            with pytest.raises(ProtocolError):
                recv_frame(right)  # EOF mid-frame surfaces, never hangs
        finally:
            right.close()

    def test_resolve_bind(self):
        assert resolve_bind("127.0.0.1:9000") == ("127.0.0.1", 9000)
        assert resolve_bind("host.example:0") == ("host.example", 0)
        with pytest.raises(ProtocolError):
            resolve_bind("no-port")
        with pytest.raises(ProtocolError):
            resolve_bind("host:not-a-number")


class TestPointLedger:
    def test_grants_lowest_pending_then_wait_then_done(self):
        ledger = PointLedger([0, 1], ttl=30.0, total=2)
        first = ledger.lease("w")
        second = ledger.lease("w")
        assert (first.index, second.index) == (0, 1)
        assert ledger.lease("w") == "wait"
        ledger.complete(0)
        ledger.complete(1)
        assert ledger.lease("w") == "done"

    def test_expired_lease_returns_to_pending(self):
        ledger = PointLedger([0], ttl=0.05, total=1)
        first = ledger.lease("w1")
        time.sleep(0.1)
        second = ledger.lease("w2")
        assert second.index == first.index == 0
        assert second.lease_id != first.lease_id
        assert ledger.expired == 1

    def test_heartbeat_renews_and_reports_lost(self):
        ledger = PointLedger([0, 1], ttl=0.2, total=2)
        keep = ledger.lease("w")
        lose = ledger.lease("w")
        deadline = time.monotonic() + 0.5
        while time.monotonic() < deadline:
            renewed, _lost = ledger.renew("w", [keep.lease_id])
            assert keep.lease_id in renewed
            time.sleep(0.05)
        renewed, lost = ledger.renew("w", [keep.lease_id, lose.lease_id])
        assert renewed == [keep.lease_id]
        assert lost == [lose.lease_id]  # expired while never renewed
        assert ledger.counts().pending == 1  # the lost point is pending again

    def test_release_worker_returns_only_its_leases(self):
        ledger = PointLedger([0, 1, 2], ttl=30.0, total=3)
        ledger.lease("dead")
        survivor = ledger.lease("alive")
        ledger.lease("dead")
        assert ledger.release_worker("dead") == 2
        counts = ledger.counts()
        assert (counts.pending, counts.leased) == (2, 1)
        renewed, _ = ledger.renew("alive", [survivor.lease_id])
        assert renewed == [survivor.lease_id]

    def test_complete_is_idempotent(self):
        ledger = PointLedger([0], ttl=30.0, total=1)
        ledger.lease("w")
        assert ledger.complete(0) is True
        assert ledger.complete(0) is False
        assert ledger.all_done()


class TestByteIdentity:
    def test_cluster_of_two_matches_jobs_two(self, tmp_path, monkeypatch):
        """The acceptance bar: 64 points, 2 loopback workers, identical
        manifest + shards + columns.npz, one DP solve per planned table."""
        spec = parse_spec(SWEEP_64_SPEC)
        metrics = {}
        # The coordinator consolidates from the rows it decoded while
        # validating each streamed shard: it reads no shard back.
        reads = []
        real = runstore_module.read_row_shard
        monkeypatch.setattr(runstore_module, "read_row_shard",
                            lambda path: (reads.append(path), real(path))[1])
        cluster = run_spec_distributed(spec, runs_dir=tmp_path / "cluster",
                                       workers=2, lease_ttl=30.0,
                                       timeout=600.0, metrics_out=metrics)
        assert reads == []
        local = run_spec(spec, runs_dir=tmp_path / "local", jobs=2)
        assert cluster.status == "complete"
        assert run_tree(cluster) == run_tree(local)
        assert metrics["points"]["done"] == 64
        assert len(run_tree(cluster)) == 66  # manifest + 64 shards + sidecar
        # 16 distinct (L, c, p) keys, planned as one covering table per
        # setup cost: the cluster solves what run_spec(jobs=2) solves, and
        # each worker fetches each table once.
        plan = spec_table_plan(spec)
        assert len(plan) == 2
        assert metrics["table_service"]["dp_solves"] == len(plan)
        assert metrics["table_service"]["requests"] == 2 * len(plan)
        assert metrics["shards"]["duplicates_rejected"] == 0
        assert metrics["workers"]["seen"] == 2

    def test_cluster_resume_completes_partial_run(self, tmp_path):
        spec = parse_spec(TINY_SPEC)
        seeded = run_spec(spec, runs_dir=tmp_path / "runs", max_points=1)
        assert seeded.status == "running"
        resumed = run_spec_distributed(spec, runs_dir=tmp_path / "runs",
                                       workers=1, resume=True, timeout=120.0)
        assert resumed.status == "complete"
        reference = run_spec(spec, runs_dir=tmp_path / "reference")
        assert run_tree(resumed) == run_tree(reference)


class TestWorkerDeath:
    def test_sigkill_mid_point_converges_byte_identically(self, tmp_path,
                                                          monkeypatch):
        monkeypatch.setenv("REPRO_TEST_POINT_DELAY", "0.25")
        spec = parse_spec(MC_SPEC)
        coordinator = Coordinator(spec, runs_dir=tmp_path / "cluster",
                                  lease_ttl=30.0)
        coordinator.start()
        host, port = coordinator.address
        context = multiprocessing.get_context("spawn")
        workers = [context.Process(target=_worker_entry,
                                   args=(host, port, spec_to_dict(spec),
                                         f"w{rank}", 1, None), daemon=True)
                   for rank in range(2)]
        try:
            for worker in workers:
                worker.start()
            deadline = time.monotonic() + 120.0
            while coordinator.ledger.counts().done < 1:
                assert time.monotonic() < deadline, "no point ever completed"
                time.sleep(0.02)
            workers[0].kill()  # SIGKILL mid-sweep, likely mid-point
            assert coordinator.wait(timeout=120.0), (
                f"cluster never converged: {coordinator.ledger.counts()}")
        finally:
            coordinator.stop()
            for worker in workers:
                if worker.is_alive():
                    worker.terminate()
                worker.join(timeout=10.0)
        monkeypatch.delenv("REPRO_TEST_POINT_DELAY")
        assert coordinator.run.status == "complete"
        reference = run_spec(spec, runs_dir=tmp_path / "reference")
        assert run_tree(coordinator.run) == run_tree(reference)


class TestLeaseProtocolEdgeCases:
    def test_duplicate_completion_identical_bytes_accepted(
            self, tiny_coordinator):
        spec = parse_spec(TINY_SPEC)
        conn, welcome = handshake(tiny_coordinator)
        assert welcome["type"] == "welcome"
        grant, _ = conn.request({"type": "lease", "worker_id": "raw"})
        blob, digest = shard_bytes_for(spec, grant["index"])
        first = submit_result(conn, grant["index"], grant["lease_id"],
                              blob, digest)
        assert first == {"type": "ok", "accepted": True, "duplicate": False}
        second = submit_result(conn, grant["index"], grant["lease_id"],
                               blob, digest)
        assert second == {"type": "ok", "accepted": False, "duplicate": True}
        snapshot = tiny_coordinator.metrics_snapshot()
        assert snapshot["shards"]["duplicates_identical"] == 1
        conn.close()

    def test_duplicate_completion_different_bytes_rejected(
            self, tiny_coordinator):
        spec = parse_spec(TINY_SPEC)
        conn, _ = handshake(tiny_coordinator)
        grant, _ = conn.request({"type": "lease", "worker_id": "raw"})
        index = grant["index"]
        blob, digest = shard_bytes_for(spec, index)
        submit_result(conn, index, grant["lease_id"], blob, digest)
        # A second writer shows up with *different* (but valid) bytes.
        row = evaluate_payload(expand_payload_at(spec, index))
        row["guaranteed_work"] = -1.0
        forged = row_to_shard_bytes(row)
        reply = submit_result(conn, index, grant["lease_id"], forged,
                              hashlib.sha256(forged).hexdigest())
        assert reply["type"] == "error"
        assert not reply["fatal"]
        assert "first write wins" in reply["message"]
        # The first writer's shard is untouched.
        with open(tiny_coordinator.run.shard_path(index), "rb") as handle:
            assert hashlib.sha256(handle.read()).hexdigest() == digest
        assert tiny_coordinator.metrics_snapshot()["shards"][
            "duplicates_rejected"] == 1
        conn.close()

    def test_lease_expiry_during_long_point(self, tmp_path):
        """A worker that grinds past its TTL without heartbeating loses
        the point; a second worker completes it; the slow worker's late
        identical submission lands as an accepted duplicate."""
        spec = parse_spec(TINY_SPEC)
        coordinator = Coordinator(spec, runs_dir=tmp_path / "runs",
                                  lease_ttl=0.2)
        coordinator.start()
        try:
            slow, _ = handshake(coordinator, worker_id="slow")
            grant, _ = slow.request({"type": "lease", "worker_id": "slow"})
            index = grant["index"]
            time.sleep(0.4)  # the "long point": TTL expires, no heartbeat
            fast, _ = handshake(coordinator, worker_id="fast")
            regrant, _ = fast.request({"type": "lease", "worker_id": "fast"})
            assert regrant["index"] == index  # the point was re-leased
            assert regrant["lease_id"] != grant["lease_id"]
            blob, digest = shard_bytes_for(spec, index)
            assert submit_result(fast, index, regrant["lease_id"], blob,
                                 digest, worker_id="fast")["accepted"]
            late = submit_result(slow, index, grant["lease_id"], blob,
                                 digest, worker_id="slow")
            assert late == {"type": "ok", "accepted": False,
                            "duplicate": True}
            assert coordinator.metrics_snapshot()["leases"]["expired"] >= 1
            slow.close()
            fast.close()
        finally:
            coordinator.stop()

    def test_heartbeat_keeps_a_slow_point_leased(self, tmp_path):
        spec = parse_spec(TINY_SPEC)
        coordinator = Coordinator(spec, runs_dir=tmp_path / "runs",
                                  lease_ttl=0.3)
        coordinator.start()
        try:
            conn, _ = handshake(coordinator, worker_id="steady")
            grant, _ = conn.request({"type": "lease", "worker_id": "steady"})
            for _ in range(6):  # 0.6s of work, heartbeating under the TTL
                time.sleep(0.1)
                reply, _ = conn.request({"type": "heartbeat",
                                         "worker_id": "steady",
                                         "lease_ids": [grant["lease_id"]]})
                assert reply["renewed"] == [grant["lease_id"]]
                assert reply["lost"] == []
            assert coordinator.ledger.expired == 0
            conn.close()
        finally:
            coordinator.stop()

    def test_spec_digest_mismatch_refused_with_actionable_error(
            self, tiny_coordinator):
        conn, reply = handshake(tiny_coordinator, digest="0" * 64)
        assert reply["type"] == "error"
        assert reply["fatal"]
        assert "spec digest mismatch" in reply["message"]
        assert "--spec" in reply["message"]  # tells the operator what to do
        conn.close()

    def test_worker_client_raises_on_spec_mismatch(self, tiny_coordinator):
        host, port = tiny_coordinator.address
        other = parse_spec(SWEEP_64_SPEC)
        with pytest.raises(ProtocolError) as excinfo:
            WorkerClient(host, port, spec=other).run()
        assert "spec digest mismatch" in str(excinfo.value)

    def test_matching_spec_digest_accepted(self, tiny_coordinator):
        conn, reply = handshake(tiny_coordinator,
                                digest=spec_digest(parse_spec(TINY_SPEC)))
        assert reply["type"] == "welcome"
        assert reply["num_points"] == 2
        conn.close()

    def test_protocol_version_mismatch_refused(self, tiny_coordinator):
        conn, reply = handshake(tiny_coordinator, protocol=999)
        assert reply["type"] == "error"
        assert "protocol version mismatch" in reply["message"]
        conn.close()

    def test_corrupt_stream_discarded_point_stays_pending(
            self, tiny_coordinator):
        spec = parse_spec(TINY_SPEC)
        conn, _ = handshake(tiny_coordinator)
        grant, _ = conn.request({"type": "lease", "worker_id": "raw"})
        blob, _ = shard_bytes_for(spec, grant["index"])
        reply = submit_result(conn, grant["index"], grant["lease_id"],
                              blob, "deadbeef" * 8)  # wrong digest
        assert reply["type"] == "error" and not reply["fatal"]
        assert "digest mismatch" in reply["message"]
        assert not tiny_coordinator.ledger.is_done(grant["index"])
        # Valid-looking sha over garbage bytes: rejected at parse.
        garbage = b"not an npz archive at all"
        reply = submit_result(conn, grant["index"], grant["lease_id"],
                              garbage,
                              hashlib.sha256(garbage).hexdigest())
        assert reply["type"] == "error" and not reply["fatal"]
        assert "failed validation" in reply["message"]
        assert not tiny_coordinator.ledger.is_done(grant["index"])
        conn.close()


class TestTableService:
    def test_welcome_lists_exactly_the_plan(self, tmp_path):
        spec = parse_spec(TABLE_SPEC)
        coordinator = Coordinator(spec, runs_dir=tmp_path / "runs")
        coordinator.start()
        try:
            conn, welcome = handshake(coordinator)
            plan = [list(key) for key in spec_table_plan(spec)]
            assert welcome["tables"] == plan \
                == [[80, 1, 2, "fast"], [80, 2, 2, "fast"]]
            assert coordinator.metrics_snapshot()["table_service"][
                "dp_solves"] == 2
            conn.close()
        finally:
            coordinator.stop()

    def test_worker_connecting_during_the_solve_is_queued(self, tmp_path,
                                                           monkeypatch):
        # start() binds before it solves the plan: a worker that connects
        # meanwhile waits in the listen backlog instead of being refused.
        coordinator = Coordinator(parse_spec(TABLE_SPEC),
                                  runs_dir=tmp_path / "runs")
        early = []

        def solve_after_a_connect(plan, cache):
            early.append(connect(*coordinator.address, timeout=30.0))
            return solve_table_plan(plan, cache)

        monkeypatch.setattr(coordinator_module, "solve_table_plan",
                            solve_after_a_connect)
        coordinator.start()
        try:
            (conn,) = early
            welcome, _ = conn.request({"type": "hello",
                                       "protocol": PROTOCOL_VERSION,
                                       "worker_id": "early"})
            assert welcome["type"] == "welcome"
            assert welcome["tables"] == [[80, 1, 2, "fast"],
                                         [80, 2, 2, "fast"]]
            conn.close()
        finally:
            coordinator.stop()

    def test_one_solve_serves_every_connection(self, tmp_path):
        spec = parse_spec(dict(TABLE_SPEC, sweep=dict(TABLE_SPEC["sweep"],
                                                      setup_costs=[1.0])))
        coordinator = Coordinator(spec, runs_dir=tmp_path / "runs")
        coordinator.start()
        try:
            conns, blobs = [], []
            for i in range(2):
                conn, welcome = handshake(coordinator, worker_id=f"w{i}")
                (key,) = welcome["tables"]
                reply, blob = conn.request({"type": "table", "key": key})
                assert reply == {"type": "table", "key": key,
                                 "sha256": hashlib.sha256(blob).hexdigest(),
                                 "blob_len": len(blob)}
                conns.append(conn)
                blobs.append(blob)
            assert blobs[0] == blobs[1] == serialize_table(solve(80, 1, 2))
            tables = coordinator.metrics_snapshot()["table_service"]
            assert tables == {"requests": 2, "dp_solves": 1,
                              "bytes_streamed": 2 * len(blobs[0])}
            for conn in conns:
                conn.close()
        finally:
            coordinator.stop()

    @pytest.mark.parametrize("key", [[60, 1, 2, "fast"], ["x", 1], None])
    def test_unplanned_table_is_a_soft_error(self, tmp_path, key):
        coordinator = Coordinator(parse_spec(TABLE_SPEC),
                                  runs_dir=tmp_path / "runs")
        coordinator.start()
        try:
            conn, _ = handshake(coordinator)
            reply, blob = conn.request({"type": "table", "key": key})
            assert reply["type"] == "error" and not reply["fatal"]
            assert "planned tables" in reply["message"] and blob == b""
            # The connection survives a soft error: a lease still works.
            grant, _ = conn.request({"type": "lease", "worker_id": "raw"})
            assert grant["type"] == "grant"
            assert coordinator.metrics_snapshot()["table_service"][
                "requests"] == 0
            conn.close()
        finally:
            coordinator.stop()

    def test_resumed_coordinator_plans_only_pending_points(self, tmp_path):
        spec = parse_spec(TABLE_SPEC)
        run_spec(spec, runs_dir=tmp_path / "runs", max_points=4)  # c = 1
        coordinator = Coordinator(spec, runs_dir=tmp_path / "runs",
                                  resume=True)
        coordinator.start()
        try:
            conn, welcome = handshake(coordinator)
            plan = [list(key) for key in spec_table_plan(spec, range(4, 8))]
            assert welcome["tables"] == plan == [[80, 2, 2, "fast"]]
            assert coordinator.metrics_snapshot()["table_service"][
                "dp_solves"] == 1
            conn.close()
        finally:
            coordinator.stop()

    def test_covering_table_on_disk_is_listed_under_its_own_key(
            self, tmp_path):
        cache_dir = str(tmp_path / "dp")
        DPTableCache(cache_dir=cache_dir).solve(200, 1, 3)
        spec = parse_spec(dict(TABLE_SPEC, sweep=dict(TABLE_SPEC["sweep"],
                                                      setup_costs=[1.0])))
        coordinator = Coordinator(spec, runs_dir=tmp_path / "cluster",
                                  lease_ttl=30.0, cache_dir=cache_dir)
        coordinator.start()
        worker = None
        try:
            conn, welcome = handshake(coordinator)
            assert welcome["tables"] == [[200, 1, 3, "fast"]]
            reply, blob = conn.request({"type": "table",
                                        "key": [200, 1, 3, "fast"]})
            assert blob == serialize_table(solve(200, 1, 3))
            conn.close()
            host, port = coordinator.address
            worker = multiprocessing.get_context("spawn").Process(
                target=_worker_entry,
                args=(host, port, spec_to_dict(spec), "w0", 1, None),
                daemon=True)
            worker.start()
            assert coordinator.wait(timeout=120.0), (
                f"cluster never converged: {coordinator.ledger.counts()}")
        finally:
            coordinator.stop()
            if worker is not None:
                worker.join(timeout=10.0)
        assert coordinator.metrics_snapshot()["table_service"][
            "dp_solves"] == 0
        local = run_spec(spec, runs_dir=tmp_path / "local", jobs=2)
        assert run_tree(coordinator.run) == run_tree(local)


class TestMetricsEndpoint:
    def test_journal_less_server_serves_metrics_only(self):
        from repro.service.http import StatusHTTPServer

        server = StatusHTTPServer(None, port=0,
                                  metrics=lambda: {"points": {"done": 3}})
        server.start()
        try:
            base = f"http://127.0.0.1:{server.port}"
            with urllib.request.urlopen(f"{base}/metrics") as resp:
                assert json.load(resp) == {"points": {"done": 3}}
            with urllib.request.urlopen(f"{base}/healthz") as resp:
                assert json.load(resp) == {"ok": True}
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"{base}/status")
            assert excinfo.value.code == 404
        finally:
            server.close()

    def test_service_metrics_merge_queue_and_distributed(self, tmp_path):
        from repro.service import Journal
        from repro.service.journal import QUEUE_DIRNAME
        from repro.service.runner import RunService

        runs_dir = tmp_path / "svc"
        Journal(str(runs_dir / QUEUE_DIRNAME)).submit(TINY_SPEC,
                                                      tenant="t")
        service = RunService(str(runs_dir), workers=1, http_port=0,
                             executor="cluster", cluster_workers=1)
        counts = service.serve(drain=True, max_runtime=300.0)
        assert counts["published"] == 1
        snapshot = service.metrics_snapshot()
        assert snapshot["executor"] == "cluster"
        assert snapshot["distributed"]["runs"] == 1
        assert snapshot["distributed"]["points_done"] == 2
        run = RunStore(str(runs_dir / "t")).open(
            default_run_id(parse_spec(TINY_SPEC)))
        assert run.status == "complete"

    def test_coordinator_metrics_shape(self, tiny_coordinator):
        snapshot = tiny_coordinator.metrics_snapshot()
        assert snapshot["points"] == {"pending": 2, "leased": 0, "done": 0,
                                      "total": 2}
        for section in ("workers", "table_service", "shards", "leases"):
            assert section in snapshot
