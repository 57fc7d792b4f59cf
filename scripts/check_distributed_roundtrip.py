#!/usr/bin/env python
"""Nightly distributed round-trip: coordinator + 3 workers, one SIGKILLed.

Exercises the distributed work-stealing executor end to end with real
processes over loopback TCP:

1. write a deterministic Monte-Carlo sweep spec to disk and launch
   ``repro coordinator`` as a subprocess (ephemeral port, parsed from
   its announcement line);
2. launch three ``repro worker`` subprocesses against it, each point's
   cost stretched by the ``REPRO_TEST_POINT_DELAY`` hook so the kill
   window below is wide on any machine;
3. SIGKILL one worker as soon as the run directory holds at least one
   completed shard — mid-sweep, and very likely mid-point; its leases
   must return to the pending set and the two survivors must steal them;
4. wait for the coordinator to report completion, then diff the run
   directory against an uninterrupted **single-machine** reference run
   of the same spec (``run_spec`` with 2 local jobs): the manifest,
   every shard and ``columns.npz`` must be **byte-identical**
   (``columns.vouch.json`` is excluded — it records machine-local stat
   signatures and is advisory by design);
5. assert the surviving workers exited cleanly and that the coordinator
   solved exactly the run's planned DP tables — the ones ``run_spec``
   with ``--jobs`` publishes — once each.

Exit code 0 when every check passes, 1 otherwise (failures are also
emitted as GitHub Actions ``::error::`` annotations).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.experiments.orchestrator import spec_table_plan  # noqa: E402
from repro.runstore import run_spec  # noqa: E402
from repro.specs import default_run_id, parse_spec  # noqa: E402

#: The round-trip workload: 12 Monte-Carlo points with DP optima, so the
#: kill exercises lease recovery AND the table service in one pass.
SPEC = {
    "experiment": {"name": "dist-roundtrip", "kind": "sweep", "seed": 7,
                   "replications": 40, "backend": "batch"},
    "sweep": {"lifespans": [200.0, 300.0, 400.0], "setup_costs": [1.0],
              "interrupts": [1, 2],
              "schedulers": ["equalizing-adaptive", "rosenberg-nonadaptive"],
              "adversaries": ["poisson-owner"], "optimal": True},
}

WORKERS = 3

#: Seconds of injected per-point cost for the cluster's workers (widens
#: the SIGKILL window; never changes the computed bytes).
POINT_DELAY_S = 0.3


def github_error(message: str) -> None:
    """Emit a GitHub Actions error annotation (harmless plain text locally)."""
    print(f"::error title=distributed roundtrip::"
          f"{str(message).splitlines()[0]}")


def fail(message: str) -> int:
    github_error(message)
    print(f"FAIL: {message}", file=sys.stderr)
    return 1


def run_tree(root: str) -> dict:
    """``{relpath: sha256}`` of a run directory, minus the advisory vouch."""
    out = {}
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            if name == "columns.vouch.json":
                continue
            path = os.path.join(dirpath, name)
            with open(path, "rb") as handle:
                digest = hashlib.sha256(handle.read()).hexdigest()
            out[os.path.relpath(path, root)] = digest
    return out


def launch_coordinator(spec_path: str, runs_dir: str, env: dict,
                       deadline: float) -> tuple:
    """Start ``repro coordinator`` and parse its ``host:port`` banner."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "coordinator", spec_path,
         "--runs-dir", runs_dir, "--bind", "127.0.0.1:0",
         "--lease-ttl", "20", "--max-runtime", "900"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    banner = proc.stdout.readline().strip()
    prefix = "coordinator listening on "
    if not banner.startswith(prefix):
        proc.kill()
        raise RuntimeError(f"unexpected coordinator banner: {banner!r}")
    host, port = banner[len(prefix):].rsplit(":", 1)
    return proc, host, int(port)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs-dir", default="/tmp/distributed-roundtrip",
                        help="scratch directory (wiped at startup)")
    parser.add_argument("--poll-deadline", type=float, default=600.0,
                        help="seconds to wait for each phase")
    args = parser.parse_args(argv)

    if os.path.exists(args.runs_dir):
        shutil.rmtree(args.runs_dir)
    cluster_dir = os.path.join(args.runs_dir, "cluster")
    os.makedirs(cluster_dir)
    spec_path = os.path.join(args.runs_dir, "spec.json")
    with open(spec_path, "w") as handle:
        json.dump(SPEC, handle, indent=2)

    spec = parse_spec(SPEC)
    run_id = default_run_id(spec)
    points_dir = os.path.join(cluster_dir, run_id, "points")

    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    worker_env = dict(env, REPRO_TEST_POINT_DELAY=str(POINT_DELAY_S))

    coordinator, host, port = launch_coordinator(spec_path, cluster_dir,
                                                 env, args.poll_deadline)
    workers = []
    try:
        for rank in range(WORKERS):
            workers.append(subprocess.Popen(
                [sys.executable, "-m", "repro", "worker", f"{host}:{port}",
                 "--spec", spec_path, "--worker-id", f"rt-{rank}",
                 "--retry-for", "30"],
                env=worker_env, stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT, text=True))

        # Phase 1: wait for the first completed shard, then SIGKILL one
        # worker — mid-sweep by construction, mid-point very likely.
        deadline = time.monotonic() + args.poll_deadline
        while time.monotonic() < deadline:
            if os.path.isdir(points_dir) and any(
                    name.endswith(".npz") for name in os.listdir(points_dir)):
                break
            if coordinator.poll() is not None:
                return fail("coordinator exited before any shard landed")
            time.sleep(0.05)
        else:
            return fail("no shard landed before the poll deadline")
        workers[0].send_signal(signal.SIGKILL)
        print(f"killed worker rt-0 with "
              f"{len(os.listdir(points_dir))}/{spec.num_points()} shards "
              "on disk", flush=True)

        # Phase 2: the survivors steal the dead worker's leases and the
        # coordinator runs to completion.
        try:
            coordinator.wait(timeout=args.poll_deadline)
        except subprocess.TimeoutExpired:
            return fail("coordinator never finished after the kill")
        summary = coordinator.stdout.read().strip()
        print(summary, flush=True)
        if coordinator.returncode != 0:
            return fail(f"coordinator exited {coordinator.returncode}: "
                        f"{summary}")
        for rank, worker in enumerate(workers[1:], start=1):
            try:
                worker.wait(timeout=60)
            except subprocess.TimeoutExpired:
                worker.kill()
                return fail(f"surviving worker rt-{rank} never exited")
            if worker.returncode != 0:
                return fail(f"surviving worker rt-{rank} exited "
                            f"{worker.returncode}: "
                            f"{worker.stdout.read().strip()}")
        workers[0].wait(timeout=60)
    finally:
        for proc in [coordinator] + workers:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    # Phase 3: byte-identity against an uninterrupted single-machine run.
    reference_dir = os.path.join(args.runs_dir, "reference")
    reference = run_spec(spec, runs_dir=reference_dir, jobs=2)
    cluster_tree = run_tree(os.path.join(cluster_dir, run_id))
    reference_tree = run_tree(reference.root)
    if cluster_tree != reference_tree:
        differing = sorted(
            set(cluster_tree) ^ set(reference_tree)
            | {path for path in set(cluster_tree) & set(reference_tree)
               if cluster_tree[path] != reference_tree[path]})
        return fail(f"cluster run is not byte-identical to the reference; "
                    f"differing files: {differing[:10]}")

    # Phase 4: the coordinator's summary must show exactly one DP solve
    # per planned table — 1 here (one covering table for the single setup
    # cost), re-derived through the executors' own plan.
    expected = len(spec_table_plan(spec))
    solves = re.search(r"(\d+) DP solves", summary)
    if solves is None or int(solves.group(1)) != expected:
        return fail(f"expected exactly {expected} DP solves in the "
                    f"coordinator summary, got: {summary}")

    print(f"ok: {spec.num_points()}-point sweep survived a worker SIGKILL "
          f"byte-identically ({len(cluster_tree)} files compared, "
          f"{expected} DP solves cluster-wide)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
