"""One benchmark iteration in a fresh interpreter: ``repro run`` + ``repro report``.

Goes through the public calls a user's run makes — ``load_spec`` →
``run_spec`` → ``refresh_run_report`` — with the default DP cache (no
``cache_dir``) and a fresh runs directory, and prints one JSON object:

* ``setup_s``: interpreter start (``--spawned-at``, a ``CLOCK_MONOTONIC``
  reading the parent took just before starting this process) until
  ``run_spec`` is entered: imports plus ``load_spec``;
* ``run_s``: entering ``run_spec`` until the report is rendered;
* ``cpu_s``: user + system CPU of this process and its pool workers over
  that window;
* ``peak_rss_mib``: ``VmHWM`` of this process.  ``ru_maxrss`` is not used:
  Linux carries a parent's high-water mark across ``fork``.  Pool workers
  are separate processes, so with ``--jobs 2`` this covers the main process only;
* ``first_shard_s``: the oldest shard's mtime minus the wall-clock time
  ``run_spec`` was entered, read from the files after the run;
* the stored rows, for the parent's row check.

Run ``python3 perfbench/program.py --help`` for the options; the benchmark
harness (``perfbench/run.py``) is the normal caller.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def vm_hwm_mib() -> float:
    """Peak resident set of this process, from ``/proc/self/status``."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def cpu_seconds(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True)
    parser.add_argument("--runs-dir", required=True)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop once run_spec would be entered")
    parser.add_argument("--trace-out", default=None,
                        help="install the span wrappers; write spans here")
    parser.add_argument("--trace-label", default="run")
    parser.add_argument("--ballast-mib", type=int, default=0,
                        help="negative control: hold this much extra memory")
    parser.add_argument("--slow-dp", type=float, default=0.0,
                        help="negative control: seconds added inside every "
                             "DPTableCache.solve (traced runs only)")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace_out:
        import tracing

        tracer = tracing.Tracer()
        if args.slow_dp:
            _slow_down_dp(args.slow_dp)
        tracing.install(tracer)

    import repro.reporting as reporting
    import repro.runstore as runstore
    import repro.specs as specs

    source = os.path.realpath(os.path.dirname(specs.__file__))
    expected = os.path.realpath(os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "repro"))
    if source != expected:
        raise SystemExit(f"repro imported from {source}, expected {expected}")

    spec = specs.load_spec(args.spec)
    if tracer is not None:
        # Set-up spans (the spec's load) stay out of the run window's totals.
        load_s = tracer.reset_totals()["self_time"][tracing.NAMES.index("specs.load")]
    ballast = None
    if args.ballast_mib:
        import numpy as np

        ballast = np.ones(args.ballast_mib * 1024 * 1024 // 8)
    entered = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_s": entered - args.spawned_at}))
        return 0

    entered_wall = time.time()
    cpu_before = cpu_seconds(resource.RUSAGE_SELF)
    started = time.perf_counter()
    run = runstore.run_spec(spec, runs_dir=args.runs_dir, jobs=args.jobs)
    reporting.refresh_run_report(run)
    run_s = time.perf_counter() - started
    cpu_s = (cpu_seconds(resource.RUSAGE_SELF) - cpu_before
             + cpu_seconds(resource.RUSAGE_CHILDREN))
    peak = vm_hwm_mib()
    totals = tracer.snapshot() if tracer is not None else None
    del ballast

    mtimes = [entry.stat().st_mtime for entry in os.scandir(run.points_dir)
              if entry.name.endswith(".npz")]
    result = {
        "setup_s": entered - args.spawned_at,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_mib": peak,
        "first_shard_s": min(mtimes) - entered_wall,
        "rows": run.rows(),
    }
    if tracer is not None:
        result["trace"] = _trace_summary(tracer, totals, run_s)
        result["trace"]["metrics"]["specs.load_s"] = load_s
        tracer.write(args.trace_out, args.trace_label)
    json.dump(result, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")
    return 0


def _slow_down_dp(seconds: float) -> None:
    """Add a busy wait inside ``DPTableCache.solve`` (below its span)."""
    from repro.experiments.cache import DPTableCache

    lookup = DPTableCache._memory_lookup

    def slow_lookup(self, key):
        until = time.perf_counter() + seconds
        while time.perf_counter() < until:
            pass
        return lookup(self, key)

    DPTableCache._memory_lookup = slow_lookup


def _trace_summary(tracer, totals, run_s: float):
    import tracing

    top_level = float(tracer.durations("orchestrator.run").sum()
                      + tracer.durations("reporting.render").sum())
    metrics = tracing.layer_metrics(totals, run_s, top_level)
    point_starts, point_ends = tracer.span_bounds("orchestrator.point")
    _, write_ends = tracer.span_bounds("runstore.write")
    _, scan_ends = tracer.span_bounds("runstore.scan")
    return {
        "metrics": metrics,
        "reconciles": tracing.reconciles(metrics),
        # Busy time: point evaluations seen in this process.  Compute
        # window: from the pending-shard scan to the last shard written.
        "busy_s": float((point_ends - point_starts).sum()),
        "montecarlo_s": float(tracer.durations("montecarlo.replicate").sum()),
        "compute_wall_s": (float(write_ends.max() - scan_ends.min())
                           if len(write_ends) and len(scan_ends) else 0.0),
    }


if __name__ == "__main__":
    sys.exit(main())
