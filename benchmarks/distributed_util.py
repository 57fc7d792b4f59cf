"""Shared measurement harness for the distributed-sweep benchmark and guard.

Both ``benchmarks/test_bench_distributed.py`` (which generates the
committed ``benchmarks/results/distributed_sweep.*`` evidence) and
``scripts/check_bench_regression.py --only distributed-sweep`` (which
re-verifies it in CI) need the *same* cluster workloads:

* a **scaling** sweep whose points each carry a known fixed cost (the
  ``REPRO_TEST_POINT_DELAY`` hook sleeps before evaluation), so point
  throughput scales with worker *processes* even on a single core and
  the committed speedup measures the executor, not the machine;
* a **table-service** sweep with DP optima enabled, whose planned-table
  count is re-derivable from the spec — the committed ``dp_solves`` must
  equal it exactly (one solve per planned table, the tables
  ``run_spec(jobs=2)`` publishes, however many workers race).
"""

from __future__ import annotations

import os
import time
from typing import Dict

from repro.distributed import run_spec_distributed
from repro.experiments.orchestrator import spec_table_plan
from repro.specs import parse_spec

#: Worker counts the scaling table commits (process-level parallelism).
WORKER_COUNTS = (1, 2, 4)

#: Fixed per-point cost injected through ``REPRO_TEST_POINT_DELAY``.
POINT_DELAY_S = 0.15

#: Committed-speedup floor the regression guard enforces at 2 workers:
#: the cluster must push at least this many times the single-worker
#: point throughput (the acceptance bar of the distributed executor).
SPEEDUP_FLOOR = 1.7

#: 48 fixed-cost points; no DP tables, so the scaling rows time the
#: lease/stream machinery plus pure (sleep-padded) evaluation.
SCALING_SPEC = {
    "experiment": {"name": "dist-scaling", "kind": "sweep", "seed": 0,
                   "replications": 0},
    "sweep": {"lifespans": [100.0 + 10.0 * k for k in range(12)],
              "interrupts": [1, 2],
              "schedulers": ["equalizing-adaptive", "single-period"],
              "optimal": False},
}

#: 8 points over 4 distinct DP table keys (2 lifespans x 2 setup costs,
#: one interrupt budget), planned as one covering table per setup cost;
#: every worker fetches both tables.
TABLE_SPEC = {
    "experiment": {"name": "dist-tables", "kind": "sweep", "seed": 0,
                   "replications": 0},
    "sweep": {"lifespans": [200.0, 300.0], "setup_costs": [1.0, 2.0],
              "interrupts": [2],
              "schedulers": ["equalizing-adaptive", "rosenberg-nonadaptive"],
              "optimal": True},
}


def planned_tables() -> int:
    """How many DP tables the plan of :data:`TABLE_SPEC` holds, re-derived.

    Uses the same expansion and plan as the executors themselves, so the
    guard's notion of "how many solves a perfect cluster needs" can never
    drift from theirs.
    """
    return len(spec_table_plan(parse_spec(TABLE_SPEC)))


def measure_scaling(runs_dir, workers: int,
                    delay_s: float = POINT_DELAY_S) -> Dict[str, object]:
    """One committed scaling row: wall-clock a fixed-cost cluster sweep."""
    spec = parse_spec(SCALING_SPEC)
    metrics: Dict[str, object] = {}
    os.environ["REPRO_TEST_POINT_DELAY"] = str(delay_s)
    try:
        started = time.perf_counter()
        run = run_spec_distributed(
            spec, runs_dir=os.path.join(os.fspath(runs_dir), f"w{workers}"),
            workers=workers, timeout=600.0, metrics_out=metrics)
        elapsed = time.perf_counter() - started
    finally:
        del os.environ["REPRO_TEST_POINT_DELAY"]
    points = metrics["points"]["done"]
    assert run.status == "complete" and points == spec.num_points()
    return {
        "kind": "scaling",
        "workers": workers,
        "points": points,
        "point_cost_s": delay_s,
        "elapsed_s": round(elapsed, 3),
        "points_per_s": round(points / elapsed, 3),
        "speedup": 0.0,  # filled against the 1-worker row by the caller
        "dp_solves": metrics["table_service"]["dp_solves"],
        "planned_tables": 0,
        "table_requests": metrics["table_service"]["requests"],
        "shard_bytes_streamed": metrics["shards"]["bytes_streamed"],
    }


def measure_table_service(runs_dir, workers: int = 2) -> Dict[str, object]:
    """The committed table-service row: DP solves vs planned tables."""
    spec = parse_spec(TABLE_SPEC)
    metrics: Dict[str, object] = {}
    started = time.perf_counter()
    run = run_spec_distributed(
        spec, runs_dir=os.path.join(os.fspath(runs_dir), "tables"),
        workers=workers, timeout=600.0, metrics_out=metrics)
    elapsed = time.perf_counter() - started
    points = metrics["points"]["done"]
    assert run.status == "complete" and points == spec.num_points()
    return {
        "kind": "table-service",
        "workers": workers,
        "points": points,
        "point_cost_s": 0.0,
        "elapsed_s": round(elapsed, 3),
        "points_per_s": round(points / elapsed, 3),
        "speedup": 0.0,
        "dp_solves": metrics["table_service"]["dp_solves"],
        "planned_tables": planned_tables(),
        "table_requests": metrics["table_service"]["requests"],
        "shard_bytes_streamed": metrics["shards"]["bytes_streamed"],
    }
