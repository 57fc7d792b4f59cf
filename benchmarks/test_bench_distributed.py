"""Experiment: point throughput of the distributed work-stealing executor.

Runs the same fixed-cost sweep through ``run_spec_distributed`` at 1, 2
and 4 loopback worker processes (each point's cost is pinned by the
``REPRO_TEST_POINT_DELAY`` hook, so throughput measures the executor —
lease round-trips, shard streaming, coordinator writes — rather than
the host's core count), plus one DP-enabled sweep evidencing the
content-addressed table service: 8 points across 2 workers must cost
exactly one DP solve per planned table, and each worker fetches each
table once.

The committed evidence (``benchmarks/results/distributed_sweep.*``) is
enforced by ``scripts/check_bench_regression.py --only distributed-sweep``:
the 2-worker speedup must stay at or above ``SPEEDUP_FLOOR`` and the
table-service row must keep ``dp_solves == planned_tables`` (the guard
re-runs that cluster live and re-derives the plan).
"""

from bench_util import save_rows
from distributed_util import (
    SPEEDUP_FLOOR,
    WORKER_COUNTS,
    planned_tables,
    measure_scaling,
    measure_table_service,
)


def test_bench_distributed_sweep(benchmark, tmp_path):
    rows = benchmark.pedantic(
        lambda: [measure_scaling(tmp_path, workers)
                 for workers in WORKER_COUNTS],
        rounds=1, iterations=1)
    baseline = rows[0]["points_per_s"]
    for row in rows:
        row["speedup"] = round(row["points_per_s"] / baseline, 2)
    table_row = measure_table_service(tmp_path)
    rows.append(table_row)
    save_rows("distributed_sweep", rows,
              title="Distributed sweep: throughput vs workers + DP table "
                    "service")

    by_workers = {row["workers"]: row for row in rows
                  if row["kind"] == "scaling"}
    assert by_workers[2]["speedup"] >= SPEEDUP_FLOOR, (
        f"2 workers pushed only {by_workers[2]['speedup']}x the 1-worker "
        f"throughput (floor {SPEEDUP_FLOOR}x)")
    assert by_workers[4]["speedup"] >= by_workers[2]["speedup"], (
        "4 workers slower than 2 — the executor stopped scaling")
    # Exactly once: one DP solve per planned table, cluster-wide, and
    # each of the 2 workers fetches each table once.
    assert table_row["dp_solves"] == planned_tables() \
        == table_row["planned_tables"]
    assert table_row["table_requests"] == 2 * table_row["dp_solves"]
