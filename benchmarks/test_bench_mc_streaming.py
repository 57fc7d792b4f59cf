"""Experiment: streaming vs exact Monte-Carlo aggregation at scale.

Measures the canonical high-replication sweep point (see
``mc_streaming_util``) through both aggregation pipelines — the historical
exact one-shot aggregation and the chunked streaming accumulators — and
records wall-clock, throughput and **peak RSS per replication count**
under ``benchmarks/results/mc_streaming.*``.  Every measurement runs in a
fresh subprocess that reads its own peak RSS (``VmHWM``; the pytest
process's ``ru_maxrss`` would be inherited by the child and read instead).

The committed table is the ISSUE's memory evidence: the 10^6-replication
streaming run completes with peak RSS within ``RSS_RATIO_FLOOR`` (1.5x)
of the 10^4-replication run, asserted here at generation time and
re-enforced on the committed CSV by ``scripts/check_bench_regression.py
--only mc-streaming`` and live by ``scripts/check_mc_memory.py`` in CI.
Streaming mean/std must also agree with exact aggregation to 1e-9 at the
counts where both run — the table is evidence of flat memory, not of a
different computation.
"""

from bench_util import save_rows
from mc_streaming_util import RSS_RATIO_FLOOR, measure_subprocess

#: Counts measured under BOTH aggregations (exact materialises
#: per-replication arrays at these sizes without stressing CI memory).
BOTH_COUNTS = [10_000, 100_000]

#: Counts measured streaming-only — the flat-memory regime the exact path
#: cannot reach without linear growth.
STREAMING_ONLY_COUNTS = [1_000_000]

PARITY_TOLERANCE = 1e-9


def _run_all():
    rows = []
    by_key = {}
    for count in BOTH_COUNTS:
        for aggregation in ("exact", "streaming"):
            result = measure_subprocess(count, aggregation)
            by_key[(aggregation, count)] = result
            rows.append(result)
    for count in STREAMING_ONLY_COUNTS:
        result = measure_subprocess(count, "streaming")
        by_key[("streaming", count)] = result
        rows.append(result)
    for row in rows:
        row["reps_per_s"] = round(row["replications"] / row["seconds"], 0)
        row["seconds"] = round(row["seconds"], 2)
        row["rss_mib"] = round(row["rss_mib"], 1)
    return rows, by_key


def test_bench_mc_streaming(benchmark):
    rows, by_key = benchmark.pedantic(_run_all, rounds=1, iterations=1)
    save_rows("mc_streaming", rows,
              columns=["aggregation", "replications", "chunk_size",
                       "seconds", "reps_per_s", "rss_mib", "work_mean",
                       "work_std", "work_q50", "quantile_method"],
              title="Streaming vs exact Monte-Carlo aggregation "
                    "(peak RSS = VmHWM of a fresh subprocess)")

    # Parity: streaming mean/std agree with exact at every shared count.
    for count in BOTH_COUNTS:
        exact = by_key[("exact", count)]
        streaming = by_key[("streaming", count)]
        for column in ("work_mean", "work_std"):
            drift = (abs(exact[column] - streaming[column])
                     / max(1.0, abs(exact[column])))
            assert drift <= PARITY_TOLERANCE, (count, column, drift)
        assert exact["quantile_method"] == "exact"
        assert streaming["quantile_method"] == "p2"

    # Memory evidence: the million-replication streaming run completed and
    # peaked within the documented envelope of the 10^4-replication run.
    small = by_key[("streaming", 10_000)]
    million = by_key[("streaming", 1_000_000)]
    ratio = million["rss_mib"] / small["rss_mib"]
    assert ratio <= RSS_RATIO_FLOOR, (
        f"streaming peak RSS grew {ratio:.2f}x from 10^4 to 10^6 "
        f"replications (envelope {RSS_RATIO_FLOOR:g}x)")
