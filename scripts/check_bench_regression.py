#!/usr/bin/env python
"""Guard the committed benchmark results against silent drift.

Recomputes a small, fast subgrid of the numbers committed under
``benchmarks/results/*.csv`` — guaranteed work, DP optima and the
guideline-vs-optimal ratios — and fails (exit code 1) if any recomputed
value drifts from its committed counterpart beyond a relative tolerance.
Every quantity involved is deterministic (exact worst-case analysis and an
exact integer DP), so drift means the *code* changed behaviour: exactly
what a CI gate should catch before the CSVs are regenerated blindly.

Usage::

    PYTHONPATH=src python scripts/check_bench_regression.py \
        [--max-lifespan 5000] [--tolerance 1e-9] [--results-dir benchmarks/results] \
        [--only {all,optimality-gap,nonadaptive,referee,runstore-io,mc-streaming,variance-reduction,distributed-sweep}]

The default ``--max-lifespan`` keeps the check under a few seconds; raise
it to re-verify the full committed grid.  ``--only runstore-io`` runs just
the run-store I/O check: it rebuilds the benchmark's synthetic runs,
re-derives the committed row digests through BOTH the per-shard and the
columnar-sidecar read paths, and enforces the committed sidecar-vs-shard
speedup floor.  ``--only mc-streaming`` re-derives the deterministic work
statistics of the committed streaming-aggregation evidence
(``mc_streaming.csv``) and enforces its peak-RSS flatness floor.
``--only distributed-sweep`` enforces the committed 2-worker throughput
floor of the distributed executor and re-runs its table-service cluster
live to re-prove the one-DP-solve-per-key property.

Exit codes (so CI can distinguish the failure modes):

* ``0`` — all re-verified rows match;
* ``1`` — at least one committed value drifted (the code changed behaviour);
* ``2`` — the committed baseline itself is missing or empty (results CSV
  absent, or no row matched the requested grid).

Failures are also emitted as GitHub Actions ``::error::`` annotations so
drift is visible directly in the Actions summary.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

# Allow running from a repo checkout without installing the package.
_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro import CycleStealingParams  # noqa: E402
from repro.analysis import measure_guaranteed_work, optimality_gap  # noqa: E402
from repro.experiments import DPTableCache  # noqa: E402
from repro.schedules import (  # noqa: E402
    EqualizingAdaptiveScheduler,
    RosenbergAdaptiveScheduler,
    RosenbergNonAdaptiveScheduler,
)

SCHEDULERS = {
    "equalizing-adaptive": EqualizingAdaptiveScheduler,
    "rosenberg-adaptive (literal)": RosenbergAdaptiveScheduler,
    "rosenberg-nonadaptive": RosenbergNonAdaptiveScheduler,
}

#: Exit codes — distinct so CI can tell "the code drifted" (fix the code or
#: regenerate the table) from "the baseline is gone" (fix the workflow).
EXIT_OK = 0
EXIT_DRIFT = 1
EXIT_MISSING_BASELINE = 2


class MissingBaselineError(Exception):
    """A committed results file the guard needs does not exist (or is empty)."""


def github_error(message: str) -> None:
    """Emit a GitHub Actions error annotation (harmless plain text locally)."""
    first_line = str(message).splitlines()[0]
    print(f"::error title=bench regression::{first_line}")


def read_rows(path):
    try:
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
    except FileNotFoundError:
        raise MissingBaselineError(
            f"committed baseline {path} is missing — benchmarks/results must "
            "be regenerated and committed") from None
    if not rows:
        raise MissingBaselineError(f"committed baseline {path} has no rows")
    return rows


def relative_drift(committed: float, recomputed: float) -> float:
    scale = max(abs(committed), abs(recomputed), 1.0)
    return abs(committed - recomputed) / scale


def check_optimality_gap(results_dir: str, max_lifespan: float,
                         tolerance: float, cache: DPTableCache):
    """Re-derive guideline work, DP optimum and their ratio per row."""
    path = os.path.join(results_dir, "optimality_gap.csv")
    failures = []
    checked = 0
    for row in read_rows(path):
        U = float(row["lifespan"])
        if U > max_lifespan:
            continue
        name = row["scheduler"]
        if name not in SCHEDULERS:
            failures.append(f"{path}: unknown scheduler {name!r}")
            continue
        p = int(row["max_interrupts"])
        params = CycleStealingParams(lifespan=U, setup_cost=1.0,
                                     max_interrupts=p)
        report = optimality_gap(SCHEDULERS[name](), params, cache=cache)
        committed_work = float(row["guaranteed_work"])
        committed_opt = float(row["dp_optimal"])
        committed_ratio = committed_work / committed_opt
        ratio = report.guaranteed_work / report.optimal_work
        for label, committed, recomputed in [
                ("guaranteed_work", committed_work, report.guaranteed_work),
                ("dp_optimal", committed_opt, report.optimal_work),
                ("guideline/optimal ratio", committed_ratio, ratio)]:
            drift = relative_drift(committed, recomputed)
            if drift > tolerance:
                failures.append(
                    f"{path}: {name} U={U:g} p={p}: {label} drifted "
                    f"{drift:.3e} (committed {committed!r}, "
                    f"recomputed {recomputed!r})")
        checked += 1
    return checked, failures


def check_referee_speedup(results_dir: str, max_lifespan: float,
                          tolerance: float):
    """Re-derive the guaranteed-work column of the referee-kernel benchmark.

    The speedup columns are machine-dependent and not checked; the
    ``guaranteed_work`` values are exact and must not drift.  Both the
    vectorized kernel and its retained reference are re-run, so this also
    guards the pair's 1e-9 agreement on the committed grid.
    """
    import numpy as np

    from repro import EpisodeSchedule
    from repro.core.game import (
        guaranteed_adaptive_work,
        guaranteed_adaptive_work_reference,
    )
    from repro.core.work import (
        worst_case_nonadaptive_pattern,
        worst_case_nonadaptive_pattern_reference,
    )

    path = os.path.join(results_dir, "referee_speedup.csv")
    failures = []
    checked = 0
    adaptive_factories = {"equalizing": EqualizingAdaptiveScheduler,
                          "rosenberg": RosenbergAdaptiveScheduler}
    for row in read_rows(path):
        U = float(row["lifespan"])
        if U > max_lifespan:
            continue
        p = int(row["max_interrupts"])
        committed = float(row["guaranteed_work"])
        params = CycleStealingParams(lifespan=U, setup_cost=1.0,
                                     max_interrupts=p)
        if row["kernel"] == "adaptive-minimax":
            prefix = row["case"].split()[0]
            factory = adaptive_factories.get(prefix)
            if factory is None:
                failures.append(f"{path}: unknown adaptive case {row['case']!r}")
                continue
            fast = guaranteed_adaptive_work(factory(), params)
            reference = guaranteed_adaptive_work_reference(factory(), params)
        else:
            schedule = EpisodeSchedule(np.full(int(round(U / 3.0)), 3.0))
            _, fast = worst_case_nonadaptive_pattern(schedule, params)
            _, reference = worst_case_nonadaptive_pattern_reference(schedule,
                                                                    params)
        for label, recomputed in [("guaranteed_work (vectorized)", fast),
                                  ("guaranteed_work (reference)", reference)]:
            drift = relative_drift(committed, recomputed)
            if drift > tolerance:
                failures.append(
                    f"{path}: {row['case']}: {label} drifted {drift:.3e} "
                    f"(committed {committed!r}, recomputed {recomputed!r})")
        checked += 1
    return checked, failures


def check_nonadaptive_section31(results_dir: str, max_lifespan: float,
                                tolerance: float):
    """Re-derive the Section 3.1 guideline's measured worst-case work."""
    path = os.path.join(results_dir, "nonadaptive_section31.csv")
    failures = []
    checked = 0
    scheduler = RosenbergNonAdaptiveScheduler()
    for row in read_rows(path):
        U = float(row["lifespan"])
        if U > max_lifespan:
            continue
        p = int(row["max_interrupts"])
        params = CycleStealingParams(lifespan=U, setup_cost=1.0,
                                     max_interrupts=p)
        recomputed = measure_guaranteed_work(scheduler, params,
                                             mode="nonadaptive")
        committed = float(row["measured_work"])
        drift = relative_drift(committed, recomputed)
        if drift > tolerance:
            failures.append(
                f"{path}: U={U:g} p={p}: measured_work drifted {drift:.3e} "
                f"(committed {committed!r}, recomputed {recomputed!r})")
        checked += 1
    return checked, failures


def check_runstore_io(results_dir: str, max_lifespan: float,
                      tolerance: float):
    """Re-verify the committed run-store I/O evidence (``runstore_io.csv``).

    Rebuilds the benchmark's deterministic synthetic runs in a temp
    directory and re-derives each committed ``rows_sha256`` through BOTH
    read paths — per-shard ``.npz`` and the columnar sidecar — so drift
    in either path (or any divergence between them) fails the gate.  The
    committed ``speedup`` column is machine-dependent in magnitude but
    must stay at or above the documented floor: the sidecar regressing to
    shard-read speed is exactly the silent perf rot this guard exists to
    catch.
    """
    import tempfile

    sys.path.insert(0, os.path.join(_ROOT, "benchmarks"))
    from runstore_io_util import (
        SPEEDUP_FLOOR,
        build_synthetic_run,
        rows_digest,
    )

    path = os.path.join(results_dir, "runstore_io.csv")
    failures = []
    checked = 0
    for row in read_rows(path):
        num_points = int(row["points"])
        committed_digest = row["rows_sha256"]
        with tempfile.TemporaryDirectory() as runs_dir:
            run = build_synthetic_run(runs_dir, num_points)
            for source in ("shards", "sidecar"):
                recomputed = rows_digest(run.rows(source=source))[:16]
                if recomputed != committed_digest:
                    failures.append(
                        f"{path}: {num_points} points: rows_sha256 via "
                        f"{source} is {recomputed}, committed "
                        f"{committed_digest} (the stored rows or a read "
                        "path changed behaviour)")
        speedup = float(row["speedup"])
        if speedup < SPEEDUP_FLOOR:
            failures.append(
                f"{path}: {num_points} points: committed sidecar speedup "
                f"{speedup:g}x is below the {SPEEDUP_FLOOR:g}x floor — "
                "regenerate the evidence only after fixing the regression")
        checked += 1
    return checked, failures


def check_mc_streaming(results_dir: str, max_lifespan: float,
                       tolerance: float):
    """Re-verify the committed streaming-aggregation evidence.

    ``mc_streaming.csv`` holds one row per (aggregation, replication
    count): deterministic work statistics plus the machine-dependent
    seconds and peak-RSS columns.  The deterministic columns of every row
    at or below :data:`MC_STREAMING_REDERIVE_CAP` replications are
    re-derived in-process (exact and streaming alike — the streaming
    accumulators are chunking-invariant, so the committed values must
    reproduce exactly up to tolerance); the expensive 10^5/10^6 rows are
    not re-run, but their committed peak-RSS evidence must keep satisfying
    the documented flatness floor: the largest streaming count within
    ``RSS_RATIO_FLOOR`` of the smallest.  Live (re-measured) flatness is
    ``scripts/check_mc_memory.py``'s job; this guard pins the committed
    table itself.
    """
    sys.path.insert(0, os.path.join(_ROOT, "benchmarks"))
    from mc_streaming_util import RSS_RATIO_FLOOR, replicate_stats

    path = os.path.join(results_dir, "mc_streaming.csv")
    failures = []
    checked = 0
    streaming_rows = []
    for row in read_rows(path):
        count = int(row["replications"])
        aggregation = row["aggregation"]
        if aggregation == "streaming":
            streaming_rows.append(row)
        if count > MC_STREAMING_REDERIVE_CAP:
            continue
        chunk = int(row["chunk_size"]) or None
        recomputed = replicate_stats(count, aggregation, chunk)
        for column in ("work_mean", "work_std", "work_q50"):
            committed = float(row[column])
            drift = relative_drift(committed, float(recomputed[column]))
            if drift > tolerance:
                failures.append(
                    f"{path}: {aggregation} x {count}: {column} drifted "
                    f"{drift:.3e} (committed {committed!r}, recomputed "
                    f"{recomputed[column]!r})")
        if row["quantile_method"] != recomputed["quantile_method"]:
            failures.append(
                f"{path}: {aggregation} x {count}: quantile_method is "
                f"{recomputed['quantile_method']!r}, committed "
                f"{row['quantile_method']!r}")
        checked += 1

    if len(streaming_rows) < 2:
        failures.append(f"{path}: needs at least two streaming rows to "
                        "evidence memory flatness")
    else:
        streaming_rows.sort(key=lambda r: int(r["replications"]))
        smallest, largest = streaming_rows[0], streaming_rows[-1]
        ratio = float(largest["rss_mib"]) / float(smallest["rss_mib"])
        if ratio > RSS_RATIO_FLOOR:
            failures.append(
                f"{path}: committed streaming peak RSS grew {ratio:.2f}x "
                f"from {smallest['replications']} to "
                f"{largest['replications']} replications (floor "
                f"{RSS_RATIO_FLOOR:g}x) — regenerate the evidence only "
                "after fixing the regression")
        checked += 1
    return checked, failures


def check_variance_reduction(results_dir: str, max_lifespan: float,
                             tolerance: float):
    """Re-verify the committed variance-reduction evidence.

    ``variance_reduction.csv`` holds one row per panel configuration (see
    ``benchmarks/variance_reduction_util.CONFIGS``): plain-sampling and
    reduced-mode means/standard errors at equal replication count plus
    their variance ratio.  Every quantity is deterministic given the
    panel's base seed, so each row is re-derived **in-process** and
    compared to the committed values; the enforced rows must additionally
    keep their re-derived ratio at or above ``VARIANCE_RATIO_FLOOR`` —
    the ISSUE's >= 4x headline claim — and at least
    ``MIN_ENFORCED_CONFIGS`` of them must exist.
    """
    sys.path.insert(0, os.path.join(_ROOT, "benchmarks"))
    from variance_reduction_util import (
        CONFIGS,
        MIN_ENFORCED_CONFIGS,
        VARIANCE_RATIO_FLOOR,
        measure_config,
    )

    path = os.path.join(results_dir, "variance_reduction.csv")
    failures = []
    checked = 0
    enforced_ok = 0
    for row in read_rows(path):
        label = row["config"]
        if label not in CONFIGS:
            failures.append(f"{path}: unknown panel config {label!r} — the "
                            "committed table and the panel definition in "
                            "variance_reduction_util diverged")
            continue
        recomputed = measure_config(label)
        # The committed columns are rounded at generation time; compare at
        # a tolerance matching that rounding, relative for the means and
        # the ratio (which spans orders of magnitude).
        for column, tol in (("work_mean_none", max(tolerance, 1e-6)),
                            ("work_mean_reduced", max(tolerance, 1e-6)),
                            ("sem_none", max(tolerance, 1e-6)),
                            ("sem_reduced", max(tolerance, 1e-6)),
                            ("variance_ratio", max(tolerance, 1e-3))):
            committed = float(row[column])
            drift = relative_drift(committed, float(recomputed[column]))
            if drift > tol:
                failures.append(
                    f"{path}: {label}: {column} drifted {drift:.3e} "
                    f"(committed {committed!r}, recomputed "
                    f"{recomputed[column]!r})")
        if row["mode"] != recomputed["mode"] \
                or row["enforced"] != recomputed["enforced"]:
            failures.append(f"{path}: {label}: mode/enforced flags diverged "
                            "from the panel definition")
        if row["enforced"] == "yes":
            ratio = float(recomputed["variance_ratio"])
            if ratio < VARIANCE_RATIO_FLOOR:
                failures.append(
                    f"{path}: {label}: re-derived variance ratio {ratio:g}x "
                    f"fell below the {VARIANCE_RATIO_FLOOR:g}x floor — "
                    "regenerate the evidence only after fixing the "
                    "regression")
            else:
                enforced_ok += 1
        checked += 1
    if checked and enforced_ok < MIN_ENFORCED_CONFIGS:
        failures.append(
            f"{path}: only {enforced_ok} enforced config(s) meet the "
            f"{VARIANCE_RATIO_FLOOR:g}x floor; the committed evidence needs "
            f"at least {MIN_ENFORCED_CONFIGS}")
    return checked, failures


def check_distributed_sweep(results_dir: str, max_lifespan: float,
                            tolerance: float):
    """Re-verify the committed distributed-executor evidence.

    ``distributed_sweep.csv`` commits point-throughput scaling rows (1, 2
    and 4 loopback workers over a fixed-cost sweep) plus one DP-enabled
    table-service row.  Three properties are enforced:

    * the committed 2-worker speedup stays at or above ``SPEEDUP_FLOOR``
      (the executor's acceptance bar) and the speedup column is
      arithmetically consistent with the committed throughputs;
    * the committed table-service row claims exactly one DP solve per
      planned table, where the plan is **re-derived** from the spec
      through the executors' own expansion and plan;
    * the table-service cluster is **re-run live** (2 workers over
      loopback — sub-second) and must again cost exactly one solve per
      planned table, so the exactly-once property is tested, not just
      remembered.
    """
    import tempfile

    sys.path.insert(0, os.path.join(_ROOT, "benchmarks"))
    from distributed_util import (
        SPEEDUP_FLOOR,
        WORKER_COUNTS,
        measure_table_service,
        planned_tables,
    )

    path = os.path.join(results_dir, "distributed_sweep.csv")
    failures = []
    checked = 0
    scaling = {}
    table_rows = []
    for row in read_rows(path):
        if row["kind"] == "scaling":
            scaling[int(row["workers"])] = row
        elif row["kind"] == "table-service":
            table_rows.append(row)

    missing = [w for w in WORKER_COUNTS if w not in scaling]
    if missing:
        failures.append(f"{path}: no scaling row for worker count(s) "
                        f"{missing} — regenerate the evidence")
    else:
        baseline = float(scaling[WORKER_COUNTS[0]]["points_per_s"])
        for workers, row in sorted(scaling.items()):
            committed = float(row["speedup"])
            derived = float(row["points_per_s"]) / baseline
            if relative_drift(committed, round(derived, 2)) > 1e-6:
                failures.append(
                    f"{path}: {workers} workers: committed speedup "
                    f"{committed:g}x inconsistent with committed "
                    f"throughputs ({derived:.2f}x)")
            checked += 1
        two_worker = float(scaling[2]["speedup"])
        if two_worker < SPEEDUP_FLOOR:
            failures.append(
                f"{path}: committed 2-worker speedup {two_worker:g}x is "
                f"below the {SPEEDUP_FLOOR:g}x floor — regenerate the "
                "evidence only after fixing the regression")

    expected = planned_tables()
    if not table_rows:
        failures.append(f"{path}: no table-service row — regenerate the "
                        "evidence")
    for row in table_rows:
        committed_solves = int(row["dp_solves"])
        committed_tables = int(row["planned_tables"])
        if not committed_solves == committed_tables == expected:
            failures.append(
                f"{path}: table-service row claims {committed_solves} DP "
                f"solves over {committed_tables} planned tables; the spec "
                f"re-derives {expected} planned tables — exactly-once is "
                "broken or the spec drifted from the committed table")
        checked += 1

    # Live exactly-once: run the table-service cluster here and now.
    with tempfile.TemporaryDirectory() as runs_dir:
        live = measure_table_service(runs_dir)
    if int(live["dp_solves"]) != expected:
        failures.append(
            f"live table-service cluster cost {live['dp_solves']} DP solves "
            f"for {expected} planned tables — the coordinator re-solved "
            "(or skipped) a table")
    checked += 1
    return checked, failures


#: Streaming-evidence rows at or below this replication count are re-run
#: in-process by ``check_mc_streaming``; larger counts are trusted as
#: committed (their flatness ratio is still enforced) to keep the guard
#: fast enough for every-push CI.
MC_STREAMING_REDERIVE_CAP = 10_000


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--results-dir",
                        default=os.path.join(_ROOT, "benchmarks", "results"))
    parser.add_argument("--max-lifespan", type=float, default=5_000.0,
                        help="only re-verify committed rows up to this lifespan")
    parser.add_argument("--tolerance", type=float, default=1e-9,
                        help="maximum allowed relative drift")
    parser.add_argument("--cache-dir", default=None,
                        help="optional on-disk DP-table cache directory")
    parser.add_argument("--only", default="all",
                        choices=["all", "optimality-gap", "nonadaptive",
                                 "referee", "runstore-io", "mc-streaming",
                                 "variance-reduction", "distributed-sweep"],
                        help="run a single check instead of the full set")
    args = parser.parse_args(argv)

    cache = DPTableCache(cache_dir=args.cache_dir)
    checkers = {
        "optimality-gap": lambda: check_optimality_gap(
            args.results_dir, args.max_lifespan, args.tolerance, cache),
        "nonadaptive": lambda: check_nonadaptive_section31(
            args.results_dir, args.max_lifespan, args.tolerance),
        "referee": lambda: check_referee_speedup(
            args.results_dir, args.max_lifespan, args.tolerance),
        "runstore-io": lambda: check_runstore_io(
            args.results_dir, args.max_lifespan, args.tolerance),
        "mc-streaming": lambda: check_mc_streaming(
            args.results_dir, args.max_lifespan, args.tolerance),
        "variance-reduction": lambda: check_variance_reduction(
            args.results_dir, args.max_lifespan, args.tolerance),
        "distributed-sweep": lambda: check_distributed_sweep(
            args.results_dir, args.max_lifespan, args.tolerance),
    }
    selected = list(checkers) if args.only == "all" else [args.only]
    total_checked = 0
    all_failures = []
    try:
        for name in selected:
            checked, failures = checkers[name]()
            total_checked += checked
            all_failures.extend(failures)
    except MissingBaselineError as exc:
        github_error(str(exc))
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_BASELINE

    if total_checked == 0:
        message = ("no committed rows matched the requested grid "
                   f"(--max-lifespan {args.max_lifespan:g})")
        github_error(message)
        print(f"error: {message}", file=sys.stderr)
        return EXIT_MISSING_BASELINE
    if all_failures:
        github_error(
            f"{len(all_failures)} committed benchmark value(s) drifted "
            f"across {total_checked} checked row(s) — see the job log")
        print(f"BENCH REGRESSION: {len(all_failures)} drifted value(s) "
              f"across {total_checked} checked row(s):", file=sys.stderr)
        for failure in all_failures:
            print(f"  - {failure}", file=sys.stderr)
        return EXIT_DRIFT
    print(f"ok: {total_checked} committed benchmark rows re-verified "
          f"(tolerance {args.tolerance:g}, DP cache "
          f"{cache.stats.lookups - cache.stats.misses}/{cache.stats.lookups} hits)")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
