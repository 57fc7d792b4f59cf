#!/usr/bin/env python
"""Guard the batch replication backend against divergence from the reference.

Runs the same Monte-Carlo sweep twice under each variance mode (none,
antithetic, stratified) — once through the event-driven reference engine,
once through the vectorized batch backend — with identical seeds, and
fails if any aggregate column diverges beyond a relative tolerance.  Both
backends consume identical randomness (the batch backend builds its
adversaries' generators from seed words derived per chunk, the event
backend through ``default_rng``), so the only admissible difference is
float summation order (~1e-15 relative); anything larger means one
backend's accounting or seeding changed behaviour.  The default grid
plays two adaptive schedulers and one non-adaptive one.

This is the nightly CI job's workhorse (see
``.github/workflows/nightly.yml``), sized so a medium sweep with hundreds
of replications per point finishes in minutes, and it doubles as a local
smoke test::

    PYTHONPATH=src python scripts/compare_backends.py --replications 500 --jobs 2

``--aggregation-parity`` switches to the aggregation-pipeline guard
instead: every scenario family is replicated with one-shot exact
aggregation and with the streaming accumulators at two different chunk
sizes, failing if streaming count/mean/std/min/max drift from exact
beyond the tolerance or if the two chunkings differ by a single bit.

Exit codes: ``0`` agreement, ``1`` divergence, ``2`` could not run.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

# Allow running from a repo checkout without installing the package.
_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.experiments import SweepGrid, run_sweep  # noqa: E402
from repro.experiments.montecarlo import replicate_scenario  # noqa: E402
from repro.experiments.variance import VARIANCE_MODES  # noqa: E402
from repro.registry import SCENARIO_FAMILIES  # noqa: E402

EXIT_OK = 0
EXIT_DIVERGED = 1
EXIT_ERROR = 2


def github_error(message: str) -> None:
    """Emit a GitHub Actions error annotation (harmless plain text locally)."""
    print(f"::error title=backend divergence::{str(message).splitlines()[0]}")


#: Columns that name the sweep point or scenario family a row belongs to.
IDENTITY_COLUMNS = ("scenario", "scheduler", "adversary", "lifespan",
                    "setup_cost", "max_interrupts")


def row_label(index: int, row) -> str:
    """``row <index>`` and the point or family (and variance mode) it holds."""
    named = [f"{key}={row[key]}" for key in IDENTITY_COLUMNS if key in row]
    if not named:
        return f"row {index}"
    named.append(f"variance={row.get('variance', 'none')}")
    return f"row {index} ({' '.join(named)})"


def compare_rows(event_rows, batch_rows, tolerance: float):
    """Yield one message per diverging (row, column) pair."""
    for index, (event_row, batch_row) in enumerate(zip(event_rows, batch_rows)):
        label = row_label(index, event_row)
        keys = set(event_row) | set(batch_row)
        for key in sorted(keys):
            if key not in event_row or key not in batch_row:
                yield f"{label}: column {key!r} present in only one backend"
                continue
            a, b = event_row[key], batch_row[key]
            if isinstance(a, str) or isinstance(b, str):
                if a != b:
                    yield f"{label}: {key} {a!r} != {b!r}"
                continue
            drift = abs(float(a) - float(b)) / max(1.0, abs(float(a)))
            if drift > tolerance:
                yield (f"{label}: {key} drifted {drift:.3e} "
                       f"(event {a!r}, batch {b!r})")


def check_aggregation_parity(families, replications: int,
                             chunk_sizes, seed: int, tolerance: float):
    """Chunked-vs-one-shot aggregation parity across scenario families.

    For every family, replicates the scenario stream three ways on the
    batch backend — one-shot exact aggregation, and streaming aggregation
    at two different chunk sizes — and yields one message per violation
    of the pipeline's two contracts:

    * streaming is **deterministic regardless of chunk size**: the two
      streaming rows must be bit-identical (the accumulators are fed in
      replication order, so chunking cannot change a single bit);
    * streaming count/mean/std/min/max agree with exact aggregation within
      ``tolerance`` (Welford vs numpy pairwise summation, ~1e-15 relative
      observed).  Quantile columns are P² *estimates* under streaming and
      are deliberately not compared against exact quantiles here.
    """
    for name in families:
        family = SCENARIO_FAMILIES[name]
        start = time.perf_counter()
        exact = replicate_scenario(family, replications, base_seed=seed,
                                   backend="batch", aggregation="exact")
        streamed = [replicate_scenario(family, replications, base_seed=seed,
                                       backend="batch",
                                       aggregation="streaming",
                                       chunk_size=chunk)
                    for chunk in chunk_sizes]
        seconds = time.perf_counter() - start
        print(f"parity: family {name!r} x {replications} replications "
              f"(chunks {list(chunk_sizes)}) in {seconds:.1f}s")

        first, second = streamed
        if first != second:
            diffs = sorted(k for k in set(first) | set(second)
                           if first.get(k) != second.get(k))
            yield (f"family {name!r}: streaming rows differ between chunk "
                   f"sizes {chunk_sizes[0]} and {chunk_sizes[1]} "
                   f"(columns {diffs}) — chunking changed the results")
        for key in sorted(exact):
            if not any(key.endswith(suffix) for suffix in
                       ("_n", "_mean", "_std", "_min", "_max")):
                continue
            a, b = float(exact[key]), float(first[key])
            drift = abs(a - b) / max(1.0, abs(a))
            if drift > tolerance:
                yield (f"family {name!r}: {key} drifted {drift:.3e} "
                       f"between exact ({a!r}) and streaming ({b!r})")


def check_variance_parity(families, replications: int,
                          chunk_sizes, seed: int, tolerance: float):
    """Variance-reduction modes vs plain sampling, across both backends.

    For every scenario family, replicates the same stream under all three
    variance modes and yields one message per violation of the
    variance-reduction contracts:

    * **stratified is a re-weighting of the identical sample**: it uses
      the very same per-replication seeds as ``variance="none"``, so every
      shared aggregate column (means, stds, quantiles — everything except
      the added CI columns and the ``variance`` label) must agree within
      ``tolerance`` (bit-identical in practice);
    * **both backends agree under every mode**: the event-driven reference
      and the vectorized batch backend consume identical (paired) traces,
      so their aggregate rows must agree within ``tolerance`` per mode —
      this is what pins the antithetic reflections to being applied
      identically in the scalar and the vectorized samplers;
    * **antithetic estimates the same quantities**: its means are computed
      from reflected — not identical — draws, so they are only required
      to stay within a generous statistical allowance (6 combined
      standard errors) of plain sampling, not within ``tolerance``;
    * **CI columns are chunking-invariant**: streaming antithetic rows at
      two different chunk sizes must be bit-identical, CI columns
      included — chunking stays a memory knob, never a results knob.
    """
    for name in families:
        family = SCENARIO_FAMILIES[name]
        start = time.perf_counter()
        rows = {}
        for mode in ("none", "antithetic", "stratified"):
            for backend in ("event", "batch"):
                rows[(mode, backend)] = replicate_scenario(
                    family, replications, base_seed=seed, backend=backend,
                    aggregation="exact", variance=mode)
        seconds = time.perf_counter() - start
        print(f"variance-parity: family {name!r} x {replications} "
              f"replications x 3 modes x 2 backends in {seconds:.1f}s")

        for mode in ("none", "antithetic", "stratified"):
            for message in compare_rows([rows[(mode, "event")]],
                                        [rows[(mode, "batch")]], tolerance):
                yield f"family {name!r} mode {mode!r}: {message}"

        none = rows[("none", "batch")]
        stratified = rows[("stratified", "batch")]
        for key in sorted(none):
            if key not in stratified:
                yield (f"family {name!r}: column {key!r} vanished under "
                       "stratification")
                continue
            a, b = none[key], stratified[key]
            if isinstance(a, str):
                if a != b:
                    yield f"family {name!r}: stratified {key} {b!r} != {a!r}"
                continue
            drift = abs(float(a) - float(b)) / max(1.0, abs(float(a)))
            if drift > tolerance:
                yield (f"family {name!r}: stratified {key} drifted "
                       f"{drift:.3e} from plain sampling ({a!r} vs {b!r}) — "
                       "stratification must re-weight, not re-sample")

        antithetic = rows[("antithetic", "batch")]
        for prefix in ("work", "tasks", "interrupts"):
            mean_key, n = f"{prefix}_mean", replications
            if mean_key not in none:
                continue
            sem_none = float(none[f"{prefix}_std"]) / n ** 0.5
            sem_anti = float(antithetic[f"{prefix}_sem"])
            allowance = 6.0 * (sem_none ** 2 + sem_anti ** 2) ** 0.5
            drift = abs(float(antithetic[mean_key]) - float(none[mean_key]))
            if drift > max(allowance, tolerance):
                yield (f"family {name!r}: antithetic {mean_key} "
                       f"{antithetic[mean_key]!r} is {drift:g} from plain "
                       f"sampling's {none[mean_key]!r} (allowance "
                       f"{allowance:g}) — the reflection is biased")

        chunked = [replicate_scenario(family, replications, base_seed=seed,
                                      backend="batch",
                                      aggregation="streaming",
                                      chunk_size=chunk,
                                      variance="antithetic")
                   for chunk in chunk_sizes]
        first, second = chunked
        if first != second:
            diffs = sorted(k for k in set(first) | set(second)
                           if first.get(k) != second.get(k))
            yield (f"family {name!r}: antithetic streaming rows differ "
                   f"between chunk sizes {chunk_sizes[0]} and "
                   f"{chunk_sizes[1]} (columns {diffs}) — CI columns must "
                   "be chunking-invariant")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--lifespans", type=float, nargs="+",
                        default=[200.0, 400.0, 800.0])
    parser.add_argument("--setup-costs", type=float, nargs="+", default=[1.0])
    parser.add_argument("--interrupts", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--schedulers", nargs="+",
                        default=["equalizing-adaptive", "rosenberg-adaptive",
                                 "rosenberg-nonadaptive"])
    parser.add_argument("--adversaries", nargs="+",
                        default=["poisson-owner", "uniform-owner"])
    parser.add_argument("--replications", "-n", type=int, default=500)
    parser.add_argument("--jobs", "-j", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tolerance", type=float, default=1e-9,
                        help="maximum allowed relative divergence per column")
    parser.add_argument("--families", nargs="*", default=[],
                        choices=SCENARIO_FAMILIES.names(),
                        help="also replicate these scenario families through "
                             "both simulator backends (e.g. 'flaky', whose "
                             "idle-interrupt corner the batch backend now "
                             "handles natively)")
    parser.add_argument("--family-replications", type=int, default=None,
                        help="replications per scenario family "
                             "(default: --replications)")
    parser.add_argument("--aggregation-parity", action="store_true",
                        help="instead of the backend sweep, check chunked "
                             "streaming aggregation against one-shot exact "
                             "aggregation on every scenario family: "
                             "streaming mean/std within --tolerance of "
                             "exact, and bit-identical across two chunk "
                             "sizes")
    parser.add_argument("--parity-chunk-sizes", type=int, nargs=2,
                        default=[64, 97],
                        help="the two (deliberately non-divisible) chunk "
                             "sizes whose streaming rows must agree "
                             "bit-for-bit")
    parser.add_argument("--variance-parity", action="store_true",
                        help="check the variance-reduction modes on every "
                             "scenario family: stratified rows within "
                             "--tolerance of plain sampling, both backends "
                             "agreeing per mode on paired traces, "
                             "antithetic means statistically consistent, "
                             "and CI columns bit-identical across chunk "
                             "sizes")
    args = parser.parse_args(argv)

    if args.variance_parity:
        families = args.families or SCENARIO_FAMILIES.names()
        replications = args.family_replications or args.replications
        if replications % 2:
            replications += 1  # antithetic pairs need an even count
        try:
            failures = list(check_variance_parity(
                families, replications, args.parity_chunk_sizes,
                args.seed, args.tolerance))
        except Exception as exc:
            github_error(f"variance parity check could not run: {exc}")
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_ERROR
        if failures:
            github_error(f"{len(failures)} variance-parity violation(s) "
                         "— see the job log")
            print(f"VARIANCE PARITY VIOLATED ({len(failures)} value(s), "
                  f"tolerance {args.tolerance:g}):", file=sys.stderr)
            for failure in failures:
                print(f"  - {failure}", file=sys.stderr)
            return EXIT_DIVERGED
        print(f"ok: {len(families)} families x {replications} replications "
              "agree across variance modes (stratified == plain within "
              f"{args.tolerance:g}, backends agree per mode, antithetic "
              "statistically consistent, CI columns chunking-invariant)")
        return EXIT_OK

    if args.aggregation_parity:
        families = args.families or SCENARIO_FAMILIES.names()
        replications = args.family_replications or args.replications
        try:
            failures = list(check_aggregation_parity(
                families, replications, args.parity_chunk_sizes,
                args.seed, args.tolerance))
        except Exception as exc:
            github_error(f"aggregation parity check could not run: {exc}")
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_ERROR
        if failures:
            github_error(f"{len(failures)} aggregation-parity violation(s) "
                         "— see the job log")
            print(f"AGGREGATION PARITY VIOLATED ({len(failures)} value(s), "
                  f"tolerance {args.tolerance:g}):", file=sys.stderr)
            for failure in failures:
                print(f"  - {failure}", file=sys.stderr)
            return EXIT_DIVERGED
        print(f"ok: {len(families)} families x {replications} replications "
              "agree between exact and streaming aggregation "
              f"(tolerance {args.tolerance:g}); streaming bit-identical "
              f"across chunk sizes {args.parity_chunk_sizes}")
        return EXIT_OK

    try:
        grid = SweepGrid(lifespans=tuple(args.lifespans),
                         setup_costs=tuple(args.setup_costs),
                         interrupt_budgets=tuple(args.interrupts),
                         schedulers=tuple(args.schedulers),
                         adversaries=tuple(args.adversaries))
    except Exception as exc:  # bad grid arguments
        github_error(f"invalid sweep grid: {exc}")
        print(f"error: invalid sweep grid: {exc}", file=sys.stderr)
        return EXIT_ERROR

    replications = args.replications + args.replications % 2  # antithetic pairs
    timings = {"event": 0.0, "batch": 0.0}
    rows = {"event": [], "batch": []}
    for variance in VARIANCE_MODES:
        for backend in ("event", "batch"):
            start = time.perf_counter()
            rows[backend] += run_sweep(grid, jobs=args.jobs,
                                       replications=replications,
                                       seed=args.seed,
                                       include_guaranteed=False,
                                       backend=backend, variance=variance)
            seconds = time.perf_counter() - start
            timings[backend] += seconds
            print(f"{backend:>5} backend: {grid.size} points x "
                  f"{replications} replications, variance {variance!r}, "
                  f"in {seconds:.1f}s")

    if len(rows["event"]) != len(rows["batch"]):
        github_error("backends produced different row counts")
        return EXIT_DIVERGED

    # Scenario families through the full NOW simulator (both backends).
    family_replications = args.family_replications or args.replications
    for backend in ("event", "batch"):
        for name in args.families:
            start = time.perf_counter()
            row = replicate_scenario(SCENARIO_FAMILIES[name],
                                     family_replications,
                                     base_seed=args.seed, backend=backend)
            seconds = time.perf_counter() - start
            rows[backend].append(row)
            print(f"{backend:>5} backend: family {name!r} x "
                  f"{family_replications} replications in {seconds:.1f}s")

    failures = list(compare_rows(rows["event"], rows["batch"], args.tolerance))
    if failures:
        github_error(f"{len(failures)} aggregate(s) diverged between the "
                     "batch and event backends — see the job log")
        print(f"BACKEND DIVERGENCE ({len(failures)} value(s), "
              f"tolerance {args.tolerance:g}):", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return EXIT_DIVERGED

    speedup = timings["event"] / timings["batch"] if timings["batch"] else float("inf")
    print(f"ok: {len(rows['event'])} points agree within {args.tolerance:g} "
          f"(batch backend speedup on the MC layer: {speedup:.1f}x)")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
