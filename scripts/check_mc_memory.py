#!/usr/bin/env python
"""Guard the streaming Monte-Carlo pipeline's memory flatness.

Replicates the canonical high-replication sweep point (see
``benchmarks/mc_streaming_util.py``) with ``aggregation="streaming"`` at a
ladder of replication counts — each in a **fresh subprocess** that reads
its own peak RSS (``VmHWM`` from ``/proc/self/status``; ``ru_maxrss``
would report this script's peak, inherited across the fork) — and fails
if any count's peak RSS exceeds ``--max-ratio`` times the smallest
count's.  The chunk
size is pinned (not auto-sized) so the envelope measures exactly the
streaming pipeline's claim: peak memory flat in ``--replications``.

The smallest count is the baseline, so it must fill at least one whole
chunk: a run shorter than a chunk never allocates a full chunk's arrays
and would understate the steady-state peak (at chunk 4096, 10^3
replications peak near 41 MiB, one full chunk near 49 MiB).  The default
10k/100k ladder therefore starts at 10^4, the same baseline as the
committed evidence (``benchmarks/results/mc_streaming.csv``), and a
ladder whose smallest count is below ``--chunk-size`` is refused.

With ``--million`` the ladder additionally includes a 10^6-replication run
(the acceptance bar: it must *complete*, inside the same envelope);
without the flag the default ladder keeps the gate under ~15s for
every-push CI.

Usage::

    PYTHONPATH=src python scripts/check_mc_memory.py [--million] \
        [--counts 10000 100000] [--max-ratio 1.5] [--chunk-size 4096]

Exit codes: ``0`` flat, ``1`` envelope violated (or a run produced
degenerate statistics), ``2`` a measurement could not run.  Failures are
emitted as GitHub Actions ``::error::`` annotations.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(_ROOT, "src"), os.path.join(_ROOT, "benchmarks")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from mc_streaming_util import (  # noqa: E402
    CHUNK_SIZE,
    RSS_RATIO_FLOOR,
    measure_subprocess,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_ERROR = 2

MILLION = 1_000_000


def github_error(message: str) -> None:
    """Emit a GitHub Actions error annotation (harmless plain text locally)."""
    print(f"::error title=mc memory flatness::{str(message).splitlines()[0]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--counts", type=int, nargs="+",
                        default=[10_000, 100_000],
                        help="replication-count ladder (each measured in a "
                             "fresh subprocess)")
    parser.add_argument("--million", action="store_true",
                        help=f"also run {MILLION:,} replications (must "
                             "complete inside the same RSS envelope)")
    parser.add_argument("--max-ratio", type=float, default=RSS_RATIO_FLOOR,
                        help="peak-RSS envelope: every count's peak must be "
                             "<= this factor of the smallest count's")
    parser.add_argument("--chunk-size", type=int, default=CHUNK_SIZE,
                        help="fixed streaming chunk size for every run")
    args = parser.parse_args(argv)

    counts = sorted(set(args.counts) | ({MILLION} if args.million else set()))
    if len(counts) < 2:
        github_error("need at least two replication counts to compare")
        print("error: need at least two replication counts", file=sys.stderr)
        return EXIT_ERROR
    if counts[0] < args.chunk_size:
        github_error(f"the baseline count {counts[0]:,} is below one chunk "
                     f"of {args.chunk_size:,} replications")
        print(f"error: the smallest count ({counts[0]:,}) is the baseline "
              f"and must fill one chunk ({args.chunk_size:,} replications)",
              file=sys.stderr)
        return EXIT_ERROR

    results = []
    for count in counts:
        try:
            result = measure_subprocess(count, "streaming", args.chunk_size)
        except Exception as exc:
            github_error(f"streaming run at {count:,} replications failed: "
                         f"{exc}")
            print(f"error: measurement at {count:,} replications failed:\n"
                  f"{exc}", file=sys.stderr)
            return EXIT_ERROR
        results.append(result)
        print(f"streaming x {count:>9,}: {result['seconds']:7.2f}s  "
              f"peak RSS {result['rss_mib']:6.1f} MiB  "
              f"work_mean {result['work_mean']:.6f}")

    failures = []
    baseline = results[0]
    for result in results:
        ratio = result["rss_mib"] / baseline["rss_mib"]
        if ratio > args.max_ratio:
            failures.append(
                f"{result['replications']:,} replications peaked at "
                f"{result['rss_mib']:.1f} MiB — {ratio:.2f}x the "
                f"{baseline['replications']:,}-replication peak of "
                f"{baseline['rss_mib']:.1f} MiB (envelope "
                f"{args.max_ratio:g}x); streaming memory is no longer flat")
        if not math.isfinite(result["work_mean"]) or result["work_mean"] <= 0.0:
            failures.append(
                f"{result['replications']:,} replications produced a "
                f"degenerate work_mean {result['work_mean']!r}")

    if failures:
        github_error(f"{len(failures)} memory-flatness violation(s) — "
                     "see the job log")
        print(f"MC MEMORY FLATNESS VIOLATED ({len(failures)} issue(s)):",
              file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return EXIT_VIOLATION

    largest = results[-1]
    print(f"ok: peak RSS flat within {args.max_ratio:g}x across "
          f"{counts[0]:,}..{counts[-1]:,} replications "
          f"(largest run: {largest['rss_mib']:.1f} MiB, "
          f"{largest['rss_mib'] / baseline['rss_mib']:.2f}x baseline)")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
