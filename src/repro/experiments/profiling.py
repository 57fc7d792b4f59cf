"""Per-stage wall-time breakdown of experiment runs (``--profile``).

Perf work on the harness keeps re-asking the same question: of a sweep's
wall-clock, how much goes to the exact worst-case referees, the DP solves,
the Monte-Carlo replication, and the run-store shard I/O?  This module is
the measurement plumbing behind the ``--profile`` flag of ``repro sweep``
and ``repro run``:

* workers time each stage of a point with :func:`stage_column` /
  ``time.perf_counter`` and return the seconds as flat row columns under
  the reserved :data:`PROFILE_PREFIX`;
* the driver strips those columns off every result row
  (:func:`pop_profile`) — they never reach CSVs, run-store shards or
  reports — and aggregates them (:func:`aggregate_profiles`);
* :func:`render_profile` formats the totals as the small table printed to
  stderr.

Stage seconds are summed across worker processes, so with ``--jobs > 1``
the breakdown is *CPU* time per stage and its total legitimately exceeds
the wall-clock; the rendered table says so explicitly.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping

__all__ = ["PROFILE_PREFIX", "STAGES", "COUNT_SUFFIX", "MAX_SUFFIX",
           "stage_column", "pop_profile", "aggregate_profiles",
           "render_profile"]

#: Reserved column prefix for per-point stage timings.
PROFILE_PREFIX = "_profile_"

#: Known stages, in reporting order.  ``spec_parse`` is spec expansion and
#: pending-point discovery in the run store, ``referee`` the exact
#: worst-case minimax/pattern measurement, ``dp_solve`` the (cached)
#: ``W^(p)[L]`` table resolution, including the tables a sweep solves
#: before its first point, ``monte_carlo`` the replication layer,
#: ``shard_io`` run-store reads/writes (shards and the columnar sidecar),
#: ``report_render`` the markdown report generation of ``repro report``.
STAGES = ("spec_parse", "referee", "dp_solve", "monte_carlo", "shard_io",
          "report_render")

#: Non-seconds per-chunk metrics the Monte-Carlo layer reports alongside
#: the stage timings: ``*_chunks`` columns are counts (summed across
#: points, rendered without a share), ``*_max`` columns are per-chunk
#: maxima (aggregated with ``max``, not ``+``).
COUNT_SUFFIX = "_chunks"
MAX_SUFFIX = "_max"


def stage_column(stage: str) -> str:
    """The reserved row-column name carrying one stage's seconds."""
    return f"{PROFILE_PREFIX}{stage}"


def _is_metric(stage: str) -> bool:
    return stage.endswith(COUNT_SUFFIX) or stage.endswith(MAX_SUFFIX)


def pop_profile(row: Dict[str, object]) -> Dict[str, float]:
    """Strip (and return) the profile columns of one result row, in place."""
    timings: Dict[str, float] = {}
    for key in [k for k in row if k.startswith(PROFILE_PREFIX)]:
        timings[key[len(PROFILE_PREFIX):]] = float(row.pop(key))  # type: ignore[arg-type]
    return timings


def aggregate_profiles(profiles: Iterable[Mapping[str, float]]) -> Dict[str, float]:
    """Combine per-stage values over many per-point profiles.

    Stage seconds and chunk counts are summed; ``*_max`` metrics (the
    slowest single chunk) keep the maximum across points.
    """
    totals: Dict[str, float] = {}
    for profile in profiles:
        for stage, seconds in profile.items():
            if stage.endswith(MAX_SUFFIX):
                totals[stage] = max(totals.get(stage, 0.0), float(seconds))
            else:
                totals[stage] = totals.get(stage, 0.0) + float(seconds)
    return totals


def render_profile(totals: Mapping[str, float], *, wall_seconds: float,
                   points: int, jobs: int = 1) -> str:
    """Format the aggregated breakdown as the table ``--profile`` prints."""
    lines: List[str] = []
    parallel = jobs > 1
    kind = "CPU seconds summed across workers" if parallel else "wall seconds"
    lines.append(f"profile: {points} point(s) in {wall_seconds:.3f}s "
                 f"wall ({kind} per stage below)")
    staged = sum(v for k, v in totals.items() if not _is_metric(k))
    ordered = [s for s in STAGES if s in totals]
    ordered += sorted(set(totals) - set(STAGES))
    width = max((len(s) for s in ordered), default=7)
    for stage in ordered:
        seconds = totals[stage]
        if stage.endswith(COUNT_SUFFIX):
            lines.append(f"  {stage:<{width}}  {seconds:9.0f}")
            continue
        if stage.endswith(MAX_SUFFIX):
            lines.append(f"  {stage:<{width}}  {seconds:9.3f}s  (max)")
            continue
        share = seconds / staged if staged > 0.0 else 0.0
        lines.append(f"  {stage:<{width}}  {seconds:9.3f}s  {share:6.1%}")
    other = wall_seconds - staged
    if not parallel and other > 0.0:
        lines.append(f"  {'(other)':<{width}}  {other:9.3f}s  "
                     f"{other / wall_seconds:6.1%}")
    return "\n".join(lines)
