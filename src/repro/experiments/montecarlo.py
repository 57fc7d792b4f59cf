"""Monte-Carlo replication on top of the single-trace game and simulator.

The analytic layer answers "what is the *worst case*?" exactly; this module
answers "what happens *typically*?" by replication: ``N`` randomized
owner-interrupt traces per parameter point, drawn from the stochastic
adversaries in :mod:`repro.adversary` (game-level replication) or from the
randomized scenario generators in :mod:`repro.workloads.scenarios`
(simulator-level replication), aggregated into mean/std/quantile rows.

Determinism: replication ``r`` of point ``i`` is seeded with
``point_seed(base_seed, i, r)``, so aggregate rows are bit-identical no
matter how the orchestrator spreads replications over worker processes —
and, in streaming mode, no matter how the replications are chunked.

Backends
--------
Both replication entry points accept ``backend="event"`` (the reference:
one event-driven game/simulation per replication) or ``backend="batch"``.
For a sweep point, the batch backend plays a chunk of replications one
level (stretch) at a time: the alive replications' distinct states get
their schedules in one batch and their finish times and work tables in one
row pass, shared with the exact referee, and work is banked by array
indexing; scenarios use :mod:`repro.simulator.batch`.  Adversaries are
seeded and consulted identically under both backends, so for the same
seeds the batch results match the event results exactly up to float
summation order (``~1e-15`` relative; the equivalence tests pin ``1e-9``).

Aggregation modes
-----------------
``aggregation="exact"`` materialises every replication's statistics and
aggregates them in one numpy pass (the historical behaviour — quantiles
are exact).  ``aggregation="streaming"`` plays replications in fixed-size
chunks (``chunk_size``, auto-sized from the replication count by default)
and feeds the per-replication values into the online accumulators of
:mod:`repro.experiments.streaming` — Welford mean/std, exact running
min/max and P² quantile estimates — so peak memory is flat in the
replication count.  ``aggregation="auto"`` (the default) selects exact at
or below :data:`STREAMING_AUTO_THRESHOLD` replications and streaming
above, preserving exact results for every small run.  Each replicated row
carries a ``quantile_method`` column (``"exact"`` or ``"p2"``) so reports
can flag which convention its quantile columns follow.

Variance reduction
------------------
``variance="antithetic"`` replaces independent replication seeds with
antithetic pairs (see :mod:`repro.experiments.variance`): replications
``(2k, 2k+1)`` share a pair seed and consume a common uniform stream and
its complement, threaded through the interrupt-trace samplers and the
stochastic adversaries identically under both backends.
``variance="stratified"`` keeps the exact seeds of ``variance="none"``
(every historical column stays bitwise identical) and post-stratifies
the standard errors over observed interrupt-count strata.  Both modes
add ``{prefix}_sem/_ci_lo/_ci_hi`` (and batch-means ``_bm`` variants)
plus a ``variance`` label column to the row; ``variance="none"`` (the
default) emits no new columns and stays byte-identical to the
pre-variance pipeline.  CI columns are bit-identical across chunk sizes
and across the exact/streaming aggregation paths (the accumulators are
strictly sequential with a fixed internal batch size).
"""

from __future__ import annotations

import contextvars
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

import numpy as np

from ..core.exceptions import InvalidScheduleError, SchedulingError
from ..core.game import (
    _check_lengths,
    _offsets,
    _Rows,
    _schedule_list,
    _ScheduleRows,
    play_adaptive,
    play_nonadaptive,
)
from ..core.sampling import PairedSeed, hashed_seeds
from ..core.schedule import EpisodeSchedule
from .grid import SweepPoint, make_adversary, make_scheduler
from .streaming import StreamingAggregator
from .variance import (
    CiAccumulator,
    VARIANCE_MODES,
    replication_seed,
    resolve_variance,
)

__all__ = ["aggregate", "replicate_point", "replicate_scenario", "BACKENDS",
           "AGGREGATIONS", "STREAMING_AUTO_THRESHOLD", "resolve_aggregation",
           "resolve_chunk_size", "VARIANCE_MODES", "resolve_variance"]

#: Quantiles reported for every replicated statistic.
QUANTILES = (0.1, 0.5, 0.9)

#: Recognised replication backends.
BACKENDS = ("event", "batch")

#: Recognised aggregation modes.
AGGREGATIONS = ("exact", "streaming", "auto")

#: ``aggregation="auto"`` uses exact aggregation at or below this many
#: replications and the streaming accumulators above it.
STREAMING_AUTO_THRESHOLD = 10_000

#: Bounds for the auto-sized streaming chunk (replications per chunk).
_MIN_CHUNK = 256
_MAX_CHUNK = 8192

#: The open :func:`instance_holder`'s slot in this context: ``[None]`` or
#: ``[(key, instances)]``; ``None`` when no holder is open.
_held_instances: contextvars.ContextVar[Optional[list]] = contextvars.ContextVar(
    "held_scenario_instances", default=None)


@contextmanager
def instance_holder() -> Iterator[None]:
    """Hold the last batch instance list :func:`replicate_scenario` built.

    One slot per run (see :func:`replicate_scenario`): the slot lives in a
    :class:`contextvars.ContextVar`, so concurrent runs on other threads
    each get their own, and closing the holder drops it.
    """
    token = _held_instances.set([None])
    try:
        yield
    finally:
        _held_instances.reset(token)


def _check_backend(backend: str) -> str:
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; known: {list(BACKENDS)}")
    return backend


def resolve_aggregation(aggregation: str, replications: int) -> str:
    """Resolve an aggregation mode to ``"exact"`` or ``"streaming"``.

    ``"auto"`` picks exact at or below :data:`STREAMING_AUTO_THRESHOLD`
    replications (results byte-identical to the historical one-shot
    aggregation) and streaming above.  The resolution depends only on the
    mode and the replication count, never on memory probing or the
    environment, so resumed runs re-resolve identically.
    """
    if aggregation not in AGGREGATIONS:
        raise ValueError(f"unknown aggregation {aggregation!r}; "
                         f"known: {list(AGGREGATIONS)}")
    if aggregation == "auto":
        return "streaming" if replications > STREAMING_AUTO_THRESHOLD else "exact"
    return aggregation


def resolve_chunk_size(chunk_size: Optional[int], replications: int) -> int:
    """The streaming chunk size: explicit, or auto-sized from replications.

    The auto size grows with the replication count between
    :data:`_MIN_CHUNK` and :data:`_MAX_CHUNK` — big enough to amortise the
    batch backend's shared schedule construction, small enough that peak
    memory stays flat.  Chunking never affects results (accumulators are
    fed in replication order), only memory and throughput.
    """
    if chunk_size is not None:
        chunk = int(chunk_size)
        if chunk < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size!r}")
        return chunk
    return max(_MIN_CHUNK, min(_MAX_CHUNK, int(replications) // 8))


def aggregate(values: Sequence[float], prefix: str) -> Dict[str, float]:
    """Mean/std/min/max/quantile summary of one replicated statistic.

    ``values`` are the per-replication measurements of one quantity in
    whatever unit that quantity carries — work and efficiency statistics
    inherit the time unit of the lifespan ``U`` (the paper's ``L`` on the
    integer grid) and the set-up cost ``c``; interrupt and episode counts
    are dimensionless.  The returned columns are ``{prefix}_n`` (the
    replication count), ``{prefix}_mean/std/min/max`` and one
    ``{prefix}_q<percent>`` per entry of :data:`QUANTILES`.

    The standard deviation is the *sample* standard deviation (``ddof=1``)
    when two or more replications are available and **exactly ``0.0``
    otherwise** — a single replication has no spread estimate, and pinning
    ``0.0`` (rather than numpy's NaN for ``ddof=1`` on one value) keeps
    report tables and downstream comparisons NaN-free.  The streaming
    accumulators follow the same convention.

    NaN inputs are rejected with an actionable error: a NaN statistic
    means a replication produced undefined work, and silently propagating
    it would poison every mean/std/quantile column downstream.
    """
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return {f"{prefix}_n": 0}
    nan_mask = np.isnan(arr)
    nan_count = int(nan_mask.sum())
    if nan_count:
        raise ValueError(
            f"cannot aggregate {prefix!r}: {nan_count} of {arr.size} "
            f"replication values are NaN (first at replication index "
            f"{int(nan_mask.argmax())}); NaN cannot be aggregated (it would "
            "poison mean/std/quantiles) — check the scheduler/adversary/"
            "scenario for invalid parameters producing undefined work values")
    out: Dict[str, float] = {
        f"{prefix}_n": int(arr.size),
        f"{prefix}_mean": float(arr.mean()),
        f"{prefix}_std": float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        f"{prefix}_min": float(arr.min()),
        f"{prefix}_max": float(arr.max()),
    }
    for q in QUANTILES:
        out[f"{prefix}_q{int(round(q * 100))}"] = float(np.quantile(arr, q))
    return out


def _replicate(play: Callable[[int, int], Sequence[List[float]]],
               replications: int, names: Sequence[str],
               stratified: Sequence[str], *, backend: str, aggregation: str,
               chunk_size: Optional[int], variance: str,
               profile: Optional[Dict[str, float]]) -> Dict[str, Any]:
    """The replication driver behind :func:`replicate_point` and
    :func:`replicate_scenario`.

    ``play(start, stop)`` plays replications ``[start, stop)`` and returns
    one list of per-replication values per statistic of ``names``, in that
    order; ``names`` includes ``"interrupts"``, the stratum variable.
    Exact aggregation plays every replication at once; streaming plays
    fixed-size chunks into the online accumulators.  Under
    ``variance="stratified"`` only the statistics in ``stratified`` get
    the post-stratified standard error — statistics that are functions of
    the stratum variable itself (interrupt/episode counts) keep the plain
    i.i.d. one, which is what their CI should be.  ``profile`` receives
    the per-chunk stage accounting of ``--profile`` (see the profiling
    module).
    """

    def record_chunk(started: float) -> None:
        if profile is not None:
            profile["mc_chunks"] = profile.get("mc_chunks", 0.0) + 1.0
            profile["mc_chunk_s_max"] = max(profile.get("mc_chunk_s_max", 0.0),
                                            time.perf_counter() - started)

    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications!r}")
    _check_backend(backend)
    resolve_variance(variance, int(replications))
    mode = resolve_aggregation(aggregation, int(replications))
    cis = None
    if variance != "none":
        cis = {name: CiAccumulator(variance if variance != "stratified"
                                   or name in stratified else "none")
               for name in names}
    row: Dict[str, Any] = {}
    if mode == "exact":
        started = time.perf_counter()
        values = dict(zip(names, play(0, int(replications))))
        record_chunk(started)
        for name in names:
            row.update(aggregate(values[name], name))
        if cis is not None:
            for name, ci in cis.items():
                ci.extend(values[name], values["interrupts"]
                          if name in stratified else None)
            for name, ci in cis.items():
                row.update(ci.columns(name))
            row["variance"] = variance
        row["quantile_method"] = "exact"
        return row

    chunk = resolve_chunk_size(chunk_size, int(replications))
    aggregators = {name: StreamingAggregator(
                       name, QUANTILES, ci=None if cis is None else cis[name])
                   for name in names}
    for index, start in enumerate(range(0, int(replications), chunk)):
        stop = min(start + chunk, int(replications))
        started = time.perf_counter()
        values = dict(zip(names, play(start, stop)))
        try:
            for name, aggregator in aggregators.items():
                aggregator.extend(values[name], values["interrupts"]
                                  if name in stratified else None)
        except ValueError as exc:
            # The accumulators report the absolute replication index of
            # the first offending value; the chunk ordinal and range make
            # a bad replication in a 10^6-point run findable.
            raise ValueError(f"{exc} [while aggregating chunk {index}, "
                             f"replications [{start}, {stop})]") from exc
        record_chunk(started)
    for name, aggregator in aggregators.items():
        row.update(aggregator.summary(name))
    if variance != "none":
        row["variance"] = variance
    row["quantile_method"] = "p2"
    return row


def replicate_point(point: SweepPoint, replications: int,
                    *, base_seed: int = 0, backend: str = "event",
                    aggregation: str = "auto",
                    chunk_size: Optional[int] = None,
                    variance: str = "none",
                    profile: Optional[Dict[str, float]] = None) -> Dict[str, float]:
    """Play ``replications`` randomized traces of one sweep point.

    The point's scheduler plays against freshly seeded instances of the
    point's adversary; adaptive schedulers use the adaptive referee,
    pure non-adaptive ones the oblivious referee.  Returns the aggregated
    ``work_*`` / ``efficiency_*`` / ``interrupts_*`` / ``episodes_*``
    columns plus ``quantile_method`` (``"exact"`` or ``"p2"``): work is in
    the time unit of the point's lifespan ``U`` (the paper's ``L`` on the
    integer DP grid) and set-up cost ``c``; efficiency is work divided by
    ``U`` (dimensionless); interrupts per game never exceed the point's
    budget ``p`` because the referee stops consulting the adversary once
    the budget is spent.

    ``backend="batch"`` plays replications a level at a time in array
    passes, adaptive and non-adaptive points each in their own pass
    (see the module docstring).  ``aggregation`` / ``chunk_size`` select
    the aggregation pipeline (see the module docstring); replication ``r``
    is always seeded by its absolute index, so results are independent of
    the chunking.  ``variance`` selects the replication design and CI
    columns (see the module docstring); ``profile`` (a mutable mapping,
    optional) receives per-chunk stage accounting under the
    ``mc_chunks`` / ``mc_chunk_s_max`` keys.
    """
    if point.adversary is None:
        raise ValueError(f"point {point.index} has no adversary to sample")
    params = point.params()
    scheduler = make_scheduler(point.scheduler, params)
    adaptive = hasattr(scheduler, "episode_schedule")

    def play(start: int, stop: int):
        if backend == "batch" and adaptive:
            works, interrupts, episodes = _play_point_batch(
                point, scheduler, start, stop, base_seed, variance)
        elif backend == "batch":
            works, interrupts, episodes = _play_point_nonadaptive_batch(
                point, scheduler, start, stop, base_seed, variance)
        else:
            works, interrupts, episodes = [], [], []
            for r in range(start, stop):
                seed = replication_seed(base_seed, point.index, r, variance)
                adversary = make_adversary(point.adversary, params, seed=seed)
                if adaptive:
                    result = play_adaptive(scheduler, adversary, params)
                else:
                    result = play_nonadaptive(scheduler, adversary, params)
                works.append(result.total_work)
                interrupts.append(float(result.num_interrupts))
                episodes.append(float(result.num_episodes))
        return (works, [w / params.lifespan for w in works], interrupts,
                episodes)

    return _replicate(play, replications,
                      ("work", "efficiency", "interrupts", "episodes"),
                      ("work", "efficiency"), backend=backend,
                      aggregation=aggregation, chunk_size=chunk_size,
                      variance=variance, profile=profile)


def _ranks(order: np.ndarray) -> np.ndarray:
    """The inverse permutation of ``order``."""
    ranks = np.empty_like(order)
    ranks[order] = np.arange(order.size)
    return ranks


def _periods_ended(level: _Rows, rows: np.ndarray,
                   times: np.ndarray) -> np.ndarray:
    """How many periods of row ``rows[i]`` end by ``times[i]``: each row's
    ``searchsorted(finish, time, side="right")``, bisected for all at once."""
    lo = level.starts[rows]
    hi = lo + level.counts[rows]
    for _ in range(int(level.counts.max(initial=0)).bit_length()):
        mid = (lo + hi) // 2
        # A converged search (lo == hi) keeps its bounds whatever mid reads.
        ended = level.finish[np.minimum(mid, level.finish.size - 1)] <= times
        lo, hi = np.where(ended, np.minimum(mid + 1, hi), lo), np.where(ended, hi, mid)
    return lo - level.starts[rows]


def _chunk_adversaries(point: SweepPoint, params, rep_start: int,
                       rep_stop: int, base_seed: int, variance: str) -> list:
    """The adversaries of replications ``[rep_start, rep_stop)``.

    Each is seeded with its replication's seed, as the event backend seeds
    it; the chunk's SeedSequence words are derived in one array pass
    (:func:`repro.core.sampling.hashed_seeds`), so an adversary that seeds
    through :func:`~repro.core.sampling.spawn_rng` gets the same stream
    without hashing its seed again.  Under ``variance="antithetic"`` the
    two members of a pair share one seed (see
    :func:`~repro.experiments.variance.replication_seed`), so it is hashed
    once per pair: member 1 takes member 0's seed and words under its own
    tag, and only a chunk that starts on member 1 hashes that member.
    """
    paired = variance == "antithetic"
    seeds = hashed_seeds([replication_seed(base_seed, point.index, r, variance)
                          for r in range(rep_start, rep_stop)
                          if not paired or r % 2 == 0 or r == rep_start])
    adversaries = []
    for seed in seeds:
        adversaries.append(make_adversary(point.adversary, params, seed=seed))
        if (paired and seed.member == 0
                and len(adversaries) < rep_stop - rep_start):
            partner = PairedSeed(seed, 1, seed.words)
            adversaries.append(make_adversary(point.adversary, params,
                                              seed=partner))
    return adversaries


def _play_level(level: _Rows, schedules: Sequence[EpisodeSchedule],
                residuals: Sequence[float], alive: np.ndarray,
                state: np.ndarray, adversaries: list, p: int, c: float,
                works: np.ndarray, interrupts: np.ndarray,
                episodes: np.ndarray):
    """One episode of every alive replication; replication ``alive[i]``
    plays row ``state[i]`` of ``level`` (``schedules``, ``residuals``).

    Each adversary is consulted exactly as by the event referee; work is
    banked with array indexing.  Returns the interrupted replications,
    their rows and their interrupt times.
    """
    episodes[alive] += 1.0
    chosen = [None] * alive.size
    if p > 0:
        chosen = [adversaries[r].choose_interrupt(schedules[s], residuals[s],
                                                  p, c)
                  for r, s in zip(alive.tolist(), state.tolist())]
    hit = np.fromiter((t is not None for t in chosen), dtype=bool,
                      count=alive.size)
    times = np.array([float(t) for t in chosen if t is not None], dtype=float)
    rows = state[hit]
    lengths = level.total[rows]
    bad = np.flatnonzero(~((0.0 <= times) & (times < lengths)))
    if bad.size:
        raise SchedulingError(
            f"adversary chose interrupt time {float(times[bad[0]])!r} "
            f"outside [0, {float(lengths[bad[0]])!r})")
    works[alive[~hit]] += level.uninterrupted[state[~hit]]
    reps = alive[hit]
    completed = _periods_ended(level, rows, times)
    done = completed > 0
    works[reps[done]] += level.running[level.starts[rows[done]]
                                       + completed[done] - 1]
    interrupts[reps] += 1.0
    return reps, rows, times


def _play_point_batch(point: SweepPoint, scheduler, rep_start: int,
                      rep_stop: int, base_seed: int,
                      variance: str = "none"):
    """Adaptive game over replications ``[rep_start, rep_stop)``, level by level.

    Mirrors :func:`repro.core.game.play_adaptive` step for step.  Level
    ``k`` holds every replication interrupted ``k`` times so far, so all of
    them have ``p - k`` interrupts left: their distinct residuals get their
    schedules from one ``episode_schedule_batch`` call, laid out as the
    referee's rows, and their finish times, work tables and length check
    from one row pass.  Every adversary
    is seeded with its absolute index and consulted with the event
    referee's arguments, so both backends consume identical randomness
    under any chunking; only the interrupted episodes' work values differ
    from the referee's, by float summation order (``~1e-15``).
    """
    params = point.params()
    c = params.setup_cost
    count = rep_stop - rep_start
    adversaries = _chunk_adversaries(point, params, rep_start, rep_stop,
                                     base_seed, variance)
    residual = np.full(count, params.lifespan)
    works, interrupts, episodes = np.zeros(count), np.zeros(count), np.zeros(count)
    alive = np.arange(count)
    for p in range(params.max_interrupts, -1, -1):
        if not alive.size:
            break
        values, state = np.unique(residual[alive], return_inverse=True)
        schedules = _schedule_list(scheduler, values.tolist(), p, c)
        rows = _ScheduleRows.pack(schedules)
        level = _Rows(rows.periods, rows.counts, c, totals=True)
        _check_lengths(level.total, values[rows.states], rows.states)
        order = rows.states.tolist()
        reps, _, times = _play_level(
            level, [schedules[i] for i in order], values[order].tolist(),
            alive, _ranks(rows.states)[state], adversaries, p, c, works,
            interrupts, episodes)
        residual[reps] -= times
        alive = reps[residual[reps] > 0.0]
    return works.tolist(), interrupts.tolist(), episodes.tolist()


def _segments(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Flat indices of the runs ``[starts[i], starts[i] + lengths[i])``."""
    return (np.repeat(starts - _offsets(lengths), lengths)
            + np.arange(int(lengths.sum())))


def _current_rows(tails: _Rows, tail_of: np.ndarray, remaining: np.ndarray,
                  c: float):
    """The schedule each state plays, rows ordered by period count.

    State ``i`` continues with row ``tail_of[i]`` of ``tails`` (``-1``: no
    tail, one long period) over ``remaining[i]``: the tail, truncated to the
    remaining lifespan, or padded with one more period up to it, exactly as
    :func:`repro.core.game.play_nonadaptive` builds it.  Returns the row
    sums, each state's row and the rows' schedules (views of one read-only
    buffer).
    """
    lengths = np.append(tails.counts, 0)[tail_of]  # tail -1: no periods
    total = np.append(tails.total, 0.0)[tail_of]
    cut = total > remaining
    pad = total < remaining
    truncated = {}
    for i in np.flatnonzero(cut).tolist():
        start = tails.starts[tail_of[i]]
        schedule = EpisodeSchedule(tails.periods[start:start + lengths[i]]
                                   ).truncated_to(remaining[i])
        if schedule.total_length < remaining[i]:
            schedule = schedule.with_appended(remaining[i] - schedule.total_length)
        truncated[i] = schedule.periods
    counts = lengths + pad
    counts[cut] = [len(periods) for periods in truncated.values()]
    order = np.argsort(counts, kind="stable")
    state_row = _ranks(order)
    counts = counts[order]
    starts = _offsets(counts)
    buffer = np.empty(int(counts.sum()))
    copied = np.flatnonzero((lengths > 0) & ~cut)
    buffer[_segments(starts[state_row[copied]], lengths[copied])] = \
        tails.periods[_segments(tails.starts[tail_of[copied]], lengths[copied])]
    padded = np.flatnonzero(pad)
    buffer[starts[state_row[padded]] + lengths[padded]] = \
        remaining[padded] - total[padded]
    for i, periods in truncated.items():
        buffer[starts[state_row[i]]:starts[state_row[i]] + periods.size] = periods
    if not (np.all(np.isfinite(buffer)) and np.all(buffer > 0.0)):
        raise InvalidScheduleError("period lengths must be finite and positive")
    buffer.setflags(write=False)
    level = _Rows(buffer, counts, c, totals=True)
    schedules = [EpisodeSchedule._from_readonly_view(buffer[a:a + n], total)
                 for a, n, total in zip(starts.tolist(), counts.tolist(),
                                        level.total.tolist())]
    return level, state_row, schedules


def _play_point_nonadaptive_batch(point: SweepPoint, scheduler,
                                  rep_start: int, rep_stop: int,
                                  base_seed: int, variance: str = "none"):
    """Non-adaptive game over replications ``[rep_start, rep_stop)``.

    Mirrors :func:`repro.core.game.play_nonadaptive` a stretch at a time:
    the committed schedule is built and validated once; per stretch, the
    alive replications' distinct ``(tail, remaining lifespan)`` states get
    their truncated or padded schedules in one read-only buffer, checked
    once, and their finish times and work tables from one row pass.
    Replications interrupted in the same period of the same state share
    their tail.  Adversaries are consulted with exactly the event
    referee's arguments, so both paths consume identical randomness;
    per-stretch work values differ from the event referee's only by float
    summation order (cumsum vs pairwise, ``~1e-15``).
    """
    params = point.params()
    c = params.setup_cost
    lifespan = params.lifespan
    budget = params.max_interrupts
    count = rep_stop - rep_start

    base = scheduler.opportunity_schedule(params)
    if not isinstance(base, EpisodeSchedule):
        raise SchedulingError(
            f"scheduler returned {type(base).__name__}, expected EpisodeSchedule")
    base.validate_for_lifespan(lifespan, require_exact=False)

    adversaries = _chunk_adversaries(point, params, rep_start, rep_stop,
                                     base_seed, variance)
    clock = np.zeros(count)
    works, interrupts, episodes = np.zeros(count), np.zeros(count), np.zeros(count)
    alive = np.arange(count)
    # Replication r continues with row tail[r] of tails (-1: one period).
    tails = _Rows(base.periods, np.array([base.num_periods]), totals=True)
    tail = np.zeros(count, dtype=np.int64)
    for stretch in range(budget + 1):
        if not alive.size:
            break
        if stretch == budget and budget > 0:
            # The Section 2.2 exception: after the p-th interrupt the rest
            # of the lifespan runs as one long period.
            tail[alive] = -1
        # The distinct (tail, remaining lifespan) pairs, as exact complex keys.
        keys, state = np.unique(tail[alive] + 1j * (lifespan - clock[alive]),
                                return_inverse=True)
        remaining = keys.imag.copy()
        level, state_row, schedules = _current_rows(
            tails, keys.real.astype(np.int64), remaining, c)
        reps, rows, times = _play_level(
            level, schedules, remaining[np.argsort(state_row)].tolist(), alive,
            state_row[state], adversaries, budget - stretch, c, works,
            interrupts, episodes)
        # Oblivious continuation: the period containing the interrupt
        # (clamped away from the exact end, as the event referee does)
        # and everything before it are dropped; the rest is the tail.
        kept = _periods_ended(level, rows,
                              np.minimum(times, level.total[rows] * (1 - 1e-15)))
        first = level.starts[rows] + kept + 1
        lengths = level.counts[rows] - kept - 1
        clock[reps] += times
        tail[reps] = -1
        has = lengths > 0
        unique, index, tail_id = np.unique(first[has], return_index=True,
                                           return_inverse=True)
        tail_counts = lengths[has][index]
        order = np.argsort(tail_counts, kind="stable")
        tail[reps[has]] = _ranks(order)[tail_id]
        tails = _Rows(level.periods[_segments(unique[order], tail_counts[order])],
                      tail_counts[order], totals=True)
        alive = reps[clock[reps] < lifespan]
    return works.tolist(), interrupts.tolist(), episodes.tolist()


def replicate_scenario(family, replications: int, *, base_seed: int = 0,
                       scheduler=None, scheduler_factory=None,
                       backend: str = "event",
                       aggregation: str = "auto",
                       chunk_size: Optional[int] = None,
                       variance: str = "none",
                       profile: Optional[Dict[str, float]] = None,
                       **family_kwargs) -> Dict[str, float]:
    """Replicate a randomized scenario family through the NOW simulator.

    Parameters
    ----------
    family:
        A scenario generator from :mod:`repro.workloads.scenarios` (or any
        callable accepting a ``seed=`` keyword and returning a
        :class:`~repro.workloads.scenarios.Scenario`).
    replications:
        How many independently seeded scenario instances to simulate.
    scheduler / scheduler_factory:
        Passed through to
        :class:`~repro.simulator.engine.CycleStealingSimulation`; defaults
        to a fresh :class:`~repro.schedules.EqualizingAdaptiveScheduler`.
    backend:
        ``"event"`` simulates each replication through the event-driven
        engine; ``"batch"`` runs them all through
        :func:`repro.simulator.batch.simulate_scenarios_batch` in one array
        pass (bit-identical reports, see the module docstring).
    aggregation / chunk_size:
        Aggregation pipeline (see the module docstring): exact one-shot
        aggregation, or fixed-size chunks of scenario instances feeding
        the streaming accumulators — instances are generated, simulated
        and released chunk by chunk, so peak memory is flat in
        ``replications``.
    variance:
        Replication design and CI columns (see the module docstring):
        ``"antithetic"`` draws scenario instances in paired-seed couples
        whose interrupt traces reflect each other (structural randomness
        — task bags, machine counts, speeds — stays identical within a
        pair); ``"stratified"`` keeps independent seeds and
        post-stratifies standard errors over observed interrupt counts.
    profile:
        Optional mutable mapping receiving per-chunk stage accounting
        (``mc_chunks`` / ``mc_chunk_s_max``).
    family_kwargs:
        Extra keyword arguments forwarded to the scenario generator.

    Returns the aggregated ``work_*`` / ``tasks_*`` / ``interrupts_*``
    columns plus ``scenario`` and ``quantile_method`` labels.  Work is in
    the scenario's time unit (that of its contracts' lifespans ``U`` and
    set-up costs ``c``); task counts and interrupt counts are
    dimensionless; interrupts here are the *observed* owner reclaims,
    which may exceed the negotiated budget ``p`` for contract-breaking
    families.  Replication ``r`` samples scenario instance
    ``family(seed=replication_seed(base_seed, family_label, r, variance))``
    — the seed depends on the family, the (absolute) replication index
    and the variance mode only, never on the scheduler or the chunking,
    so different schedulers face identical instances (paired comparison)
    and chunked results are bit-identical for any chunk size.

    On the batch backend, inside a run (an :func:`instance_holder` that
    :func:`~repro.experiments.orchestrator.execute_points` opens around
    its in-process loop), those instances are built once per run and
    shared by the spec's schedulers: a call reuses the instance list the
    previous call built when the family, ``family_kwargs``, ``base_seed``,
    ``variance`` and replication range all match.  The batch simulator
    only reads its instances, so the rows are bit-identical either way.
    The event backend uses up each instance's task bag, so it builds
    fresh instances for every call, as do calls outside a run, pool
    children and cluster workers.
    """
    from ..simulator import CycleStealingSimulation

    # Stable label for seeding and reporting.  Never fall back to repr():
    # it embeds the object's memory address, which would break the
    # bit-identical determinism this module promises (e.g. for
    # functools.partial-wrapped families).
    family_label = (getattr(family, "__name__", None)
                    or getattr(getattr(family, "func", None), "__name__", None)
                    or type(family).__name__)

    def default_scheduler():
        from ..schedules import EqualizingAdaptiveScheduler
        return EqualizingAdaptiveScheduler()

    def instance(r: int):
        return family(seed=replication_seed(base_seed, family_label, r,
                                            variance), **family_kwargs)

    def held_instances(start: int, stop: int) -> list:
        """Instances ``[start, stop)``, shared through an open holder."""
        slot = _held_instances.get()
        key = (family, tuple(sorted(family_kwargs.items())), base_seed,
               variance, start, stop)
        try:
            hash(key)
        except TypeError:
            slot = None  # mutable kwargs may change between calls: never hold
        if slot is None:
            return [instance(r) for r in range(start, stop)]
        held = slot[0]
        if held is not None and held[0] == key:
            return held[1]
        # Release the held set first: at most one set is alive at a time.
        held = slot[0] = None
        built = [instance(r) for r in range(start, stop)]
        slot[0] = (key, built)
        return built

    def play(start: int, stop: int):
        if backend == "batch":
            from ..simulator.batch import simulate_scenarios_batch

            scenarios = held_instances(start, stop)
            run_scheduler = scheduler
            if scheduler is None and scheduler_factory is None:
                run_scheduler = default_scheduler()
            reports = simulate_scenarios_batch(
                scenarios, run_scheduler, scheduler_factory=scheduler_factory)
        else:
            reports = []
            for r in range(start, stop):
                scenario = instance(r)
                if scheduler is None and scheduler_factory is None:
                    run_scheduler = default_scheduler()
                else:
                    run_scheduler = scheduler
                sim = CycleStealingSimulation(
                    scenario.workstations, run_scheduler,
                    task_bag=scenario.task_bag,
                    scheduler_factory=scheduler_factory)
                reports.append(sim.run())
        return ([report.total_work for report in reports],
                [float(report.total_tasks_completed) for report in reports],
                [float(report.total_interrupts) for report in reports])

    return {"scenario": family_label,
            **_replicate(play, replications, ("work", "tasks", "interrupts"),
                         ("work", "tasks"), backend=backend,
                         aggregation=aggregation, chunk_size=chunk_size,
                         variance=variance, profile=profile)}
