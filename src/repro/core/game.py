"""The cycle-stealing game: schedulers vs. adversaries (Section 4).

The paper views a cycle-stealing opportunity as a game.  The owner of
workstation A moves first by committing to an episode-schedule for the
current residual lifespan; the owner of workstation B (the adversary) then
either lets the episode run to completion or interrupts it, nullifying the
remaining lifespan of the interrupted period's prefix and sending the game
back to A with one fewer interrupt available.

This module provides:

* :class:`AdaptiveSchedulerProtocol` / :class:`NonAdaptiveSchedulerProtocol`
  / :class:`AdversaryProtocol` — structural typing contracts implemented by
  :mod:`repro.schedules` and :mod:`repro.adversary`.
* :func:`play_adaptive` and :func:`play_nonadaptive` — referee functions
  that play one full opportunity and return a :class:`GameResult`.
* :func:`guaranteed_adaptive_work` — a memoised minimax that computes the
  *worst-case* (guaranteed) work of an adaptive scheduler exactly, by
  letting the adversary explore every period-end interrupt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Sequence, Tuple, runtime_checkable

import numpy as np

from .arithmetic import positive_subtraction
from .exceptions import InvalidScheduleError, SchedulingError
from .params import CycleStealingParams
from .schedule import (EpisodeRecord, EpisodeSchedule, OpportunitySchedule,
                       exceeds_lifespan)
from .work import episode_elapsed, episode_work

__all__ = [
    "AdaptiveSchedulerProtocol",
    "NonAdaptiveSchedulerProtocol",
    "AdversaryProtocol",
    "GameResult",
    "play_adaptive",
    "play_nonadaptive",
    "guaranteed_adaptive_work",
    "guaranteed_adaptive_work_reference",
]


# ----------------------------------------------------------------------
# Protocols
# ----------------------------------------------------------------------
@runtime_checkable
class AdaptiveSchedulerProtocol(Protocol):
    """A scheduler that re-plans after every interrupt.

    Implementations must be deterministic functions of
    ``(residual_lifespan, interrupts_remaining, setup_cost)`` for the
    guaranteed-work evaluation to be meaningful.
    """

    def episode_schedule(self, residual_lifespan: float, interrupts_remaining: int,
                         setup_cost: float) -> EpisodeSchedule:
        """Return the episode-schedule for the given residual state."""
        ...  # pragma: no cover - protocol


@runtime_checkable
class NonAdaptiveSchedulerProtocol(Protocol):
    """A scheduler that commits to a single schedule for the whole lifespan."""

    def opportunity_schedule(self, params: CycleStealingParams) -> EpisodeSchedule:
        """Return the single schedule used for the entire opportunity."""
        ...  # pragma: no cover - protocol


@runtime_checkable
class AdversaryProtocol(Protocol):
    """The owner of workstation B deciding where (whether) to interrupt."""

    def choose_interrupt(self, schedule: EpisodeSchedule, residual_lifespan: float,
                         interrupts_remaining: int, setup_cost: float) -> Optional[float]:
        """Return an episode-relative interrupt time, or ``None`` to abstain.

        The returned time must lie in ``[0, schedule.total_length)``.
        """
        ...  # pragma: no cover - protocol


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GameResult:
    """Outcome of one played cycle-stealing opportunity."""

    #: Parameters of the opportunity that was played.
    params: CycleStealingParams
    #: Total work accomplished, the paper's ``W``.
    total_work: float
    #: Per-episode transcript.
    transcript: OpportunitySchedule

    @property
    def num_interrupts(self) -> int:
        """How many interrupts the adversary actually used."""
        return self.transcript.num_interrupts

    @property
    def num_episodes(self) -> int:
        """How many episodes were played."""
        return self.transcript.num_episodes

    @property
    def efficiency(self) -> float:
        """Fraction of the usable lifespan converted into work, ``W / U``."""
        return self.total_work / self.params.lifespan

    @property
    def loss(self) -> float:
        """Lifespan not converted into work, ``U − W``."""
        return self.params.lifespan - self.total_work


# ----------------------------------------------------------------------
# Referees
# ----------------------------------------------------------------------
def _checked_schedule(scheduler: AdaptiveSchedulerProtocol, residual: float,
                      interrupts_remaining: int, setup_cost: float) -> EpisodeSchedule:
    schedule = scheduler.episode_schedule(residual, interrupts_remaining, setup_cost)
    if not isinstance(schedule, EpisodeSchedule):
        raise SchedulingError(
            f"scheduler returned {type(schedule).__name__}, expected EpisodeSchedule"
        )
    try:
        schedule.validate_for_lifespan(residual, require_exact=False)
    except InvalidScheduleError as exc:
        raise SchedulingError(
            f"scheduler produced an inadmissible schedule for residual {residual!r}: {exc}"
        ) from exc
    return schedule


def play_adaptive(scheduler: AdaptiveSchedulerProtocol,
                  adversary: AdversaryProtocol,
                  params: CycleStealingParams) -> GameResult:
    """Play one opportunity with an adaptive scheduler.

    The scheduler is consulted at the start of the opportunity and again
    after every interrupt; the adversary is consulted once per episode and
    may return ``None`` (no interrupt) or an episode-relative time.

    Interrupts returned by the adversary once its budget is exhausted are
    ignored (the referee enforces the budget).
    """
    residual = params.lifespan
    interrupts_left = params.max_interrupts
    transcript = OpportunitySchedule()
    c = params.setup_cost

    while residual > 0.0:
        schedule = _checked_schedule(scheduler, residual, interrupts_left, c)
        interrupt: Optional[float] = None
        if interrupts_left > 0:
            interrupt = adversary.choose_interrupt(schedule, residual, interrupts_left, c)
            if interrupt is not None:
                interrupt = float(interrupt)
                if not (0.0 <= interrupt < schedule.total_length):
                    raise SchedulingError(
                        f"adversary chose interrupt time {interrupt!r} outside "
                        f"[0, {schedule.total_length!r})"
                    )
        work = episode_work(schedule, c, interrupt)
        elapsed = episode_elapsed(schedule, interrupt)
        transcript.append(EpisodeRecord(
            schedule=schedule,
            residual_lifespan=residual,
            interrupts_remaining=interrupts_left,
            interrupt_time=interrupt,
            work=work,
            elapsed=elapsed,
        ))
        if interrupt is None:
            # Episode ran to completion.  Whatever lifespan the schedule did
            # not cover (schedulers may under-commit by a rounding margin)
            # is unusable without a new episode, and no new episode starts
            # without an interrupt, so the opportunity ends here.
            break
        residual -= elapsed
        interrupts_left -= 1
        if residual <= 0.0:
            break

    return GameResult(params=params,
                      total_work=transcript.total_work,
                      transcript=transcript)


def play_nonadaptive(scheduler: NonAdaptiveSchedulerProtocol,
                     adversary: AdversaryProtocol,
                     params: CycleStealingParams,
                     *, extend_final_period: bool = True) -> GameResult:
    """Play one opportunity with a non-adaptive scheduler.

    The scheduler commits to a single schedule covering the lifespan.  After
    an interrupt in period ``i`` the owner of A obliviously continues with
    the tail ``t_{i+1}, ...``; after the ``p``-th interrupt the remainder of
    the lifespan is executed as one long period (the exception spelled out
    in Section 2.2).  The adversary is consulted before each remaining
    stretch with the tail it is facing.
    """
    base = scheduler.opportunity_schedule(params)
    if not isinstance(base, EpisodeSchedule):
        raise SchedulingError(
            f"scheduler returned {type(base).__name__}, expected EpisodeSchedule"
        )
    base.validate_for_lifespan(params.lifespan, require_exact=False)

    c = params.setup_cost
    lifespan = params.lifespan
    transcript = OpportunitySchedule()
    clock = 0.0
    interrupts_left = params.max_interrupts
    tail: Optional[EpisodeSchedule] = base

    while clock < lifespan:
        remaining = lifespan - clock
        if interrupts_left == 0 and params.max_interrupts > 0 and transcript.num_interrupts > 0:
            current = EpisodeSchedule.single_period(remaining)
        elif tail is None:
            if not extend_final_period:
                break
            current = EpisodeSchedule.single_period(remaining)
        else:
            current = tail.truncated_to(remaining)
            if current is None:
                break
            if extend_final_period and current.total_length < remaining:
                current = current.with_appended(remaining - current.total_length)

        interrupt: Optional[float] = None
        if interrupts_left > 0:
            interrupt = adversary.choose_interrupt(current, remaining, interrupts_left, c)
            if interrupt is not None:
                interrupt = float(interrupt)
                if not (0.0 <= interrupt < current.total_length):
                    raise SchedulingError(
                        f"adversary chose interrupt time {interrupt!r} outside "
                        f"[0, {current.total_length!r})"
                    )

        work = episode_work(current, c, interrupt)
        elapsed = episode_elapsed(current, interrupt)
        transcript.append(EpisodeRecord(
            schedule=current,
            residual_lifespan=remaining,
            interrupts_remaining=interrupts_left,
            interrupt_time=interrupt,
            work=work,
            elapsed=elapsed,
        ))
        if interrupt is None:
            break
        # Oblivious continuation: drop every period that has already begun
        # (completed or killed) and keep the rest.
        k = current.period_containing(min(interrupt, current.total_length * (1 - 1e-15))) \
            if current.total_length > 0 else 1
        tail = current.tail_from(k + 1)
        clock += elapsed
        interrupts_left -= 1

    return GameResult(params=params,
                      total_work=transcript.total_work,
                      transcript=transcript)


# ----------------------------------------------------------------------
# Exact guaranteed work of an adaptive scheduler (minimax referees)
# ----------------------------------------------------------------------
def guaranteed_adaptive_work_reference(scheduler: AdaptiveSchedulerProtocol,
                                       params: CycleStealingParams,
                                       *, residual_grain: float = 1e-6) -> float:
    """Exact worst-case work of an adaptive scheduler (recursive reference).

    Plays the minimax game: for the schedule the scheduler emits at each
    ``(residual lifespan, interrupts remaining)`` state, the adversary tries
    "no interrupt" and "interrupt at the last instant of period k" for every
    ``k`` (Observation (a): last instants dominate all other interrupt
    placements).  States are memoised on the residual lifespan rounded to
    ``residual_grain`` to keep the recursion polynomial; schedulers built
    from closed-form formulas revisit the same residuals constantly, so the
    memoisation is highly effective.

    This is the readable recursive formulation; the production referee is
    the level-ordered iterative :func:`guaranteed_adaptive_work`, which the
    property tests pin against this one to ``1e-9``.
    """
    _check_grain(residual_grain)
    c = params.setup_cost
    memo: Dict[Tuple[int, int], float] = {}

    def key(residual: float, p: int) -> Tuple[int, int]:
        return (int(round(residual / residual_grain)), p)

    def value(residual: float, p: int) -> float:
        if residual <= 0.0:
            return 0.0
        if p == 0:
            # Adversary is out of interrupts: scheduler gets the residual
            # uninterrupted.  Every sensible scheduler uses one long period,
            # but we honour whatever it returns.
            schedule = _checked_schedule(scheduler, residual, 0, c)
            return schedule.work_if_uninterrupted(c)
        k = key(residual, p)
        if k in memo:
            return memo[k]
        schedule = _checked_schedule(scheduler, residual, p, c)
        # Option: no interrupt.
        best_for_adversary = schedule.work_if_uninterrupted(c)
        # Options: interrupt at the last instant of period j.
        finishes = schedule.finish_times
        prefix_work = 0.0
        for j in range(1, schedule.num_periods + 1):
            continuation = value(residual - float(finishes[j - 1]), p - 1)
            candidate = prefix_work + continuation
            if candidate < best_for_adversary:
                best_for_adversary = candidate
            prefix_work += positive_subtraction(schedule[j - 1], c)
        memo[k] = best_for_adversary
        return best_for_adversary

    return value(params.lifespan, params.max_interrupts)


def _schedule_list(scheduler: AdaptiveSchedulerProtocol,
                   residuals: Sequence[float], p: int,
                   c: float) -> List[EpisodeSchedule]:
    """One :class:`EpisodeSchedule` per residual, batched when possible.

    Schedulers exposing ``episode_schedule_batch`` (the guideline
    schedulers share one backward prefix across a whole batch) amortise
    their construction over every state of a level.  A batch of the wrong
    length raises: zipping it with the residuals would pair schedules with
    the wrong states.
    """
    build = getattr(scheduler, "episode_schedule_batch", None)
    if build is not None:
        schedules = list(build(list(residuals), p, c))
    else:
        schedules = [scheduler.episode_schedule(residual, p, c)
                     for residual in residuals]
    _check_row_count(len(schedules), len(residuals))
    for schedule in schedules:
        if not isinstance(schedule, EpisodeSchedule):
            raise SchedulingError(
                f"scheduler returned {type(schedule).__name__}, "
                "expected EpisodeSchedule")
    return schedules


def _check_row_count(rows: int, residuals: int) -> None:
    if rows != residuals:
        raise SchedulingError(f"scheduler returned {rows} episode-schedules "
                              f"for {residuals} residual lifespans")


#: Most periods one array pass of :func:`guaranteed_adaptive_work` holds.
#: Blocks are whole states, so a single longer schedule is a block alone.
_BLOCK_PERIODS = 1 << 16


def _state_blocks(counts: np.ndarray, limit: Optional[int] = None):
    """``(start, stop)`` runs of consecutive states, each run holding at
    most ``limit`` periods (default :data:`_BLOCK_PERIODS`, read at call
    time), or one state that alone holds more.  The batch simulator blocks
    its replications' events the same way."""
    if limit is None:
        limit = _BLOCK_PERIODS
    start = total = 0
    for i, n in enumerate(counts.tolist()):
        if total and total + n > limit:
            yield start, i
            start, total = i, 0
        total += n
    if total:
        yield start, len(counts)


def _row_layout(counts: np.ndarray) -> Tuple[np.ndarray, List[Tuple[int, int]]]:
    """Where each state's row of ``counts[state]`` periods goes in a
    :class:`_ScheduleRows` layout: ``states`` (the state of each laid-out
    row) and the :func:`_state_blocks` blocks, count-sorted inside each."""
    blocks = list(_state_blocks(counts))
    states = np.arange(counts.size)
    for lo, hi in blocks:
        states[lo:hi] = lo + np.argsort(counts[lo:hi], kind="stable")
    return states, blocks


class _ScheduleRows:
    """The episode-schedules of a batch of states as rows of one read-only
    flat period array.

    Row ``k`` is the schedule of state ``states[k]``: ``counts[k]`` periods
    from ``starts[k]`` on.  Rows are laid out block by block (``blocks``,
    ``(lo, hi)`` row ranges that each hold the consecutive states
    ``lo..hi-1``, cut by :func:`_state_blocks`) and sorted by period count
    inside each block (:func:`_row_layout`), so a block is one
    :class:`_Rows` pass over a slice of :attr:`periods`, with nothing
    repacked.
    """

    __slots__ = ("periods", "counts", "states", "blocks", "starts")

    def __init__(self, periods: np.ndarray, counts: np.ndarray,
                 states: np.ndarray, blocks: List[Tuple[int, int]]):
        self.periods = periods
        self.counts = counts
        self.states = states
        self.blocks = blocks
        self.starts = _offsets(counts)

    @classmethod
    def pack(cls, schedules: Sequence[EpisodeSchedule]) -> "_ScheduleRows":
        """The rows of ``schedules`` (one per state), copied into the layout."""
        counts = _period_counts(schedules)
        states, blocks = _row_layout(counts)
        periods = np.concatenate([np.empty(0)] + [schedules[i].periods
                                                  for i in states.tolist()])
        periods.setflags(write=False)
        return cls(periods, counts[states], states, blocks)

    def schedules(self) -> List[EpisodeSchedule]:
        """One read-only view of :attr:`periods` per state, in state order."""
        out: List[Optional[EpisodeSchedule]] = [None] * self.counts.size
        view = EpisodeSchedule._from_readonly_view
        for state, start, count in zip(self.states.tolist(),
                                       self.starts.tolist(),
                                       self.counts.tolist()):
            out[state] = view(self.periods[start:start + count])
        return out  # type: ignore[return-value]


def _row_prefix_sums(arrays: Sequence[np.ndarray], counts: np.ndarray,
                     starts: np.ndarray) -> List[np.ndarray]:
    """Row-wise ``np.add.accumulate`` of flat arrays laid out as ``counts``.

    A prefix sum is sequential, so a row padded with trailing zeros keeps
    its own.  Adjacent rows whose counts share a bit length form a run,
    padded to one matrix of at most twice its periods and accumulated in
    one pass per array; rows sorted by count take the fewest runs.
    """
    outs = [np.empty_like(values) for values in arrays]
    if not counts.size:
        return outs
    bits = np.frexp(counts)[1]
    change = np.ones(counts.size, dtype=bool)
    np.not_equal(bits[1:], bits[:-1], out=change[1:])
    firsts = [*np.flatnonzero(change).tolist(), counts.size]
    begins = [*starts[firsts[:-1]].tolist(), arrays[0].size]
    for r0, r1, b0, b1 in zip(firsts[:-1], firsts[1:], begins[:-1], begins[1:]):
        widths = counts[r0:r1]
        keep = np.arange(int(widths.max())) < widths[:, None]
        padded = np.empty(keep.shape)
        for values, out in zip(arrays, outs):
            padded.fill(0.0)
            padded[keep] = values[b0:b1]
            np.add.accumulate(padded, axis=1, out=padded)
            out[b0:b1] = padded[keep]
    return outs


def _row_sums(values: np.ndarray, counts: np.ndarray,
              starts: np.ndarray) -> np.ndarray:
    """Row-wise ``np.add.reduce`` of a flat array laid out as ``counts``.

    ``np.add.reduce`` of a row is ``0.0`` plus numpy's pairwise sum of its
    periods, and so is ``np.add.reduceat`` over the row with a ``0.0`` put
    in front of it (a bare ``reduceat`` starts from the first period and
    differs in the last bit): one zero-led ``reduceat`` sums every row.
    """
    heads = starts + np.arange(counts.size)
    led = np.zeros(heads.size + values.size)
    body = np.ones(led.size, dtype=bool)
    body[heads] = False
    led[body] = values
    return np.add.reduceat(led, heads)


class _Rows:
    """Per-period sums of schedules laid out end to end in one flat array.

    Row ``r`` holds ``counts[r]`` periods from ``starts[r]`` on.  Every sum
    is the 1-D one of each row, bit for bit: ``finish`` (``T_j``) equals
    each schedule's ``finish_times``, ``total`` (only ``totals``) its
    ``total_length``, and with a set-up cost ``c``, ``running`` (work
    through period ``j``) and ``uninterrupted`` its prefix sums of
    ``t_j ⊖ c`` and ``work_if_uninterrupted``.  Prefix sums take a padded
    pass per run of rows whose counts share a bit length
    (:func:`_row_prefix_sums`), so rows sorted by count take the fewest;
    totals take one zero-led ``reduceat`` (:func:`_row_sums`).
    """

    def __init__(self, periods: np.ndarray, counts: np.ndarray,
                 c: Optional[float] = None, *, totals: bool = False):
        self.periods = periods
        self.counts = counts
        self.starts = starts = _offsets(counts)
        if totals:
            self.total = _row_sums(periods, counts, starts)
        if c is None:
            (self.finish,) = _row_prefix_sums([periods], counts, starts)
            return
        works = np.maximum(periods - c, 0.0)
        self.uninterrupted = _row_sums(works, counts, starts)
        self.finish, self.running = _row_prefix_sums([periods, works], counts,
                                                     starts)


def _level_rows(scheduler: AdaptiveSchedulerProtocol, residuals: np.ndarray,
                p: int, c: float) -> _ScheduleRows:
    """The referee's rows of one level, one schedule per residual.

    Schedulers with an array builder (``_episode_rows``: the guideline and
    fixed-period schedulers) lay the level out themselves; any other
    scheduler's schedules are packed into the same layout.  The flat array
    is checked once here: one non-empty row per residual, every period
    finite and positive.  Each row's length is checked per block, by
    :class:`_Block`.
    """
    build = getattr(scheduler, "_episode_rows", None)
    if build is None:
        rows = _ScheduleRows.pack(_schedule_list(scheduler, residuals.tolist(),
                                                 p, c))
    else:
        rows = build(residuals.tolist(), p, c)
    _check_row_count(rows.counts.size, residuals.size)
    _check_nonempty(rows.counts)
    periods = rows.periods
    valid = np.isfinite(periods) & (periods > 0.0)
    if not valid.all():
        bad = int(np.argmin(valid))
        row = int(np.searchsorted(rows.starts, bad, side="right")) - 1
        raise SchedulingError(
            f"scheduler produced an inadmissible schedule for residual "
            f"{float(residuals[rows.states[row]])!r}: period lengths must be "
            f"finite and positive, got {float(periods[bad])!r}")
    return rows


def _check_lengths(totals: np.ndarray, residuals: np.ndarray,
                   states: np.ndarray) -> None:
    """``validate_for_lifespan(require_exact=False)`` of every row at once
    (:func:`~repro.core.schedule.exceeds_lifespan`): row ``k`` is state
    ``states[k]``, and the first state that fails raises."""
    over = exceeds_lifespan(totals, residuals)
    if over.any():
        bad = np.flatnonzero(over)
        row = int(bad[np.argmin(states[bad])])
        residual, total = float(residuals[row]), float(totals[row])
        raise SchedulingError(
            f"scheduler produced an inadmissible schedule for residual "
            f"{residual!r}: schedule length {total!r} exceeds the residual "
            f"lifespan {residual!r}")


class _Block:
    """Block ``lo:hi`` of a level's :class:`_ScheduleRows` as :class:`_Rows`:
    per period ``children`` (``residual − T_j``) and, ``with_work``,
    ``banked`` (work banked before period ``j``); per row ``uninterrupted``,
    ``with_work``.  With ``check``, every row's length is checked against
    its residual."""

    def __init__(self, rows: _ScheduleRows, lo: int, hi: int,
                 residuals: np.ndarray, c: float, *, with_work: bool,
                 check: bool = False):
        self.lo = lo
        self.states = rows.states[lo:hi]
        self.counts = counts = rows.counts[lo:hi]
        first = int(rows.starts[lo])
        sums = _Rows(rows.periods[first:first + int(counts.sum())], counts,
                     c if with_work else None, totals=check)
        self.starts = sums.starts
        own = residuals[self.states]
        if check:
            _check_lengths(sums.total, own, self.states)
        self.children = np.repeat(own, counts) - sums.finish
        if with_work:
            self.uninterrupted = sums.uninterrupted
            # Banked before period j = running sum through period j - 1.
            self.banked = np.empty_like(sums.running)
            self.banked[1:] = sums.running[:-1]
            self.banked[self.starts] = 0.0

    def children_in_state_order(self) -> np.ndarray:
        """:attr:`children` with the rows back in state order."""
        rows = self.states - self.lo
        state_counts = np.empty_like(self.counts)
        state_counts[rows] = self.counts
        shift = np.repeat(_offsets(state_counts)[rows] - self.starts,
                          self.counts)
        ordered = np.empty_like(self.children)
        ordered[np.arange(shift.size) + shift] = self.children
        return ordered


def _offsets(counts: np.ndarray) -> np.ndarray:
    """Start offset of each row of ``counts`` periods in a flat array."""
    offsets = np.zeros(counts.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    return offsets


def _first_reached(keys: np.ndarray) -> np.ndarray:
    """Indices of each distinct key's first occurrence, in occurrence order."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    reached = np.zeros(keys.size, dtype=bool)
    reached[order[first]] = True
    return np.flatnonzero(reached)


def _period_counts(schedules: Sequence[EpisodeSchedule]) -> np.ndarray:
    counts = np.fromiter((schedule.num_periods for schedule in schedules),
                         dtype=np.int64, count=len(schedules))
    _check_nonempty(counts)
    return counts


def _check_nonempty(counts: np.ndarray) -> None:
    if counts.size and counts.min() < 1:
        raise SchedulingError("scheduler returned an episode-schedule "
                              "with no periods")


def _check_grain(residual_grain: float) -> None:
    if not (residual_grain > 0.0 and math.isfinite(residual_grain)):
        raise ValueError(f"residual_grain must be positive and finite, "
                         f"got {residual_grain!r}")


def guaranteed_adaptive_work(scheduler: AdaptiveSchedulerProtocol,
                             params: CycleStealingParams,
                             *, residual_grain: float = 1e-6) -> float:
    """Exact worst-case work of an adaptive scheduler (vectorized kernel).

    Semantically identical to :func:`guaranteed_adaptive_work_reference`
    (the same minimax game over the same memoised state lattice, pinned to
    ``1e-9`` by the property tests), but evaluated iteratively and in
    array passes instead of by per-state Python recursion:

    * the state lattice is discovered **level by level** — all states with
      ``q`` interrupts remaining sit on level ``q``, and every adversary
      option from level ``q`` lands on level ``q − 1``, so one downward
      discovery sweep followed by one upward evaluation sweep visits each
      state exactly once;
    * per level, all episode-schedules are built as one read-only flat
      period array (:class:`_ScheduleRows`): by the scheduler's array
      builder when it has one (the guideline schedulers share one backward
      prefix across the batch), else packed from its
      ``episode_schedule_batch`` list; the flat array is checked once per
      level and every row's length once per block;
    * each sweep handles a level in one array pass per block of whole
      states holding at most :data:`_BLOCK_PERIODS` periods, the blocks
      the rows are laid out in: the children of every state of the block
      at once, one ``searchsorted`` for their continuation values on the
      level below, and one ``np.minimum.reduceat`` for the adversary's
      minimisation over "interrupt at the last instant of period j" of
      every state.  Period prefix sums are row-sequential (the reference's
      ``+=`` order, see :class:`_Rows`), so every value is bit-identical to
      the per-state evaluation, and the children are recomputed in the
      upward sweep rather than kept, so memory stays bounded by a block.

    States are deduplicated exactly like the reference memo: levels
    ``q >= 1`` on the residual rounded to ``residual_grain`` (keeping the
    first-reached representative, found with a stable argsort), level
    ``0`` on the exact residual (the reference never memoises ``p = 0``).
    On gap sweeps over the guideline schedulers this kernel is an order of
    magnitude faster than the reference (see
    ``benchmarks/results/referee_speedup.*``).
    """
    _check_grain(residual_grain)
    c = params.setup_cost
    p_max = params.max_interrupts
    lifespan = params.lifespan
    if lifespan <= 0.0:
        return 0.0

    def lookup_keys(residuals: np.ndarray, level: int) -> np.ndarray:
        # The memo key of a state on ``level``: the exact residual on
        # level 0, the residual rounded to the grain above it.
        if level == 0:
            return residuals
        return np.rint(residuals / residual_grain).astype(np.int64)

    # ------------------------------------------------------------------
    # Phase 1: discover the state lattice level by level, downwards.
    # levels[q] holds the representative residuals of level q in
    # first-reach order.
    # ------------------------------------------------------------------
    levels: List[np.ndarray] = [np.empty(0)] * (p_max + 1)
    rows: List[Optional[_ScheduleRows]] = [None] * (p_max + 1)

    levels[p_max] = np.array([lifespan], dtype=float)
    for q in range(p_max, 0, -1):
        rows[q] = _level_rows(scheduler, levels[q], q, c)
        found_keys: List[np.ndarray] = []
        found: List[np.ndarray] = []
        for lo, hi in rows[q].blocks:
            children = _Block(rows[q], lo, hi, levels[q], c, with_work=False,
                              check=True).children_in_state_order()
            alive = children[children > 0.0]
            keys = lookup_keys(alive, q - 1)
            first = _first_reached(keys)
            found_keys.append(keys[first])
            found.append(alive[first])
        if found:
            # First reach within each block, then across blocks in order.
            keys = np.concatenate(found_keys)
            levels[q - 1] = np.concatenate(found)[_first_reached(keys)]

    # ------------------------------------------------------------------
    # Phase 2: evaluate upwards from level 0.
    # ------------------------------------------------------------------
    rows[0] = _level_rows(scheduler, levels[0], 0, c)
    for q in range(0, p_max + 1):
        values = np.empty(levels[q].size)
        for lo, hi in rows[q].blocks:
            block = _Block(rows[q], lo, hi, levels[q], c, with_work=True,
                           check=q == 0)
            block_values = block.uninterrupted
            if q > 0:
                # Adversary options: work banked before period j plus the
                # continuation value, against "no interrupt" as baseline.
                children = block.children
                alive = children > 0.0
                continuation = np.zeros(children.size)
                continuation[alive] = below_values[np.searchsorted(
                    below_keys, lookup_keys(children[alive], q - 1))]
                block_values = np.minimum(block_values, np.minimum.reduceat(
                    block.banked + continuation, block.starts))
            values[block.states] = block_values
        # Sorted lookup keys of this level for the level above.
        keys = lookup_keys(levels[q], q)
        order = np.argsort(keys, kind="stable")
        below_keys, below_values = keys[order], values[order]
    # Level p_max holds one state: the full lifespan.
    return float(values[0])
