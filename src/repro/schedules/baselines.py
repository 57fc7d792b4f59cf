"""Baseline schedulers the guidelines are compared against.

The paper motivates its guidelines by contrasting the two naive extremes —
"many short periods" (safe but communication-bound) and "few long periods"
(efficient but fragile) — and by contrast with prior NOW scheduling work
that auctions off *equal, fixed-size chunks* of a data-parallel job
(Atallah et al. [1]).  The baselines here make those alternatives concrete:

* :class:`SinglePeriodScheduler` — one long period (optimal only for p = 0);
* :class:`FixedPeriodScheduler` — fixed-size chunks, the "auction" style of
  prior work, with a chunk size the user picks (e.g. tuned to the expected
  number of interrupts, or simply a round number);
* :class:`GeometricPeriodScheduler` — periods growing geometrically, the
  classic "start cautious, then trust the machine" heuristic used by
  practical cycle-stealing systems;
* :class:`EqualSplitScheduler` — splits the lifespan into ``p + 1`` equal
  periods (one per potential episode), the natural first guess for a
  guaranteed-output schedule.

Each implements both the adaptive and the non-adaptive protocol so it can be
run through either referee and through the discrete-event simulator.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..core import game
from ..core.exceptions import SchedulingError
from ..core.game import _row_layout, _ScheduleRows
from ..core.params import CycleStealingParams
from ..core.schedule import EpisodeSchedule
from .base import AdaptiveScheduler, NonAdaptiveScheduler

__all__ = [
    "SinglePeriodScheduler",
    "FixedPeriodScheduler",
    "GeometricPeriodScheduler",
    "EqualSplitScheduler",
]


class SinglePeriodScheduler(AdaptiveScheduler, NonAdaptiveScheduler):
    """One long period covering the whole (residual) lifespan.

    This maximises output when no interrupt occurs but guarantees nothing as
    soon as a single interrupt is possible — the cautionary extreme of the
    paper's introduction.
    """

    name = "single-period"

    def episode_schedule(self, residual_lifespan: float, interrupts_remaining: int,
                         setup_cost: float) -> EpisodeSchedule:
        """Return the one-period schedule for the residual lifespan."""
        if residual_lifespan <= 0.0:
            raise SchedulingError("residual lifespan must be positive")
        return EpisodeSchedule.single_period(residual_lifespan)

    def opportunity_schedule(self, params: CycleStealingParams) -> EpisodeSchedule:
        """Return the one-period schedule for the whole lifespan."""
        return EpisodeSchedule.single_period(params.lifespan)


class FixedPeriodScheduler(AdaptiveScheduler, NonAdaptiveScheduler):
    """Fixed-size chunks of a user-chosen length.

    Parameters
    ----------
    period_length:
        The chunk size.  The final period of each episode absorbs whatever
        remainder is left so the lifespan is covered exactly.
    """

    name = "fixed-period"

    def __init__(self, period_length: float):
        if not period_length > 0.0:
            raise ValueError(f"period_length must be positive, got {period_length!r}")
        self.period_length = float(period_length)

    def describe(self) -> str:
        return f"{self.name}(t={self.period_length:g})"

    def _build(self, lifespan: float) -> EpisodeSchedule:
        if lifespan <= self.period_length:
            return EpisodeSchedule.single_period(lifespan)
        full = int(lifespan // self.period_length)
        lengths = [self.period_length] * full
        return EpisodeSchedule.from_period_lengths(lengths, lifespan)

    def episode_schedule(self, residual_lifespan: float, interrupts_remaining: int,
                         setup_cost: float) -> EpisodeSchedule:
        """Return fixed-size chunks covering the residual lifespan."""
        if residual_lifespan <= 0.0:
            raise SchedulingError("residual lifespan must be positive")
        return self._build(residual_lifespan)

    def episode_schedule_batch(self, residual_lifespans, interrupts_remaining: int,
                               setup_cost: float) -> List[EpisodeSchedule]:
        """:meth:`episode_schedule` for many residual lifespans, in array
        passes: one read-only view per residual of the buffer
        :meth:`_episode_rows` lays out."""
        return self._episode_rows(residual_lifespans, interrupts_remaining,
                                  setup_cost).schedules()

    def _episode_rows(self, residual_lifespans, interrupts_remaining: int,
                      setup_cost: float) -> _ScheduleRows:
        """The batch as flat rows, the form the referee reads.

        ``from_period_lengths`` lays out ``⌊L / t⌋`` chunks (at least one),
        subtracting ``t`` from the remaining lifespan chunk by chunk, and
        the last chunk absorbs what remains.  A row-wise
        ``np.subtract.accumulate`` of ``[L, t, t, ...]`` performs the same
        subtractions in the same order, so each row is bit for bit the
        scalar schedule.  Rows are laid out by their chunk count (the
        period count, unless rounding ends a row early), and rows of
        similar length share a pass of at most
        :data:`~repro.core.game._BLOCK_PERIODS` padded periods (a longer
        row is a pass alone).  Non-positive and non-finite residuals take
        the scalar path, which raises its errors.
        """
        values = np.array([float(x) for x in residual_lifespans])
        for i in np.flatnonzero(~((values > 0.0) & np.isfinite(values))).tolist():
            self.episode_schedule(float(values[i]), interrupts_remaining,
                                  setup_cost)
        chunks = np.maximum(values // self.period_length, 1.0).astype(np.int64)
        states, blocks = _row_layout(chunks)
        pieces, counts = [np.empty(0)], [np.empty(0, dtype=np.int64)]
        for lo, hi in blocks:
            rows = states[lo:hi]
            bounds = [0]
            for i, width in enumerate(chunks[rows].tolist()):
                if (i > bounds[-1]
                        and (i + 1 - bounds[-1]) * (width + 1) > game._BLOCK_PERIODS):
                    bounds.append(i)
            bounds.append(rows.size)
            for start, stop in zip(bounds[:-1], bounds[1:]):
                run = rows[start:stop]
                flat, run_counts = self._chunk_pass(values[run], chunks[run])
                pieces.append(flat)
                counts.append(run_counts)
        periods = np.concatenate(pieces)
        periods.setflags(write=False)
        return _ScheduleRows(periods, np.concatenate(counts), states, blocks)

    def _chunk_pass(self, lifespans: np.ndarray, chunks: np.ndarray):
        """The periods (flat) and period counts of rows sorted by chunk count."""
        t = self.period_length
        width = int(chunks[-1])
        steps = np.full((lifespans.size, width + 1), t)
        steps[:, 0] = lifespans
        remaining = np.subtract.accumulate(steps, axis=1)
        # The scalar loop takes min(t, remaining) while the remaining
        # lifespan stays positive, for at most the row's chunk count ...
        ahead = remaining[:, :width]
        keep = (ahead > 0.0) & (np.arange(width) < chunks[:, None])
        counts = keep.sum(axis=1)
        periods = np.minimum(ahead, t)
        # ... and the last chunk absorbs a positive remainder.
        left = remaining[np.arange(lifespans.size), counts]
        absorb = np.flatnonzero(left > 0.0)
        periods[absorb, counts[absorb] - 1] += left[absorb]
        return periods[keep], counts

    def opportunity_schedule(self, params: CycleStealingParams) -> EpisodeSchedule:
        """Return fixed-size chunks covering the whole lifespan."""
        return self._build(params.lifespan)


class GeometricPeriodScheduler(AdaptiveScheduler, NonAdaptiveScheduler):
    """Periods growing geometrically from an initial probe.

    Parameters
    ----------
    initial_length:
        Length of the first period (defaults to twice the set-up cost at
        schedule-construction time when left ``None``).
    growth:
        Multiplicative factor applied to successive periods (``> 1``).
    """

    name = "geometric-period"

    def __init__(self, initial_length: float = None, growth: float = 2.0):
        if not growth > 1.0:
            raise ValueError(f"growth must exceed 1, got {growth!r}")
        if initial_length is not None and not initial_length > 0.0:
            raise ValueError(f"initial_length must be positive, got {initial_length!r}")
        self.initial_length = initial_length
        self.growth = float(growth)

    def describe(self) -> str:
        return f"{self.name}(x{self.growth:g})"

    def _build(self, lifespan: float, setup_cost: float) -> EpisodeSchedule:
        first = self.initial_length if self.initial_length is not None else max(
            2.0 * setup_cost, lifespan * 1e-3)
        if first <= 0.0 or first >= lifespan:
            return EpisodeSchedule.single_period(lifespan)
        lengths = []
        t = first
        total = 0.0
        while total + t < lifespan:
            lengths.append(t)
            total += t
            t *= self.growth
        return EpisodeSchedule.from_period_lengths(lengths, lifespan)

    def episode_schedule(self, residual_lifespan: float, interrupts_remaining: int,
                         setup_cost: float) -> EpisodeSchedule:
        """Return geometrically growing periods for the residual lifespan."""
        if residual_lifespan <= 0.0:
            raise SchedulingError("residual lifespan must be positive")
        return self._build(residual_lifespan, setup_cost)

    def opportunity_schedule(self, params: CycleStealingParams) -> EpisodeSchedule:
        """Return geometrically growing periods for the whole lifespan."""
        return self._build(params.lifespan, params.setup_cost)


class EqualSplitScheduler(AdaptiveScheduler, NonAdaptiveScheduler):
    """Split the lifespan into ``p + 1`` equal periods (one per episode).

    The intuition "I can be interrupted p times, so give the machine p + 1
    pieces" is natural but badly suboptimal: the adversary still kills the
    piece in progress each time, so the guaranteed work is zero.  Keeping
    this baseline in the comparison benchmarks makes the value of the
    guideline's √-scaling visible.
    """

    name = "equal-split"

    def episode_schedule(self, residual_lifespan: float, interrupts_remaining: int,
                         setup_cost: float) -> EpisodeSchedule:
        """Return ``interrupts_remaining + 1`` equal periods."""
        if residual_lifespan <= 0.0:
            raise SchedulingError("residual lifespan must be positive")
        return EpisodeSchedule.equal_periods(residual_lifespan,
                                             max(1, interrupts_remaining + 1))

    def opportunity_schedule(self, params: CycleStealingParams) -> EpisodeSchedule:
        """Return ``p + 1`` equal periods covering the lifespan."""
        return EpisodeSchedule.equal_periods(params.lifespan,
                                             max(1, params.max_interrupts + 1))
