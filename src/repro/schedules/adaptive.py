"""Adaptive scheduling guidelines (Sections 3.2, 4.2 and 5 of the paper).

Two adaptive schedulers are provided.

:class:`EqualizingAdaptiveScheduler`
    The constructive form of the paper's guideline methodology
    (Theorem 4.3): period lengths are chosen so that every option available
    to the adversary — interrupting at the last instant of any period —
    has the same consequence for the total work.  The construction needs an
    estimate ("oracle") of the optimal work ``W^(p−1)[L]`` achievable with
    one fewer interrupt; by default the closed-form approximation of
    Theorem 5.1 is used, and an exact dynamic-programming oracle can be
    plugged in instead (see :mod:`repro.dp`).

:class:`RosenbergAdaptiveScheduler`
    The literal printed episode-schedules ``S_a^(p)[U]`` of Section 3.2:
    a tail of ``⌈2p/3⌉`` periods of length ``3c/2`` preceded by periods in
    arithmetic progression with common difference ``4^{1−p}·c``.  For
    ``p = 1`` this coincides with the right-hand column of Table 2.  (Some
    constants for ``p ≥ 2`` are corrupted in the available OCR of the
    paper; see DESIGN.md — the arithmetic-progression structure is
    implemented as printed and its measured deviation from Theorem 5.1 is
    reported in EXPERIMENTS.md.)

Both construct episode-schedules *backwards* (from the end of the residual
lifespan towards its beginning), which makes the Theorem 4.3 recurrence
explicit: the frontmost period simply absorbs whatever lifespan is left.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional

import numpy as np

from ..analysis import bounds
from ..core.exceptions import SchedulingError
from ..core.game import _offsets, _row_layout, _ScheduleRows
from ..core.schedule import EpisodeSchedule
from .base import AdaptiveScheduler

__all__ = ["EqualizingAdaptiveScheduler", "RosenbergAdaptiveScheduler", "WorkOracle"]


#: Type of the work oracle used by the equalising construction:
#: ``oracle(residual_lifespan, interrupts_remaining, setup_cost) -> work``.
WorkOracle = Callable[[float, int, float], float]


def _closed_form_oracle(residual: float, interrupts: int, setup_cost: float) -> float:
    """Default oracle: the closed-form optimal-work approximation (Thm 5.1)."""
    return bounds.closed_form_optimal_work(residual, setup_cost, interrupts)


class _BackwardPrefix:
    """Shared backward construction state for one ``(p, c)`` episode family.

    Both guideline schedulers build episode-schedules *backwards*: a short
    tail, then body periods whose values depend only on how much lifespan
    has been placed behind them — never on the residual lifespan ``L``
    itself.  ``L`` enters solely through two cutoffs (how much of the tail
    fits, and where the frontmost period absorbs the remainder).  One
    lazily-extended prefix therefore serves every residual of a batch, and
    each row's schedule is a slice of it plus its own front period — with
    float-for-float the same values as the scalar construction.
    """

    __slots__ = ("short", "tail_count", "tail_end", "body_t", "body_placed",
                 "prev_t", "placed", "capped")

    def __init__(self, short: float, tail_count: int, tail_end: float,
                 prev_t: float, capped: bool):
        self.short = short
        self.tail_count = tail_count
        self.tail_end = tail_end          # lifespan placed by the full tail
        self.body_t: List[float] = []     # body period lengths, back to front
        self.body_placed: List[float] = []  # placed-total after each body append
        self.prev_t = prev_t
        self.placed = tail_end
        self.capped = capped              # max_periods reached while extending


def _assemble_from_prefix(scheduler, values: List[float], p: int, c: float,
                          state: Optional[_BackwardPrefix],
                          max_periods: int) -> _ScheduleRows:
    """Lay out one batch of episode-schedules from one shared backward prefix.

    Read backwards, every row the prefix serves is a prefix of the placement
    order ``short × tail, body_t[0], body_t[1], ...`` closed by its own
    front period; read forwards it is that front followed by a suffix of
    the reversed placement order.  A single long period is a bare front; a
    row covered by the tail alone is a short front and ``tail_count - 1``
    tail periods; a front sliver merges into its neighbour, which becomes
    the front.  The fronts and suffix lengths are worked out for the whole
    batch at once, and each block of the
    :class:`~repro.core.game._ScheduleRows` layout takes its suffixes in
    one masked copy of the reversed placement order.  Residuals the prefix
    cannot serve bit-identically — shorter than the full tail, hitting the
    ``max_periods`` cap, non-positive or non-finite — fall back to the scalar
    ``episode_schedule`` (which also raises the scalar error messages), so
    every row is float-for-float what a per-residual loop would have
    produced.
    """
    lifespans = np.asarray(values, dtype=float).reshape(-1)
    n = lifespans.size
    positive = (lifespans > 0.0) & np.isfinite(lifespans)
    single = positive if p == 0 or c == 0.0 else positive & (lifespans <= 2.0 * c)
    front = lifespans.copy()
    suffix = np.zeros(n, dtype=np.int64)  # periods after the front
    scalar = ~single
    placement = np.empty(0)               # reversed placement order
    if state is not None and not state.capped:
        body_t = np.asarray(state.body_t)
        placement = np.concatenate([body_t[::-1],
                                    np.full(state.tail_count, state.short)])
        tail_only = scalar & positive & (lifespans == state.tail_end)
        front[tail_only] = state.short
        suffix[tail_only] = state.tail_count - 1
        scalar &= ~tail_only
        rows = np.flatnonzero(scalar & (lifespans > state.tail_end))
        if rows.size and body_t.size:
            placed_before = np.empty(body_t.size)
            placed_before[0] = state.tail_end
            placed_before[1:] = state.body_placed[:-1]
            # The scalar loop stops at the first body period with
            # ``t >= remaining - 1e-12`` and lets the front period absorb
            # the remainder; replaying the comparison element-for-element
            # keeps the cut-off (and the front period's value)
            # bit-identical.  The rows × body matrix is the batch's
            # largest array, so it is shifted in place.
            gap = lifespans[rows, None] - placed_before
            gap -= 1e-12
            stop = body_t >= gap
            del gap
            cut = stop.argmax(axis=1)
            served = stop.any(axis=1) & (state.tail_count + cut + 1 <= max_periods)
            del stop
            rows, cut = rows[served], cut[served]
            lead = lifespans[rows] - placed_before[cut]
            merge = (lead < max(c, 1e-12) * 1e-6) & (state.tail_count + cut >= 1)
            neighbour = np.where(cut > 0, body_t[cut - 1], state.short)
            front[rows] = np.where(merge, neighbour + lead, lead)
            suffix[rows] = state.tail_count + cut - merge
            scalar[rows] = False
    scalar_periods = {i: scheduler.episode_schedule(values[i], p, c).periods
                      for i in np.flatnonzero(scalar).tolist()}
    counts = 1 + suffix
    for i, periods in scalar_periods.items():
        counts[i] = periods.size  # a placeholder suffix, overwritten below

    states, blocks = _row_layout(counts)
    laid = counts[states]
    row_starts = _offsets(laid)
    flat = np.empty(int(laid.sum()))
    flat[row_starts] = front[states]
    # Suffixes are copied a block at a time, in runs of rows whose lengths
    # share a bit length (rows are count-sorted in a block), so no mask is
    # more than twice the periods it selects.
    lengths = laid - 1
    bits = np.frexp(lengths)[1]
    for lo, hi in blocks:
        new_run = np.ones(hi - lo, dtype=bool)
        np.not_equal(bits[lo + 1:hi], bits[lo:hi - 1], out=new_run[1:])
        edges = [*(lo + np.flatnonzero(new_run)).tolist(), hi]
        for first, stop in zip(edges[:-1], edges[1:]):
            width = int(lengths[stop - 1])
            if not width:
                continue
            source = placement[max(placement.size - width, 0):]
            if source.size < width:  # only scalar rows are this long
                source = np.concatenate([np.zeros(width - source.size), source])
            begin = int(row_starts[first])
            span = flat[begin:begin + int(laid[first:stop].sum())]
            after_front = np.ones(span.size, dtype=bool)
            after_front[row_starts[first:stop] - begin] = False
            span[after_front] = np.broadcast_to(source, (stop - first, width))[
                np.arange(width) >= (width - lengths[first:stop])[:, None]]
    at = np.empty(n, dtype=np.int64)
    at[states] = row_starts
    for i, periods in scalar_periods.items():
        flat[at[i]:at[i] + periods.size] = periods
    flat.setflags(write=False)
    return _ScheduleRows(flat, laid, states, blocks)


class _BackwardScheduler(AdaptiveScheduler):
    """The batch construction both guideline schedulers share; each
    extends its own prefix (``_ensure_prefix``) up to a batch's longest
    residual."""

    def _episode_rows(self, residual_lifespans, interrupts_remaining: int,
                      setup_cost: float) -> _ScheduleRows:
        """The batch as flat rows, the form the referee reads."""
        p = int(interrupts_remaining)
        c = float(setup_cost)
        values = [float(x) for x in residual_lifespans]
        # A non-finite residual takes the scalar path, which rejects it; it
        # must not stretch the shared prefix towards max_periods first.
        finite = [x for x in values if math.isfinite(x)]
        state = None
        if p > 0 and c > 0.0 and finite:
            state = self._ensure_prefix(p, c, max(finite))
        return _assemble_from_prefix(self, values, p, c, state, self.max_periods)


class EqualizingAdaptiveScheduler(_BackwardScheduler):
    """Adaptive guideline built from the equalisation recurrence (Thm 4.3).

    Parameters
    ----------
    oracle:
        Estimate of ``W^(q)[L]`` used inside the recurrence,
        ``oracle(L, q, c)``.  Defaults to the paper's closed-form
        approximation; pass :meth:`repro.dp.ValueTable.as_oracle` for the
        exact discretised optimum.
    tail_epsilon:
        The ``ε ∈ (0, 1]`` of the short tail periods ``(1 + ε)c``
        (Theorem 4.2 allows any value in ``(0, 1]``; the paper's guideline
        uses ``1/2``, i.e. periods of ``3c/2``).
    max_periods:
        Safety cap on the number of periods per episode.

    Notes
    -----
    The episode-schedule is generated backwards.  Let ``R`` be the total
    length of the periods already placed behind the current position
    (i.e. the residual lifespan after the current period completes) and let
    ``t_next`` be the most recently placed period.  The Theorem 4.3
    recurrence reads ``t = c + W^{(p−1)}[R] − W^{(p−1)}[R − t_next]``, which
    is fully explicit in this order.  Periods whose *starting* residual is
    at most ``p·c`` — from which nothing could be guaranteed after an
    interrupt — use the short-period rule ``(1 + ε)c`` instead
    (the ``ℓ_p`` transition of Theorem 4.3 / Theorem 4.2).
    """

    name = "equalizing-adaptive"

    def __init__(self, oracle: Optional[WorkOracle] = None,
                 tail_epsilon: float = 0.5, max_periods: int = 2_000_000):
        if not (0.0 < tail_epsilon <= 1.0):
            raise ValueError(f"tail_epsilon must lie in (0, 1], got {tail_epsilon!r}")
        self.oracle: WorkOracle = oracle if oracle is not None else _closed_form_oracle
        self.tail_epsilon = float(tail_epsilon)
        self.max_periods = int(max_periods)
        self._prefix_cache: dict = {}

    def episode_schedule(self, residual_lifespan: float, interrupts_remaining: int,
                         setup_cost: float) -> EpisodeSchedule:
        """Return the equalising episode-schedule for the residual state."""
        L = float(residual_lifespan)
        c = float(setup_cost)
        p = int(interrupts_remaining)
        if not (L > 0.0 and math.isfinite(L)):
            raise SchedulingError(
                f"residual lifespan must be positive and finite, got {L!r}")
        if p == 0 or c == 0.0 or L <= 2.0 * c:
            # No adversary moves left, or the lifespan is too short for more
            # than (roughly) one productive period: one long period.
            return EpisodeSchedule.single_period(L)

        short = (1.0 + self.tail_epsilon) * c
        periods_rev: List[float] = []   # periods from the episode's end backwards
        placed = 0.0                    # residual lifespan after the current period
        prev_t = 0.0
        tol = 1e-12 * max(c, 1.0)

        # --- short tail (Theorem 4.2 / the ℓ_p transition) ------------------
        # While the residual lifespan behind the current position is still in
        # the zero-work region of the (p-1)-interrupt problem, the recurrence
        # would emit non-productive periods of length exactly c; instead the
        # guideline uses short periods of (1 + ε)c there.
        while (placed + short <= L
               and self.oracle(placed, p - 1, c) <= tol
               and len(periods_rev) < self.max_periods):
            periods_rev.append(short)
            placed += short
            prev_t = short

        if not periods_rev:
            # Lifespan so short that not even one tail period fits behind the
            # front period; fall back to a single long period.
            return EpisodeSchedule.single_period(L)

        # --- equalising body (Theorem 4.3 recurrence, backwards) -----------
        while placed < L and len(periods_rev) < self.max_periods:
            w_here = self.oracle(placed, p - 1, c)
            w_prev = self.oracle(max(0.0, placed - prev_t), p - 1, c)
            t = c + max(0.0, w_here - w_prev)
            t = max(t, c * 1e-9 if c > 0 else 1e-9)
            remaining = L - placed
            if t >= remaining - 1e-12:
                # Frontmost period: absorb exactly what is left.
                periods_rev.append(remaining)
                placed = L
                break
            periods_rev.append(t)
            placed += t
            prev_t = t

        if placed < L - 1e-9:
            # Degenerate fall-out (e.g. max_periods hit): cover the rest with
            # one long front period so the schedule spans the lifespan.
            periods_rev.append(L - placed)

        periods = list(reversed(periods_rev))
        if not periods:
            return EpisodeSchedule.single_period(L)
        # Merge a vanishingly small front sliver into its neighbour.
        if len(periods) >= 2 and periods[0] < max(c, 1e-12) * 1e-6:
            periods[1] += periods[0]
            periods = periods[1:]
        return EpisodeSchedule(periods)

    def episode_schedule_batch(self, residual_lifespans, interrupts_remaining: int,
                               setup_cost: float) -> List[EpisodeSchedule]:
        """Vectorized :meth:`episode_schedule` over many residual lifespans.

        All residuals of one ``(interrupts_remaining, setup_cost)`` state
        share the backward tail/body prefix; each row only gets its own
        cut-off and front period.  Bit-identical to the scalar construction
        (residuals the prefix cannot serve fall back to it): one read-only
        view per residual of the buffer :meth:`_episode_rows` lays out.
        """
        return self._episode_rows(residual_lifespans, interrupts_remaining,
                                  setup_cost).schedules()


    def _ensure_prefix(self, p: int, c: float,
                       limit: float) -> Optional[_BackwardPrefix]:
        key = (p, c)
        state = self._prefix_cache.get(key)
        tol = 1e-12 * max(c, 1.0)
        if state is None:
            short = (1.0 + self.tail_epsilon) * c
            placed = 0.0
            count = 0
            capped = False
            # The ℓ_p transition: short periods while the residual behind the
            # current position is still in the zero-work region (the scalar
            # loop's L-cutoff only truncates rows the assembly falls back on).
            # A degenerate oracle that never leaves the zero-work region must
            # not spin to max_periods: a tail longer than every residual of
            # the batch serves no row, so cap there and let the scalar
            # construction (bounded by its own L-cutoff) handle everything.
            limit_capped = False
            while self.oracle(placed, p - 1, c) <= tol:
                if count >= self.max_periods:
                    capped = True
                    break
                if placed > limit:
                    capped = limit_capped = True
                    break
                placed += short
                count += 1
            state = _BackwardPrefix(short=short, tail_count=count, tail_end=placed,
                                    prev_t=short, capped=capped)
            if not limit_capped:
                # A limit-induced cap is batch-specific — a later batch with
                # larger residuals must rebuild rather than inherit it.
                self._prefix_cache[key] = state
        if state.capped or state.tail_count == 0:
            return state
        while state.placed <= limit and not state.capped:
            self._extend_body(state, p, c)
        if len(state.body_placed) < 2 or state.body_placed[-2] <= limit:
            self._extend_body(state, p, c)  # one spare: every row finds its cut-off
        return state

    def _extend_body(self, state: _BackwardPrefix, p: int, c: float) -> None:
        if state.capped:
            return
        w_here = self.oracle(state.placed, p - 1, c)
        w_prev = self.oracle(max(0.0, state.placed - state.prev_t), p - 1, c)
        t = c + max(0.0, w_here - w_prev)
        t = max(t, c * 1e-9 if c > 0 else 1e-9)
        state.body_t.append(t)
        state.placed += t
        state.body_placed.append(state.placed)
        state.prev_t = t
        if state.tail_count + len(state.body_t) >= self.max_periods:
            state.capped = True

    def predicted_work(self, lifespan: float, setup_cost: float,
                       max_interrupts: int) -> float:
        """Theorem 5.1's closed-form prediction for this guideline."""
        return bounds.adaptive_guarantee(lifespan, setup_cost, max_interrupts)


class RosenbergAdaptiveScheduler(_BackwardScheduler):
    """The literal ``S_a^(p)[U]`` episode-schedules of Section 3.2.

    Parameters
    ----------
    tail_epsilon:
        ε of the tail periods ``(1 + ε)c``; the paper uses ``1/2``.

    Structure (built backwards from the episode's end):

    * the last ``ℓ_p = ⌈2p/3⌉`` periods have length ``3c/2``;
    * earlier periods form an arithmetic progression with common difference
      ``4^{1−p}·c`` (``t_k = t_{k+1} + 4^{1−p}c``), continued until the
      residual lifespan is covered; the frontmost period absorbs the
      remainder.

    For ``p = 1`` this reproduces the right-hand column of Table 2
    (``m = ⌊√(2U/c)⌋ + 2``, ``t_k ≈ √(2cU) − (k − 7/2)c``, two tail periods
    of ``3c/2``) up to the frontmost-period rounding.
    """

    name = "rosenberg-adaptive"

    def __init__(self, tail_epsilon: float = 0.5, max_periods: int = 2_000_000):
        if not (0.0 < tail_epsilon <= 1.0):
            raise ValueError(f"tail_epsilon must lie in (0, 1], got {tail_epsilon!r}")
        self.tail_epsilon = float(tail_epsilon)
        self.max_periods = int(max_periods)
        self._prefix_cache: dict = {}

    @staticmethod
    def tail_period_count(interrupts_remaining: int) -> int:
        """``ℓ_p = ⌈2p/3⌉`` — how many short tail periods the guideline uses."""
        p = int(interrupts_remaining)
        return int(math.ceil(2.0 * p / 3.0)) if p > 0 else 0

    @staticmethod
    def period_increment(interrupts_remaining: int, setup_cost: float) -> float:
        """Arithmetic-progression increment ``4^{1−p}·c`` of the body periods."""
        p = int(interrupts_remaining)
        return float(setup_cost) * 4.0 ** (1 - p)

    def episode_schedule(self, residual_lifespan: float, interrupts_remaining: int,
                         setup_cost: float) -> EpisodeSchedule:
        """Return the literal guideline episode-schedule for the residual state."""
        L = float(residual_lifespan)
        c = float(setup_cost)
        p = int(interrupts_remaining)
        if not (L > 0.0 and math.isfinite(L)):
            raise SchedulingError(
                f"residual lifespan must be positive and finite, got {L!r}")
        if p == 0 or c == 0.0 or L <= 2.0 * c:
            return EpisodeSchedule.single_period(L)

        short = (1.0 + self.tail_epsilon) * c
        increment = self.period_increment(p, c)
        periods_rev: List[float] = []
        placed = 0.0
        t = short

        # Short tail of ℓ_p periods.
        for _ in range(self.tail_period_count(p)):
            if placed + short > L:
                break
            periods_rev.append(short)
            placed += short

        # Arithmetic-progression body.
        while placed < L and len(periods_rev) < self.max_periods:
            t = t + increment
            remaining = L - placed
            if t >= remaining - 1e-12:
                periods_rev.append(remaining)
                placed = L
                break
            periods_rev.append(t)
            placed += t

        if placed < L - 1e-9:
            periods_rev.append(L - placed)

        periods = list(reversed(periods_rev))
        if not periods:
            return EpisodeSchedule.single_period(L)
        if len(periods) >= 2 and periods[0] < max(c, 1e-12) * 1e-6:
            periods[1] += periods[0]
            periods = periods[1:]
        return EpisodeSchedule(periods)

    def episode_schedule_batch(self, residual_lifespans, interrupts_remaining: int,
                               setup_cost: float) -> List[EpisodeSchedule]:
        """Vectorized :meth:`episode_schedule` (see the equalizing variant)."""
        return self._episode_rows(residual_lifespans, interrupts_remaining,
                                  setup_cost).schedules()

    def _ensure_prefix(self, p: int, c: float,
                       limit: float) -> Optional[_BackwardPrefix]:
        key = (p, c)
        state = self._prefix_cache.get(key)
        if state is None:
            short = (1.0 + self.tail_epsilon) * c
            placed = 0.0
            count = self.tail_period_count(p)
            for _ in range(count):
                placed += short
            state = _BackwardPrefix(short=short, tail_count=count, tail_end=placed,
                                    prev_t=short, capped=count >= self.max_periods)
            self._prefix_cache[key] = state
        if state.capped or state.tail_count == 0:
            return state
        increment = self.period_increment(p, c)
        while state.placed <= limit and not state.capped:
            self._extend_body(state, increment)
        if len(state.body_placed) < 2 or state.body_placed[-2] <= limit:
            self._extend_body(state, increment)  # one spare: every row finds its cut-off
        return state

    def _extend_body(self, state: _BackwardPrefix, increment: float) -> None:
        if state.capped:
            return
        t = state.prev_t + increment
        state.body_t.append(t)
        state.placed += t
        state.body_placed.append(state.placed)
        state.prev_t = t
        if state.tail_count + len(state.body_t) >= self.max_periods:
            state.capped = True

    def predicted_work(self, lifespan: float, setup_cost: float,
                       max_interrupts: int) -> float:
        """Theorem 5.1's closed-form prediction for this guideline."""
        return bounds.adaptive_guarantee(lifespan, setup_cost, max_interrupts)
