"""Work accounting for episode and opportunity schedules (Section 2.2).

This module turns the paper's definitions into executable functions:

* :func:`episode_work` — work accomplished by one episode given the time at
  which it was interrupted (or ``None`` for "ran to completion").
* :func:`nonadaptive_opportunity_work` — the paper's formula
  ``W(S) = Σ_{k∉I} (t_k ⊖ c) + ((U − T_{i_p}) ⊖ c)`` for a non-adaptive
  schedule ``S`` whose periods in the index set ``I`` are interrupted at
  their last instants (with the "one long final period after the p-th
  interrupt" exception).
* :func:`nonadaptive_work_under_times` — a more general simulator-style
  evaluation of a non-adaptive schedule against arbitrary interrupt *times*,
  used by the stochastic layers where interrupts do not conveniently land at
  period boundaries.
* :func:`worst_case_nonadaptive_work` — exact minimisation over the
  adversary's period-end interrupt patterns (dynamic programming over the
  choice of interrupted periods), used to measure the true guaranteed work
  of any non-adaptive schedule.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

import numpy as np

from .arithmetic import (
    period_work,
    period_work_array,
    positive_subtraction,
    positive_subtraction_array,
)
from .exceptions import InvalidInterruptError, InvalidScheduleError
from .interrupts import PeriodEndInterrupts, TimedInterrupts
from .params import CycleStealingParams
from .schedule import EpisodeSchedule

__all__ = [
    "episode_work",
    "episode_elapsed",
    "nonadaptive_opportunity_work",
    "nonadaptive_work_under_times",
    "worst_case_nonadaptive_work",
    "worst_case_nonadaptive_pattern",
    "worst_case_nonadaptive_pattern_reference",
]


def episode_work(schedule: EpisodeSchedule, setup_cost: float,
                 interrupt_time: Optional[float] = None) -> float:
    """Work accomplished by one episode.

    Parameters
    ----------
    schedule:
        The episode-schedule ``t_1, ..., t_m``.
    setup_cost:
        Communication set-up cost ``c``.
    interrupt_time:
        Episode-relative time of the owner's interrupt, or ``None`` if the
        episode ran to completion.  If the interrupt falls in period ``k``
        (``T_{k-1} <= t < T_k``) the episode accomplishes
        ``Σ_{i<k} (t_i ⊖ c)`` — work in flight is destroyed.
    """
    if interrupt_time is None:
        return schedule.work_if_uninterrupted(setup_cost)
    if interrupt_time < 0.0:
        raise InvalidInterruptError(f"interrupt time must be >= 0, got {interrupt_time!r}")
    if interrupt_time >= schedule.total_length:
        # An "interrupt" after the episode finished is no interrupt at all.
        return schedule.work_if_uninterrupted(setup_cost)
    k = schedule.period_containing(interrupt_time)
    return schedule.work_of_prefix(k - 1, setup_cost)


def episode_elapsed(schedule: EpisodeSchedule,
                    interrupt_time: Optional[float] = None) -> float:
    """Lifespan consumed by the episode (interrupt time or full length)."""
    if interrupt_time is None or interrupt_time >= schedule.total_length:
        return schedule.total_length
    if interrupt_time < 0.0:
        raise InvalidInterruptError(f"interrupt time must be >= 0, got {interrupt_time!r}")
    return float(interrupt_time)


def nonadaptive_opportunity_work(schedule: EpisodeSchedule,
                                 params: CycleStealingParams,
                                 interrupts: PeriodEndInterrupts) -> float:
    """Work of a non-adaptive schedule under period-end interrupts.

    Implements the paper's Section 2.2 formula.  The schedule's periods must
    cover the whole lifespan ``U``; the adversary interrupts the periods in
    ``interrupts`` at their last instants.  When the interrupt budget ``p``
    is exhausted (i.e. ``interrupts`` uses all ``p`` interrupts), the owner
    of A reschedules everything after the last interrupt as a single long
    period, which contributes ``(U − T_{i_p}) ⊖ c``.

    If fewer than ``p`` interrupts are used, the remaining tail periods of
    the original schedule are simply executed unchanged (the "oblivious"
    behaviour of the paper).
    """
    schedule.validate_for_lifespan(params.lifespan, require_exact=True)
    interrupts.validate(schedule.num_periods, params.max_interrupts)

    c = params.setup_cost
    if interrupts.is_empty:
        return schedule.work_if_uninterrupted(c)

    killed = np.zeros(schedule.num_periods, dtype=bool)
    killed[[i - 1 for i in interrupts.indices]] = True

    budget_exhausted = interrupts.count >= params.max_interrupts
    last = interrupts.last_index

    if budget_exhausted:
        # Periods before (and including) the last interrupt contribute
        # normally unless killed; everything after T_{i_p} becomes one long
        # period that can no longer be interrupted.
        surviving = ~killed[:last]
        work = float(period_work_array(schedule.periods[:last], c)[surviving].sum())
        tail_length = params.lifespan - schedule.finish_time(last)
        work += positive_subtraction(tail_length, c)
        return work

    surviving = ~killed
    return float(period_work_array(schedule.periods, c)[surviving].sum())


def nonadaptive_work_under_times(schedule: EpisodeSchedule,
                                 params: CycleStealingParams,
                                 interrupts: TimedInterrupts,
                                 *, extend_final_period: bool = True) -> float:
    """Evaluate a non-adaptive schedule against arbitrary interrupt times.

    The schedule's periods are dispatched in order.  An interrupt that lands
    inside the current period kills it; the next period then starts at the
    interrupt time (shifting the remaining schedule earlier).  After the
    ``p``-th interrupt the remainder of the lifespan is executed as one long
    period.  Periods that would overrun the lifespan are truncated, and —
    when ``extend_final_period`` is set — any lifespan left after the last
    scheduled period is used as one additional period.

    This is a strict generalisation of :func:`nonadaptive_opportunity_work`:
    when the interrupt times coincide with period last-instants the two
    agree (see the test-suite).
    """
    schedule.validate_for_lifespan(params.lifespan, require_exact=False)
    interrupts.validate(params.lifespan, params.max_interrupts)

    c = params.setup_cost
    lifespan = params.lifespan
    times = list(interrupts.times)

    work = 0.0
    clock = 0.0
    used = 0
    period_iter = iter(schedule.periods.tolist())

    def next_interrupt() -> float:
        return times[used] if used < len(times) else float("inf")

    while clock < lifespan:
        if used >= params.max_interrupts and used > 0:
            # Budget exhausted: one long final period, immune to interrupts.
            work += positive_subtraction(lifespan - clock, c)
            return work

        try:
            planned = next(period_iter)
        except StopIteration:
            if not extend_final_period:
                return work
            planned = lifespan - clock

        length = min(float(planned), lifespan - clock)
        if length <= 0.0:
            break
        end = clock + length
        interrupt = next_interrupt()
        if clock <= interrupt < end:
            # Period killed; no work, clock jumps to the interrupt time.
            clock = interrupt
            used += 1
        else:
            work += period_work(length, c)
            clock = end
    return work


def _fewer_than_budget_case(period_losses: np.ndarray, p: int, m: int,
                            uninterrupted: float
                            ) -> Tuple[PeriodEndInterrupts, float]:
    """Best pattern using fewer than ``p`` interrupts (no tail rewrite).

    Killing period ``k`` simply removes ``t_k ⊖ c``, so the best choice is
    the ``q <= p-1`` largest losses (only those actually worth something).
    """
    order = np.argsort(period_losses)[::-1]
    take = [int(i) for i in order[: max(0, min(p - 1, m))]
            if period_losses[i] > 0.0]
    if not take:
        return PeriodEndInterrupts(()), uninterrupted
    loss = float(period_losses[take].sum())
    return (PeriodEndInterrupts(sorted(i + 1 for i in take)),
            uninterrupted - loss)


def _topk_prefix_sums(losses: np.ndarray, k: int) -> np.ndarray:
    """Running top-``k`` sums: entry ``n-1`` is Σ of the ``k`` largest losses
    among the first ``n``, for every prefix length ``n = 1..m``.

    Uses the order-statistics recurrence ``M_q = cummax(min(x, shift(M_{q-1})))``
    — ``M_q[n]`` is the ``q``-th largest value of the prefix ending at ``n``
    (``-inf`` while the prefix holds fewer than ``q`` elements) — so the
    whole table costs ``k`` array passes instead of a per-period Python
    heap.  Entries for prefixes shorter than ``k`` are meaningless
    (``-inf``-contaminated); callers only read ``n >= k``.
    """
    total = np.zeros(losses.size)
    running = None  # M_{q-1}; None stands for the q = 1 sentinel (+inf)
    for _q in range(k):
        if running is None:
            running = np.maximum.accumulate(losses)
        else:
            shifted = np.empty(losses.size)
            shifted[0] = -np.inf
            shifted[1:] = running[:-1]
            running = np.maximum.accumulate(np.minimum(losses, shifted))
        total += running
    return total


def worst_case_nonadaptive_pattern(schedule: EpisodeSchedule,
                                   params: CycleStealingParams
                                   ) -> Tuple[PeriodEndInterrupts, float]:
    """Exact worst-case interrupt pattern for a non-adaptive schedule.

    Returns the period-end interrupt pattern (with at most ``p`` interrupts)
    that minimises the opportunity work, together with that minimum work.
    The search restricts the adversary to period last-instants, which
    Observation (a) of the paper shows is without loss of generality.

    The adversary's minimisation splits into two cases.  Using *fewer* than
    ``p`` interrupts never rewrites the tail, so the best choice is simply
    the largest ``p-1`` per-period losses.  Using *all* ``p`` interrupts
    turns everything after the last one into a single long period, so we
    enumerate the position ``j`` of that budget-exhausting interrupt:

        work(j) = Σ_{k<j} (t_k ⊖ c) − top-(p−1)-losses(1..j−1) + ((U−T_j) ⊖ c)

    All three terms are computed for every ``j`` at once — prefix sums by
    ``cumsum`` and the running top-(p−1) sums by the order-statistics
    recurrence of :func:`_topk_prefix_sums` — replacing the per-period
    Python heap loop of :func:`worst_case_nonadaptive_pattern_reference`
    (retained as the reference; the property tests pin the two to
    ``1e-9``) with ``p + 1`` array passes over the schedule.
    """
    schedule.validate_for_lifespan(params.lifespan, require_exact=True)
    p = params.max_interrupts
    c = params.setup_cost
    m = schedule.num_periods

    if p == 0 or m == 0:
        return PeriodEndInterrupts(()), schedule.work_if_uninterrupted(c)

    period_losses = period_work_array(schedule.periods, c)  # t_k ⊖ c
    uninterrupted = float(period_losses.sum())

    best_pattern, best_work = _fewer_than_budget_case(period_losses, p, m,
                                                      uninterrupted)

    # All-p-interrupts case: candidates for every position j = p..m of the
    # budget-exhausting interrupt in one array pass.
    if m >= p:
        tail_works = positive_subtraction_array(
            params.lifespan - schedule.finish_times[p - 1:], c)
        prefix_sums = np.empty(m - p + 1)  # Σ_{k<j} (t_k ⊖ c), j = p..m
        if p == 1:
            prefix_sums[0] = 0.0
            np.cumsum(period_losses[:-1], out=prefix_sums[1:])
        else:
            prefix_sums[:] = np.cumsum(period_losses)[p - 2:-1]
            prefix_sums -= _topk_prefix_sums(period_losses, p - 1)[p - 2:-1]
        candidates = prefix_sums + tail_works
        best_j = int(np.argmin(candidates))
        # Same acceptance threshold as the reference loop: prefer the
        # fewer-interrupts pattern on sub-1e-12 ties.
        if candidates[best_j] < best_work - 1e-12:
            best_work = float(candidates[best_j])
            j = best_j + p  # 1-based period index of the last interrupt
            # The p-1 earlier kills: largest losses among periods 1..j-1,
            # earliest index on ties (matching the reference heap, which
            # only evicts on a strictly larger loss).
            before = period_losses[: j - 1]
            order = np.lexsort((np.arange(before.size), -before))
            killed = (order[: p - 1] + 1).tolist()
            best_pattern = PeriodEndInterrupts(sorted(killed + [j]))

    return best_pattern, float(best_work)


def worst_case_nonadaptive_pattern_reference(schedule: EpisodeSchedule,
                                             params: CycleStealingParams
                                             ) -> Tuple[PeriodEndInterrupts, float]:
    """Reference implementation of :func:`worst_case_nonadaptive_pattern`.

    Same two-case minimisation, but the all-``p``-interrupts case walks the
    periods with an explicit min-heap of ``(loss, period index)`` pairs —
    the ``p-1`` largest losses seen so far, indices carried through the
    heap so the killed pattern never has to be reconstructed by matching
    float values.  ``O(m log p)`` scalar Python; kept as the readable
    specification the vectorized kernel is property-tested against.
    """
    schedule.validate_for_lifespan(params.lifespan, require_exact=True)
    p = params.max_interrupts
    c = params.setup_cost
    m = schedule.num_periods

    if p == 0 or m == 0:
        return PeriodEndInterrupts(()), schedule.work_if_uninterrupted(c)

    period_losses = period_work_array(schedule.periods, c)  # t_k ⊖ c
    uninterrupted = float(period_losses.sum())
    finishes = schedule.finish_times

    best_pattern, best_work = _fewer_than_budget_case(period_losses, p, m,
                                                      uninterrupted)

    # The adversary uses all p interrupts; enumerate the index j of the
    # last (budget-exhausting) interrupt.  Work becomes
    #   Σ_{k<j, k not killed} (t_k ⊖ c) + ((U − T_j) ⊖ c),
    # and the p-1 earlier interrupts greedily remove the largest losses
    # among periods 1..j-1.
    heap: List[Tuple[float, int]] = []  # the largest p-1 (loss, index) so far
    heap_sum = 0.0
    prefix_sum = 0.0  # Σ_{k<j} (t_k ⊖ c)
    keep = max(0, p - 1)
    for j in range(1, m + 1):
        # The last interrupt sits at period j; the p-1 earlier ones need
        # p-1 distinct periods before j, so this branch requires j >= p.
        if j >= p:
            tail_work = positive_subtraction(params.lifespan - float(finishes[j - 1]), c)
            work = prefix_sum - heap_sum + tail_work
            if work < best_work - 1e-12:
                best_work = work
                killed = [index for _loss, index in heap]
                best_pattern = PeriodEndInterrupts(sorted(killed + [j]))
        # Update the prefix structures with period j's loss.  Zero-loss
        # periods are kept too: the adversary must place exactly p-1
        # earlier interrupts for the budget-exhausting tail rule to fire.
        loss_j = float(period_losses[j - 1])
        prefix_sum += loss_j
        if keep > 0:
            if len(heap) < keep:
                heapq.heappush(heap, (loss_j, j))
                heap_sum += loss_j
            elif heap and loss_j > heap[0][0]:
                heap_sum += loss_j - heap[0][0]
                heapq.heapreplace(heap, (loss_j, j))

    return best_pattern, float(best_work)


def worst_case_nonadaptive_work(schedule: EpisodeSchedule,
                                params: CycleStealingParams) -> float:
    """Guaranteed work of a non-adaptive schedule (worst case over interrupts)."""
    _, work = worst_case_nonadaptive_pattern(schedule, params)
    return work
