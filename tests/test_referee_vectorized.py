"""The vectorized referees against their retained reference implementations.

The perf overhaul rewrote the two exact worst-case kernels —
:func:`repro.core.game.guaranteed_adaptive_work` (level-ordered iterative
minimax) and :func:`repro.core.work.worst_case_nonadaptive_pattern`
(vectorized prefix top-(p−1) accounting) — while keeping the readable
recursive/heap formulations as references.  These tests pin the pairs to
each other to 1e-9 on random schedules and on every registered scheduler.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CycleStealingParams, EpisodeSchedule
from repro.core.game import (
    guaranteed_adaptive_work,
    guaranteed_adaptive_work_reference,
)
from repro.core.work import (
    nonadaptive_opportunity_work,
    worst_case_nonadaptive_pattern,
    worst_case_nonadaptive_pattern_reference,
)
from repro.experiments.grid import make_scheduler
from repro.registry import SCHEDULERS


def _rel_close(a, b, tol=1e-9):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


class _WeightedSplitScheduler:
    """Deterministic adaptive scheduler driven by an arbitrary weight list.

    Splits every residual into periods proportional to the (positive)
    weights — a pure function of ``(residual, p, c)`` as the referee
    protocol requires, yet with arbitrary, hypothesis-chosen period
    structure (including unproductive periods shorter than ``c``).
    """

    name = "weighted-split"

    def __init__(self, weights):
        self._weights = np.asarray(weights, dtype=float)

    def episode_schedule(self, residual, interrupts_remaining, setup_cost):
        take = max(1, min(self._weights.size,
                          1 + interrupts_remaining))
        weights = self._weights[:take]
        return EpisodeSchedule(residual * weights / weights.sum())


class TestGuaranteedAdaptiveWorkEquivalence:
    @settings(deadline=None, max_examples=60)
    @given(st.lists(st.floats(min_value=0.05, max_value=10.0),
                    min_size=1, max_size=8),
           st.integers(min_value=0, max_value=3),
           st.floats(min_value=25.0, max_value=5000.0),
           st.floats(min_value=0.0, max_value=4.0))
    def test_random_schedules_match_reference(self, weights, p, lifespan, c):
        scheduler = _WeightedSplitScheduler(weights)
        params = CycleStealingParams(lifespan=lifespan, setup_cost=c,
                                     max_interrupts=p)
        fast = guaranteed_adaptive_work(scheduler, params)
        reference = guaranteed_adaptive_work_reference(scheduler, params)
        assert _rel_close(fast, reference), (fast, reference)

    @pytest.mark.parametrize("name", sorted(SCHEDULERS.names()))
    @pytest.mark.parametrize("lifespan,p", [(200, 1), (400, 2), (801, 3)])
    def test_registered_schedulers_match_reference(self, name, lifespan, p):
        params = CycleStealingParams(lifespan=float(lifespan), setup_cost=1.0,
                                     max_interrupts=p)
        scheduler = make_scheduler(name, params)
        if not hasattr(scheduler, "episode_schedule"):
            pytest.skip(f"{name} is purely non-adaptive")
        fast = guaranteed_adaptive_work(scheduler, params)
        reference = guaranteed_adaptive_work_reference(scheduler, params)
        assert _rel_close(fast, reference), (name, fast, reference)

    def test_zero_interrupts_and_degenerate_lifespan(self):
        scheduler = _WeightedSplitScheduler([1.0, 2.0])
        p0 = CycleStealingParams(lifespan=50.0, setup_cost=1.0, max_interrupts=0)
        assert guaranteed_adaptive_work(scheduler, p0) == \
            guaranteed_adaptive_work_reference(scheduler, p0)

    def test_batch_construction_agrees_with_scalar_referee(self):
        """The kernel's episode_schedule_batch path must not change values."""
        from repro.schedules import EqualizingAdaptiveScheduler

        params = CycleStealingParams(lifespan=3000.0, setup_cost=2.0,
                                     max_interrupts=3)
        fast = guaranteed_adaptive_work(EqualizingAdaptiveScheduler(), params)
        reference = guaranteed_adaptive_work_reference(
            EqualizingAdaptiveScheduler(), params)
        assert _rel_close(fast, reference)

    @settings(deadline=None, max_examples=40)
    @given(st.sampled_from(["equalizing-adaptive", "rosenberg-adaptive",
                            "fixed-period"]),
           st.floats(min_value=10.0, max_value=2500.0),
           st.floats(min_value=0.1, max_value=4.0),
           st.integers(min_value=0, max_value=3),
           st.floats(min_value=-9.0, max_value=0.5))
    def test_random_points_and_grains_match_reference(self, name, lifespan, c,
                                                      p, log_grain):
        # The state graph the upward sweep reads (each period's child
        # state, found while discovering the level below) must give the
        # reference's memoised minimax at any grain, coarse grains merging
        # many children into one state.
        params = CycleStealingParams(lifespan=lifespan, setup_cost=c,
                                     max_interrupts=p)
        grain = 10.0 ** log_grain
        fast = guaranteed_adaptive_work(make_scheduler(name, params), params,
                                        residual_grain=grain)
        reference = guaranteed_adaptive_work_reference(
            make_scheduler(name, params), params, residual_grain=grain)
        assert _rel_close(fast, reference), (fast, reference)

    @pytest.mark.parametrize("grain", [1e-15, 1e-16, 1e-18])
    def test_memo_keys_past_int64_do_not_merge_states(self, grain):
        # residual / grain passes 2**63 here: int64 keys wrapped, merged
        # states and returned 19675.0207 (1e-15) or 19675.0929 (1e-16).
        from repro.schedules import EqualizingAdaptiveScheduler

        params = CycleStealingParams(20000.0, 1.0, 2)
        fast = guaranteed_adaptive_work(EqualizingAdaptiveScheduler(), params,
                                        residual_grain=grain)
        reference = guaranteed_adaptive_work_reference(
            EqualizingAdaptiveScheduler(), params, residual_grain=grain)
        assert fast == reference == 19675.01758895491

    @pytest.mark.parametrize("referee", [guaranteed_adaptive_work,
                                         guaranteed_adaptive_work_reference])
    def test_infinite_memo_key_raises(self, referee):
        from repro.schedules import EqualizingAdaptiveScheduler

        with pytest.raises(OverflowError):
            referee(EqualizingAdaptiveScheduler(),
                    CycleStealingParams(1e10, 1.0, 1), residual_grain=1e-300)


class TestWorstCasePatternEquivalence:
    @settings(deadline=None, max_examples=120)
    @given(st.lists(st.floats(min_value=0.2, max_value=20.0),
                    min_size=1, max_size=14),
           st.integers(min_value=0, max_value=5),
           st.floats(min_value=0.0, max_value=3.0))
    def test_work_matches_reference(self, lengths, p, c):
        s = EpisodeSchedule(lengths)
        params = CycleStealingParams(lifespan=s.total_length, setup_cost=c,
                                     max_interrupts=p)
        pattern_fast, fast = worst_case_nonadaptive_pattern(s, params)
        pattern_ref, reference = worst_case_nonadaptive_pattern_reference(s, params)
        assert _rel_close(fast, reference), (fast, reference)
        # Both reported patterns must evaluate to their reported minimum.
        assert nonadaptive_opportunity_work(s, params, pattern_fast) == \
            pytest.approx(fast, abs=1e-6)
        assert nonadaptive_opportunity_work(s, params, pattern_ref) == \
            pytest.approx(reference, abs=1e-6)

    @settings(deadline=None, max_examples=60)
    @given(st.lists(st.sampled_from([1.5, 1.5, 2.0, 2.0 + 1e-10, 4.0]),
                    min_size=2, max_size=10),
           st.integers(min_value=1, max_value=4))
    def test_duplicate_losses_attribute_distinct_periods(self, lengths, p):
        """Near-equal losses were mis-attributed by the old 1e-9 re-matching."""
        s = EpisodeSchedule(lengths)
        params = CycleStealingParams(lifespan=s.total_length, setup_cost=1.0,
                                     max_interrupts=p)
        for impl in (worst_case_nonadaptive_pattern,
                     worst_case_nonadaptive_pattern_reference):
            pattern, work = impl(s, params)
            indices = list(pattern.indices)
            assert len(indices) == len(set(indices))  # distinct periods
            assert all(1 <= i <= s.num_periods for i in indices)
            assert nonadaptive_opportunity_work(s, params, pattern) == \
                pytest.approx(work, abs=1e-6)

    def test_reference_heap_carries_indices(self):
        """Two exactly-equal large losses: the killed set stays valid."""
        s = EpisodeSchedule([5.0, 5.0, 1.2, 5.0, 1.2, 30.0])
        params = CycleStealingParams(lifespan=s.total_length, setup_cost=1.0,
                                     max_interrupts=3)
        pattern, work = worst_case_nonadaptive_pattern_reference(s, params)
        assert len(set(pattern.indices)) == pattern.count
        assert nonadaptive_opportunity_work(s, params, pattern) == \
            pytest.approx(work, abs=1e-9)

    def test_large_schedule_smoke(self):
        rng = np.random.default_rng(7)
        s = EpisodeSchedule(rng.uniform(0.5, 12.0, 4000))
        params = CycleStealingParams(lifespan=s.total_length, setup_cost=1.0,
                                     max_interrupts=7)
        _, fast = worst_case_nonadaptive_pattern(s, params)
        _, reference = worst_case_nonadaptive_pattern_reference(s, params)
        assert _rel_close(fast, reference)
