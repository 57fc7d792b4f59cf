"""Tests for adversaries and stochastic owners."""

import pytest

from repro import CycleStealingParams, EpisodeSchedule
from repro.adversary import (
    FirstPeriodAdversary,
    FixedTimesAdversary,
    LastPeriodAdversary,
    LongestPeriodAdversary,
    MinimaxAdversary,
    NeverInterruptAdversary,
    OptimalNonAdaptiveAdversary,
    PoissonOwner,
    RandomPeriodAdversary,
    UniformResidualOwner,
    last_instant_of_period,
)
from repro.core.game import play_adaptive, play_nonadaptive
from repro.schedules import EqualizingAdaptiveScheduler, RosenbergNonAdaptiveScheduler


@pytest.fixture
def schedule():
    return EpisodeSchedule([5.0, 3.0, 2.0])


class TestLastInstant:
    def test_inside_period(self, schedule):
        t = last_instant_of_period(schedule, 2)
        assert 5.0 <= t < 8.0
        assert schedule.period_containing(t) == 2

    def test_last_period(self, schedule):
        t = last_instant_of_period(schedule, 3)
        assert 8.0 <= t < 10.0

    def test_short_period_far_from_zero_stays_inside(self):
        # 0.75 * 1e-12 is below half an ulp of 16000: the plain offset
        # rounds back onto T_2, which belongs to period 3.
        schedule = EpisodeSchedule([15999.25, 0.75, 5.0])
        t = last_instant_of_period(schedule, 2)
        assert 15999.25 <= t < 16000.0
        assert schedule.period_containing(t) == 2

    def test_rounding_residue_last_period_stays_inside(self):
        # A non-adaptive tail padded with the residue ``remaining - total``
        # ends in a period a few ulps long.
        schedule = EpisodeSchedule([999.9999999999997, 3.41e-13])
        t = last_instant_of_period(schedule, 2)
        assert t < schedule.total_length
        assert schedule.period_containing(t) == 2


class TestHeuristicAdversaries:
    def test_never(self, schedule):
        assert NeverInterruptAdversary().choose_interrupt(schedule, 10.0, 1, 1.0) is None

    def test_first_period(self, schedule):
        t = FirstPeriodAdversary().choose_interrupt(schedule, 10.0, 1, 1.0)
        assert schedule.period_containing(t) == 1

    def test_last_period(self, schedule):
        t = LastPeriodAdversary().choose_interrupt(schedule, 10.0, 1, 1.0)
        assert schedule.period_containing(t) == 3

    def test_longest_period(self, schedule):
        t = LongestPeriodAdversary().choose_interrupt(schedule, 10.0, 1, 1.0)
        assert schedule.period_containing(t) == 1

    def test_fixed_times(self, schedule):
        adv = FixedTimesAdversary(times=[7.0], lifespan=20.0)
        # At the start of the opportunity (residual 20), time 7 falls inside.
        assert adv.choose_interrupt(schedule, 20.0, 1, 1.0) == pytest.approx(7.0)
        # Later (residual 5 -> elapsed 15), the trace time has passed.
        assert adv.choose_interrupt(schedule, 5.0, 1, 1.0) is None

    def test_random_period_reproducible(self, schedule):
        a = RandomPeriodAdversary(seed=42)
        b = RandomPeriodAdversary(seed=42)
        assert a.choose_interrupt(schedule, 10.0, 1, 1.0) == \
            b.choose_interrupt(schedule, 10.0, 1, 1.0)

    def test_random_period_probability_zero(self, schedule):
        adv = RandomPeriodAdversary(probability=0.0, seed=1)
        assert adv.choose_interrupt(schedule, 10.0, 1, 1.0) is None

    def test_random_period_validation(self):
        with pytest.raises(ValueError):
            RandomPeriodAdversary(probability=1.5)

    def test_describe_and_reset(self):
        adv = NeverInterruptAdversary()
        assert adv.describe() == "never"
        adv.reset()


class TestStochasticOwners:
    def test_poisson_validation(self):
        with pytest.raises(ValueError):
            PoissonOwner(rate=0.0)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"),
                                      float("-inf"), -1.0])
    def test_poisson_rejects_rates_that_are_not_positive_and_finite(self, rate):
        # A NaN rate never interrupts and an infinite one interrupts every
        # episode at t = 0; neither is a Poisson owner.
        with pytest.raises(ValueError, match="positive and finite"):
            PoissonOwner(rate=rate, seed=1)

    def test_poisson_interrupts_inside_episode(self, schedule):
        owner = PoissonOwner(rate=10.0, seed=0)
        t = owner.choose_interrupt(schedule, 10.0, 1, 1.0)
        assert t is None or 0.0 <= t < schedule.total_length

    def test_poisson_low_rate_rarely_interrupts(self, schedule):
        owner = PoissonOwner(rate=1e-9, seed=0)
        assert owner.choose_interrupt(schedule, 10.0, 1, 1.0) is None

    def test_uniform_owner(self, schedule):
        owner = UniformResidualOwner(seed=3)
        t = owner.choose_interrupt(schedule, 100.0, 1, 1.0)
        assert t is None or 0.0 <= t < schedule.total_length

    def test_uniform_owner_validation(self):
        with pytest.raises(ValueError):
            UniformResidualOwner(reclaim_probability=-0.1)


class TestOptimalAdversaries:
    def test_minimax_dominates_heuristics(self):
        scheduler = EqualizingAdaptiveScheduler()
        params = CycleStealingParams(300.0, 1.0, 2)
        minimax_work = play_adaptive(scheduler, MinimaxAdversary(scheduler), params).total_work
        for adversary in (NeverInterruptAdversary(), FirstPeriodAdversary(),
                          LastPeriodAdversary(), LongestPeriodAdversary()):
            other = play_adaptive(scheduler, adversary, params).total_work
            assert minimax_work <= other + 1e-6

    def test_minimax_abstains_when_no_damage_possible(self):
        scheduler = EqualizingAdaptiveScheduler()
        adv = MinimaxAdversary(scheduler)
        # A schedule of one unproductive period: interrupting gains nothing.
        schedule = EpisodeSchedule([0.5])
        assert adv.choose_interrupt(schedule, 0.5, 1, 1.0) is None

    def test_optimal_nonadaptive_dominates_heuristics(self):
        scheduler = RosenbergNonAdaptiveScheduler()
        params = CycleStealingParams(400.0, 1.0, 2)
        optimal = play_nonadaptive(scheduler, OptimalNonAdaptiveAdversary(), params).total_work
        for adversary in (NeverInterruptAdversary(), FirstPeriodAdversary(),
                          LastPeriodAdversary()):
            other = play_nonadaptive(scheduler, adversary, params).total_work
            assert optimal <= other + 1e-6

    def test_optimal_nonadaptive_abstains_with_zero_budget_value(self):
        adv = OptimalNonAdaptiveAdversary()
        schedule = EpisodeSchedule([0.5])
        assert adv.choose_interrupt(schedule, 0.5, 1, 1.0) is None
