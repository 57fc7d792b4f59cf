"""Tests for the structural transformations (Theorems 4.1 and 4.2) and baselines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CycleStealingParams, EpisodeSchedule
from repro.core.work import worst_case_nonadaptive_work
from repro.schedules import (
    DPOptimalScheduler,
    EqualSplitScheduler,
    FixedPeriodScheduler,
    GeometricPeriodScheduler,
    SinglePeriodScheduler,
    compact_immune_tail,
    count_nonproductive,
    immunity_order,
    make_fully_productive,
    make_productive,
)
from repro.core.exceptions import SchedulingError

period_lists = st.lists(st.floats(min_value=0.1, max_value=30.0), min_size=1, max_size=12)


class TestProductiveTransformation:
    def test_merges_short_middle_period(self):
        s = EpisodeSchedule([3.0, 0.5, 3.0])
        out = make_productive(s, 1.0)
        assert list(out) == [3.0, 3.5]
        assert out.is_productive(1.0)

    def test_leaves_productive_schedule_alone(self):
        s = EpisodeSchedule([3.0, 2.0, 4.0])
        assert make_productive(s, 1.0) == s

    def test_short_last_period_untouched_by_productive(self):
        s = EpisodeSchedule([3.0, 0.5])
        out = make_productive(s, 1.0)
        assert list(out) == [3.0, 0.5]

    def test_fully_productive_merges_last(self):
        s = EpisodeSchedule([3.0, 0.5])
        out = make_fully_productive(s, 1.0)
        assert list(out) == [3.5]
        assert out.is_fully_productive(1.0)

    def test_all_short_periods_collapse(self):
        s = EpisodeSchedule([0.3, 0.3, 0.3])
        out = make_fully_productive(s, 1.0)
        assert out.num_periods == 1
        assert out.total_length == pytest.approx(0.9)

    def test_count_nonproductive(self):
        s = EpisodeSchedule([3.0, 0.5, 0.2])
        assert count_nonproductive(s, 1.0) == 1
        assert count_nonproductive(s, 1.0, include_last=True) == 2

    @settings(deadline=None, max_examples=60)
    @given(period_lists, st.floats(min_value=0.0, max_value=3.0),
           st.integers(min_value=0, max_value=3))
    def test_theorem41_never_decreases_guaranteed_work(self, lengths, c, p):
        """The productive rewrite cannot lower worst-case work (Thm 4.1)."""
        s = EpisodeSchedule(lengths)
        params = CycleStealingParams(lifespan=s.total_length, setup_cost=c,
                                     max_interrupts=p)
        before = worst_case_nonadaptive_work(s, params)
        after = worst_case_nonadaptive_work(make_productive(s, c), params)
        assert after >= before - 1e-9

    @settings(deadline=None, max_examples=60)
    @given(period_lists, st.floats(min_value=0.0, max_value=3.0))
    def test_length_preserved(self, lengths, c):
        s = EpisodeSchedule(lengths)
        assert make_productive(s, c).total_length == pytest.approx(s.total_length)
        assert make_fully_productive(s, c).total_length == pytest.approx(s.total_length)

    @settings(deadline=None, max_examples=60)
    @given(period_lists, st.floats(min_value=0.0, max_value=3.0))
    def test_result_is_productive(self, lengths, c):
        s = EpisodeSchedule(lengths)
        assert make_productive(s, c).is_productive(c)


class TestImmuneCompaction:
    def test_immunity_order_of_equal_periods(self):
        s = EpisodeSchedule.equal_periods(100.0, 10)
        params = CycleStealingParams(100.0, 1.0, 2)
        r = immunity_order(s, params)
        assert 0 <= r <= 10

    def test_immunity_order_no_interrupts(self):
        s = EpisodeSchedule.equal_periods(100.0, 10)
        params = CycleStealingParams(100.0, 1.0, 0)
        assert immunity_order(s, params) == 10

    def test_compaction_preserves_length(self):
        s = EpisodeSchedule([30.0, 30.0, 40.0])
        out = compact_immune_tail(s, 1.0, r=1)
        assert out.total_length == pytest.approx(100.0)
        assert list(out.periods[:2]) == [30.0, 30.0]

    def test_compacted_tail_periods_short(self):
        s = EpisodeSchedule([30.0, 30.0, 40.0])
        out = compact_immune_tail(s, 1.0, r=1, epsilon=0.5)
        tail = out.periods[2:]
        assert all(t <= 3.0 + 1e-9 for t in tail[:-1])

    def test_r_zero_is_identity(self):
        s = EpisodeSchedule([30.0, 70.0])
        assert compact_immune_tail(s, 1.0, r=0) is s

    def test_invalid_epsilon(self):
        s = EpisodeSchedule([30.0, 70.0])
        with pytest.raises(ValueError):
            compact_immune_tail(s, 1.0, r=1, epsilon=0.0)

    def test_theorem42_on_final_period_split(self):
        """Splitting the schedule's last long period can only help (Thm 4.2)."""
        params = CycleStealingParams(100.0, 1.0, 1)
        coarse = EpisodeSchedule([50.0, 50.0])
        refined = compact_immune_tail(coarse, 1.0, r=1)
        assert (worst_case_nonadaptive_work(refined, params)
                >= worst_case_nonadaptive_work(coarse, params) - 1e-9)


class TestBaselines:
    def test_single_period(self):
        params = CycleStealingParams(100.0, 1.0, 2)
        s = SinglePeriodScheduler()
        assert s.opportunity_schedule(params).num_periods == 1
        assert s.episode_schedule(40.0, 1, 1.0).num_periods == 1
        with pytest.raises(SchedulingError):
            s.episode_schedule(0.0, 1, 1.0)

    def test_fixed_period(self):
        params = CycleStealingParams(100.0, 1.0, 2)
        s = FixedPeriodScheduler(period_length=30.0)
        schedule = s.opportunity_schedule(params)
        assert schedule.total_length == pytest.approx(100.0)
        assert schedule.num_periods == 3
        assert "30" in s.describe()
        with pytest.raises(ValueError):
            FixedPeriodScheduler(period_length=0.0)

    def test_fixed_period_short_lifespan(self):
        s = FixedPeriodScheduler(period_length=30.0)
        assert s.episode_schedule(10.0, 1, 1.0).num_periods == 1

    def test_fixed_period_rejects_nan_length(self):
        with pytest.raises(ValueError, match="period_length"):
            FixedPeriodScheduler(period_length=float("nan"))

    def test_geometric_rejects_nan_growth(self):
        with pytest.raises(ValueError, match="growth"):
            GeometricPeriodScheduler(growth=float("nan"))

    def test_geometric_rejects_nan_initial_length(self):
        with pytest.raises(ValueError, match="initial_length"):
            GeometricPeriodScheduler(initial_length=float("nan"))

    def test_geometric_period(self):
        params = CycleStealingParams(1_000.0, 1.0, 2)
        s = GeometricPeriodScheduler(initial_length=10.0, growth=2.0)
        schedule = s.opportunity_schedule(params)
        assert schedule.total_length == pytest.approx(1_000.0)
        assert schedule[1] == pytest.approx(20.0)
        with pytest.raises(ValueError):
            GeometricPeriodScheduler(growth=1.0)
        with pytest.raises(ValueError):
            GeometricPeriodScheduler(initial_length=-1.0)

    def test_geometric_defaults(self):
        s = GeometricPeriodScheduler()
        schedule = s.episode_schedule(500.0, 1, 1.0)
        assert schedule.total_length == pytest.approx(500.0)

    def test_equal_split(self):
        params = CycleStealingParams(90.0, 1.0, 2)
        s = EqualSplitScheduler()
        schedule = s.opportunity_schedule(params)
        assert schedule.num_periods == 3
        assert schedule[0] == pytest.approx(30.0)
        adaptive = s.episode_schedule(60.0, 1, 1.0)
        assert adaptive.num_periods == 2

    def test_equal_split_guarantees_only_one_chunk(self):
        """The naive p+1-way split only ever banks a single chunk: the
        adversary kills p of the p+1 periods, so the guarantee collapses to
        U/(p+1) − c instead of the guideline's U − O(√(pcU))."""
        params = CycleStealingParams(90.0, 1.0, 2)
        assert EqualSplitScheduler().guaranteed_work(params) == pytest.approx(29.0)

    def test_guideline_beats_baselines(self, small_table):
        """Who wins: guideline > fixed chunks > single period (worst case)."""
        from repro.schedules import EqualizingAdaptiveScheduler

        params = CycleStealingParams(600.0, 1.0, 2)
        guideline = EqualizingAdaptiveScheduler().guaranteed_work(params)
        fixed = FixedPeriodScheduler(period_length=60.0).guaranteed_work(params)
        single = SinglePeriodScheduler().guaranteed_work(params)
        assert guideline > fixed > single


class TestFixedPeriodBatch:
    """``episode_schedule_batch`` is the scalar construction, bit for bit."""

    @pytest.mark.parametrize("period", [19.2, 0.1, 1.0, 7.3])
    def test_bit_identical_near_multiples(self, period):
        rng = np.random.default_rng(11)
        multiples = rng.integers(1, 60, 200) * period
        residuals = np.concatenate([
            multiples, multiples * (1 - 1e-15), multiples * (1 + 1e-15),
            np.nextafter(multiples, 0.0), np.nextafter(multiples, np.inf),
            rng.uniform(1e-9, 60 * period, 200),
            [period, period / 2, np.nextafter(period, 0.0)]])
        scheduler = FixedPeriodScheduler(period_length=period)
        batch = scheduler.episode_schedule_batch(residuals.tolist(), 2, 1.0)
        assert isinstance(batch, list) and len(batch) == residuals.size
        for residual, schedule in zip(residuals.tolist(), batch):
            scalar = scheduler.episode_schedule(residual, 2, 1.0)
            assert schedule.periods.tobytes() == scalar.periods.tobytes(), residual

    def test_views_are_read_only(self):
        batch = FixedPeriodScheduler(period_length=3.0).episode_schedule_batch(
            [2.0, 9.0, 10.5], 1, 1.0)
        assert [s.periods.tolist() for s in batch] == [
            [2.0], [3.0, 3.0, 3.0], [3.0, 3.0, 4.5]]
        for schedule in batch:
            assert not schedule.periods.flags.writeable
            with pytest.raises(ValueError):
                schedule.periods[0] = 1.0

    def test_long_rows_take_their_own_passes(self):
        scheduler = FixedPeriodScheduler(period_length=1.0)
        residuals = [3.5, 70_000.25, 2.0, 100_000.5]
        for residual, schedule in zip(residuals, scheduler.episode_schedule_batch(
                residuals, 1, 1.0)):
            assert (schedule.periods.tobytes()
                    == scheduler.episode_schedule(residual, 1, 1.0).periods.tobytes())

    @pytest.mark.parametrize("residual", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_residuals_raise_the_scalar_error(self, residual):
        scheduler = FixedPeriodScheduler(period_length=3.0)
        with pytest.raises(Exception) as scalar:
            scheduler.episode_schedule(residual, 1, 1.0)
        with pytest.raises(type(scalar.value)) as batch:
            scheduler.episode_schedule_batch([5.0, residual], 1, 1.0)
        assert str(batch.value) == str(scalar.value)

    def test_empty_batch(self):
        assert FixedPeriodScheduler(period_length=3.0).episode_schedule_batch(
            [], 1, 1.0) == []


class TestDPOptimalScheduler:
    def test_for_params_constructor(self):
        params = CycleStealingParams(300.0, 1.0, 2)
        scheduler = DPOptimalScheduler.for_params(params)
        assert scheduler.table.max_lifespan == 300
        assert scheduler.optimal_work(params) == scheduler.table.value(2, 300)

    def test_for_params_requires_integer_cost(self):
        params = CycleStealingParams(300.0, 1.5, 2)
        with pytest.raises(SchedulingError):
            DPOptimalScheduler.for_params(params)

    def test_episode_schedule_validations(self, small_table):
        scheduler = DPOptimalScheduler(small_table)
        with pytest.raises(SchedulingError):
            scheduler.episode_schedule(100.0, 1, 2.0)      # wrong setup cost
        with pytest.raises(SchedulingError):
            scheduler.episode_schedule(10_000.0, 1, 1.0)   # beyond the table
        with pytest.raises(SchedulingError):
            scheduler.episode_schedule(-1.0, 1, 1.0)

    def test_fractional_residuals_covered(self, small_table):
        scheduler = DPOptimalScheduler(small_table)
        schedule = scheduler.episode_schedule(123.75, 2, 1.0)
        assert schedule.total_length == pytest.approx(123.75)

    def test_tiny_residual(self, small_table):
        scheduler = DPOptimalScheduler(small_table)
        schedule = scheduler.episode_schedule(0.5, 2, 1.0)
        assert schedule.num_periods == 1

    def test_optimal_work_argument_validation(self, small_table):
        scheduler = DPOptimalScheduler(small_table)
        with pytest.raises(SchedulingError):
            scheduler.optimal_work()

    def test_dominates_guidelines(self, small_table):
        from repro.schedules import EqualizingAdaptiveScheduler, RosenbergAdaptiveScheduler

        params = CycleStealingParams(600.0, 1.0, 3)
        dp_work = DPOptimalScheduler(small_table).guaranteed_work(params)
        assert dp_work >= EqualizingAdaptiveScheduler().guaranteed_work(params) - 1e-6
        assert dp_work >= RosenbergAdaptiveScheduler().guaranteed_work(params) - 1e-6
