"""Tests for the game referees and the exact minimax evaluation."""

import tracemalloc

import numpy as np
import pytest

from repro import CycleStealingParams, EpisodeSchedule, guaranteed_adaptive_work
from repro.adversary import (
    FirstPeriodAdversary,
    LastPeriodAdversary,
    MinimaxAdversary,
    NeverInterruptAdversary,
    OptimalNonAdaptiveAdversary,
)
from repro.core import game
from repro.core.game import play_adaptive, play_nonadaptive
from repro.core.exceptions import SchedulingError
from repro.schedules import (
    EqualizingAdaptiveScheduler,
    ExactP1Scheduler,
    FixedPeriodScheduler,
    RosenbergAdaptiveScheduler,
    RosenbergNonAdaptiveScheduler,
    SinglePeriodScheduler,
)


class TestPlayAdaptive:
    def test_no_adversary_yields_single_long_period_work(self):
        params = CycleStealingParams(100.0, 1.0, 2)
        result = play_adaptive(SinglePeriodScheduler(), NeverInterruptAdversary(), params)
        assert result.total_work == pytest.approx(99.0)
        assert result.num_episodes == 1
        assert result.num_interrupts == 0
        assert result.efficiency == pytest.approx(0.99)
        assert result.loss == pytest.approx(1.0)

    def test_single_period_scheduler_killed_by_last_period_adversary(self):
        params = CycleStealingParams(100.0, 1.0, 1)
        result = play_adaptive(SinglePeriodScheduler(), LastPeriodAdversary(), params)
        # Only episode is killed just before its end; the residual sliver is
        # scheduled as a new (vanishingly short) episode.
        assert result.total_work == pytest.approx(0.0, abs=1e-6)
        assert result.num_interrupts == 1

    def test_interrupt_budget_enforced(self):
        params = CycleStealingParams(100.0, 1.0, 1)
        # An adversary that always wants to interrupt only gets to do so once.
        result = play_adaptive(ExactP1Scheduler(), FirstPeriodAdversary(), params)
        assert result.num_interrupts == 1

    def test_transcript_conservation(self):
        params = CycleStealingParams(200.0, 1.0, 2)
        scheduler = EqualizingAdaptiveScheduler()
        result = play_adaptive(scheduler, FirstPeriodAdversary(), params)
        assert result.transcript.total_elapsed <= params.lifespan + 1e-6
        assert 0.0 <= result.total_work <= params.lifespan

    def test_rejects_bad_adversary_time(self):
        class BadAdversary:
            name = "bad"

            def choose_interrupt(self, schedule, residual, p, c):
                return schedule.total_length + 5.0

        params = CycleStealingParams(50.0, 1.0, 1)
        with pytest.raises(SchedulingError):
            play_adaptive(SinglePeriodScheduler(), BadAdversary(), params)

    def test_rejects_overcommitting_scheduler(self):
        class BadScheduler:
            name = "bad"

            def episode_schedule(self, residual, p, c):
                return EpisodeSchedule([residual * 2.0])

        params = CycleStealingParams(50.0, 1.0, 1)
        with pytest.raises(SchedulingError):
            play_adaptive(BadScheduler(), NeverInterruptAdversary(), params)


class TestPlayNonAdaptive:
    def test_oblivious_tail_reuse(self):
        params = CycleStealingParams(100.0, 1.0, 2)
        scheduler = FixedPeriodScheduler(period_length=10.0)
        result = play_nonadaptive(scheduler, NeverInterruptAdversary(), params)
        assert result.total_work == pytest.approx(90.0)

    def test_with_optimal_adversary_matches_worst_case(self):
        params = CycleStealingParams(400.0, 1.0, 2)
        scheduler = RosenbergNonAdaptiveScheduler()
        result = play_nonadaptive(scheduler, OptimalNonAdaptiveAdversary(), params)
        assert result.total_work == pytest.approx(scheduler.guaranteed_work(params),
                                                  rel=1e-6, abs=1e-4)

    def test_budget_exhaustion_gives_long_final_period(self):
        params = CycleStealingParams(100.0, 1.0, 1)
        scheduler = FixedPeriodScheduler(period_length=10.0)
        result = play_nonadaptive(scheduler, FirstPeriodAdversary(), params)
        # First period killed at ~10; remainder (~90) runs as one long period.
        assert result.total_work == pytest.approx(89.0, abs=0.1)
        assert result.num_interrupts == 1

    def test_single_period_baseline_zeroed_by_adversary(self):
        params = CycleStealingParams(100.0, 1.0, 1)
        result = play_nonadaptive(SinglePeriodScheduler(), LastPeriodAdversary(), params)
        assert result.total_work == pytest.approx(0.0, abs=1e-5)


class TestGuaranteedAdaptiveWork:
    def test_p0_is_single_period_work(self):
        params = CycleStealingParams(50.0, 1.0, 0)
        assert guaranteed_adaptive_work(SinglePeriodScheduler(), params) == pytest.approx(49.0)

    def test_single_period_guarantees_nothing_under_interrupts(self):
        params = CycleStealingParams(50.0, 1.0, 1)
        assert guaranteed_adaptive_work(SinglePeriodScheduler(), params) == pytest.approx(0.0)

    def test_matches_minimax_adversary_play(self):
        params = CycleStealingParams(300.0, 1.0, 2)
        scheduler = EqualizingAdaptiveScheduler()
        value = guaranteed_adaptive_work(scheduler, params)
        result = play_adaptive(scheduler, MinimaxAdversary(scheduler), params)
        assert result.total_work == pytest.approx(value, rel=1e-6, abs=1e-3)

    def test_never_exceeds_p0_optimum(self):
        params = CycleStealingParams(300.0, 1.0, 3)
        scheduler = EqualizingAdaptiveScheduler()
        assert guaranteed_adaptive_work(scheduler, params) <= params.lifespan - params.setup_cost

    def test_heuristic_adversaries_never_beat_minimax(self):
        params = CycleStealingParams(300.0, 1.0, 2)
        scheduler = EqualizingAdaptiveScheduler()
        guarantee = guaranteed_adaptive_work(scheduler, params)
        for adversary in (NeverInterruptAdversary(), FirstPeriodAdversary(),
                          LastPeriodAdversary()):
            result = play_adaptive(scheduler, adversary, params)
            assert result.total_work >= guarantee - 1e-6

    @pytest.mark.parametrize("block_periods", [7, 64])
    @pytest.mark.parametrize("scheduler", [EqualizingAdaptiveScheduler(),
                                           RosenbergAdaptiveScheduler()])
    def test_block_size_never_changes_the_result(self, monkeypatch, scheduler,
                                                 block_periods):
        # Tiny blocks split every level into many array passes, so the
        # first-reach dedup has to stitch blocks together; the value must
        # be the same bits as with one block per level.
        params = CycleStealingParams(900.0, 1.0, 3)
        whole = guaranteed_adaptive_work(scheduler, params)
        monkeypatch.setattr(game, "_BLOCK_PERIODS", block_periods)
        assert len(list(game._state_blocks(np.ones(block_periods + 1)))) == 2
        assert guaranteed_adaptive_work(scheduler, params).hex() == whole.hex()

    @pytest.mark.parametrize("block_periods", [7, 64])
    @pytest.mark.parametrize("lifespan, setup_cost", [(300.0, 1.0), (900.0, 2.0)])
    def test_blocks_are_stitched_in_state_order(self, monkeypatch, lifespan,
                                                setup_cost, block_periods):
        # Here the first-reached representative of a memo key differs
        # between blocks: stitching the blocks in any other order moves the
        # value by an ulp.
        scheduler = EqualizingAdaptiveScheduler()
        params = CycleStealingParams(lifespan, setup_cost, 3)
        whole = guaranteed_adaptive_work(scheduler, params)
        monkeypatch.setattr(game, "_BLOCK_PERIODS", block_periods)
        assert guaranteed_adaptive_work(scheduler, params).hex() == whole.hex()

    def test_empty_schedule_is_rejected(self):
        class Empty:
            def episode_schedule(self, residual, interrupts_remaining, setup_cost):
                return EpisodeSchedule._from_readonly_view(np.empty(0))

        with pytest.raises(SchedulingError, match="no periods"):
            guaranteed_adaptive_work(Empty(), CycleStealingParams(50.0, 1.0, 1))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
    def test_non_finite_or_non_positive_period_is_rejected(self, bad):
        class Broken:
            def episode_schedule(self, residual, interrupts_remaining, setup_cost):
                periods = np.array([residual / 2, bad])
                periods.setflags(write=False)
                return EpisodeSchedule._from_readonly_view(periods)

        with pytest.raises(SchedulingError, match="finite and positive"):
            guaranteed_adaptive_work(Broken(), CycleStealingParams(50.0, 1.0, 1))

    def test_schedule_longer_than_its_residual_is_rejected(self):
        class TooLong:
            def episode_schedule(self, residual, interrupts_remaining, setup_cost):
                return EpisodeSchedule([residual / 2, residual / 2 + 1e-3])

        with pytest.raises(SchedulingError, match="exceeds the residual"):
            guaranteed_adaptive_work(TooLong(), CycleStealingParams(50.0, 1.0, 1))
        # Within the length tolerance, a schedule may overshoot.
        class Overshoot(TooLong):
            def episode_schedule(self, residual, interrupts_remaining, setup_cost):
                return EpisodeSchedule([residual / 2, residual / 2 + 1e-7])

        guaranteed_adaptive_work(Overshoot(), CycleStealingParams(50.0, 1.0, 1))

    def test_memory_stays_bounded(self):
        # Children are recomputed per block rather than kept per state, and
        # rows are padded at most to twice their length within a block: the
        # largest benchmark point stays under 17 MiB of traced allocations
        # (a level padded to its longest row needs ~50 MiB).
        params = CycleStealingParams(16000.0, 1.0, 4)
        tracemalloc.start()
        try:
            guaranteed_adaptive_work(RosenbergAdaptiveScheduler(), params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 17 * 2**20, f"{peak / 2**20:.1f} MiB"


class _DropsLastSchedule:
    """A guideline scheduler whose batches come back one schedule short."""

    def __init__(self, inner):
        self.inner = inner

    def episode_schedule(self, residual, interrupts_remaining, setup_cost):
        return self.inner.episode_schedule(residual, interrupts_remaining,
                                           setup_cost)

    def episode_schedule_batch(self, residuals, interrupts_remaining, setup_cost):
        return self.inner.episode_schedule_batch(
            residuals, interrupts_remaining, setup_cost)[:-1]


class TestShortScheduleBatch:
    """A batch of the wrong length raises instead of pairing schedules with
    the wrong states (it used to leave a state's value uninitialised)."""

    @pytest.mark.parametrize("lifespan", [300.0, 1000.0, 2000.0, 4000.0])
    @pytest.mark.parametrize("setup_cost", [1.0, 2.0])
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    @pytest.mark.parametrize("make_scheduler", [EqualizingAdaptiveScheduler,
                                                RosenbergAdaptiveScheduler])
    def test_list_batch_one_short_raises(self, make_scheduler, lifespan,
                                         setup_cost, p):
        scheduler = _DropsLastSchedule(make_scheduler())
        with pytest.raises(SchedulingError, match="episode-schedules for"):
            guaranteed_adaptive_work(
                scheduler, CycleStealingParams(lifespan, setup_cost, p))

    @pytest.mark.parametrize("make_scheduler", [EqualizingAdaptiveScheduler,
                                                RosenbergAdaptiveScheduler,
                                                lambda: FixedPeriodScheduler(40.0)])
    def test_flat_rows_one_short_raise(self, monkeypatch, make_scheduler):
        scheduler = make_scheduler()
        build = scheduler._episode_rows
        monkeypatch.setattr(scheduler, "_episode_rows",
                            lambda residuals, p, c: build(residuals[:-1], p, c))
        with pytest.raises(SchedulingError, match="episode-schedules for"):
            guaranteed_adaptive_work(scheduler,
                                     CycleStealingParams(1000.0, 1.0, 2))


class TestResidualGrain:
    @pytest.mark.parametrize("grain", [0.0, -1e-6, float("nan"),
                                       float("inf")])
    @pytest.mark.parametrize("referee", [guaranteed_adaptive_work,
                                         game.guaranteed_adaptive_work_reference])
    def test_grain_must_be_positive_and_finite(self, referee, grain):
        # A zero or NaN grain casts every memo key to the same integer, and
        # the referee used to return a wrong guaranteed work (927.5 for
        # 926.07 here) with only a RuntimeWarning.
        with pytest.raises(ValueError, match="residual_grain"):
            referee(EqualizingAdaptiveScheduler(),
                    CycleStealingParams(1000.0, 1.0, 2), residual_grain=grain)

    def test_scheduler_guaranteed_work_passes_the_grain_on(self):
        scheduler = EqualizingAdaptiveScheduler()
        with pytest.raises(ValueError, match="residual_grain"):
            scheduler.guaranteed_work(CycleStealingParams(1000.0, 1.0, 2),
                                      residual_grain=0.0)
        assert scheduler.guaranteed_work(
            CycleStealingParams(1000.0, 1.0, 2), residual_grain=1e-6) == \
            guaranteed_adaptive_work(scheduler, CycleStealingParams(1000.0, 1.0, 2))

