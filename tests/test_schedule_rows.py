"""Flat schedule rows: the referee's row sums and the batch assembly.

``game._Rows`` sums ragged rows laid out end to end in one flat array, with
one padded ``accumulate`` per bit length of the row counts and one
zero-led ``reduceat``; every sum must be the per-row 1-D one, bit for bit,
because the golden locks pin the referee's and the Monte-Carlo replay's
values to the bit.  The guideline schedulers' ``episode_schedule_batch``
lays a whole batch out in array passes and must reproduce the scalar
``episode_schedule`` bit for bit in every branch of the assembly.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import game
from repro.core.exceptions import InvalidScheduleError, SchedulingError
from repro.core.schedule import EpisodeSchedule, exceeds_lifespan
from repro.schedules import (
    EqualizingAdaptiveScheduler,
    FixedPeriodScheduler,
    RosenbergAdaptiveScheduler,
)


def _rows_of(counts, scales):
    rng = np.random.default_rng(len(counts))
    return [rng.random(n) * scale for n, scale in zip(counts, scales)]


def _assert_rows_match(rows, sums, c):
    finish = np.split(sums.finish, np.cumsum([r.size for r in rows])[:-1])
    for r, row in enumerate(rows):
        assert finish[r].tobytes() == np.cumsum(row).tobytes()
        assert sums.total[r] == np.sum(row)
        if c is not None:
            works = np.maximum(row - c, 0.0)
            start = sums.starts[r]
            assert (sums.running[start:start + row.size].tobytes()
                    == np.cumsum(works).tobytes())
            assert sums.uninterrupted[r] == np.sum(works)


_COUNTS = st.one_of(
    # ragged rows of any count
    st.lists(st.integers(1, 300), min_size=1, max_size=40),
    # runs of equal counts
    st.lists(st.tuples(st.integers(1, 300), st.integers(1, 6)), min_size=1,
             max_size=8).map(lambda runs: [n for n, k in runs for _ in range(k)]),
    # one long row among short ones
    st.tuples(st.lists(st.integers(1, 9), min_size=1, max_size=30),
              st.integers(100, 300)).map(lambda t: t[0] + [t[1]]),
)


class TestRowSums:
    @settings(deadline=None, max_examples=120)
    @given(_COUNTS, st.sampled_from([None, 0.0, 0.7, 3.0]),
           st.sampled_from([1e-3, 1.0, 1e4]))
    def test_sorted_rows_match_per_row_sums(self, counts, c, scale):
        counts = sorted(counts)
        rows = _rows_of(counts, [scale] * len(counts))
        sums = game._Rows(np.concatenate(rows), np.array(counts), c,
                          totals=True)
        _assert_rows_match(rows, sums, c)

    @settings(deadline=None, max_examples=80)
    @given(_COUNTS, st.sampled_from([None, 1.0]), st.sampled_from([64, 1 << 16]),
           st.randoms(use_true_random=False))
    def test_unsorted_rows_through_pack(self, counts, c, block_periods, random):
        # The Monte-Carlo replay packs unsorted schedules into the
        # referee's layout and sums the whole level in one _Rows.
        random.shuffle(counts)
        rows = _rows_of(counts, [10.0 ** random.uniform(-3, 4) for _ in counts])
        schedules = [EpisodeSchedule(row) for row in rows]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(game, "_BLOCK_PERIODS", block_periods)
            packed = game._ScheduleRows.pack(schedules)
        sums = game._Rows(packed.periods, packed.counts, c, totals=True)
        _assert_rows_match([rows[i] for i in packed.states], sums, c)
        for k, i in enumerate(packed.states.tolist()):
            assert sums.total[k] == schedules[i].total_length

    def test_unsorted_counts_directly(self):
        # Runs then share a bit length only by accident: more passes, same bits.
        counts = [5, 300, 1, 64, 63, 2, 2, 150]
        rows = _rows_of(counts, [1.0] * len(counts))
        _assert_rows_match(rows, game._Rows(np.concatenate(rows),
                                            np.array(counts), 0.5, totals=True),
                           0.5)

    def test_empty(self):
        sums = game._Rows(np.empty(0), np.empty(0, dtype=np.int64), 1.0,
                          totals=True)
        assert sums.finish.size == sums.total.size == sums.uninterrupted.size == 0


def test_array_length_check_is_validate_for_lifespan():
    # The referee and the replay check lengths on arrays; the verdict must
    # be validate_for_lifespan's (require_exact=False) on every pair.
    lifespans = np.array([1.0, 50.0, 1e4, 1e9, 0.5])
    steps = np.array([-0.25, 0.0, 1e-12, 5e-7, 1e-6, 1.0000001e-6, 2e-6, 1e-3])
    totals = (lifespans[:, None] * (1.0 + steps * 1e-3) + steps).ravel()
    lifespans = np.repeat(lifespans, steps.size)
    verdict = exceeds_lifespan(totals, lifespans)
    for total, lifespan, over in zip(totals.tolist(), lifespans.tolist(),
                                     verdict.tolist()):
        schedule = EpisodeSchedule([total])
        try:
            schedule.validate_for_lifespan(lifespan, require_exact=False)
        except InvalidScheduleError:
            assert over, (total, lifespan)
        else:
            assert not over, (total, lifespan)
    assert verdict.any() and not verdict.all()


class TestRowLayout:
    def test_blocks_of_consecutive_states_sorted_by_count(self, monkeypatch):
        monkeypatch.setattr(game, "_BLOCK_PERIODS", 10)
        counts = np.array([3, 1, 4, 1, 5, 9, 2, 6, 5, 3])
        states, blocks = game._row_layout(counts)
        assert blocks == [(0, 4), (4, 5), (5, 6), (6, 8), (8, 10)]
        for lo, hi in blocks:
            assert sorted(states[lo:hi]) == list(range(lo, hi))
            assert list(counts[states[lo:hi]]) == sorted(counts[lo:hi])
        assert list(states[:4]) == [1, 3, 0, 2]  # stable among equal counts

    def test_pack_round_trips(self):
        schedules = [EpisodeSchedule([1.0, 2.0]), EpisodeSchedule([3.0]),
                     EpisodeSchedule([4.0, 5.0, 6.0])]
        rows = game._ScheduleRows.pack(schedules)
        assert rows.counts.tolist() == [1, 2, 3]
        assert not rows.periods.flags.writeable
        assert [s.periods.tolist() for s in rows.schedules()] == [
            s.periods.tolist() for s in schedules]


def _branch_residuals(scheduler, p, c):
    """Residuals that reach every branch of the guideline assembly."""
    state = scheduler._ensure_prefix(p, c, 400.0 * c)
    placed = [state.tail_end] + state.body_placed[:6]
    sliver = max(c, 1e-12) * 1e-6
    return [
        c, 2.0 * c,                       # single long period
        state.tail_end,                   # the tail alone covers it
        state.tail_end - 0.25 * c,        # shorter than the tail: scalar
        *(x + sliver / 4 for x in placed),  # front sliver merges
        *(x + 0.5 * c for x in placed),   # ordinary cut-offs
        *np.linspace(2.5 * c, 400.0 * c, 40),
    ]


@pytest.mark.parametrize("make_scheduler", [EqualizingAdaptiveScheduler,
                                            RosenbergAdaptiveScheduler])
class TestGuidelineBatchBranches:
    @pytest.mark.parametrize("p", [1, 2, 4])
    @pytest.mark.parametrize("c", [0.5, 1.0, 3.0])
    def test_every_branch_matches_scalar(self, make_scheduler, p, c):
        scheduler = make_scheduler()
        residuals = _branch_residuals(scheduler, p, c)
        batch = scheduler.episode_schedule_batch(residuals, p, c)
        assert isinstance(batch, list) and len(batch) == len(residuals)
        for residual, schedule in zip(residuals, batch):
            scalar = scheduler.episode_schedule(residual, p, c)
            assert schedule.periods.tobytes() == scalar.periods.tobytes(), residual

    def test_sliver_merge_is_reached(self, make_scheduler):
        scheduler = make_scheduler()
        state = scheduler._ensure_prefix(2, 1.0, 400.0)
        for placed in (state.tail_end, state.body_placed[2]):
            (schedule,) = scheduler.episode_schedule_batch([placed + 2e-7], 2, 1.0)
            unmerged = scheduler._episode_rows([placed + 0.5], 2, 1.0)
            assert schedule.num_periods == unmerged.counts[0] - 1

    def test_exhausted_adversary_is_one_period(self, make_scheduler):
        residuals = [0.5, 3.0, 400.0]
        batch = make_scheduler().episode_schedule_batch(residuals, 0, 1.0)
        assert [s.periods.tolist() for s in batch] == [[r] for r in residuals]

    @pytest.mark.parametrize("max_periods", [3, 6, 40])
    def test_capped_rows_fall_back_to_scalar(self, make_scheduler, max_periods):
        scheduler = make_scheduler(max_periods=max_periods)
        residuals = np.linspace(2.5, 300.0, 37).tolist()
        for residual, schedule in zip(residuals, scheduler.episode_schedule_batch(
                residuals, 3, 1.0)):
            scalar = scheduler.episode_schedule(residual, 3, 1.0)
            assert schedule.periods.tobytes() == scalar.periods.tobytes()

    @pytest.mark.parametrize("residual", [0.0, -1.0, float("nan"),
                                          float("inf")])
    # With no interrupts or no set-up cost every positive residual is one
    # period, so the batch never builds a prefix to stop an infinite one.
    @pytest.mark.parametrize("p, c", [(2, 1.0), (0, 1.0), (2, 0.0)])
    def test_bad_residual_raises_the_scalar_error(self, make_scheduler,
                                                  residual, p, c):
        scheduler = make_scheduler()
        with pytest.raises(Exception) as scalar:
            scheduler.episode_schedule(residual, p, c)
        with pytest.raises(type(scalar.value)) as batch:
            scheduler.episode_schedule_batch([50.0, residual, 7.0], p, c)
        assert str(batch.value) == str(scalar.value)


def test_one_long_row_among_many_singles_stays_small():
    # One block can hold tens of thousands of one-period rows next to a
    # row of thousands of periods; a suffix mask spanning the whole block
    # (rows × longest row) took 324 MiB here.
    scheduler = RosenbergAdaptiveScheduler()
    residuals = [1.5] * 30_000 + [1e6]
    scheduler.episode_schedule_batch([1e6], 4, 1.0)  # build the prefix first
    tracemalloc.start()
    try:
        batch = scheduler.episode_schedule_batch(residuals, 4, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20, f"{peak / 2**20:.1f} MiB"
    assert batch[-1].periods.tobytes() == scheduler.episode_schedule(
        1e6, 4, 1.0).periods.tobytes()


def test_referee_rows_are_the_batch():
    # The referee reads the flat rows; episode_schedule_batch is their
    # list view, with the same length and bits.
    for scheduler in (EqualizingAdaptiveScheduler(), RosenbergAdaptiveScheduler(),
                      FixedPeriodScheduler(7.0)):
        residuals = np.linspace(1.0, 500.0, 211).tolist()
        rows = scheduler._episode_rows(residuals, 2, 1.0)
        batch = scheduler.episode_schedule_batch(residuals, 2, 1.0)
        assert [s.periods.tobytes() for s in rows.schedules()] == [
            s.periods.tobytes() for s in batch]
        assert rows.counts.size == len(residuals)


def test_non_positive_residual_in_referee_level_raises():
    scheduler = RosenbergAdaptiveScheduler()
    with pytest.raises(SchedulingError):
        game._level_rows(scheduler, np.array([10.0, 0.0]), 2, 1.0)
