"""Tests for the exact dynamic program (reference and fast solvers)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CycleStealingParams
from repro.analysis import bounds
from repro.core.exceptions import InvalidParameterError
from repro.dp import (
    ValueTable,
    discretize_params,
    extract_episode_schedule,
    extract_period_lengths,
    solve,
    solve_fast,
    solve_for_params,
    solve_reference,
)


class TestSolverAgreement:
    @pytest.mark.parametrize("L,c,p", [(60, 1, 2), (100, 3, 2), (80, 2, 3), (50, 0, 2),
                                       (120, 5, 1), (40, 1, 4)])
    def test_fast_equals_reference(self, L, c, p):
        fast = solve_fast(L, c, p)
        ref = solve_reference(L, c, p)
        assert np.array_equal(fast.values, ref.values)

    @settings(deadline=None, max_examples=25)
    @given(st.integers(min_value=5, max_value=120),
           st.integers(min_value=0, max_value=6),
           st.integers(min_value=0, max_value=3))
    def test_fast_equals_reference_property(self, L, c, p):
        fast = solve_fast(L, c, p)
        ref = solve_reference(L, c, p)
        assert np.array_equal(fast.values, ref.values)

    @settings(deadline=None, max_examples=40)
    @given(st.integers(min_value=1, max_value=400),
           st.integers(min_value=0, max_value=400),
           st.integers(min_value=0, max_value=6),
           st.integers(min_value=0, max_value=3),
           st.integers(min_value=0, max_value=3))
    def test_covering_table_slices_to_the_smaller_one(self, L, extra_L, c, p,
                                                      extra_p):
        # What lets one covering table per setup cost answer a whole
        # sweep: a row over a lifespan prefix does not depend on L_max.
        big = solve(L + extra_L, c, p + extra_p)
        small = solve(L, c, p)
        assert np.array_equal(big.values[:p + 1, :L + 1], small.values)
        assert np.array_equal(big.first_periods[:p + 1, :L + 1],
                              small.first_periods)

    def test_solve_dispatch(self):
        assert np.array_equal(solve(50, 1, 1, method="fast").values,
                              solve(50, 1, 1, method="reference").values)
        with pytest.raises(InvalidParameterError):
            solve(50, 1, 1, method="bogus")


class TestStructuralProperties:
    """Proposition 4.1 and the Lipschitz fact the fast solver relies on."""

    @pytest.fixture(scope="class")
    def table(self):
        return solve(400, 2, 3)

    def test_p0_row_is_monus(self, table):
        L = np.arange(table.max_lifespan + 1)
        assert np.array_equal(table.values[0], np.maximum(L - 2, 0))

    def test_monotone_in_lifespan(self, table):
        # Proposition 4.1(a)
        diffs = np.diff(table.values, axis=1)
        assert np.all(diffs >= 0)

    def test_nonincreasing_in_interrupts(self, table):
        # Proposition 4.1(b)
        diffs = np.diff(table.values, axis=0)
        assert np.all(diffs <= 0)

    def test_zero_below_threshold(self, table):
        # Proposition 4.1(c): W = 0 for U <= (p+1)c
        for p in range(table.max_interrupts + 1):
            threshold = (p + 1) * table.setup_cost
            assert np.all(table.values[p, :threshold + 1] == 0)

    def test_positive_above_threshold(self, table):
        for p in range(table.max_interrupts + 1):
            threshold = (p + 1) * table.setup_cost
            assert np.all(table.values[p, threshold + p + 1:] > 0)

    def test_lipschitz_in_lifespan(self, table):
        diffs = np.diff(table.values, axis=1)
        assert np.all(diffs <= 1)

    def test_p1_matches_closed_form(self):
        table = solve(20_000, 1, 1)
        for U in (500, 2_000, 10_000, 20_000):
            closed = bounds.optimal_p1_work(U, 1)
            assert table.value(1, U) == pytest.approx(closed, abs=2.0)

    def test_p0_matches_prop41d(self, table):
        assert table.value(0, 100) == 98


class TestValueTableAPI:
    def test_bounds_checking(self, small_table):
        with pytest.raises(InvalidParameterError):
            small_table.value(10, 5)
        with pytest.raises(InvalidParameterError):
            small_table.value(1, 10_000)
        with pytest.raises(InvalidParameterError):
            small_table.value(-1, 5)

    def test_work_curve_read_only(self, small_table):
        curve = small_table.work_curve(1)
        assert curve.shape == (small_table.max_lifespan + 1,)
        with pytest.raises(ValueError):
            curve[0] = 5

    def test_as_oracle(self, small_table):
        oracle = small_table.as_oracle()
        assert oracle(100.0, 1, 1.0) == small_table.value(1, 100)
        assert oracle(100.7, 1, 1.0) == small_table.value(1, 100)
        assert oracle(-5.0, 1, 1.0) == 0.0
        with pytest.raises(InvalidParameterError):
            oracle(100.0, 1, 2.0)

    def test_oracle_clamps_interrupts_and_lifespan(self, small_table):
        oracle = small_table.as_oracle()
        assert oracle(10_000.0, 1, 1.0) == small_table.value(1, small_table.max_lifespan)
        assert oracle(100.0, 99, 1.0) == small_table.value(small_table.max_interrupts, 100)

    def test_params_helper(self, small_table):
        p = small_table.params(max_interrupts=2, lifespan=300)
        assert isinstance(p, CycleStealingParams)
        assert p.lifespan == 300.0 and p.max_interrupts == 2

    def test_input_validation(self):
        with pytest.raises(InvalidParameterError):
            solve(0, 1, 1)
        with pytest.raises(InvalidParameterError):
            solve(10, -1, 1)
        with pytest.raises(InvalidParameterError):
            solve(10, 1, -1)


class TestScheduleExtraction:
    def test_extracted_schedule_covers_lifespan(self, small_table):
        schedule = extract_episode_schedule(small_table, 500, 2)
        assert schedule.total_length == pytest.approx(500.0)

    def test_extracted_schedule_achieves_table_value(self, small_table):
        """The schedule, played against the worst adversary, achieves W^(p)[L]."""
        from repro.schedules import DPOptimalScheduler

        scheduler = DPOptimalScheduler(small_table)
        for p in (1, 2, 3):
            params = CycleStealingParams(lifespan=500.0, setup_cost=1.0, max_interrupts=p)
            measured = scheduler.guaranteed_work(params)
            assert measured == pytest.approx(small_table.value(p, 500), abs=1e-6)

    def test_extract_lengths_p0(self, small_table):
        assert extract_period_lengths(small_table, 123, 0) == [123]

    def test_extract_bounds_checked(self, small_table):
        with pytest.raises(InvalidParameterError):
            extract_period_lengths(small_table, 10_000, 1)
        with pytest.raises(InvalidParameterError):
            extract_period_lengths(small_table, 100, 99)


class TestDiscretization:
    def test_integer_params_pass_through(self):
        params = CycleStealingParams(lifespan=100.0, setup_cost=2.0, max_interrupts=1)
        L, c, grain = discretize_params(params)
        assert (L, c, grain) == (100, 2, 1.0)

    def test_fractional_setup_cost_refined(self):
        params = CycleStealingParams(lifespan=10.0, setup_cost=0.5, max_interrupts=1)
        L, c, grain = discretize_params(params)
        assert c == round(0.5 / grain)
        assert L == int(10.0 / grain)

    def test_zero_cost(self):
        params = CycleStealingParams(lifespan=10.0, setup_cost=0.0, max_interrupts=1)
        L, c, grain = discretize_params(params)
        assert c == 0 and L >= 1

    def test_bad_grain_rejected(self):
        params = CycleStealingParams(lifespan=10.0, setup_cost=1.0, max_interrupts=1)
        with pytest.raises(InvalidParameterError):
            discretize_params(params, grain=-1.0)

    def test_solve_for_params(self):
        params = CycleStealingParams(lifespan=200.0, setup_cost=1.0, max_interrupts=2)
        table = solve_for_params(params)
        assert isinstance(table, ValueTable)
        assert table.max_lifespan == 200
        assert table.max_interrupts == 2
