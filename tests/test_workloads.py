"""Tests for task bags, owner-activity traces and scenarios."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.workloads import (
    TaskBag,
    bursty_interrupts,
    constant_tasks,
    evenly_spaced_interrupts,
    laptop_evening,
    lognormal_tasks,
    overnight_desktops,
    poisson_interrupts,
    shared_lab,
    uniform_tasks,
    workday_interrupts,
)


class TestTaskBag:
    def test_basic_accounting(self):
        bag = TaskBag([1.0, 2.0, 3.0])
        assert bag.total_tasks == 3
        assert bag.total_work == 6.0
        assert bag.remaining_work == 6.0
        assert not bag.is_empty

    def test_take_whole_tasks_only(self):
        bag = TaskBag([1.0, 2.0, 3.0])
        count, used = bag.take(2.5)
        assert count == 1 and used == 1.0
        count, used = bag.take(5.5)
        assert count == 2 and used == 5.0
        assert bag.is_empty and bag.completed_tasks == 3

    def test_take_with_no_capacity(self):
        bag = TaskBag([1.0])
        assert bag.take(0.0) == (0, 0.0)

    def test_take_rejects_nan_capacity(self):
        bag = constant_tasks(10)
        with pytest.raises(ValueError, match="NaN"):
            bag.take(float("nan"))
        assert bag.completed_tasks == 0
        assert bag.take(float("inf")) == (10, 10.0)

    def test_reset(self):
        bag = TaskBag([1.0, 1.0])
        bag.take(10.0)
        bag.reset()
        assert bag.remaining_tasks == 2 and bag.completed_tasks == 0

    def test_chunk_of(self):
        bag = TaskBag([1.0, 2.0, 3.0])
        assert bag.chunk_of(2) == 3.0
        assert bag.chunk_of(10) == 6.0

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            TaskBag([1.0, -1.0])
        with pytest.raises(ValueError):
            TaskBag([0.0])


class TestTaskBagArrayIntake:
    """An array is copied straight into the bag, as if read as a list."""

    def test_source_mutation_leaves_bag_unchanged(self):
        sizes = np.array([1.0, 2.0, 3.0])
        bag = TaskBag(sizes)
        sizes[:] = 7.0
        assert bag.sizes.tolist() == [1.0, 2.0, 3.0]
        assert bag.total_work == 6.0

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
    def test_sizes_match_list_path_bitwise(self, dtype):
        rng = np.random.default_rng(5)
        sizes = (rng.lognormal(0.0, 0.5, size=200) * 10 + 1).astype(dtype)
        from_array = TaskBag(sizes).sizes
        from_list = TaskBag(sizes.tolist()).sizes
        assert from_array.dtype == np.float64
        assert from_array.tobytes() == from_list.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
    def test_rejects_bad_arrays(self, bad):
        with pytest.raises(ValueError, match="positive finite"):
            TaskBag(np.array([1.0, bad, 2.0]))

    def test_sizes_stay_read_only(self):
        bag = TaskBag(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            bag.sizes[0] = 5.0
        assert bag.sizes.tolist() == [1.0, 2.0]

    def test_generators(self):
        assert constant_tasks(5, 2.0).total_work == 10.0
        assert uniform_tasks(100, 0.5, 1.5, seed=0).total_tasks == 100
        assert lognormal_tasks(100, median=1.0, seed=0).total_tasks == 100
        with pytest.raises(ValueError):
            constant_tasks(-1)
        with pytest.raises(ValueError):
            uniform_tasks(10, 2.0, 1.0)
        with pytest.raises(ValueError):
            lognormal_tasks(10, median=-1.0)

    @given(st.lists(st.floats(min_value=0.1, max_value=5.0), min_size=1, max_size=30),
           st.floats(min_value=0.0, max_value=100.0))
    def test_take_never_exceeds_capacity(self, sizes, capacity):
        bag = TaskBag(sizes)
        count, used = bag.take(capacity)
        assert used <= capacity + 1e-9
        assert count == bag.completed_tasks


class TestOwnerActivity:
    def test_poisson_interrupts_within_lifespan(self):
        times = poisson_interrupts(100.0, rate=0.1, seed=1)
        assert all(0.0 <= t < 100.0 for t in times)
        assert times == sorted(times)

    def test_poisson_zero_rate(self):
        assert poisson_interrupts(100.0, rate=0.0) == []

    def test_poisson_max_interrupts_cap(self):
        times = poisson_interrupts(1_000.0, rate=1.0, seed=1, max_interrupts=3)
        assert len(times) == 3

    def test_poisson_validation(self):
        with pytest.raises(ValueError):
            poisson_interrupts(0.0, rate=1.0)

    def test_evenly_spaced(self):
        assert evenly_spaced_interrupts(100.0, 3) == [25.0, 50.0, 75.0]
        assert evenly_spaced_interrupts(100.0, 0) == []

    def test_workday_pattern(self):
        times = workday_interrupts(960.0, day_length=480.0, busy_fraction=0.5,
                                   rate_when_busy=0.05, seed=2)
        assert all(0.0 <= t < 960.0 for t in times)
        # No interrupt should land in the quiet half of either day.
        for t in times:
            assert (t % 480.0) <= 240.0
        with pytest.raises(ValueError):
            workday_interrupts(100.0, busy_fraction=2.0)

    def test_bursty(self):
        times = bursty_interrupts(200.0, num_bursts=3, burst_size=2, seed=3)
        assert all(0.0 <= t < 200.0 for t in times)
        assert times == sorted(times)
        with pytest.raises(ValueError):
            bursty_interrupts(200.0, num_bursts=-1)

    def test_worst_case_trace(self):
        from repro import CycleStealingParams, EpisodeSchedule
        from repro.workloads import worst_case_interrupts_for_schedule

        schedule = EpisodeSchedule.equal_periods(100.0, 10)
        params = CycleStealingParams(100.0, 1.0, 2)
        trace = worst_case_interrupts_for_schedule(schedule, params)
        assert len(trace) <= 2
        assert all(0.0 <= t < 100.0 for t in trace)


class TestScenarios:
    @pytest.mark.parametrize("factory", [laptop_evening, overnight_desktops, shared_lab])
    def test_scenarios_construct_and_describe(self, factory):
        scenario = factory()
        assert scenario.workstations
        assert scenario.task_bag.total_tasks > 0
        assert scenario.params.lifespan > 0
        assert scenario.name in scenario.describe()

    def test_scenarios_are_reproducible(self):
        a = laptop_evening(seed=5)
        b = laptop_evening(seed=5)
        assert a.workstations[0].owner_interrupts == b.workstations[0].owner_interrupts

    def test_scenarios_run_through_simulator(self):
        from repro.schedules import EqualizingAdaptiveScheduler
        from repro.simulator import CycleStealingSimulation

        scenario = laptop_evening()
        report = CycleStealingSimulation(scenario.workstations,
                                         EqualizingAdaptiveScheduler(),
                                         task_bag=scenario.task_bag).run()
        assert report.total_work > 0.0
        for ws in scenario.workstations:
            report.per_workstation[ws.workstation_id].check_conservation(ws.lifespan)


class TestNewScenarioFamilies:
    def test_registry_covers_all_families(self):
        from repro.workloads import SCENARIO_FAMILIES

        assert set(SCENARIO_FAMILIES) == {"laptop", "desktops", "lab",
                                          "office", "cluster", "flaky",
                                          "diurnal", "fleet"}
        for factory in SCENARIO_FAMILIES.values():
            scenario = factory()
            assert scenario.workstations and scenario.task_bag.total_tasks > 0

    def test_scenario_families_is_the_shared_registry(self):
        from repro.registry import SCENARIO_FAMILIES as registry_families
        from repro.workloads import SCENARIO_FAMILIES

        assert SCENARIO_FAMILIES is registry_families
        assert SCENARIO_FAMILIES["laptop"] is laptop_evening

    def test_office_day_is_seeded_and_bursty(self):
        from repro.workloads import bursty_office_day

        a = bursty_office_day(seed=9)
        b = bursty_office_day(seed=9)
        for wa, wb in zip(a.workstations, b.workstations):
            assert wa.owner_interrupts == wb.owner_interrupts
        c = bursty_office_day(seed=10)
        assert any(wa.owner_interrupts != wc.owner_interrupts
                   for wa, wc in zip(a.workstations, c.workstations))

    def test_cluster_speeds_and_setup_costs_vary(self):
        from repro.workloads import heterogeneous_cluster

        scenario = heterogeneous_cluster(seed=3)
        speeds = {ws.speed for ws in scenario.workstations}
        costs = {ws.setup_cost for ws in scenario.workstations}
        assert len(speeds) > 1 and len(costs) > 1
        assert all(ws.setup_cost >= 0.25 for ws in scenario.workstations)

    def test_flaky_owners_break_the_budget(self):
        from repro.workloads import flaky_owners

        scenario = flaky_owners(seed=4, num_machines=8, lifespan=600.0,
                                interrupt_budget=1, breach_factor=5.0)
        total_interrupts = sum(len(ws.owner_interrupts)
                               for ws in scenario.workstations)
        total_budget = sum(ws.interrupt_budget for ws in scenario.workstations)
        assert total_interrupts > total_budget  # the contract premise fails

    def test_flaky_rejects_bad_breach_factor(self):
        from repro.workloads import flaky_owners

        with pytest.raises(ValueError):
            flaky_owners(breach_factor=0.5)

    def test_families_run_through_simulator(self):
        from repro.schedules import EqualizingAdaptiveScheduler
        from repro.simulator import CycleStealingSimulation
        from repro.workloads import (
            bursty_office_day,
            flaky_owners,
            heterogeneous_cluster,
        )

        for factory in (bursty_office_day, heterogeneous_cluster, flaky_owners):
            scenario = factory()
            report = CycleStealingSimulation(scenario.workstations,
                                             EqualizingAdaptiveScheduler(),
                                             task_bag=scenario.task_bag).run()
            assert report.total_work > 0.0
            for ws in scenario.workstations:
                report.per_workstation[ws.workstation_id].check_conservation(
                    ws.lifespan)


class TestInhomogeneousPoisson:
    def test_times_sorted_and_inside_lifespan(self):
        from repro.workloads import diurnal_rate, inhomogeneous_poisson_interrupts

        rate = diurnal_rate(0.001, 0.05, day_length=480.0)
        times = inhomogeneous_poisson_interrupts(960.0, rate, max_rate=0.05,
                                                 seed=11)
        assert times == sorted(times)
        assert all(0.0 <= t < 960.0 for t in times)

    def test_deterministic_in_the_seed(self):
        from repro.workloads import diurnal_rate, inhomogeneous_poisson_interrupts

        rate = diurnal_rate(0.002, 0.04)
        a = inhomogeneous_poisson_interrupts(500.0, rate, max_rate=0.04, seed=3)
        b = inhomogeneous_poisson_interrupts(500.0, rate, max_rate=0.04, seed=3)
        c = inhomogeneous_poisson_interrupts(500.0, rate, max_rate=0.04, seed=4)
        assert a == b
        assert a != c

    def test_respects_max_interrupts(self):
        from repro.workloads import inhomogeneous_poisson_interrupts

        times = inhomogeneous_poisson_interrupts(
            10_000.0, lambda t: 0.1, max_rate=0.1, seed=0, max_interrupts=3)
        assert len(times) == 3

    def test_thinning_matches_homogeneous_special_case(self):
        # With rate_fn == max_rate every candidate is accepted, but the
        # acceptance draw still advances the stream, so the *count* should
        # land near the homogeneous expectation rate * lifespan.
        from repro.workloads import inhomogeneous_poisson_interrupts

        times = inhomogeneous_poisson_interrupts(
            20_000.0, lambda t: 0.05, max_rate=0.05, seed=5)
        assert 800 <= len(times) <= 1200  # mean 1000, +-6 sigma

    def test_rejects_rate_above_envelope(self):
        from repro.workloads import inhomogeneous_poisson_interrupts

        with pytest.raises(ValueError):
            inhomogeneous_poisson_interrupts(1000.0, lambda t: 1.0,
                                             max_rate=0.01, seed=0)

    def test_rejects_bad_parameters(self):
        from repro.workloads import diurnal_rate, inhomogeneous_poisson_interrupts

        with pytest.raises(ValueError):
            inhomogeneous_poisson_interrupts(0.0, lambda t: 0.1, max_rate=0.1)
        with pytest.raises(ValueError):
            diurnal_rate(0.5, 0.1)  # peak below base
        with pytest.raises(ValueError):
            diurnal_rate(0.1, 0.5, day_length=0.0)

    def test_diurnal_rate_profile_shape(self):
        from repro.workloads import diurnal_rate

        rate = diurnal_rate(0.01, 0.09, day_length=480.0, peak_time=240.0)
        assert rate(240.0) == pytest.approx(0.09)
        assert rate(0.0) == pytest.approx(0.01)
        assert rate(480.0 + 240.0) == pytest.approx(0.09)  # next day's peak


class TestDiurnalAndFleetFamilies:
    def test_diurnal_is_seeded_and_daytime_heavy(self):
        from repro.workloads import diurnal_owners

        a = diurnal_owners(seed=2)
        b = diurnal_owners(seed=2)
        for wa, wb in zip(a.workstations, b.workstations):
            assert wa.owner_interrupts == wb.owner_interrupts
        # Interrupts should cluster around the diurnal peaks: compare the
        # in-peak-half density against the off-peak half across machines.
        day = 480.0
        in_peak = off_peak = 0
        for ws in a.workstations:
            for t in ws.owner_interrupts:
                phase = t % day
                if day / 4 <= phase < 3 * day / 4:
                    in_peak += 1
                else:
                    off_peak += 1
        assert in_peak > off_peak

    def test_fleet_mixes_contract_shapes(self):
        from repro.workloads import mixed_fleet

        scenario = mixed_fleet(seed=1)
        costs = {ws.setup_cost for ws in scenario.workstations}
        budgets = {ws.interrupt_budget for ws in scenario.workstations}
        assert len(costs) >= 3 and len(budgets) >= 3
        kinds = {ws.workstation_id.split("-")[1] for ws in scenario.workstations}
        assert kinds == {"laptop", "desktop", "lab"}

    def test_new_families_run_through_simulator(self):
        from repro.schedules import EqualizingAdaptiveScheduler
        from repro.simulator import CycleStealingSimulation
        from repro.workloads import diurnal_owners, mixed_fleet

        for factory in (diurnal_owners, mixed_fleet):
            scenario = factory()
            report = CycleStealingSimulation(scenario.workstations,
                                             EqualizingAdaptiveScheduler(),
                                             task_bag=scenario.task_bag).run()
            assert report.total_work > 0.0
            for ws in scenario.workstations:
                report.per_workstation[ws.workstation_id].check_conservation(
                    ws.lifespan)
