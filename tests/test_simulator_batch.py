"""Equivalence tests: the vectorized batch backend vs the event engine.

The batch backend's contract is *exact* agreement with the event-driven
reference on identical traces — every float metric bit for bit — plus
``~1e-15``-order agreement (pinned at 1e-9) on Monte-Carlo aggregates when
randomness is involved, because only float summation order may differ.
"""

import numpy as np
import pytest

from repro.core.schedule import EpisodeSchedule
from repro.schedules import (
    EqualizingAdaptiveScheduler,
    FixedPeriodScheduler,
    RosenbergAdaptiveScheduler,
    SinglePeriodScheduler,
)
from repro.simulator import (
    BorrowedWorkstation,
    CycleStealingSimulation,
    simulate_batch,
    simulate_scenarios_batch,
)
from repro.core.exceptions import SchedulingError, SimulationError
from repro.workloads import (
    SCENARIO_FAMILIES,
    bursty_office_day,
    constant_tasks,
    flaky_owners,
    heterogeneous_cluster,
    laptop_evening,
    overnight_desktops,
    pad_traces,
    poisson_interrupts,
    poisson_interrupts_batch,
    shared_lab,
)

METRIC_FIELDS = [
    "productive_time", "overhead_time", "wasted_time", "idle_time",
    "completed_work", "completed_periods", "killed_periods",
    "owner_interrupts", "episodes", "tasks_completed",
]


def assert_reports_identical(event_report, batch_report):
    """Every per-workstation metric must agree exactly (== on floats)."""
    assert set(event_report.per_workstation) == set(batch_report.per_workstation)
    for wid, event_metrics in event_report.per_workstation.items():
        batch_metrics = batch_report.per_workstation[wid]
        for field in METRIC_FIELDS:
            a = getattr(event_metrics, field)
            b = getattr(batch_metrics, field)
            assert a == b, f"{wid}.{field}: event={a!r} batch={b!r}"
    assert event_report.makespan == batch_report.makespan


def run_both(scenario_a, scenario_b, scheduler_factory_fn):
    event_report = CycleStealingSimulation(
        scenario_a.workstations, scheduler_factory_fn(),
        task_bag=scenario_a.task_bag).run()
    (batch_report,) = simulate_scenarios_batch(
        [scenario_b], scheduler_factory_fn())
    return event_report, batch_report


# ----------------------------------------------------------------------
# Bit-for-bit equivalence on the deterministic scenario families
# ----------------------------------------------------------------------
class TestScenarioEquivalence:
    """Canonical-seed scenario families are deterministic: given the same
    seed both backends see identical traces, so reports must match exactly."""

    @pytest.mark.parametrize("family", [
        laptop_evening, overnight_desktops, shared_lab,
        bursty_office_day, heterogeneous_cluster, flaky_owners,
    ])
    @pytest.mark.parametrize("make_scheduler", [
        EqualizingAdaptiveScheduler,
        RosenbergAdaptiveScheduler,
        SinglePeriodScheduler,
        lambda: FixedPeriodScheduler(period_length=17.0),
    ])
    def test_bit_for_bit(self, family, make_scheduler):
        event_report, batch_report = run_both(family(), family(), make_scheduler)
        assert_reports_identical(event_report, batch_report)

    @pytest.mark.parametrize("seed", [0, 1, 2, 99])
    def test_bit_for_bit_across_seeds(self, seed):
        event_report, batch_report = run_both(
            shared_lab(seed=seed), shared_lab(seed=seed),
            EqualizingAdaptiveScheduler)
        assert_reports_identical(event_report, batch_report)

    def test_whole_batch_at_once(self):
        scenarios_a = [laptop_evening(seed=s) for s in range(8)]
        scenarios_b = [laptop_evening(seed=s) for s in range(8)]
        scheduler = EqualizingAdaptiveScheduler()
        batch_reports = simulate_scenarios_batch(scenarios_b, scheduler)
        for scenario, batch_report in zip(scenarios_a, batch_reports):
            event_report = CycleStealingSimulation(
                scenario.workstations, scheduler,
                task_bag=scenario.task_bag).run()
            assert_reports_identical(event_report, batch_report)


# ----------------------------------------------------------------------
# Hand-built edge cases
# ----------------------------------------------------------------------
def _ws(wid="ws-0", lifespan=100.0, setup=2.0, budget=2, interrupts=(), speed=1.0):
    return BorrowedWorkstation(workstation_id=wid, lifespan=lifespan,
                               setup_cost=setup, interrupt_budget=budget,
                               owner_interrupts=interrupts, speed=speed)


class TestEdgeCases:
    def _check(self, workstations, scheduler_fn, bag_fn=lambda: None):
        # Contracts are immutable; only the task bags must be per-backend.
        event_report = CycleStealingSimulation(
            workstations, scheduler_fn(), task_bag=bag_fn()).run()
        (batch_report,) = simulate_batch([workstations], scheduler_fn(),
                                         task_bags=[bag_fn()])
        assert_reports_identical(event_report, batch_report)

    def test_no_interrupts(self):
        self._check([_ws()], EqualizingAdaptiveScheduler)

    def test_interrupt_at_time_zero(self):
        self._check([_ws(interrupts=(0.0, 41.5))], EqualizingAdaptiveScheduler)

    def test_interrupt_exactly_at_period_end(self):
        # The owner event was queued first, so it kills the period even at
        # the exact finish instant.
        scheduler = SinglePeriodScheduler()
        first = scheduler.episode_schedule(100.0, 2, 2.0)
        self._check([_ws(interrupts=(float(first.total_length) / 2,))],
                    SinglePeriodScheduler)

    def test_period_ending_exactly_at_lifespan(self):
        # Single period covers the lifespan exactly: completes at U.
        self._check([_ws(budget=0)], SinglePeriodScheduler)

    def test_owner_exceeding_budget(self):
        self._check([_ws(budget=1, interrupts=(10.0, 20.0, 30.0, 44.4))],
                    EqualizingAdaptiveScheduler)

    def test_interrupts_beyond_lifespan_are_ignored(self):
        self._check([_ws(interrupts=(50.0, 150.0, 220.0))],
                    EqualizingAdaptiveScheduler)

    def test_constant_task_bag_exact(self):
        # Exactly representable sizes: greedy packing must agree exactly.
        self._check([_ws(interrupts=(33.0,))], EqualizingAdaptiveScheduler,
                    bag_fn=lambda: constant_tasks(4096, size=0.125))

    def test_tiny_task_bag_exhausts(self):
        self._check([_ws()], EqualizingAdaptiveScheduler,
                    bag_fn=lambda: constant_tasks(3, size=0.5))

    def test_idle_interrupt_falls_back_to_event_engine(self):
        # A scheduler that under-commits leaves the machine idle before the
        # owner returns — the corner case the array passes hand back to the
        # reference engine.
        class HalfScheduler:
            def episode_schedule(self, residual, interrupts_remaining, setup_cost):
                return EpisodeSchedule.single_period(residual / 2.0)

        ws = [_ws(interrupts=(80.0,))]
        event_report = CycleStealingSimulation(ws, HalfScheduler()).run()
        (batch_report,) = simulate_batch([ws], HalfScheduler())
        assert_reports_identical(event_report, batch_report)
        # Sanity: the case really exercises idle-then-interrupt.
        assert event_report.per_workstation["ws-0"].idle_time > 0.0

    def test_multi_workstation_shared_bag_ties(self):
        # Identical contracts → identical period end times → the task bag
        # is contended at exactly tied instants; heap-order replay must
        # agree with the engine.
        ws = [_ws(wid=f"m-{i}") for i in range(4)]
        self._check(ws, EqualizingAdaptiveScheduler,
                    bag_fn=lambda: constant_tasks(1000, size=0.25))

    def test_validation_matches_engine(self):
        with pytest.raises(SimulationError):
            simulate_batch([[]], EqualizingAdaptiveScheduler())
        dup = [_ws(wid="same"), _ws(wid="same")]
        with pytest.raises(SimulationError):
            simulate_batch([dup], EqualizingAdaptiveScheduler())
        with pytest.raises(SimulationError):
            simulate_batch([[_ws()]], None)  # no scheduler at all

    def test_scheduler_factory_routes_per_workstation(self):
        ws = [_ws(wid="fast", speed=2.0), _ws(wid="slow", speed=0.5)]

        def factory(workstation):
            return (EqualizingAdaptiveScheduler() if workstation.speed > 1.0
                    else SinglePeriodScheduler())

        event_report = CycleStealingSimulation(
            ws, scheduler_factory=factory).run()
        (batch_report,) = simulate_batch([ws], scheduler_factory=factory)
        assert_reports_identical(event_report, batch_report)

    def test_bare_callable_rejection_matches_engine(self):
        def factory(workstation):
            return SinglePeriodScheduler()

        with pytest.raises(SimulationError) as engine:
            CycleStealingSimulation([_ws()], factory)
        with pytest.raises(SimulationError) as batch:
            simulate_scenarios_batch([SCENARIO_FAMILIES["laptop"]()], factory)
        assert str(batch.value) == str(engine.value)

    def test_empty_batch(self):
        assert simulate_scenarios_batch([], EqualizingAdaptiveScheduler()) == []


# ----------------------------------------------------------------------
# Vectorized schedule construction
# ----------------------------------------------------------------------
class TestEpisodeScheduleBatch:
    @pytest.mark.parametrize("make_scheduler", [EqualizingAdaptiveScheduler,
                                                RosenbergAdaptiveScheduler])
    def test_bit_identical_to_scalar(self, make_scheduler):
        scheduler = make_scheduler()
        rng = np.random.default_rng(7)
        for c in (0.5, 1.0, 3.0):
            for p in (1, 2, 4):
                residuals = np.concatenate([
                    rng.uniform(2 * c + 1e-9, 12 * c, 30),
                    rng.uniform(12 * c, 5_000 * c, 60),
                ])
                batch = scheduler.episode_schedule_batch(residuals, p, c)
                for residual, from_batch in zip(residuals, batch):
                    scalar = scheduler.episode_schedule(float(residual), p, c)
                    assert np.array_equal(scalar.periods, from_batch.periods), \
                        (make_scheduler.__name__, c, p, residual)

    @pytest.mark.parametrize("make_scheduler", [EqualizingAdaptiveScheduler,
                                                RosenbergAdaptiveScheduler])
    def test_repeated_batches_keep_the_prefix_length(self, make_scheduler):
        # A streaming Monte-Carlo run asks for one batch per level and
        # chunk; a prefix that grew by a spare period on every call made
        # each later batch's cut-off matrix, and the run's peak memory,
        # grow with the number of chunks.
        scheduler = make_scheduler()
        residuals = np.linspace(3.0, 400.0, 50)
        first = scheduler.episode_schedule_batch(residuals, 2, 1.0)
        length = len(scheduler._ensure_prefix(2, 1.0, 400.0).body_t)
        for _ in range(20):
            again = scheduler.episode_schedule_batch(residuals, 2, 1.0)
        assert len(scheduler._ensure_prefix(2, 1.0, 400.0).body_t) == length
        assert all(np.array_equal(a.periods, b.periods)
                   for a, b in zip(first, again))

    def test_tail_end_boundary(self):
        scheduler = EqualizingAdaptiveScheduler()
        state = scheduler._ensure_prefix(2, 1.0, 50.0)
        L = state.tail_end
        (from_batch,) = scheduler.episode_schedule_batch([L], 2, 1.0)
        scalar = scheduler.episode_schedule(L, 2, 1.0)
        assert np.array_equal(scalar.periods, from_batch.periods)

    @pytest.mark.parametrize("residual", [0.0, -0.0, -1.0])
    def test_non_positive_residual_raises_like_scalar(self, residual):
        # An oracle that never leaves the zero-work region builds no tail,
        # so a zero residual matched the empty prefix and came back as a
        # schedule without periods.
        scheduler = EqualizingAdaptiveScheduler(oracle=lambda L, q, c: 1.0)
        with pytest.raises(SchedulingError) as scalar:
            scheduler.episode_schedule(residual, 2, 1.0)
        with pytest.raises(SchedulingError) as batch:
            scheduler.episode_schedule_batch([residual], 2, 1.0)
        assert str(batch.value) == str(scalar.value)

    def test_base_class_fallback_loops(self):
        scheduler = SinglePeriodScheduler()
        batch = scheduler.episode_schedule_batch([10.0, 20.0], 1, 1.0)
        assert [s.total_length for s in batch] == [10.0, 20.0]

    @pytest.mark.parametrize("make_scheduler", [EqualizingAdaptiveScheduler,
                                                RosenbergAdaptiveScheduler])
    def test_batch_schedules_are_read_only_views(self, make_scheduler):
        batch = make_scheduler().episode_schedule_batch(
            [1.5, 40.0, 7.0, 300.0], 2, 1.0)
        assert isinstance(batch, list) and len(batch) == 4
        base = batch[0].periods.base
        for schedule in batch:
            assert schedule.periods.base is base
            assert not schedule.periods.flags.writeable
            with pytest.raises(ValueError):
                schedule.periods[0] = 5.0

    def test_short_batch_raises(self, monkeypatch):
        # A batch one schedule short used to surface as a KeyError on an
        # internal memo key.
        full = EqualizingAdaptiveScheduler.episode_schedule_batch
        monkeypatch.setattr(EqualizingAdaptiveScheduler, "episode_schedule_batch",
                            lambda self, *args: full(self, *args)[:-1])
        scenario = SCENARIO_FAMILIES["flaky"](seed=3)
        with pytest.raises(SchedulingError, match="episode-schedules for"):
            simulate_scenarios_batch([scenario], EqualizingAdaptiveScheduler())


# ----------------------------------------------------------------------
# Batch trace samplers
# ----------------------------------------------------------------------
class TestBatchSamplers:
    def test_poisson_batch_bit_identical(self):
        seeds = list(range(40))
        for rate, lifespan, cap in ((0.01, 240.0, 2), (0.05, 500.0, None)):
            batch = poisson_interrupts_batch(lifespan, rate, seeds,
                                             max_interrupts=cap)
            for seed, trace in zip(seeds, batch):
                scalar = poisson_interrupts(lifespan, rate, seed=seed,
                                            max_interrupts=cap)
                assert np.array_equal(np.asarray(scalar), trace)

    def test_poisson_batch_zero_rate(self):
        traces = poisson_interrupts_batch(100.0, 0.0, [1, 2, 3])
        assert all(t.size == 0 for t in traces)

    def test_poisson_batch_rejects_bad_args(self):
        with pytest.raises(ValueError):
            poisson_interrupts_batch(0.0, 1.0, [1])
        with pytest.raises(ValueError):
            poisson_interrupts_batch(10.0, -1.0, [1])

    def test_pad_traces(self):
        padded, counts = pad_traces([[1.0, 2.0], [], [3.0]])
        assert padded.shape == (3, 2)
        assert counts.tolist() == [2, 0, 1]
        assert padded[0].tolist() == [1.0, 2.0]
        assert np.isinf(padded[1]).all()
        assert padded[2, 0] == 3.0 and np.isinf(padded[2, 1])

    def test_pad_traces_empty(self):
        padded, counts = pad_traces([])
        assert padded.shape == (0, 0) and counts.size == 0


# ----------------------------------------------------------------------
# All registered families stay equivalent (guards future families)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("family_name", sorted(SCENARIO_FAMILIES))
def test_registered_family_equivalence(family_name):
    family = SCENARIO_FAMILIES[family_name]
    event_report, batch_report = run_both(family(), family(),
                                          EqualizingAdaptiveScheduler)
    assert_reports_identical(event_report, batch_report)


@pytest.mark.parametrize("scheduler_name", ["equalizing-adaptive",
                                            "rosenberg-adaptive", "fixed-period"])
@pytest.mark.parametrize("family_name", ["diurnal", "fleet"])
def test_tying_family_equivalence_across_seeds(family_name, scheduler_name):
    """The families whose machines finish periods at equal instants.

    Their machines share (U, c, p), so the guideline schedulers' backward
    construction ends their episodes' periods at identical times, and the
    shared task bag's order hinges on the heap's tie-breaking.
    """
    from repro.experiments.grid import make_scheduler

    family = SCENARIO_FAMILIES[family_name]
    scheduler = make_scheduler(scheduler_name, family().params)
    batch_reports = simulate_scenarios_batch(
        [family(seed=seed) for seed in range(20)], scheduler)
    for seed, batch_report in enumerate(batch_reports):
        scenario = family(seed=seed)
        event_report = CycleStealingSimulation(
            scenario.workstations, scheduler, task_bag=scenario.task_bag).run()
        assert_reports_identical(event_report, batch_report)


def _grid_kernel(seed, replications=60):
    """A kernel over integer-grid replications: identical machines, owner
    interrupts on period ends, completions on the lifespan boundary."""
    from repro.simulator.batch import _BatchKernel

    rng = np.random.default_rng(seed)
    period = float(rng.integers(1, 5))
    kernel = _BatchKernel(CycleStealingSimulation._resolve_scheduler(
        FixedPeriodScheduler(period_length=period), None))
    for rep in range(replications):
        identical = rep % 2 == 0
        lifespan = float(rng.integers(6, 30))
        workstations = []
        for i in range(int(rng.integers(1, 6))):
            own = lifespan if identical else float(rng.integers(6, 30))
            interrupts = np.sort(rng.integers(0, int(own), int(rng.integers(0, 4))))
            workstations.append(_ws(
                wid=f"g-{i}", lifespan=own, setup=float(rng.integers(0, 3)),
                budget=int(rng.integers(0, 4)),
                interrupts=tuple(interrupts.astype(float).tolist())))
        kernel.add_replication(rep, workstations, constant_tasks(300, size=0.5))
    kernel.run()
    return kernel


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("block", [1, 7, None])
def test_array_order_matches_heap_replay_on_integer_grids(seed, block):
    kernel = _grid_kernel(seed)
    reps = len(kernel.rep_rows)
    block = block or reps
    ordered = {}
    for first in range(0, reps, block):
        for rep, completions in kernel._block_completions(
                first, min(first + block, reps)):
            ordered[rep] = list(completions)
    assert kernel.replayed_reps == set()
    ties = 0
    for rep, rows in kernel.rep_rows.items():
        expected = list(kernel._completion_order(rows))
        assert ordered[rep] == expected, rep
        times = [t for row in rows for _s, _l, piece in kernel._pieces[row]
                 for t in piece.tolist()]
        ties += len(times) - len(set(times))
    assert ties > 100  # the grid really ties completions across machines


class _SubUlpScheduler:
    """Periods below half an ulp of their finish time: equal-time
    completions of one workstation, each pushed by the one before."""

    name = "sub-ulp"

    def episode_schedule(self, residual, interrupts_remaining, setup_cost):
        k = 3 if residual == 10.0 else 1
        return EpisodeSchedule([1.0] + [1e-17] * k
                               + [residual - 1.0 - k * 1e-17])


def test_completions_tied_with_their_predecessor_replay_the_heap():
    from repro.simulator.batch import _BatchKernel
    from repro.workloads import TaskBag

    workstations = [_ws(wid="a", lifespan=10.0, setup=0.0, budget=0),
                    _ws(wid="b", lifespan=10.5, setup=0.0, budget=0)]

    def bag():
        return TaskBag([1, 1] + [6e-13] * 4 + [100])

    event_report = CycleStealingSimulation(
        workstations, _SubUlpScheduler(), task_bag=bag()).run()
    assert [m.tasks_completed for m in event_report.per_workstation.values()] == [3, 3]
    (batch_report,) = simulate_batch([workstations], _SubUlpScheduler(),
                                     task_bags=[bag()])
    assert_reports_identical(event_report, batch_report)
    kernel = _BatchKernel(CycleStealingSimulation._resolve_scheduler(
        _SubUlpScheduler(), None))
    kernel.add_replication(0, workstations, bag())
    kernel.run()
    assert kernel.replayed_reps == {0}


class _UnderCommittingScheduler:
    """Covers only a fraction of the residual — forces idle stretches.

    Interrupts arriving after the episode's last period completes land
    while the machine is idle: exactly the corner the batch kernel now
    handles natively (it used to re-route the replication to the event
    engine).
    """

    name = "under-committing"

    def __init__(self, fraction=0.5, periods=3):
        self.fraction = fraction
        self.periods = periods

    def episode_schedule(self, residual, interrupts_remaining, setup_cost):
        return EpisodeSchedule.equal_periods(residual * self.fraction,
                                             self.periods)


class TestIdleInterruptNative:
    def test_idle_interrupt_bit_for_bit(self):
        """Interrupts landing in the idle gap must match the engine exactly."""
        # Episode 1 covers [0, 50]; the interrupt at 60 arrives while idle
        # (no kill, idle gap closed); the re-planned episode 2 spans
        # [60, 80], so the interrupt at 75 kills its period in flight.
        ws = _ws(lifespan=100.0, setup=2.0, budget=2, interrupts=(60.0, 75.0))
        event = CycleStealingSimulation([ws], _UnderCommittingScheduler()).run()
        (batch,) = simulate_batch([[ws]], _UnderCommittingScheduler())
        assert_reports_identical(event, batch)
        metrics = batch.per_workstation["ws-0"]
        assert metrics.owner_interrupts == 2
        assert metrics.killed_periods == 1      # only the in-flight kill
        assert metrics.idle_time > 0.0

    def test_mixed_busy_and_idle_interrupts(self):
        # First interrupt kills a period in flight; the second arrives idle.
        ws = _ws(lifespan=200.0, setup=1.0, budget=3,
                 interrupts=(20.0, 150.0, 199.5))
        event = CycleStealingSimulation([ws], _UnderCommittingScheduler(0.6)).run()
        (batch,) = simulate_batch([[ws]], _UnderCommittingScheduler(0.6))
        assert_reports_identical(event, batch)

    def test_idle_interrupts_with_shared_task_bag(self):
        bag_a = constant_tasks(500, size=0.5)
        bag_b = constant_tasks(500, size=0.5)
        workstations = [
            _ws("a", lifespan=120.0, setup=1.0, budget=2, interrupts=(70.0,)),
            _ws("b", lifespan=120.0, setup=1.0, budget=2,
                interrupts=(30.0, 80.0)),
        ]
        event = CycleStealingSimulation(workstations,
                                        _UnderCommittingScheduler(),
                                        task_bag=bag_a).run()
        (batch,) = simulate_batch([workstations], _UnderCommittingScheduler(),
                                  task_bags=[bag_b])
        assert_reports_identical(event, batch)

    @pytest.mark.parametrize("family_name", sorted(SCENARIO_FAMILIES.names()))
    def test_no_family_falls_back_to_the_event_engine(self, family_name):
        """fallback_reps stays empty on every registered scenario family."""
        from repro.simulator.batch import _BatchKernel

        family = SCENARIO_FAMILIES[family_name]
        scenarios = [family(seed=seed) for seed in range(5)]
        resolve = CycleStealingSimulation._resolve_scheduler(
            EqualizingAdaptiveScheduler(), None)
        kernel = _BatchKernel(resolve)
        for rep, scenario in enumerate(scenarios):
            kernel.add_replication(rep, scenario.workstations,
                                   scenario.task_bag)
        kernel.run()
        assert kernel.fallback_reps == set()

    def test_flaky_owners_never_falls_back(self):
        """The flaky-owners family (the old fallback hotspot), many seeds."""
        from repro.experiments.grid import point_seed
        from repro.simulator.batch import _BatchKernel

        scenarios = [flaky_owners(seed=point_seed(0, "flaky_owners", r))
                     for r in range(50)]
        resolve = CycleStealingSimulation._resolve_scheduler(
            EqualizingAdaptiveScheduler(), None)
        kernel = _BatchKernel(resolve)
        for rep, scenario in enumerate(scenarios):
            kernel.add_replication(rep, scenario.workstations,
                                   scenario.task_bag)
        kernel.run()
        assert kernel.fallback_reps == set()
        # ... and with the native idle path the reports still match the
        # engine bit for bit.
        fresh = [flaky_owners(seed=point_seed(0, "flaky_owners", r))
                 for r in range(50)]
        event = [CycleStealingSimulation(s.workstations,
                                         EqualizingAdaptiveScheduler(),
                                         task_bag=s.task_bag).run()
                 for s in fresh]
        for rep, event_report in enumerate(event):
            assert_reports_identical(event_report, kernel.report(rep))

    def test_under_committing_scheduler_fuzz(self):
        """Randomized traces over an idle-heavy scheduler, bit for bit."""
        rng = np.random.default_rng(123)
        for trial in range(25):
            lifespan = float(rng.uniform(50.0, 300.0))
            times = np.sort(rng.uniform(0.0, lifespan,
                                        rng.integers(0, 6))).tolist()
            ws = _ws(lifespan=lifespan, setup=float(rng.uniform(0.5, 3.0)),
                     budget=int(rng.integers(0, 5)), interrupts=tuple(times))
            scheduler = _UnderCommittingScheduler(
                fraction=float(rng.uniform(0.3, 1.0)),
                periods=int(rng.integers(1, 5)))
            event = CycleStealingSimulation([ws], scheduler).run()
            (batch,) = simulate_batch([[ws]], scheduler)
            assert_reports_identical(event, batch)
