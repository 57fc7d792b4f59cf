"""Tests for the discrete-event NOW simulator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exceptions import InvalidParameterError, SimulationError
from repro.schedules import (
    EqualizingAdaptiveScheduler,
    FixedPeriodScheduler,
    SinglePeriodScheduler,
)
from repro.simulator import (
    BorrowedWorkstation,
    CycleStealingSimulation,
    Event,
    EventKind,
    EventQueue,
    simulate_batch,
)
from repro.workloads import constant_tasks


class TestEventQueue:
    def test_ordering_by_time_then_sequence(self):
        q = EventQueue()
        q.push(5.0, EventKind.PERIOD_END, "a")
        q.push(1.0, EventKind.OWNER_INTERRUPT, "a")
        q.push(1.0, EventKind.LIFESPAN_END, "b")
        first = q.pop()
        second = q.pop()
        third = q.pop()
        assert first.kind is EventKind.OWNER_INTERRUPT
        assert second.kind is EventKind.LIFESPAN_END
        assert third.time == 5.0
        assert q.pop() is None

    def test_peek_and_len(self):
        q = EventQueue()
        assert not q and q.peek_time() is None
        q.push(2.0, EventKind.PERIOD_END, "a")
        assert len(q) == 1 and q.peek_time() == 2.0

    def test_event_is_ordered_dataclass(self):
        a = Event(time=1.0, sequence=0, kind=EventKind.PERIOD_END, workstation_id="x")
        b = Event(time=1.0, sequence=1, kind=EventKind.PERIOD_END, workstation_id="x")
        assert a < b


class TestBorrowedWorkstation:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            BorrowedWorkstation("w", lifespan=0.0, setup_cost=1.0, interrupt_budget=1)
        with pytest.raises(InvalidParameterError):
            BorrowedWorkstation("w", lifespan=10.0, setup_cost=-1.0, interrupt_budget=1)
        with pytest.raises(InvalidParameterError):
            BorrowedWorkstation("w", lifespan=10.0, setup_cost=1.0, interrupt_budget=-1)
        with pytest.raises(InvalidParameterError):
            BorrowedWorkstation("w", lifespan=10.0, setup_cost=1.0, interrupt_budget=1,
                                speed=0.0)
        with pytest.raises(InvalidParameterError):
            BorrowedWorkstation("w", lifespan=10.0, setup_cost=1.0, interrupt_budget=1,
                                owner_interrupts=[-2.0])

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_lifespan(self, value):
        with pytest.raises(InvalidParameterError, match="lifespan"):
            BorrowedWorkstation("w", lifespan=value, setup_cost=1.0, interrupt_budget=1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_setup_cost(self, value):
        with pytest.raises(InvalidParameterError, match="setup_cost"):
            BorrowedWorkstation("w", lifespan=10.0, setup_cost=value, interrupt_budget=1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_speed(self, value):
        with pytest.raises(InvalidParameterError, match="speed"):
            BorrowedWorkstation("w", lifespan=10.0, setup_cost=1.0, interrupt_budget=1,
                                speed=value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_interrupt_time(self, value):
        with pytest.raises(InvalidParameterError, match="interrupt times"):
            BorrowedWorkstation("w", lifespan=10.0, setup_cost=1.0, interrupt_budget=2,
                                owner_interrupts=[value, 5.0])

    def test_interrupts_sorted(self):
        ws = BorrowedWorkstation("w", lifespan=10.0, setup_cost=1.0, interrupt_budget=2,
                                 owner_interrupts=[5.0, 2.0])
        assert ws.owner_interrupts == (2.0, 5.0)


def _single(lifespan=100.0, c=1.0, budget=2, interrupts=(), speed=1.0):
    return BorrowedWorkstation("ws-0", lifespan=lifespan, setup_cost=c,
                               interrupt_budget=budget, owner_interrupts=interrupts,
                               speed=speed)


class TestSimulationBasics:
    def test_requires_workstations(self):
        with pytest.raises(SimulationError):
            CycleStealingSimulation([], SinglePeriodScheduler())

    def test_unique_ids_required(self):
        ws = _single()
        with pytest.raises(SimulationError):
            CycleStealingSimulation([ws, ws], SinglePeriodScheduler())

    def test_no_interrupts_single_period(self):
        report = CycleStealingSimulation([_single()], SinglePeriodScheduler()).run()
        m = report.per_workstation["ws-0"]
        assert m.completed_work == pytest.approx(99.0)
        assert m.completed_periods == 1
        assert m.owner_interrupts == 0
        m.check_conservation(100.0)

    def test_interrupt_kills_work_in_flight(self):
        ws = _single(interrupts=[50.0])
        report = CycleStealingSimulation([ws], SinglePeriodScheduler()).run()
        m = report.per_workstation["ws-0"]
        # The single long period is killed at t=50; the scheduler then gets
        # the residual 50 as one new period -> 49 units of work.
        assert m.completed_work == pytest.approx(49.0)
        assert m.wasted_time == pytest.approx(50.0)
        assert m.killed_periods == 1
        m.check_conservation(100.0)

    def test_fixed_periods_with_interrupt(self):
        ws = _single(interrupts=[25.0])
        report = CycleStealingSimulation([ws], FixedPeriodScheduler(10.0)).run()
        m = report.per_workstation["ws-0"]
        # Periods of 10: two complete (work 18), the third killed at t=25
        # (5 wasted), then a new episode of fixed periods covers [25, 100]
        # (six periods of 10 plus a final period of 15 absorbing the rest).
        assert m.killed_periods == 1
        assert m.wasted_time == pytest.approx(5.0)
        assert m.completed_work == pytest.approx(18.0 + 6 * 9.0 + 14.0)
        m.check_conservation(100.0)

    def test_speed_scales_work(self):
        ws = _single(speed=2.0)
        report = CycleStealingSimulation([ws], SinglePeriodScheduler()).run()
        assert report.per_workstation["ws-0"].completed_work == pytest.approx(198.0)

    def test_interrupts_beyond_budget_handled(self):
        ws = _single(budget=1, interrupts=[20.0, 40.0, 60.0])
        report = CycleStealingSimulation([ws], EqualizingAdaptiveScheduler()).run()
        m = report.per_workstation["ws-0"]
        assert m.owner_interrupts == 3
        m.check_conservation(100.0)
        assert m.completed_work > 0.0

    def test_scheduler_factory_per_workstation(self):
        machines = [_single(), BorrowedWorkstation("ws-1", lifespan=100.0, setup_cost=1.0,
                                                   interrupt_budget=0)]
        factory_calls = []

        def factory(ws):
            factory_calls.append(ws.workstation_id)
            return SinglePeriodScheduler()

        report = CycleStealingSimulation(machines, scheduler_factory=factory).run()
        assert sorted(factory_calls) == ["ws-0", "ws-1"]
        assert report.total_work == pytest.approx(198.0)

    def test_bare_callable_scheduler_is_rejected(self):
        def factory(ws):
            return SinglePeriodScheduler()

        with pytest.raises(SimulationError, match="scheduler_factory="):
            CycleStealingSimulation([_single()], factory)
        with pytest.raises(SimulationError, match="scheduler_factory="):
            simulate_batch([[_single()]], factory)

    def test_callable_scheduler_object_is_not_misclassified(self):
        # A scheduler that is *also* callable used to be ambiguous under the
        # old duck-typing heuristic; it must be treated as a scheduler.
        class CallableScheduler(SinglePeriodScheduler):
            def __call__(self, ws):  # pragma: no cover - must never run
                raise AssertionError("treated as a factory")

        report = CycleStealingSimulation([_single()], CallableScheduler()).run()
        assert report.per_workstation["ws-0"].completed_work == pytest.approx(99.0)

    def test_scheduler_and_factory_are_mutually_exclusive(self):
        with pytest.raises(SimulationError):
            CycleStealingSimulation([_single()], SinglePeriodScheduler(),
                                    scheduler_factory=lambda ws: SinglePeriodScheduler())

    def test_scheduler_required(self):
        with pytest.raises(SimulationError):
            CycleStealingSimulation([_single()])
        with pytest.raises(SimulationError):
            CycleStealingSimulation([_single()], scheduler=object())

    def test_non_callable_factory_rejected(self):
        with pytest.raises(SimulationError):
            CycleStealingSimulation([_single()], scheduler_factory=42)

    def test_report_rows(self):
        report = CycleStealingSimulation([_single()], SinglePeriodScheduler()).run()
        rows = report.rows()
        assert len(rows) == 1 and rows[0]["workstation"] == "ws-0"


class _ShortEpisodeScheduler:
    """Under-commits: one 10-unit period per episode, idling the rest."""

    name = "short-episode"

    def episode_schedule(self, residual, interrupts_remaining, setup_cost):
        from repro import EpisodeSchedule
        return EpisodeSchedule.single_period(min(10.0, residual))


class TestEdgeAccounting:
    """Interrupt-while-idle and exact-boundary paths of the event handlers."""

    def test_interrupt_while_idle_closes_the_gap(self):
        # Episode [0, 10] completes, machine idles until the owner reclaims
        # at t = 50 with nothing in flight: no kill, but the idle gap must
        # be accounted for exactly and a new episode must start.
        ws = _single(interrupts=[50.0])
        report = CycleStealingSimulation([ws], _ShortEpisodeScheduler()).run()
        m = report.per_workstation["ws-0"]
        assert m.killed_periods == 0
        assert m.wasted_time == pytest.approx(0.0)
        assert m.owner_interrupts == 1
        assert m.completed_periods == 2       # [0,10] and [50,60]
        assert m.completed_work == pytest.approx(18.0)
        assert m.idle_time == pytest.approx(80.0)
        m.check_conservation(100.0)

    def test_period_ending_exactly_at_lifespan_counts(self):
        # Four periods of 25 tile the lifespan exactly; the last one ends at
        # the contract boundary and its results make it back in time.
        ws = _single(budget=0)
        report = CycleStealingSimulation([ws], FixedPeriodScheduler(25.0)).run()
        m = report.per_workstation["ws-0"]
        assert m.completed_periods == 4
        assert m.killed_periods == 0
        assert m.completed_work == pytest.approx(4 * 24.0)
        assert m.idle_time == pytest.approx(0.0)
        m.check_conservation(100.0)

    def test_period_overshooting_lifespan_is_wasted(self):
        # A scheduler that always commits a 30-unit period: the episode
        # started by the t = 85 interrupt is still in flight at the
        # contract boundary, so its 15 elapsed units never make it back.
        class Overcommit:
            name = "overcommit"

            def episode_schedule(self, residual, interrupts_remaining, setup_cost):
                from repro import EpisodeSchedule
                return EpisodeSchedule.single_period(30.0)

        ws = _single(interrupts=[85.0])
        report = CycleStealingSimulation([ws], Overcommit()).run()
        m = report.per_workstation["ws-0"]
        assert m.completed_periods == 1        # [0, 30]
        assert m.killed_periods == 1           # in flight at lifespan end
        assert m.wasted_time == pytest.approx(15.0)
        assert m.idle_time == pytest.approx(55.0)
        assert m.completed_work == pytest.approx(29.0)
        m.check_conservation(100.0)

    def test_interrupt_at_idle_tail_then_quiet_until_lifespan(self):
        # Interrupt at t = 95 during idle leaves only 5 units; the fresh
        # episode [95, 100] ends exactly at the lifespan boundary.
        ws = _single(interrupts=[95.0])
        report = CycleStealingSimulation([ws], _ShortEpisodeScheduler()).run()
        m = report.per_workstation["ws-0"]
        assert m.completed_periods == 2       # [0,10] and [95,100]
        assert m.completed_work == pytest.approx(9.0 + 4.0)
        assert m.owner_interrupts == 1
        assert m.killed_periods == 0
        m.check_conservation(100.0)


class TestTasksIntegration:
    def test_tasks_completed_counted(self):
        bag = constant_tasks(500, size=1.0)
        report = CycleStealingSimulation([_single()], SinglePeriodScheduler(),
                                         task_bag=bag).run()
        assert report.total_tasks_completed == 99
        assert bag.completed_tasks == 99

    def test_tasks_shared_across_workstations(self):
        bag = constant_tasks(50, size=1.0)
        machines = [_single(), BorrowedWorkstation("ws-1", lifespan=100.0, setup_cost=1.0,
                                                   interrupt_budget=0)]
        report = CycleStealingSimulation(machines, SinglePeriodScheduler(),
                                         task_bag=bag).run()
        assert report.total_tasks_completed == 50
        assert bag.is_empty


class TestSimulationMatchesAnalyticModel:
    def test_worst_case_trace_matches_guaranteed_work(self):
        """Replaying the analytic worst case through the simulator agrees
        with the game-theoretic guaranteed work (up to scheduling grain)."""
        from repro import CycleStealingParams
        from repro.schedules import RosenbergNonAdaptiveScheduler
        from repro.workloads import worst_case_interrupts_for_schedule

        params = CycleStealingParams(lifespan=400.0, setup_cost=1.0, max_interrupts=2)
        scheduler = RosenbergNonAdaptiveScheduler()
        schedule = scheduler.opportunity_schedule(params)
        trace = worst_case_interrupts_for_schedule(schedule, params)
        ws = BorrowedWorkstation("ws-0", lifespan=400.0, setup_cost=1.0,
                                 interrupt_budget=2, owner_interrupts=trace)

        # Drive the simulator with a scheduler that replays the same fixed
        # schedule (tail after interrupts), i.e. the non-adaptive discipline.
        class TailScheduler:
            name = "tail"

            def episode_schedule(self, residual, p, c):
                clipped = schedule.truncated_to(residual)
                from repro import EpisodeSchedule
                if clipped is None:
                    return EpisodeSchedule.single_period(residual)
                # Keep only the suffix that fits the residual lifespan.
                skip = schedule.num_periods - clipped.num_periods
                tail = schedule.tail_from(skip + 1)
                tail = tail.truncated_to(residual) if tail else None
                if tail is None:
                    return EpisodeSchedule.single_period(residual)
                if tail.total_length < residual:
                    tail = tail.with_appended(residual - tail.total_length)
                return tail

        report = CycleStealingSimulation([ws], TailScheduler()).run()
        simulated = report.per_workstation["ws-0"].completed_work
        analytic = scheduler.guaranteed_work(params)
        # The simulator's oblivious tail differs from the paper's "one long
        # final period" exception, so allow a modest slack.
        assert simulated >= analytic - 2 * params.setup_cost - 2.0
        assert simulated <= params.lifespan

    @settings(deadline=None, max_examples=20)
    @given(st.lists(st.floats(min_value=1.0, max_value=99.0), min_size=0, max_size=5),
           st.integers(min_value=0, max_value=3))
    def test_conservation_property(self, interrupts, budget):
        ws = BorrowedWorkstation("ws-0", lifespan=100.0, setup_cost=1.0,
                                 interrupt_budget=budget,
                                 owner_interrupts=sorted(interrupts))
        report = CycleStealingSimulation([ws], EqualizingAdaptiveScheduler()).run()
        report.per_workstation["ws-0"].check_conservation(100.0)
