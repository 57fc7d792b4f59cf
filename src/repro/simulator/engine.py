"""Discrete-event simulator of data-parallel cycle-stealing in a NOW.

The simulator plays the cycle-stealing protocol the paper models —
workstation A repeatedly ships a period's worth of work to each borrowed
workstation B, pays the set-up cost ``c`` per period, and loses everything a
period had in flight when B's owner reclaims the machine — but against
*traces* of owner behaviour rather than against the abstract adversary, and
across an arbitrary number of borrowed machines at once.  It is the
substrate on which the examples and the comparison benchmarks exercise the
scheduling guidelines end-to-end (tasks, heterogeneous speeds, owners that
break the negotiated interrupt budget, ...).

Design notes
------------
* The scheduler interface is exactly the adaptive protocol of
  :mod:`repro.core.game`, so every scheduler in :mod:`repro.schedules` can
  be dropped in unchanged.
* Stale ``PERIOD_END`` events left behind after an owner interrupt are
  invalidated with a per-workstation epoch counter rather than removed from
  the heap (the standard discrete-event idiom).
* All times are absolute simulation times; per-episode schedules are
  translated by the episode's start time.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

from ..core.exceptions import SimulationError
from ..core.game import AdaptiveSchedulerProtocol
from .events import EventKind, EventQueue
from .metrics import SimulationReport
from .workstation import BorrowedWorkstation, WorkstationState

__all__ = ["CycleStealingSimulation"]

SchedulerFactory = Callable[[BorrowedWorkstation], AdaptiveSchedulerProtocol]


class CycleStealingSimulation:
    """Simulate one cycle-stealing opportunity across a network of workstations.

    Parameters
    ----------
    workstations:
        The borrowed machines (contracts) to drive.
    scheduler:
        A single adaptive scheduler shared by every contract.  A callable
        that is not a scheduler is rejected: pass factories as
        ``scheduler_factory=``.
    task_bag:
        Optional data-parallel workload (see
        :class:`repro.workloads.TaskBag`).  When present, completed
        productive time is converted into completed tasks, shared across
        all workstations (first come, first served).
    scheduler_factory:
        Keyword-only: a callable mapping a :class:`BorrowedWorkstation` to
        the scheduler to use for it (e.g. to give heterogeneous machines
        different guidelines).  Mutually exclusive with ``scheduler``.
    """

    def __init__(self, workstations: Sequence[BorrowedWorkstation],
                 scheduler: Optional[AdaptiveSchedulerProtocol] = None,
                 task_bag=None, *,
                 scheduler_factory: Optional[SchedulerFactory] = None):
        if not workstations:
            raise SimulationError("at least one borrowed workstation is required")
        ids = [w.workstation_id for w in workstations]
        if len(set(ids)) != len(ids):
            raise SimulationError(f"workstation ids must be unique, got {ids}")
        self.workstations = list(workstations)
        self._scheduler_for = self._resolve_scheduler(scheduler, scheduler_factory)
        self.task_bag = task_bag
        self._queue = EventQueue()
        self._states: Dict[str, WorkstationState] = {}
        self._clock = 0.0

    @staticmethod
    def _resolve_scheduler(scheduler: Optional[AdaptiveSchedulerProtocol],
                           scheduler_factory) -> SchedulerFactory:
        if scheduler_factory is not None:
            if scheduler is not None:
                raise SimulationError(
                    "pass either scheduler or scheduler_factory, not both")
            if not callable(scheduler_factory):
                raise SimulationError(
                    f"scheduler_factory must be callable, got {scheduler_factory!r}")
            return scheduler_factory
        if scheduler is None:
            raise SimulationError("a scheduler (or scheduler_factory) is required")
        if not hasattr(scheduler, "episode_schedule"):
            # A callable scheduler instance is still a scheduler; a bare
            # callable is not.
            raise SimulationError(
                f"{scheduler!r} does not implement the adaptive scheduler "
                "protocol; pass a factory callable as scheduler_factory=")
        return lambda _ws: scheduler

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self) -> SimulationReport:
        """Run the simulation to completion and return the aggregated report."""
        self._queue = EventQueue()
        self._states = {}
        self._clock = 0.0

        for ws in self.workstations:
            state = WorkstationState(workstation=ws)
            self._states[ws.workstation_id] = state
            for t in ws.owner_interrupts:
                if t < ws.lifespan:
                    self._queue.push(t, EventKind.OWNER_INTERRUPT, ws.workstation_id)
            self._queue.push(ws.lifespan, EventKind.LIFESPAN_END, ws.workstation_id)
            self._start_episode(state, start_time=0.0)

        while self._queue:
            event = self._queue.pop()
            self._clock = event.time
            state = self._states[event.workstation_id]
            if event.kind is EventKind.PERIOD_END:
                self._handle_period_end(state, event)
            elif event.kind is EventKind.OWNER_INTERRUPT:
                self._handle_interrupt(state, event.time)
            elif event.kind is EventKind.LIFESPAN_END:
                self._handle_lifespan_end(state, event.time)

        report = SimulationReport(per_workstation={wid: s.metrics
                                                   for wid, s in self._states.items()},
                                  makespan=max(w.lifespan for w in self.workstations))
        return report

    # ------------------------------------------------------------------
    # Episode / period machinery
    # ------------------------------------------------------------------
    def _start_episode(self, state: WorkstationState, start_time: float) -> None:
        ws = state.workstation
        residual = ws.lifespan - start_time
        if residual <= 0.0 or state.finished:
            return
        scheduler = self._scheduler_for(ws)
        schedule = scheduler.episode_schedule(residual, state.interrupts_remaining,
                                              ws.setup_cost)
        state.schedule = schedule
        state.episode_history.append(schedule)
        state.metrics.episodes += 1
        state.period_index = 0
        state.period_start = start_time
        state.epoch += 1
        first_end = start_time + schedule[0]
        self._queue.push(first_end, EventKind.PERIOD_END, ws.workstation_id,
                         epoch=state.epoch, period_index=0)

    def _dispatch_next_period(self, state: WorkstationState, start_time: float) -> None:
        ws = state.workstation
        schedule = state.schedule
        next_index = state.period_index + 1
        if schedule is None or next_index >= schedule.num_periods:
            # Episode exhausted with lifespan left: the machine sits idle
            # until the owner interrupts or the contract expires.
            state.period_start = None
            return
        state.period_index = next_index
        state.period_start = start_time
        self._queue.push(start_time + schedule[next_index], EventKind.PERIOD_END,
                         ws.workstation_id, epoch=state.epoch, period_index=next_index)

    def _handle_period_end(self, state: WorkstationState, event) -> None:
        if state.finished or event.payload.get("epoch") != state.epoch:
            return  # stale event from before an interrupt
        ws = state.workstation
        if event.time > ws.lifespan + 1e-9:
            return  # the LIFESPAN_END handler takes care of truncation
        length = state.current_period_length()
        work = state.metrics.record_completed_period(length, ws.setup_cost, ws.speed)
        if self.task_bag is not None and work > 0.0:
            completed, _ = self.task_bag.take(work)
            state.metrics.tasks_completed += completed
        self._dispatch_next_period(state, event.time)

    def _handle_interrupt(self, state: WorkstationState, time: float) -> None:
        if state.finished:
            return
        ws = state.workstation
        if state.period_start is not None:
            elapsed = time - state.period_start
            state.metrics.record_killed_period(elapsed)
        else:
            # Interrupt while idle: nothing in flight to kill, but close the
            # idle gap so the time accounting stays exact.
            state.metrics.record_idle(max(0.0, time - state.metrics.accounted_time))
            state.metrics.owner_interrupts += 1
        state.interrupts_remaining = max(0, state.interrupts_remaining - 1)
        state.epoch += 1          # invalidate the in-flight PERIOD_END event
        state.period_start = None
        state.schedule = None
        self._start_episode(state, start_time=time)

    def _handle_lifespan_end(self, state: WorkstationState, time: float) -> None:
        if state.finished:
            return
        ws = state.workstation
        if state.period_start is not None:
            length = state.current_period_length()
            if state.period_start + length <= time + 1e-9:
                # The in-flight period ends exactly at the contract boundary;
                # its results make it back in time, so it counts.
                work = state.metrics.record_completed_period(length, ws.setup_cost,
                                                             ws.speed)
                if self.task_bag is not None and work > 0.0:
                    completed, _ = self.task_bag.take(work)
                    state.metrics.tasks_completed += completed
            else:
                # The contract expires with a period in flight: its results
                # never make it back, so the elapsed time is wasted.
                elapsed = time - state.period_start
                state.metrics.wasted_time += max(0.0, elapsed)
                state.metrics.killed_periods += 1
        else:
            # Idle tail between the end of the last period and the lifespan.
            state.metrics.record_idle(max(0.0, time - state.metrics.accounted_time))
        state.finished = True
        state.period_start = None
        state.epoch += 1
