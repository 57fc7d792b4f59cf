"""Borrowed-workstation description and per-run bookkeeping.

A :class:`BorrowedWorkstation` describes the contract workstation A holds on
one machine B: the usable lifespan, the communication set-up cost of the A↔B
round trip, the machine's relative speed, the owner's interrupt trace, and
the interrupt budget the guarantee was negotiated for.  The mutable run-time
state (current episode schedule, period in flight, accumulated metrics)
lives in :class:`WorkstationState`, created fresh for every simulation run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..core.exceptions import InvalidParameterError
from ..core.schedule import EpisodeSchedule
from .metrics import WorkstationMetrics

__all__ = ["BorrowedWorkstation", "WorkstationState"]


@dataclass(frozen=True)
class BorrowedWorkstation:
    """Static description of one cycle-stealing contract.

    Parameters
    ----------
    workstation_id:
        Unique name of the borrowed machine.
    lifespan:
        Contracted usable lifespan ``U``.
    setup_cost:
        Communication set-up cost ``c`` of the paired send/reclaim.
    interrupt_budget:
        The bound ``p`` the guarantee was negotiated for.  The owner trace
        may contain more interrupts than this — guarantees then no longer
        apply, which is part of what the simulator lets you study.
    owner_interrupts:
        Absolute times (from the start of the opportunity) at which the
        owner reclaims the machine.
    speed:
        Relative compute speed; one time unit of productive period time
        completes ``speed`` units of work.
    """

    workstation_id: str
    lifespan: float
    setup_cost: float
    interrupt_budget: int
    owner_interrupts: Sequence[float] = ()
    speed: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lifespan) and self.lifespan > 0.0):
            raise InvalidParameterError(
                f"lifespan must be a positive finite number, got {self.lifespan!r}")
        if not (math.isfinite(self.setup_cost) and self.setup_cost >= 0.0):
            raise InvalidParameterError(
                f"setup_cost must be a non-negative finite number, got {self.setup_cost!r}")
        if self.interrupt_budget < 0:
            raise InvalidParameterError(
                f"interrupt_budget must be non-negative, got {self.interrupt_budget!r}")
        if not (math.isfinite(self.speed) and self.speed > 0.0):
            raise InvalidParameterError(
                f"speed must be a positive finite number, got {self.speed!r}")
        times = tuple(sorted(float(t) for t in self.owner_interrupts))
        if not all(math.isfinite(t) and t >= 0.0 for t in times):
            raise InvalidParameterError(
                "owner interrupt times must be non-negative finite numbers")
        object.__setattr__(self, "owner_interrupts", times)


@dataclass
class WorkstationState:
    """Mutable per-run state of one borrowed workstation."""

    workstation: BorrowedWorkstation
    #: Epoch counter used to invalidate stale PERIOD_END events after a kill.
    epoch: int = 0
    #: The episode-schedule currently being executed.
    schedule: Optional[EpisodeSchedule] = None
    #: Index (0-based) of the period currently in flight.
    period_index: int = 0
    #: Start time of the period currently in flight (absolute clock).
    period_start: Optional[float] = None
    #: Interrupts the scheduler still budgets for.
    interrupts_remaining: int = 0
    #: Whether the contract has ended (lifespan expired).
    finished: bool = False
    #: Accumulated metrics.
    metrics: WorkstationMetrics = field(default=None)
    #: History of episode schedules used (for reporting/debugging).
    episode_history: List[EpisodeSchedule] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.metrics is None:
            self.metrics = WorkstationMetrics(workstation_id=self.workstation.workstation_id)
        self.interrupts_remaining = self.workstation.interrupt_budget

    @property
    def busy(self) -> bool:
        """Whether a period is currently in flight."""
        return self.period_start is not None and not self.finished

    def current_period_length(self) -> float:
        """Length of the period currently in flight."""
        assert self.schedule is not None and self.busy
        return self.schedule[self.period_index]
