"""Sweep grids: parameter points, registries and deterministic seeding.

A sweep is the Cartesian product of lifespans × set-up costs × interrupt
budgets × schedulers × adversaries.  Because the orchestrator fans points
out over worker *processes*, a point carries only plain data — scheduler
and adversary are referenced **by registry name** (see
:mod:`repro.registry`, where downstream code can add its own entries) and
instantiated inside the worker.  This keeps every payload picklable and,
more importantly, makes results independent of how points are assigned to
workers.

Seeding is deterministic and collision-resistant: :func:`point_seed`
derives a 63-bit seed from SHA-256 of the base seed plus the point's
coordinates (never from Python's salted ``hash``), so replication ``r`` of
point ``i`` samples the same owner trace no matter which process runs it,
in which order, on which machine.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.exceptions import InvalidParameterError
from ..core.params import CycleStealingParams
from ..registry import ADVERSARIES, SCHEDULERS

__all__ = [
    "SweepPoint",
    "SweepGrid",
    "point_seed",
    "make_scheduler",
    "make_adversary",
    "scheduler_names",
    "adversary_names",
]


def point_seed(base_seed: int, *coordinates) -> int:
    """Stable 63-bit seed for one (point, replication, ...) coordinate tuple.

    Uses SHA-256 of the ``repr`` of the inputs, so the value is identical
    across processes and Python invocations (unlike the built-in ``hash``,
    which is salted per process).  A numpy integer coordinate hashes as the
    Python ``int`` it equals: its ``repr`` depends on the numpy version
    (``np.int64(3)`` under numpy 2, ``3`` before).
    """
    for value in coordinates:
        if isinstance(value, np.integer):
            coordinates = tuple(int(c) if isinstance(c, np.integer) else c
                                for c in coordinates)
            break
    payload = repr((int(base_seed),) + tuple(coordinates)).encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "little") & 0x7FFF_FFFF_FFFF_FFFF


# ----------------------------------------------------------------------
# Built-in registry entries (names -> factories), used inside workers.
# The canonical registries live in repro.registry; this module registers
# the built-ins and re-exports Mapping views under the historical names.
# ----------------------------------------------------------------------
def _fixed_period(params: CycleStealingParams):
    from ..schedules import FixedPeriodScheduler
    return FixedPeriodScheduler(period_length=max(10.0, params.lifespan / 50.0))


def _dp_optimal(params: CycleStealingParams):
    """The exactly-optimal DP scheduler, via the process-wide DP cache.

    Requires integer-valued lifespan and set-up cost (the DP grid);
    :func:`repro.analysis.gap.dp_table_for` raises a clear error otherwise.
    """
    from ..analysis.gap import dp_table_for
    from ..schedules import DPOptimalScheduler
    return DPOptimalScheduler(dp_table_for(params))


def _simple(name: str) -> Callable[[CycleStealingParams], object]:
    def factory(_params: CycleStealingParams):
        from .. import schedules
        return getattr(schedules, name)()
    factory.__name__ = f"make_{name}"
    return factory


for _name, _factory in {
    "equalizing-adaptive": _simple("EqualizingAdaptiveScheduler"),
    "rosenberg-adaptive": _simple("RosenbergAdaptiveScheduler"),
    "rosenberg-nonadaptive": _simple("RosenbergNonAdaptiveScheduler"),
    "single-period": _simple("SinglePeriodScheduler"),
    "equal-split": _simple("EqualSplitScheduler"),
    "geometric": _simple("GeometricPeriodScheduler"),
    "fixed-period": _fixed_period,
    "dp-optimal": _dp_optimal,
}.items():
    if _name not in SCHEDULERS:
        SCHEDULERS.register(_name, _factory)

#: Scheduler factories: ``name -> factory(params) -> scheduler``
#: (a read-only view of :data:`repro.registry.SCHEDULERS`).
SCHEDULER_FACTORIES = SCHEDULERS


def _poisson_owner(params: CycleStealingParams, seed: Optional[int]):
    from ..adversary import PoissonOwner
    rate = max(params.max_interrupts, 1) / params.lifespan
    return PoissonOwner(rate=rate, seed=seed)


def _uniform_owner(params: CycleStealingParams, seed: Optional[int]):
    from ..adversary import UniformResidualOwner
    return UniformResidualOwner(reclaim_probability=1.0, seed=seed)


def _random_period(params: CycleStealingParams, seed: Optional[int]):
    from ..adversary import RandomPeriodAdversary
    return RandomPeriodAdversary(probability=0.8, seed=seed)


def _never(params: CycleStealingParams, seed: Optional[int]):
    from ..adversary import NeverInterruptAdversary
    return NeverInterruptAdversary()


def _last_period(params: CycleStealingParams, seed: Optional[int]):
    from ..adversary import LastPeriodAdversary
    return LastPeriodAdversary()


for _name, _factory in {
    "poisson-owner": _poisson_owner,
    "uniform-owner": _uniform_owner,
    "random-period": _random_period,
    "never": _never,
    "last-period": _last_period,
}.items():
    if _name not in ADVERSARIES:
        ADVERSARIES.register(_name, _factory)

#: Adversary factories: ``name -> factory(params, seed) -> adversary``
#: (a read-only view of :data:`repro.registry.ADVERSARIES`).
#: Stochastic owners consume the seed; deterministic ones ignore it.
ADVERSARY_FACTORIES = ADVERSARIES


def scheduler_names() -> List[str]:
    """Registered scheduler names, for CLI choices and error messages."""
    return SCHEDULERS.names()


def adversary_names() -> List[str]:
    """Registered adversary names, for CLI choices and error messages."""
    return ADVERSARIES.names()


def make_scheduler(name: str, params: CycleStealingParams):
    """Instantiate a registered scheduler for the given opportunity."""
    return SCHEDULERS.create(name, params)


def make_adversary(name: str, params: CycleStealingParams,
                   seed: Optional[int] = None):
    """Instantiate a registered adversary (seeded when stochastic)."""
    return ADVERSARIES.create(name, params, seed)


# ----------------------------------------------------------------------
# Grid
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepPoint:
    """One fully-specified parameter point of a sweep (plain, picklable data)."""

    index: int
    lifespan: float
    setup_cost: float
    max_interrupts: int
    scheduler: str
    adversary: Optional[str] = None

    def params(self) -> CycleStealingParams:
        """The opportunity parameters of this point."""
        return CycleStealingParams(lifespan=float(self.lifespan),
                                   setup_cost=float(self.setup_cost),
                                   max_interrupts=int(self.max_interrupts))

    def key_columns(self) -> Dict[str, object]:
        """The identifying columns shared by every result row of this point."""
        out: Dict[str, object] = {
            "scheduler": self.scheduler,
            "lifespan": float(self.lifespan),
            "setup_cost": float(self.setup_cost),
            "max_interrupts": int(self.max_interrupts),
        }
        if self.adversary is not None:
            out["adversary"] = self.adversary
        return out


@dataclass(frozen=True)
class SweepGrid:
    """The Cartesian product defining a sweep.

    ``adversaries`` may be empty: the sweep is then purely analytic
    (guaranteed work, optionally DP optima) with no Monte-Carlo layer.
    """

    lifespans: Tuple[float, ...]
    setup_costs: Tuple[float, ...] = (1.0,)
    interrupt_budgets: Tuple[int, ...] = (1,)
    schedulers: Tuple[str, ...] = ("equalizing-adaptive",)
    adversaries: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "lifespans",
                           tuple(float(u) for u in self.lifespans))
        object.__setattr__(self, "setup_costs",
                           tuple(float(c) for c in self.setup_costs))
        object.__setattr__(self, "interrupt_budgets",
                           tuple(int(p) for p in self.interrupt_budgets))
        object.__setattr__(self, "schedulers", tuple(self.schedulers))
        object.__setattr__(self, "adversaries", tuple(self.adversaries))
        if not self.lifespans or not self.setup_costs \
                or not self.interrupt_budgets or not self.schedulers:
            raise InvalidParameterError(
                "a sweep grid needs at least one lifespan, setup cost, "
                "interrupt budget and scheduler")
        for name in self.schedulers:
            if name not in SCHEDULER_FACTORIES:
                raise InvalidParameterError(
                    f"unknown scheduler {name!r}; known: {scheduler_names()}")
        for name in self.adversaries:
            if name not in ADVERSARY_FACTORIES:
                raise InvalidParameterError(
                    f"unknown adversary {name!r}; known: {adversary_names()}")

    @property
    def size(self) -> int:
        """Number of points the grid expands to."""
        return (len(self.lifespans) * len(self.setup_costs)
                * len(self.interrupt_budgets) * len(self.schedulers)
                * max(1, len(self.adversaries)))

    def points(self) -> List[SweepPoint]:
        """Expand the grid into an ordered list of :class:`SweepPoint`."""
        adversaries: Sequence[Optional[str]] = self.adversaries or (None,)
        combos = itertools.product(self.schedulers, self.setup_costs,
                                   self.interrupt_budgets, self.lifespans,
                                   adversaries)
        return [SweepPoint(index=i, lifespan=U, setup_cost=c,
                           max_interrupts=p, scheduler=sched, adversary=adv)
                for i, (sched, c, p, U, adv) in enumerate(combos)]

    def point_at(self, index: int) -> SweepPoint:
        """Point ``index`` of :meth:`points`, without expanding the grid.

        The grid order is the ``itertools.product`` order of
        ``(schedulers, setup_costs, interrupt_budgets, lifespans,
        adversaries)`` with adversaries varying fastest, so one
        mixed-radix decomposition of ``index`` recovers the coordinates.
        The run store resumes large grids through this (only *pending*
        points are materialised); ``test_grid_point_at_matches_points``
        pins the equivalence with the expanded list.
        """
        if not 0 <= index < self.size:
            raise InvalidParameterError(
                f"point index {index} out of range for a {self.size}-point grid")
        adversaries: Sequence[Optional[str]] = self.adversaries or (None,)
        axes = (self.schedulers, self.setup_costs, self.interrupt_budgets,
                self.lifespans, adversaries)
        coords = []
        remaining = index
        for axis in reversed(axes):
            coords.append(axis[remaining % len(axis)])
            remaining //= len(axis)
        adv, U, p, c, sched = coords
        return SweepPoint(index=index, lifespan=U, setup_cost=c,
                          max_interrupts=p, scheduler=sched, adversary=adv)
