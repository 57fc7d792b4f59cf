"""Stochastic owners (non-adversarial interrupt processes).

The guaranteed-output submodel assumes a malicious owner; its companion
(expected-output) submodel and any realistic NOW deployment face *random*
owner behaviour instead.  The classes here model such owners so the same
schedulers can be evaluated under both regimes — the comparison benchmarks
use them to show how much the worst-case guidelines give up (or do not give
up) when the owner is merely busy rather than malicious.
"""

from __future__ import annotations

import math
from typing import Optional

from ..core.sampling import spawn_rng
from ..core.schedule import EpisodeSchedule
from .base import Adversary

__all__ = ["PoissonOwner", "UniformResidualOwner"]


class PoissonOwner(Adversary):
    """Owner whose reclaims arrive as a Poisson process.

    Parameters
    ----------
    rate:
        Expected number of reclaims per unit time (positive and finite).
    seed:
        Seed for the internal NumPy generator.
    """

    name = "poisson-owner"

    def __init__(self, rate: float, seed: Optional[int] = None):
        if not (0.0 < rate < math.inf):
            raise ValueError(f"rate must be positive and finite, got {rate!r}")
        self.rate = float(rate)
        self._rng = spawn_rng(seed)

    def choose_interrupt(self, schedule: EpisodeSchedule, residual_lifespan: float,
                         interrupts_remaining: int, setup_cost: float) -> Optional[float]:
        """Sample the next reclaim; interrupt if it lands inside the episode."""
        gap = self._rng.exponential(1.0 / self.rate)
        if gap < schedule.total_length:
            return float(gap)
        return None


class UniformResidualOwner(Adversary):
    """Owner who reclaims at a time uniform over the residual lifespan.

    With probability ``reclaim_probability`` a reclaim time is drawn
    uniformly from ``[0, residual_lifespan)``; if it falls beyond the
    announced episode the episode completes untouched.
    """

    name = "uniform-owner"

    def __init__(self, reclaim_probability: float = 1.0, seed: Optional[int] = None):
        if not (0.0 <= reclaim_probability <= 1.0):
            raise ValueError(
                f"reclaim_probability must lie in [0, 1], got {reclaim_probability!r}"
            )
        self.reclaim_probability = float(reclaim_probability)
        self._rng = spawn_rng(seed)

    def choose_interrupt(self, schedule: EpisodeSchedule, residual_lifespan: float,
                         interrupts_remaining: int, setup_cost: float) -> Optional[float]:
        """Sample a uniform reclaim time over the residual lifespan."""
        if self._rng.random() > self.reclaim_probability:
            return None
        t = float(self._rng.uniform(0.0, residual_lifespan))
        if t < schedule.total_length:
            return t
        return None
