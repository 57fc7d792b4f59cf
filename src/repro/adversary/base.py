"""Adversary base class.

In the guaranteed-output submodel the owner of the borrowed workstation is
modelled as a malicious adversary who places (up to ``p``) interrupts so as
to minimise the work the borrower accomplishes.  Concrete adversaries differ
in how hard they try:

* the *optimal* adversaries in :mod:`repro.adversary.malicious` compute a
  genuinely worst-case response (they define the guaranteed work);
* the *heuristic* adversaries in :mod:`repro.adversary.heuristics` capture
  simpler behaviours (kill the last periods, kill the longest period, kill
  at fixed times, never kill) that are useful for sanity checks and for the
  comparison benchmarks;
* the *stochastic* owners in :mod:`repro.adversary.stochastic` are not
  adversarial at all — they model real owner behaviour for the
  expected-output companion analysis and for the NOW simulator.

All of them implement :class:`Adversary.choose_interrupt`, the contract
consumed by the game referees in :mod:`repro.core.game`.
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np

from ..core.schedule import EpisodeSchedule

__all__ = ["Adversary"]


class Adversary(abc.ABC):
    """Base class for owner-interrupt strategies."""

    #: Short machine-friendly identifier; subclasses override.
    name: str = "adversary"

    @abc.abstractmethod
    def choose_interrupt(self, schedule: EpisodeSchedule, residual_lifespan: float,
                         interrupts_remaining: int, setup_cost: float) -> Optional[float]:
        """Decide whether (and when) to interrupt the announced episode.

        Parameters
        ----------
        schedule:
            The episode-schedule the borrower has committed to for the
            current episode.
        residual_lifespan:
            Usable lifespan remaining at the start of the episode.
        interrupts_remaining:
            How many interrupts the owner may still use (always ``>= 1``
            when the referee consults the adversary).
        setup_cost:
            The communication set-up cost ``c``.

        Returns
        -------
        Optional[float]
            Episode-relative interrupt time in ``[0, schedule.total_length)``,
            or ``None`` to let the episode run to completion.
        """

    def reset(self) -> None:
        """Forget any per-opportunity state (no-op by default)."""

    def describe(self) -> str:
        """One-line human-readable description used in reports."""
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


def last_instant_of_period(schedule: EpisodeSchedule, period_index: int) -> float:
    """Episode time "just before" the end of the given 1-based period.

    The model's interrupt intervals are half-open (``[τ_k, T_k)``), so the
    adversary cannot name ``T_k`` itself; the referee and the work
    accounting treat any time inside the period identically (the whole
    period is killed), so we return a point a hair's breadth before ``T_k``
    that is guaranteed to still lie inside the period.
    """
    start = schedule.finish_time(period_index - 1)
    end = schedule.finish_time(period_index)
    # Stay strictly inside [start, end) while being as late as floating
    # point allows for reporting purposes.  For a period far shorter than
    # ``end`` (a rounding residue padding the lifespan) the offset rounds
    # away, and ``end`` itself lies in the next period or past the episode.
    late = min(end - max((end - start) * 1e-12, 1e-15),
               float(np.nextafter(end, start)))
    return max(start, late)
