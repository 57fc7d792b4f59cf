"""Episode and opportunity schedules (Section 2.2 of the paper).

An *episode* is a maximal stretch of time during which workstation A has
uninterrupted access to workstation B.  A's only discretionary power is how
much work to ship in each *period*, so an episode-schedule is simply a
sequence of positive period lengths ``t_1, ..., t_m`` whose sum equals the
residual lifespan ``L`` available at the start of the episode.

:class:`EpisodeSchedule` is the immutable value type used everywhere in the
library: schedulers produce it, the game engine and the simulator consume
it, and the analysis layer inspects it (prefix sums ``T_k``, productivity,
work if uninterrupted, ...).

:class:`OpportunitySchedule` records the sequence of episode-schedules an
adaptive scheduler actually used during one play of the game, together with
where each episode was interrupted; it is produced by the game engine and is
mostly a reporting convenience.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .arithmetic import (
    DEFAULT_ABS_TOL,
    DEFAULT_REL_TOL,
    is_close,
    period_work_array,
    positive_subtraction,
)
from .exceptions import InvalidScheduleError

__all__ = ["EpisodeSchedule", "EpisodeRecord", "OpportunitySchedule"]

#: Absolute tolerance of the length test of
#: :meth:`EpisodeSchedule.validate_for_lifespan` and :func:`exceeds_lifespan`.
LENGTH_ABS_TOL: float = 1e-6


class EpisodeSchedule:
    """An immutable sequence of period lengths for one episode.

    Parameters
    ----------
    periods:
        Iterable of strictly positive period lengths ``t_1, ..., t_m``.
        The order matters: period 1 is dispatched first.

    Notes
    -----
    The class performs *structural* validation only (positive, finite
    lengths).  Whether the schedule fits a particular residual lifespan is
    checked by :meth:`validate_for_lifespan`, because the same schedule
    object is sometimes evaluated hypothetically against several lifespans
    by the analysis code.
    """

    __slots__ = ("_periods", "_total_length", "_finish_times")

    def __init__(self, periods: Iterable[float]):
        arr = np.asarray(list(periods), dtype=float)
        if arr.ndim != 1:
            raise InvalidScheduleError("periods must be a one-dimensional sequence")
        if arr.size == 0:
            raise InvalidScheduleError("an episode schedule needs at least one period")
        if not np.all(np.isfinite(arr)):
            raise InvalidScheduleError("period lengths must be finite")
        if np.any(arr <= 0.0):
            bad = arr[arr <= 0.0][0]
            raise InvalidScheduleError(f"period lengths must be positive, got {bad!r}")
        arr.setflags(write=False)
        self._periods = arr
        self._total_length = None
        self._finish_times = None

    @classmethod
    def _from_readonly_view(cls, view: np.ndarray,
                            total_length: Optional[float] = None) -> "EpisodeSchedule":
        """Wrap a 1-D float view of an already read-only buffer (no copy).

        Internal constructor for the batch assembly paths, which carve
        whole batches of schedules out of one shared array per call; the
        caller guarantees validity and that the base buffer is read-only,
        so neither a copy nor a ``setflags`` is needed per schedule.  A
        caller that already summed the periods (bit for bit as
        :attr:`total_length` would) may pass the sum.
        """
        self = cls.__new__(cls)
        self._periods = view
        self._total_length = total_length
        self._finish_times = None
        return self

    # ------------------------------------------------------------------
    # Basic container behaviour
    # ------------------------------------------------------------------
    @property
    def periods(self) -> np.ndarray:
        """Read-only array of period lengths ``t_1, ..., t_m``."""
        return self._periods

    @property
    def num_periods(self) -> int:
        """Number of periods ``m`` in the schedule."""
        return int(self._periods.size)

    def __len__(self) -> int:
        return self.num_periods

    def __iter__(self) -> Iterator[float]:
        return iter(self._periods.tolist())

    def __getitem__(self, index: int) -> float:
        """Return the length of period ``index`` (0-based)."""
        return float(self._periods[index])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EpisodeSchedule):
            return NotImplemented
        return (self.num_periods == other.num_periods
                and bool(np.all(self._periods == other._periods)))

    def __hash__(self) -> int:
        return hash(self._periods.tobytes())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.num_periods <= 8:
            body = ", ".join(f"{t:g}" for t in self._periods)
        else:
            head = ", ".join(f"{t:g}" for t in self._periods[:3])
            tail = ", ".join(f"{t:g}" for t in self._periods[-2:])
            body = f"{head}, ... , {tail}"
        return f"EpisodeSchedule([{body}], m={self.num_periods}, L={self.total_length:g})"

    # ------------------------------------------------------------------
    # Timing structure
    # ------------------------------------------------------------------
    @property
    def total_length(self) -> float:
        """Total scheduled time ``T_m = t_1 + ... + t_m`` (cached)."""
        if self._total_length is None:
            self._total_length = float(self._periods.sum())
        return self._total_length

    @property
    def finish_times(self) -> np.ndarray:
        """Prefix sums ``T_1, ..., T_m`` (the paper's period end times).

        Cached (the schedule is immutable) and read-only — adversaries and
        both simulation backends consult it on hot paths.
        """
        if self._finish_times is None:
            finishes = np.cumsum(self._periods)
            finishes.setflags(write=False)
            self._finish_times = finishes
        return self._finish_times

    @property
    def start_times(self) -> np.ndarray:
        """Period start times ``τ_1 = 0, τ_2 = T_1, ..., τ_m = T_{m-1}``."""
        finishes = self.finish_times
        starts = np.empty_like(finishes)
        starts[0] = 0.0
        starts[1:] = finishes[:-1]
        return starts

    def finish_time(self, k: int) -> float:
        """Return ``T_k`` — the end time of period ``k`` (1-based).

        ``finish_time(0)`` is defined as ``0`` for convenience, matching the
        paper's ``T_0 = 0``.
        """
        if k < 0 or k > self.num_periods:
            raise IndexError(f"period index {k} out of range [0, {self.num_periods}]")
        if k == 0:
            return 0.0
        return float(self._periods[:k].sum())

    def period_containing(self, time: float) -> int:
        """Return the 1-based index of the period containing ``time``.

        ``time`` must lie in ``[0, total_length)``.  Period ``k`` spans
        ``[T_{k-1}, T_k)``.
        """
        if time < 0.0 or time >= self.total_length:
            raise InvalidScheduleError(
                f"time {time!r} outside the episode [0, {self.total_length!r})"
            )
        finishes = self.finish_times
        return int(np.searchsorted(finishes, time, side="right")) + 1

    # ------------------------------------------------------------------
    # Productivity (Section 4.1)
    # ------------------------------------------------------------------
    def productive_mask(self, setup_cost: float) -> np.ndarray:
        """Boolean mask of periods whose length strictly exceeds ``c``."""
        return self._periods > float(setup_cost)

    def is_productive(self, setup_cost: float) -> bool:
        """True when all periods except possibly the last exceed ``c``.

        This is the paper's notion of a *productive* schedule (used in
        Theorem 4.1): only the terminal period of an episode may be "short".
        """
        if self.num_periods == 1:
            return True
        return bool(np.all(self._periods[:-1] > float(setup_cost)))

    def is_fully_productive(self, setup_cost: float) -> bool:
        """True when *every* period length strictly exceeds ``c``."""
        return bool(np.all(self._periods > float(setup_cost)))

    # ------------------------------------------------------------------
    # Work accounting helpers (the general machinery lives in core.work)
    # ------------------------------------------------------------------
    def work_if_uninterrupted(self, setup_cost: float) -> float:
        """Total work if the episode runs to completion: ``Σ (t_k ⊖ c)``."""
        return float(period_work_array(self._periods, setup_cost).sum())

    def work_of_prefix(self, num_completed: int, setup_cost: float) -> float:
        """Work of the first ``num_completed`` periods, ``Σ_{i<=k} (t_i ⊖ c)``."""
        if num_completed < 0 or num_completed > self.num_periods:
            raise IndexError(
                f"num_completed {num_completed} out of range [0, {self.num_periods}]"
            )
        if num_completed == 0:
            return 0.0
        return float(period_work_array(self._periods[:num_completed], setup_cost).sum())

    def overhead_if_uninterrupted(self, setup_cost: float) -> float:
        """Total communication overhead paid when no interrupt occurs.

        Periods shorter than ``c`` burn their whole length on (truncated)
        set-up, so the overhead of period ``t`` is ``min(t, c)``.
        """
        return float(np.minimum(self._periods, float(setup_cost)).sum())

    # ------------------------------------------------------------------
    # Derived schedules
    # ------------------------------------------------------------------
    def tail_from(self, first_period: int) -> Optional["EpisodeSchedule"]:
        """Return the sub-schedule starting at 1-based period ``first_period``.

        Used by the non-adaptive engine: after an interrupt in period ``i``
        the owner re-uses the tail ``t_{i+1}, ..., t_m``.  Returns ``None``
        when the tail is empty.
        """
        if first_period < 1 or first_period > self.num_periods + 1:
            raise IndexError(
                f"first_period {first_period} out of range [1, {self.num_periods + 1}]"
            )
        tail = self._periods[first_period - 1:]
        if tail.size == 0:
            return None
        return EpisodeSchedule(tail)

    def truncated_to(self, lifespan: float) -> Optional["EpisodeSchedule"]:
        """Clip the schedule so its total length does not exceed ``lifespan``.

        Whole periods beyond the lifespan are dropped; the period straddling
        the boundary is shortened.  Returns ``None`` when nothing fits
        (``lifespan <= 0``).
        """
        if lifespan <= 0.0:
            return None
        if self.total_length <= lifespan:
            return self
        kept: List[float] = []
        remaining = float(lifespan)
        for t in self._periods:
            if remaining <= 0.0:
                break
            kept.append(min(float(t), remaining))
            remaining -= float(t)
        return EpisodeSchedule(kept)

    def with_appended(self, extra_period: float) -> "EpisodeSchedule":
        """Return a new schedule with one extra period appended."""
        return EpisodeSchedule(np.concatenate([self._periods, [float(extra_period)]]))

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate_for_lifespan(self, lifespan: float,
                              *, require_exact: bool = True,
                              rel_tol: float = DEFAULT_REL_TOL,
                              abs_tol: float = LENGTH_ABS_TOL) -> None:
        """Check that the schedule is admissible for a residual lifespan.

        Parameters
        ----------
        lifespan:
            The residual lifespan ``L`` the episode must cover.
        require_exact:
            When true (the default, matching the paper's definition) the
            period lengths must sum to ``L`` up to tolerance; otherwise they
            must merely not exceed it.
        """
        total = self.total_length
        if total > lifespan and not is_close(total, lifespan, rel_tol=rel_tol, abs_tol=abs_tol):
            raise InvalidScheduleError(
                f"schedule length {total!r} exceeds the residual lifespan {lifespan!r}"
            )
        if require_exact and not is_close(total, lifespan, rel_tol=rel_tol, abs_tol=abs_tol):
            raise InvalidScheduleError(
                f"schedule length {total!r} does not cover the residual lifespan {lifespan!r}"
            )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def single_period(cls, lifespan: float) -> "EpisodeSchedule":
        """The 1-period schedule that the paper proves optimal for p = 0."""
        return cls([float(lifespan)])

    @classmethod
    def equal_periods(cls, lifespan: float, num_periods: int) -> "EpisodeSchedule":
        """Split ``lifespan`` into ``num_periods`` equal periods."""
        if num_periods <= 0:
            raise InvalidScheduleError(f"num_periods must be positive, got {num_periods}")
        return cls(np.full(num_periods, float(lifespan) / num_periods))

    @classmethod
    def from_period_lengths(cls, lengths: Sequence[float], lifespan: float,
                            *, absorb_remainder: bool = True) -> "EpisodeSchedule":
        """Build a schedule from target lengths, fitting it to ``lifespan``.

        Guideline formulas produce period lengths whose sum only
        approximately equals the lifespan (floors, closed-form constants).
        This constructor clips the sequence to the lifespan and, when
        ``absorb_remainder`` is set, stretches the final period so the
        schedule covers the lifespan exactly — the convention used by every
        scheduler in :mod:`repro.schedules`.
        """
        lifespan = float(lifespan)
        if lifespan <= 0.0:
            raise InvalidScheduleError(f"lifespan must be positive, got {lifespan!r}")
        kept: List[float] = []
        remaining = lifespan
        for raw in lengths:
            t = float(raw)
            if t <= 0.0:
                continue
            if remaining <= 0.0:
                break
            kept.append(min(t, remaining))
            remaining -= t
        if not kept:
            kept = [lifespan]
            remaining = 0.0
        if absorb_remainder and remaining > 0.0:
            kept[-1] += remaining
        return cls(kept)


def exceeds_lifespan(totals: np.ndarray, lifespans: np.ndarray) -> np.ndarray:
    """Element-wise, whether a schedule length exceeds its residual
    lifespan beyond the default tolerances: the array form of the test
    :meth:`EpisodeSchedule.validate_for_lifespan` makes with
    ``require_exact=False`` (``total > L`` and not :func:`is_close`)."""
    return (totals > lifespans) & ~(np.abs(totals - lifespans) <= np.maximum(
        DEFAULT_REL_TOL * np.maximum(np.abs(totals), np.abs(lifespans)),
        LENGTH_ABS_TOL))


@dataclass(frozen=True)
class EpisodeRecord:
    """What actually happened during one episode of a played opportunity."""

    #: The schedule the owner of A committed to at the start of the episode.
    schedule: EpisodeSchedule
    #: Residual lifespan at the start of the episode.
    residual_lifespan: float
    #: Interrupts the adversary still had available at the start.
    interrupts_remaining: int
    #: Episode time at which the interrupt occurred (``None`` = no interrupt).
    interrupt_time: Optional[float]
    #: Work accomplished during the episode.
    work: float
    #: Time actually consumed by the episode (interrupt time or full length).
    elapsed: float

    @property
    def was_interrupted(self) -> bool:
        """Whether the adversary interrupted this episode."""
        return self.interrupt_time is not None


@dataclass
class OpportunitySchedule:
    """The sequence of episodes of one played cycle-stealing opportunity.

    Produced by the game engine (:mod:`repro.core.game`); the aggregate work
    is the paper's ``W(Σ)`` from Section 2.2.
    """

    episodes: List[EpisodeRecord] = field(default_factory=list)

    def append(self, record: EpisodeRecord) -> None:
        """Add the record of one more episode."""
        self.episodes.append(record)

    @property
    def total_work(self) -> float:
        """Aggregate work over all episodes, ``W(Σ) = Σ_i W(S_i)``."""
        return float(sum(e.work for e in self.episodes))

    @property
    def total_elapsed(self) -> float:
        """Total lifespan consumed by the recorded episodes."""
        return float(sum(e.elapsed for e in self.episodes))

    @property
    def num_interrupts(self) -> int:
        """Number of episodes that ended with an interrupt."""
        return sum(1 for e in self.episodes if e.was_interrupted)

    @property
    def num_episodes(self) -> int:
        """Number of episodes played."""
        return len(self.episodes)

    def interrupt_times(self) -> Tuple[float, ...]:
        """Episode-relative interrupt times, in episode order."""
        return tuple(e.interrupt_time for e in self.episodes if e.interrupt_time is not None)

    def work_lost_to_interrupts(self, setup_cost: float) -> float:
        """Productive time nullified by interrupts (work that was in flight).

        For each interrupted episode this is the work the *current* period
        would have contributed had it completed — the quantity the draconian
        contract destroys.
        """
        lost = 0.0
        for e in self.episodes:
            if e.interrupt_time is None:
                continue
            k = e.schedule.period_containing(min(e.interrupt_time,
                                                 e.schedule.total_length * (1 - 1e-12)))
            start = e.schedule.finish_time(k - 1)
            in_flight = e.interrupt_time - start
            lost += positive_subtraction(in_flight, setup_cost)
        return lost
