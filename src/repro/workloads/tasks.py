"""Data-parallel workloads (bags of independent tasks).

The paper targets *data-parallel* computations: large collections of
independent, individually small tasks whose inputs and outputs travel with
the period that executes them.  :class:`TaskBag` is the minimal faithful
model of such a workload — a multiset of task sizes consumed greedily by the
productive time the schedules manage to secure — plus generators for the
size distributions the examples use.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["TaskBag", "uniform_tasks", "lognormal_tasks", "constant_tasks"]


class TaskBag:
    """A bag of independent tasks with known (work-unit) sizes.

    Parameters
    ----------
    sizes:
        Work units needed by each task (all strictly positive).  Tasks are
        dispatched in the given order; because the tasks are independent the
        order does not affect any quantity the library reports.  The bag
        keeps its own float64 copy: an array is copied directly, any other
        iterable is read element by element.
    """

    def __init__(self, sizes: Sequence[float]):
        if isinstance(sizes, np.ndarray) and sizes.ndim > 0:
            arr = np.array(sizes, dtype=float)
        else:
            arr = np.asarray(list(sizes), dtype=float)
        if arr.size and (not np.all(np.isfinite(arr)) or np.any(arr <= 0.0)):
            raise ValueError("task sizes must be positive finite numbers")
        self._sizes = arr
        self._next = 0
        self._completed = 0

    # ------------------------------------------------------------------
    @property
    def sizes(self) -> np.ndarray:
        """Read-only array of every task's size (the batch backend's view)."""
        view = self._sizes.view()
        view.setflags(write=False)
        return view

    @property
    def total_tasks(self) -> int:
        """Number of tasks the bag started with."""
        return int(self._sizes.size)

    @property
    def completed_tasks(self) -> int:
        """Tasks completed so far."""
        return self._completed

    @property
    def remaining_tasks(self) -> int:
        """Tasks not yet completed."""
        return self.total_tasks - self._completed

    @property
    def total_work(self) -> float:
        """Total work units across all tasks."""
        return float(self._sizes.sum())

    @property
    def remaining_work(self) -> float:
        """Work units still to be done."""
        return float(self._sizes[self._next:].sum())

    @property
    def is_empty(self) -> bool:
        """Whether every task has been completed."""
        return self._next >= self.total_tasks

    # ------------------------------------------------------------------
    def take(self, work_capacity: float) -> Tuple[int, float]:
        """Complete as many whole tasks as fit into ``work_capacity``.

        Returns ``(tasks_completed, work_consumed)``.  Partial tasks are not
        executed (the model's tasks are indivisible), so the unused capacity
        is simply returned to the caller implicitly.  An infinite capacity
        completes every remaining task; a NaN one raises ``ValueError``.
        """
        budget = float(work_capacity)
        if math.isnan(budget):
            raise ValueError("work capacity must not be NaN")
        if budget <= 0.0 or self.is_empty:
            return 0, 0.0
        count = 0
        used = 0.0
        while self._next < self.total_tasks:
            size = float(self._sizes[self._next])
            if size > budget + 1e-12:
                break
            budget -= size
            used += size
            count += 1
            self._next += 1
        self._completed += count
        return count, used

    def reset(self) -> None:
        """Return every task to the bag (for re-running a simulation)."""
        self._next = 0
        self._completed = 0

    def chunk_of(self, num_tasks: int) -> float:
        """Work units of the next ``num_tasks`` tasks (for sizing a period)."""
        end = min(self._next + max(0, int(num_tasks)), self.total_tasks)
        return float(self._sizes[self._next:end].sum())


def constant_tasks(num_tasks: int, size: float = 1.0) -> TaskBag:
    """A bag of ``num_tasks`` identical tasks of the given size."""
    if num_tasks < 0:
        raise ValueError(f"num_tasks must be non-negative, got {num_tasks}")
    return TaskBag(np.full(int(num_tasks), float(size)))


def uniform_tasks(num_tasks: int, low: float, high: float,
                  seed: Optional[int] = None) -> TaskBag:
    """A bag of tasks with sizes uniform in ``[low, high]``."""
    if not (0.0 < low <= high):
        raise ValueError(f"need 0 < low <= high, got low={low!r}, high={high!r}")
    rng = np.random.default_rng(seed)
    return TaskBag(rng.uniform(low, high, size=int(num_tasks)))


def lognormal_tasks(num_tasks: int, median: float, sigma: float = 0.5,
                    seed: Optional[int] = None) -> TaskBag:
    """A bag of tasks with log-normal sizes (heavy-ish tail, realistic mix)."""
    if median <= 0.0 or sigma <= 0.0:
        raise ValueError("median and sigma must be positive")
    rng = np.random.default_rng(seed)
    sizes = rng.lognormal(mean=np.log(median), sigma=sigma, size=int(num_tasks))
    return TaskBag(sizes)
