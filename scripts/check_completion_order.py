#!/usr/bin/env python
"""Check the batch simulator's task-bag order against the event-heap replay.

Every workstation of a scenario drains one shared task bag, so the batch
backend must hand out tasks in exactly the event heap's completion order.
It works that order out in array passes, a block of replications at a
time; the heap replay ``_BatchKernel._completion_order`` is the reference.
This script runs the production task-bag pass and compares, replication
by replication, the ``(row, work)`` completions it packs with the heap
replay's:

* every registered scenario family under four schedulers
  (equalizing-adaptive, rosenberg-adaptive, fixed-period, single-period),
  50 seeds each;
* 1,000 adversarial replications on integer grids: identical machines,
  owner interrupts on period ends, completions on the lifespan boundary.

It fails on any difference, and also when a replication falls back to the
heap replay (none of these inputs has a period below half an ulp of its
finish time, so each must be ordered by the array passes)::

    PYTHONPATH=src python scripts/check_completion_order.py

Exit codes: ``0`` identical orders, ``1`` a mismatch or a fallback.
"""

from __future__ import annotations

import os
import sys

# Allow running from a repo checkout without installing the package.
_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import numpy as np  # noqa: E402

from repro.experiments.grid import make_scheduler  # noqa: E402
from repro.registry import SCENARIO_FAMILIES  # noqa: E402
from repro.schedules import FixedPeriodScheduler, SinglePeriodScheduler  # noqa: E402
from repro.simulator import BorrowedWorkstation, CycleStealingSimulation  # noqa: E402
from repro.simulator.batch import _BatchKernel  # noqa: E402
from repro.workloads import constant_tasks  # noqa: E402

SCHEDULERS = ("equalizing-adaptive", "rosenberg-adaptive", "fixed-period",
              "single-period")
SEEDS = 50
GRID_REPLICATIONS = 1000
GRID_KERNELS = 10


def compare(instances, scheduler=None, scheduler_factory=None):
    """``(replications, completions, problems)`` of one kernel run."""
    kernel = _BatchKernel(CycleStealingSimulation._resolve_scheduler(
        scheduler, scheduler_factory))
    for rep, (workstations, bag) in enumerate(instances):
        kernel.add_replication(rep, workstations, bag)
    packed = {}
    kernel._pack = lambda rep, completions: packed.setdefault(rep, list(completions))
    kernel.run()
    problems = []
    if kernel.replayed_reps:
        problems.append(f"replications {sorted(kernel.replayed_reps)} fell "
                        "back to the heap replay")
    completions = 0
    for rep, rows in kernel.rep_rows.items():
        expected = list(kernel._completion_order(rows))
        completions += len(expected)
        got = packed.get(rep, [])
        if got != expected:
            first = next((i for i, (a, b) in enumerate(zip(got, expected))
                          if a != b), min(len(got), len(expected)))
            problems.append(f"replication {rep}: order differs from the heap "
                            f"replay at completion {first} of {len(expected)}")
    return len(kernel.rep_rows), completions, problems


def grid_instances(rng, count):
    """Replications on an integer grid, where equal-time events abound."""
    out = []
    for _ in range(count):
        machines = int(rng.integers(2, 6))
        identical = rng.random() < 0.5
        common = float(rng.integers(8, 40))
        workstations = []
        for i in range(machines):
            lifespan = common if identical else float(rng.integers(8, 40))
            interrupts = np.sort(rng.integers(0, int(lifespan),
                                              int(rng.integers(0, 4))))
            workstations.append(BorrowedWorkstation(
                workstation_id=f"grid-{i}", lifespan=lifespan,
                setup_cost=float(rng.integers(0, 3)),
                interrupt_budget=int(rng.integers(0, 4)),
                owner_interrupts=interrupts.astype(float).tolist()))
        out.append((workstations, constant_tasks(400, size=0.5)))
    return out


def main() -> int:
    failures = []
    total_reps = total_completions = 0
    for family_name in sorted(SCENARIO_FAMILIES.names()):
        family = SCENARIO_FAMILIES[family_name]
        probe = family()
        instances = [(s.workstations, s.task_bag)
                     for s in (family(seed=seed) for seed in range(SEEDS))]
        for name in SCHEDULERS:
            reps, completions, problems = compare(
                instances, make_scheduler(name, probe.params))
            total_reps += reps
            total_completions += completions
            status = "ok" if not problems else f"{len(problems)} problem(s)"
            print(f"{family_name:9s} {name:20s} reps={reps} "
                  f"completions={completions} {status}")
            failures += [f"{family_name}/{name}: {p}" for p in problems]

    rng = np.random.default_rng(2024)
    per_kernel = GRID_REPLICATIONS // GRID_KERNELS
    for kernel_index in range(GRID_KERNELS):
        period = float(rng.integers(1, 6))

        def factory(ws, period=period):
            # Fixed integer chunks on most machines, one long period on some.
            return (SinglePeriodScheduler() if ws.workstation_id == "grid-0"
                    and ws.interrupt_budget == 0
                    else FixedPeriodScheduler(period_length=period))

        reps, completions, problems = compare(
            grid_instances(rng, per_kernel), scheduler_factory=factory)
        total_reps += reps
        total_completions += completions
        status = "ok" if not problems else f"{len(problems)} problem(s)"
        print(f"grid-{kernel_index}   fixed(t={period:g})/single     reps={reps} "
              f"completions={completions} {status}")
        failures += [f"grid-{kernel_index}: {p}" for p in problems]

    for failure in failures[:20]:
        print(f"::error title=completion order::{failure}")
    print(f"{total_reps} replications, {total_completions} completions: "
          f"{len(failures)} problem(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
