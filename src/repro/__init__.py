"""repro — guaranteed-output cycle-stealing in networks of workstations.

A from-scratch reproduction of

    Arnold L. Rosenberg, "Guidelines for Data-Parallel Cycle-Stealing in
    Networks of Workstations, II: On Maximizing Guaranteed Output",
    IPPS/SPDP 1999.

The package is organised around the paper's structure:

* :mod:`repro.core` — the formal model: opportunity parameters ``(U, c, p)``,
  episode schedules, interrupt patterns, work accounting and the
  scheduler-vs-adversary game.
* :mod:`repro.schedules` — the paper's non-adaptive and adaptive guidelines,
  the exact p ≤ 1 optimum, the DP-optimal scheduler and practical baselines.
* :mod:`repro.adversary` — worst-case, heuristic and stochastic owners.
* :mod:`repro.dp` — exact dynamic programming for ``W^(p)[L]``.
* :mod:`repro.analysis` — closed-form bounds, Table 1/2 generators,
  optimality gaps and parameter sweeps.
* :mod:`repro.expected` — the companion expected-output submodel.
* :mod:`repro.simulator` / :mod:`repro.workloads` — a discrete-event NOW
  simulator plus task bags, owner traces and canned scenarios.
* :mod:`repro.experiments` — the experiment harness: parallel sweep
  orchestration, Monte-Carlo replication over stochastic owners, and a
  two-level (LRU + on-disk) cache of solved DP tables.
* :mod:`repro.reporting` — ASCII/CSV rendering of results.
* :mod:`repro.catalog` — the cross-run analytics index and query API.

Quick start
-----------
>>> from repro import CycleStealingParams
>>> from repro.schedules import EqualizingAdaptiveScheduler
>>> params = CycleStealingParams(lifespan=10_000, setup_cost=1.0, max_interrupts=2)
>>> scheduler = EqualizingAdaptiveScheduler()
>>> scheduler.guaranteed_work(params) > 9_500   # worst case over all interrupts
True

Stable facade
-------------
``repro`` re-exports the one-blessed-way entry points — the supported
surface documented in ``docs/api.md``: the model types above plus
``run_spec`` / ``resume_run`` / ``Run`` / ``RunColumns`` (the run store),
``Catalog`` / ``CatalogError`` / ``RunHandle`` / ``export_frame`` (cross-run
analytics), ``ExperimentSpec`` / ``load_spec`` / ``parse_spec`` /
``spec_digest`` / ``spec_summary`` (declarative specs),
``replicate_point`` (Monte-Carlo), and the ``SCHEDULERS`` /
``ADVERSARIES`` / ``SCENARIO_FAMILIES`` registries.  These resolve
lazily (PEP 562), so ``import repro`` stays as cheap as the core model.
"""

from .core import (
    CycleStealingError,
    CycleStealingParams,
    EpisodeSchedule,
    GameResult,
    InvalidInterruptError,
    InvalidParameterError,
    InvalidScheduleError,
    OpportunitySchedule,
    PeriodEndInterrupts,
    SchedulingError,
    SimulationError,
    TimedInterrupts,
    guaranteed_adaptive_work,
    play_adaptive,
    play_nonadaptive,
    positive_subtraction,
)

__version__ = "0.3.0"

#: The lazily re-exported half of the facade: name -> defining submodule.
#: Resolved on first attribute access (PEP 562) so ``import repro`` does
#: not drag in numpy-heavy experiment machinery, and so the run store /
#: catalog (which import back into :mod:`repro.specs`) cannot form an
#: import cycle with this package.
_LAZY_EXPORTS = {
    # run store
    "run_spec": "repro.runstore",
    "resume_run": "repro.runstore",
    "Run": "repro.runstore",
    "RunStore": "repro.runstore",
    "RunColumns": "repro.runstore",
    "ROW_SOURCES": "repro.runstore",
    # cross-run catalog
    "Catalog": "repro.catalog",
    "CatalogError": "repro.catalog",
    "RunHandle": "repro.catalog",
    "export_frame": "repro.catalog",
    # declarative specs
    "ExperimentSpec": "repro.specs",
    "load_spec": "repro.specs",
    "parse_spec": "repro.specs",
    "spec_digest": "repro.specs",
    "spec_summary": "repro.specs",
    # Monte-Carlo replication
    "replicate_point": "repro.experiments.montecarlo",
    # registries
    "SCHEDULERS": "repro.registry",
    "ADVERSARIES": "repro.registry",
    "SCENARIO_FAMILIES": "repro.registry",
}

__all__ = [
    "__version__",
    "CycleStealingParams",
    "EpisodeSchedule",
    "OpportunitySchedule",
    "PeriodEndInterrupts",
    "TimedInterrupts",
    "GameResult",
    "play_adaptive",
    "play_nonadaptive",
    "guaranteed_adaptive_work",
    "positive_subtraction",
    "CycleStealingError",
    "InvalidParameterError",
    "InvalidScheduleError",
    "InvalidInterruptError",
    "SchedulingError",
    "SimulationError",
] + sorted(_LAZY_EXPORTS)


def __getattr__(name: str):
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache: next access skips this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
