"""Parallel experiment orchestrator.

:func:`execute_points` is the one point executor: :func:`run_sweep` and
:func:`repro.runstore.run_spec` both run their points through it, in
process or over a ``concurrent.futures`` worker pool.  A sweep point's
result row holds:

* **guaranteed work** — the exact worst case of the point's scheduler,
  via the minimax referee (always computed);
* **DP optimum** — ``W^(p)[U]`` from the two-level
  :class:`~repro.experiments.cache.DPTableCache` (optional; only for
  integer-valued parameters);
* **Monte-Carlo statistics** — mean/std/quantiles over ``N`` randomized
  owner traces (optional; only for points that name an adversary).

Three properties the tests pin down:

1. **Determinism.**  Rows depend only on ``(grid, seed, replications)`` —
   never on ``jobs``, worker scheduling or iteration order — because every
   replication is seeded from its own ``(point index, replication index)``
   coordinates.
2. **Serial equivalence.**  ``jobs=1`` runs everything in-process (no pool,
   easier debugging, identical rows).
3. **One DP table per setup cost.**  Before the first point the sweep
   solves the tables :func:`table_plan` picks for the whole sweep
   (:func:`solve_table_plan`) — one covering ``(max L, c, max p)`` table
   per setup cost where that is smaller than the tables it replaces — and
   covering lookups answer every point from them: in-process for
   ``jobs=1``, through shared memory for ``jobs > 1``, and over the wire
   then through shared memory on a cluster worker.  With ``cache_dir`` a
   later sweep that needs the same tables loads them from disk instead of
   solving them.
"""

from __future__ import annotations

import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, replace
from typing import (Any, Callable, Dict, Iterable, List, Optional, Sequence,
                    Set, Tuple, Union)

from ..analysis.gap import measure_guaranteed_work
from ..dp.value import ValueTable
from .cache import (
    CacheKey,
    DPTableCache,
    SharedTableHandle,
    SharedTablePublisher,
    attach_shared_table,
    shared_cache,
)
from .grid import SweepGrid, SweepPoint, make_scheduler
from .montecarlo import instance_holder, replicate_point
from .profiling import aggregate_profiles, pop_profile, render_profile, stage_column

__all__ = ["ExperimentConfig", "run_sweep", "execute_points", "parallel_map",
           "publish_shared_tables", "shared_table_keys", "plan_table_keys",
           "table_plan", "spec_table_plan", "solve_table_plan",
           "presolve_tables"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a worker needs besides the point itself (picklable)."""

    replications: int = 0
    seed: int = 0
    cache_dir: Optional[str] = None
    dp_method: str = "fast"
    include_optimal: bool = False
    include_guaranteed: bool = True
    backend: str = "event"
    #: Monte-Carlo aggregation mode: ``"exact"``, ``"streaming"`` or
    #: ``"auto"`` (see :mod:`repro.experiments.montecarlo`).
    aggregation: str = "auto"
    #: Streaming chunk size (replications per chunk); ``None`` auto-sizes
    #: from the replication count.  Never affects results, only memory.
    chunk_size: Optional[int] = None
    #: Variance-reduction mode: ``"none"``, ``"antithetic"`` or
    #: ``"stratified"`` (see :mod:`repro.experiments.variance`).  Non-default
    #: modes add ``{prefix}_sem/_ci_lo/_ci_hi`` columns to replicated rows.
    variance: str = "none"
    #: DP tables the driver published to shared memory (attach-by-name in
    #: workers; empty = every worker resolves tables itself).
    shared_tables: Tuple[SharedTableHandle, ...] = ()
    #: Return per-stage wall-time columns with every row (see
    #: :mod:`repro.experiments.profiling`).
    profile: bool = False


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
# One memory-level DP cache per worker process, keyed by cache directory so
# a worker reused across sweeps with different directories stays correct.
_worker_caches: Dict[Optional[str], DPTableCache] = {}


def _worker_cache(cache_dir: Optional[str]) -> DPTableCache:
    cache = _worker_caches.get(cache_dir)
    if cache is None:
        cache = DPTableCache(cache_dir=cache_dir)
        _worker_caches[cache_dir] = cache
    return cache


#: (cache_dir, block name) pairs already attached and preloaded here.
_adopted_tables: Set[Tuple[Optional[str], str]] = set()


def _adopt_shared_tables(config: ExperimentConfig) -> None:
    """Attach the driver's published DP tables into this process's caches.

    Preloads each attached (zero-copy) table into both the per-worker
    :class:`DPTableCache` and the process-wide shared cache, so every
    solve path — the optimal column and the ``dp-optimal`` scheduler
    factory — reads the one machine-wide copy.  A handle whose block has
    vanished (driver already exited) is skipped; the worker then solves
    normally, which is only slower, never wrong.
    """
    for handle in config.shared_tables:
        marker = (config.cache_dir, handle.block_name)
        if marker in _adopted_tables:
            continue
        try:
            table = attach_shared_table(handle)
        except (OSError, ValueError):
            continue
        _worker_cache(config.cache_dir).preload(table, method=handle.key[3])
        shared_cache().preload(table, method=handle.key[3])
        _adopted_tables.add(marker)


def _evaluate_point(payload: Tuple[SweepPoint, ExperimentConfig]) -> Dict[str, Any]:
    """Compute one result row.  Module-level so it pickles to worker processes."""
    point, config = payload
    params = point.params()
    row: Dict[str, Any] = point.key_columns()
    if config.shared_tables:
        _adopt_shared_tables(config)
    profile = config.profile

    if config.include_guaranteed:
        scheduler = make_scheduler(point.scheduler, params)
        started = time.perf_counter() if profile else 0.0
        guaranteed = measure_guaranteed_work(scheduler, params)
        if profile:
            row[stage_column("referee")] = time.perf_counter() - started
        row["guaranteed_work"] = guaranteed
        row["efficiency"] = guaranteed / params.lifespan

    if config.include_optimal:
        L, c = params.lifespan, params.setup_cost
        if float(L).is_integer() and float(c).is_integer():
            started = time.perf_counter() if profile else 0.0
            table = _worker_cache(config.cache_dir).solve(
                int(L), int(c), params.max_interrupts, method=config.dp_method)
            if profile:
                row[stage_column("dp_solve")] = time.perf_counter() - started
            optimal = table.value(params.max_interrupts, int(L))
            row["optimal_work"] = float(optimal)
            if config.include_guaranteed:
                row["gap"] = float(optimal) - row["guaranteed_work"]

    if config.replications > 0 and point.adversary is not None:
        started = time.perf_counter() if profile else 0.0
        chunk_profile: Optional[Dict[str, float]] = {} if profile else None
        row.update(replicate_point(point, config.replications,
                                   base_seed=config.seed,
                                   backend=config.backend,
                                   aggregation=config.aggregation,
                                   chunk_size=config.chunk_size,
                                   variance=config.variance,
                                   profile=chunk_profile))
        if profile:
            row[stage_column("monte_carlo")] = time.perf_counter() - started
            for key, value in (chunk_profile or {}).items():
                row[stage_column(key)] = value
    return row


# ----------------------------------------------------------------------
# Driver side
# ----------------------------------------------------------------------
def resolve_jobs(jobs: Optional[int]) -> int:
    """Worker count for ``jobs`` (``0`` or ``None``: one per CPU)."""
    if jobs is None or jobs <= 0:
        return max(1, os.cpu_count() or 1)
    return int(jobs)


def shared_table_keys(points: Sequence[SweepPoint],
                      config: ExperimentConfig) -> List[Tuple[int, int, int]]:
    """Distinct integer DP ``(L, c, p)`` keys the points will look up.

    An integer-valued point looks one up when the optimal column is on
    or its scheduler is ``dp-optimal``.  Sorted for a deterministic plan.
    """
    keys: Set[Tuple[int, int, int]] = set()
    for point in points:
        if not (config.include_optimal or point.scheduler == "dp-optimal"):
            continue
        L, c = float(point.lifespan), float(point.setup_cost)
        if L.is_integer() and c.is_integer():
            keys.add((int(L), int(c), int(point.max_interrupts)))
    return sorted(keys)


def plan_table_keys(keys: Sequence[Tuple[int, int, int]]
                    ) -> List[Tuple[int, int, int]]:
    """The DP tables to solve so that covering lookups answer ``keys``.

    Keys are grouped by setup cost.  Each group becomes one covering key
    ``(max L, c, max p)``: a DP row over a lifespan prefix does not depend
    on ``L_max``, so that one table answers every key of the group.  A
    group keeps its own keys instead when the covering table would have
    more ``(L + 1)(p + 1)`` cells than the keys it replaces (a long
    lifespan with few interrupts next to a short one with many).  Sorted
    for a deterministic solve and publish order.
    """
    groups: Dict[int, List[Tuple[int, int, int]]] = {}
    for key in sorted(set(keys)):
        groups.setdefault(key[1], []).append(key)
    plan: List[Tuple[int, int, int]] = []
    for c, group in groups.items():
        L = max(key[0] for key in group)
        p = max(key[2] for key in group)
        cells = sum((kL + 1) * (kp + 1) for kL, _c, kp in group)
        if (L + 1) * (p + 1) <= cells:
            plan.append((L, c, p))
        else:
            plan.extend(group)
    return sorted(plan)


def table_plan(points: Sequence[SweepPoint],
               config: ExperimentConfig) -> List[CacheKey]:
    """The ``(L, c, p, method)`` DP tables a run over ``points`` solves.

    :func:`plan_table_keys` over :func:`shared_table_keys`, in the
    config's DP method.  This is the one plan of every executor:
    :func:`presolve_tables`, :func:`publish_shared_tables` and the cluster
    coordinator (through :func:`spec_table_plan`) all solve it.
    """
    return [(L, c, p, config.dp_method)
            for L, c, p in plan_table_keys(shared_table_keys(points, config))]


def spec_table_plan(spec, pending: Optional[Iterable[int]] = None
                    ) -> List[CacheKey]:
    """:func:`table_plan` of a spec's points, or of its ``pending`` indices.

    Empty for a scenario spec, which looks up no DP tables.  The cluster
    coordinator plans a (resumed) run's pending points through this, and
    the benchmarks and checks re-derive their expected DP solves from it.
    """
    from ..specs import payload_config

    config = payload_config(spec)
    if config is None:
        return []
    grid = spec.to_grid()
    indices = range(grid.size) if pending is None else pending
    return table_plan([grid.point_at(i) for i in indices], config)


def solve_table_plan(plan: Sequence[CacheKey],
                     cache: DPTableCache) -> List[ValueTable]:
    """Solve the tables of a :func:`table_plan` through ``cache``, in order.

    A table may come from disk, and a disk hit may be a larger covering
    table.  This is the one place a run's tables are solved:
    :func:`presolve_tables`, :func:`publish_shared_tables` and the cluster
    coordinator all call it.
    """
    return [cache.solve(L, c, p, method=method) for L, c, p, method in plan]


def presolve_tables(points: Sequence[SweepPoint],
                    config: ExperimentConfig) -> None:
    """Solve a serial sweep's planned DP tables before its first point.

    They go into this process's per-``cache_dir`` cache (and, for
    ``dp-optimal`` points, the process-wide cache their factory reads), so
    every point is then a covering lookup.  A plan with more tables than
    the cache's memory level holds is left to the points, which would
    otherwise evict tables before using them.
    """
    cache = _worker_cache(config.cache_dir)
    plan = table_plan(points, config)
    if len(plan) > cache.max_memory_entries:
        return
    tables = solve_table_plan(plan, cache)
    if any(point.scheduler == "dp-optimal" for point in points):
        for table in tables:
            shared_cache().preload(table, method=config.dp_method)


def publish_shared_tables(points: Sequence[SweepPoint],
                          config: ExperimentConfig,
                          *, cache: Optional[DPTableCache] = None,
                          publisher: Optional[SharedTablePublisher] = None
                          ) -> Tuple[Optional[SharedTablePublisher],
                                     ExperimentConfig]:
    """Solve the sweep's planned DP tables and publish them to shared memory.

    Called by the driver before fanning points out to worker processes:
    the tables :func:`table_plan` picks (usually one covering table per
    setup cost) are solved in this process (through ``cache``, so disk
    levels still help) and each copied into one shared-memory block;
    workers answer every point's key from them by covering lookups.  Returns the publisher
    (close it in a ``finally``; ``None`` when there is nothing to share)
    and the config carrying the attach-by-name handles for the workers.

    With ``publisher`` given, publication goes through that externally
    owned (e.g. service-lifetime) publisher instead: already-published
    keys are reused across calls, the returned config carries only *this*
    call's handles, and the returned publisher is ``None`` — ownership
    (and ``close()``) stays with the caller.

    If shared memory is unavailable (e.g. an exhausted ``/dev/shm``) the
    sweep falls back to per-worker solving — slower and per-worker RSS
    grows again, but results are identical.
    """
    cache = cache if cache is not None else DPTableCache(cache_dir=config.cache_dir)
    tables = solve_table_plan(table_plan(points, config), cache)
    if not tables:
        return None, config
    owned = publisher is None
    pub = SharedTablePublisher() if owned else publisher
    try:
        handles = [pub.publish(table, method=config.dp_method)
                   for table in tables]
    except OSError:
        if owned:
            pub.close()
        return None, config
    return (pub if owned else None), replace(config,
                                             shared_tables=tuple(handles))


def execute_points(payloads: Union[Sequence[Any], Dict[int, Any]],
                   pending: Sequence[int], *,
                   jobs: int, evaluate: Callable[[Any], Dict[str, Any]],
                   on_row: Callable[[int, Dict[str, Any]], None],
                   publisher: Optional[SharedTablePublisher] = None,
                   table_cache: Optional[DPTableCache] = None
                   ) -> Dict[str, float]:
    """Evaluate the ``pending`` indices of ``payloads``, one row at a time.

    The one point executor behind :func:`run_sweep` and
    :func:`repro.runstore.run_spec`.  Sweep payloads
    (``(SweepPoint, ExperimentConfig)`` pairs) first get the DP tables of
    the *pending* points, planned by :func:`table_plan`: points run
    in-process solve them into this process's cache
    (:func:`presolve_tables`); points run over the process pool, or any
    run given an external ``publisher``, publish them to shared memory
    (:func:`publish_shared_tables`, solving through ``table_cache``).  The
    run service passes its service-lifetime publisher so that concurrent
    in-process runs share one machine-wide copy; it is never closed here.

    Points run in-process when ``jobs`` resolves to 1 or one point is
    pending, otherwise over a process pool, so ``evaluate`` must then be a
    module-level callable.  The in-process loop runs inside an
    :func:`~repro.experiments.montecarlo.instance_holder`, so a scenario
    spec's schedulers share one batch instance set.  Each row loses its
    profile columns and goes to ``on_row(index, row)`` as soon as its
    point finishes, in completion order.  Returns the per-stage totals of
    those profiles, with the table preparation counted under ``dp_solve``
    (empty when nothing is pending).
    """
    if not pending:
        return {}
    workers = min(resolve_jobs(jobs), len(pending))
    started = time.perf_counter()
    owned: Optional[SharedTablePublisher] = None
    first = payloads[pending[0]]
    if isinstance(first, tuple) and isinstance(first[1], ExperimentConfig):
        points = [payloads[i][0] for i in pending]
        if publisher is None and workers <= 1:
            presolve_tables(points, first[1])
        else:
            owned, config = publish_shared_tables(
                points, first[1], cache=table_cache, publisher=publisher)
            payloads = {i: (payloads[i][0], config) for i in pending}
    profiles = [{"dp_solve": time.perf_counter() - started}]

    def finish(index: int, row: Dict[str, Any]) -> None:
        profiles.append(pop_profile(row))
        on_row(index, row)

    try:
        if workers <= 1:
            with instance_holder():
                for index in pending:
                    finish(index, evaluate(payloads[index]))
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = {pool.submit(evaluate, payloads[i]): i
                           for i in pending}
                for future in as_completed(futures):
                    finish(futures[future], future.result())
    finally:
        if owned is not None:
            owned.close()
    return aggregate_profiles(profiles)


def parallel_map(func: Callable[[Any], Any], payloads: Sequence[Any],
                 *, jobs: int = 1, chunksize: Optional[int] = None) -> List[Any]:
    """Order-preserving map over a process pool (serial when ``jobs <= 1``).

    ``func`` must be a module-level callable and every payload picklable
    when ``jobs > 1``.  Results come back in payload order regardless of
    which worker finished first.
    """
    payloads = list(payloads)
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(payloads) <= 1:
        return [func(p) for p in payloads]
    if chunksize is None:
        chunksize = max(1, len(payloads) // (4 * jobs))
    with ProcessPoolExecutor(max_workers=min(jobs, len(payloads))) as pool:
        return list(pool.map(func, payloads, chunksize=chunksize))


def run_sweep(grid: SweepGrid, *, jobs: int = 1, replications: int = 0,
              seed: int = 0, cache_dir: Optional[str] = None,
              include_optimal: bool = False, dp_method: str = "fast",
              include_guaranteed: bool = True,
              backend: str = "event",
              aggregation: str = "auto",
              chunk_size: Optional[int] = None,
              variance: str = "none",
              profile: bool = False) -> List[Dict[str, Any]]:
    """Run a full sweep and return one row per grid point, in grid order.

    Parameters
    ----------
    grid:
        The parameter grid to expand.
    jobs:
        Worker processes (``1`` = in-process serial; ``0`` = one per CPU).
    replications:
        Monte-Carlo replications per point (``0`` disables the layer;
        points without an adversary are always purely analytic).
    seed:
        Base seed for the deterministic per-(point, replication) seeding.
    cache_dir:
        Directory for the shared on-disk DP-table cache level.
    include_optimal:
        Also compute the exact DP optimum (and the gap to it) for
        integer-valued parameter points.
    dp_method:
        DP solver method (``"fast"`` or ``"reference"``).
    include_guaranteed:
        Compute the exact worst-case (guaranteed) work per point.  Switch
        off for sweeps that only need the Monte-Carlo layer.
    backend:
        Replication backend: ``"event"`` (reference, one game per trace) or
        ``"batch"`` (vectorized, see
        :mod:`repro.experiments.montecarlo`).  Aggregates agree to float
        summation order for the same seeds.
    aggregation:
        Monte-Carlo aggregation mode: ``"exact"`` (one-shot arrays, exact
        quantiles), ``"streaming"`` (chunked online accumulators, flat
        memory in ``replications``, P² quantile estimates) or ``"auto"``
        (exact at or below the streaming threshold, streaming above).
    chunk_size:
        Streaming chunk size (replications per chunk); ``None`` auto-sizes
        from the replication count.  Chunking never changes results.
    variance:
        Variance-reduction mode: ``"none"`` (independent seeds, the
        historical behaviour), ``"antithetic"`` (paired interrupt traces)
        or ``"stratified"`` (post-stratified standard errors; identical
        seeds and base columns to ``"none"``).  Non-default modes add CI
        columns (``{prefix}_sem/_ci_lo/_ci_hi`` and ``_bm`` variants) and
        a ``variance`` label to replicated rows; ``"antithetic"`` needs an
        even replication count.
    profile:
        Collect a per-stage wall-time breakdown (referee / DP solve /
        Monte-Carlo) and print it to stderr when the sweep finishes.  The
        profile columns never appear in the returned rows.

    Notes
    -----
    The points run through :func:`execute_points`, like a stored run's.
    The DP tables the sweep needs (the optimal column, ``dp-optimal``
    scheduler points) are solved before the first point, usually one
    covering table per setup cost (:func:`plan_table_keys`).  With
    ``jobs > 1`` they are *published to shared memory*; workers attach by
    name instead of solving or loading their own copies, so worker RSS is
    independent of ``jobs`` (see :func:`publish_shared_tables` and
    ``benchmarks/results/shared_dp_memory.*``).
    """
    from .montecarlo import (
        _check_backend,
        resolve_aggregation,
        resolve_chunk_size,
        resolve_variance,
    )

    _check_backend(backend)
    resolve_aggregation(aggregation, int(replications))
    if chunk_size is not None:
        resolve_chunk_size(chunk_size, int(replications))
    resolve_variance(variance, int(replications) if replications else None)
    config = ExperimentConfig(replications=int(replications), seed=int(seed),
                              cache_dir=cache_dir, dp_method=dp_method,
                              include_optimal=bool(include_optimal),
                              include_guaranteed=bool(include_guaranteed),
                              backend=str(backend),
                              aggregation=str(aggregation),
                              chunk_size=(None if chunk_size is None
                                          else int(chunk_size)),
                              variance=str(variance),
                              profile=bool(profile))
    points = grid.points()
    rows: List[Any] = [None] * len(points)
    started = time.perf_counter()
    totals = execute_points([(point, config) for point in points],
                            range(len(points)), jobs=jobs,
                            evaluate=_evaluate_point, on_row=rows.__setitem__)
    if profile:
        print(render_profile(totals,
                             wall_seconds=time.perf_counter() - started,
                             points=len(rows), jobs=resolve_jobs(jobs)),
              file=sys.stderr)
    return rows
