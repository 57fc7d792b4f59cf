"""Tests for the experiment harness: grids, seeding, Monte-Carlo, caching."""

import os

import numpy as np
import pytest

from repro.core.exceptions import InvalidParameterError
from repro.dp import solve
from repro.experiments import (
    DPTableCache,
    SweepGrid,
    SweepPoint,
    aggregate,
    cached_solve,
    point_seed,
    replicate_point,
    replicate_scenario,
    run_sweep,
)
from repro.experiments.orchestrator import parallel_map


# ----------------------------------------------------------------------
# Deterministic seeding
# ----------------------------------------------------------------------
class TestPointSeed:
    def test_stable_and_collision_free(self):
        assert point_seed(0, 1, 2) == point_seed(0, 1, 2)
        seeds = {point_seed(0, i, r) for i in range(30) for r in range(30)}
        assert len(seeds) == 900  # no collisions on a realistic grid

    def test_depends_on_every_coordinate(self):
        assert point_seed(0, 1, 2) != point_seed(1, 1, 2)
        assert point_seed(0, 1, 2) != point_seed(0, 2, 2)
        assert point_seed(0, 1, 2) != point_seed(0, 1, 3)

    def test_fits_in_numpy_seed_range(self):
        s = point_seed(123, "x", 7)
        assert 0 <= s < 2**63
        np.random.default_rng(s)  # must be accepted as a seed

    def test_numpy_integer_coordinates_hash_as_ints(self):
        # Python-int coordinates keep their historical seeds.
        assert point_seed(0, 3, 5) == 5364272953978610870
        for kind in (np.int64, np.int32, np.uint16):
            assert point_seed(0, kind(3), 5) == point_seed(0, 3, 5)
            assert point_seed(0, "x", kind(5)) == point_seed(0, "x", 5)
        assert point_seed(np.int64(7), 1, 2) == point_seed(7, 1, 2)

    def test_numpy_point_index_keeps_replication_seeds(self):
        point = dict(lifespan=400.0, setup_cost=1.0, max_interrupts=2,
                     scheduler="equalizing-adaptive", adversary="poisson-owner")
        plain = replicate_point(SweepPoint(index=3, **point), 50,
                                backend="batch")
        numpy_index = replicate_point(SweepPoint(index=np.int64(3), **point),
                                      50, backend="batch")
        assert numpy_index == plain


# ----------------------------------------------------------------------
# Grid expansion
# ----------------------------------------------------------------------
class TestSweepGrid:
    def test_points_cover_the_product(self):
        grid = SweepGrid(lifespans=(100, 200), setup_costs=(1, 2),
                         interrupt_budgets=(1, 3),
                         schedulers=("equalizing-adaptive", "single-period"),
                         adversaries=("poisson-owner",))
        points = grid.points()
        assert len(points) == grid.size == 16
        assert [p.index for p in points] == list(range(16))
        combos = {(p.scheduler, p.setup_cost, p.max_interrupts, p.lifespan)
                  for p in points}
        assert len(combos) == 16

    def test_no_adversaries_means_analytic_points(self):
        grid = SweepGrid(lifespans=(100,))
        (point,) = grid.points()
        assert point.adversary is None

    def test_unknown_names_rejected(self):
        with pytest.raises(InvalidParameterError):
            SweepGrid(lifespans=(100,), schedulers=("nope",))
        with pytest.raises(InvalidParameterError):
            SweepGrid(lifespans=(100,), adversaries=("nope",))
        with pytest.raises(InvalidParameterError):
            SweepGrid(lifespans=())


# ----------------------------------------------------------------------
# Monte-Carlo layer
# ----------------------------------------------------------------------
class TestMonteCarlo:
    def test_aggregate_known_values(self):
        stats = aggregate([1.0, 2.0, 3.0, 4.0], "x")
        assert stats["x_n"] == 4
        assert stats["x_mean"] == pytest.approx(2.5)
        assert stats["x_std"] == pytest.approx(np.std([1, 2, 3, 4], ddof=1))
        assert stats["x_min"] == 1.0 and stats["x_max"] == 4.0
        assert stats["x_q50"] == pytest.approx(2.5)

    def test_single_value_has_zero_std(self):
        # A single replication must not apply the ddof=1 correction (which
        # would divide by zero); the sample std is defined as 0.0.
        stats = aggregate([7.0], "x")
        assert stats["x_std"] == 0.0 and stats["x_mean"] == 7.0
        assert stats["x_min"] == stats["x_max"] == 7.0
        assert stats["x_q10"] == stats["x_q50"] == stats["x_q90"] == 7.0

    def test_empty_input_reports_only_count(self):
        stats = aggregate([], "x")
        assert stats == {"x_n": 0}

    def test_quantile_keys_are_integer_percent(self):
        stats = aggregate([1.0, 2.0, 3.0], "eff")
        assert {"eff_q10", "eff_q50", "eff_q90"} <= set(stats)
        assert not any(key.startswith("eff_q0.") for key in stats)
        values = list(range(101))
        deciles = aggregate(values, "v")
        assert deciles["v_q10"] == pytest.approx(10.0)
        assert deciles["v_q90"] == pytest.approx(90.0)

    def test_two_values_use_sample_std(self):
        stats = aggregate([1.0, 3.0], "x")
        assert stats["x_std"] == pytest.approx(np.std([1.0, 3.0], ddof=1))

    def test_accepts_any_sequence_type(self):
        from_tuple = aggregate((2.0, 4.0), "x")
        from_generator = aggregate(iter([2.0, 4.0]), "x")
        assert from_tuple == from_generator

    def test_replication_is_deterministic(self):
        point = SweepPoint(index=0, lifespan=150.0, setup_cost=1.0,
                           max_interrupts=2, scheduler="equalizing-adaptive",
                           adversary="poisson-owner")
        a = replicate_point(point, 20, base_seed=5)
        b = replicate_point(point, 20, base_seed=5)
        assert a == b
        c = replicate_point(point, 20, base_seed=6)
        assert a["work_mean"] != c["work_mean"]

    def test_replicated_work_respects_the_guarantee(self):
        # Against *any* owner with at most p interrupts, every trace of an
        # adaptive guideline earns at least the guaranteed work.
        from repro import CycleStealingParams
        from repro.schedules import EqualizingAdaptiveScheduler

        point = SweepPoint(index=0, lifespan=200.0, setup_cost=1.0,
                           max_interrupts=2, scheduler="equalizing-adaptive",
                           adversary="random-period")
        stats = replicate_point(point, 30, base_seed=1)
        params = CycleStealingParams(lifespan=200.0, setup_cost=1.0,
                                     max_interrupts=2)
        guaranteed = EqualizingAdaptiveScheduler().guaranteed_work(params)
        assert stats["work_min"] >= guaranteed - 1e-9

    def test_requires_adversary_and_replications(self):
        point = SweepPoint(index=0, lifespan=100.0, setup_cost=1.0,
                           max_interrupts=1, scheduler="single-period")
        with pytest.raises(ValueError):
            replicate_point(point, 5)
        sampled = SweepPoint(index=0, lifespan=100.0, setup_cost=1.0,
                             max_interrupts=1, scheduler="single-period",
                             adversary="poisson-owner")
        with pytest.raises(ValueError):
            replicate_point(sampled, 0)

    def test_scenario_replication(self):
        from repro.workloads import flaky_owners

        stats = replicate_scenario(flaky_owners, 3, base_seed=2,
                                   num_machines=2, lifespan=120.0)
        assert stats["work_n"] == 3
        assert stats["work_mean"] > 0.0
        again = replicate_scenario(flaky_owners, 3, base_seed=2,
                                   num_machines=2, lifespan=120.0)
        assert stats == again


# ----------------------------------------------------------------------
# Orchestrator
# ----------------------------------------------------------------------
GRID = SweepGrid(lifespans=(100.0, 200.0), interrupt_budgets=(1, 2),
                 schedulers=("equalizing-adaptive", "rosenberg-nonadaptive"),
                 adversaries=("poisson-owner",))


class TestOrchestrator:
    def test_parallel_equals_serial(self):
        serial = run_sweep(GRID, jobs=1, replications=8, seed=11)
        fanned = run_sweep(GRID, jobs=4, replications=8, seed=11)
        assert serial == fanned

    def test_deterministic_for_fixed_seed(self):
        a = run_sweep(GRID, jobs=2, replications=8, seed=11)
        b = run_sweep(GRID, jobs=2, replications=8, seed=11)
        assert a == b
        c = run_sweep(GRID, jobs=2, replications=8, seed=12)
        assert a != c

    def test_montecarlo_mean_matches_single_trace_within_tolerance(self):
        # The acceptance check: many-replication means agree with the
        # serial single-trace sweep up to sampling noise.
        single = run_sweep(GRID, jobs=1, replications=1, seed=7)
        many = run_sweep(GRID, jobs=4, replications=50, seed=7)
        for s_row, m_row in zip(single, many):
            # Work lies in [guaranteed, lifespan]; with 50 replications the
            # mean must sit within a few standard errors of any trace.
            spread = max(3.0 * m_row["work_std"], 0.15 * m_row["lifespan"])
            assert abs(m_row["work_mean"] - s_row["work_mean"]) <= spread

    def test_optimal_column_via_cache(self, tmp_path):
        grid = SweepGrid(lifespans=(120.0,), interrupt_budgets=(2,),
                         schedulers=("equalizing-adaptive",))
        rows = run_sweep(grid, include_optimal=True,
                         cache_dir=str(tmp_path / "dp"))
        (row,) = rows
        expected = solve(120, 1, 2).value(2, 120)
        assert row["optimal_work"] == pytest.approx(float(expected))
        assert row["gap"] == pytest.approx(row["optimal_work"]
                                           - row["guaranteed_work"])

    def test_rows_keep_grid_order(self):
        rows = run_sweep(GRID, jobs=3, replications=2, seed=0)
        points = GRID.points()
        assert len(rows) == len(points)
        for row, point in zip(rows, points):
            assert row["scheduler"] == point.scheduler
            assert row["lifespan"] == point.lifespan
            assert row["max_interrupts"] == point.max_interrupts

    def test_parallel_map_serial_fallback(self):
        assert parallel_map(abs, [-1, 2, -3], jobs=1) == [1, 2, 3]

    def test_sweeps_route_through_orchestrator(self):
        from repro.analysis import (
            adaptive_guarantee_sweep,
            nonadaptive_guarantee_sweep,
        )

        serial = nonadaptive_guarantee_sweep([100.0, 200.0], 1.0, [1, 2])
        fanned = nonadaptive_guarantee_sweep([100.0, 200.0], 1.0, [1, 2], jobs=2)
        assert serial == fanned
        serial = adaptive_guarantee_sweep([100.0], 1.0, [1, 2])
        fanned = adaptive_guarantee_sweep([100.0], 1.0, [1, 2], jobs=2)
        assert serial == fanned


# ----------------------------------------------------------------------
# DP-table cache
# ----------------------------------------------------------------------
class TestDPTableCache:
    def test_memory_hit(self):
        cache = DPTableCache()
        a = cache.solve(80, 1, 2)
        b = cache.solve(80, 1, 2)
        assert a is b
        assert cache.stats.misses == 1 and cache.stats.memory_hits == 1

    def test_covering_lookup(self):
        cache = DPTableCache()
        big = cache.solve(100, 1, 3)
        small = cache.solve(50, 1, 2)
        assert small is big
        assert cache.stats.memory_hits == 1

    def test_different_keys_miss(self):
        cache = DPTableCache()
        cache.solve(60, 1, 1)
        cache.solve(60, 2, 1)          # different setup cost
        cache.solve(60, 1, 1, method="reference")  # different method
        assert cache.stats.misses == 3

    def test_disk_roundtrip(self, tmp_path):
        cache_dir = str(tmp_path / "dp")
        first = DPTableCache(cache_dir=cache_dir)
        table = first.solve(70, 2, 2)
        # A fresh cache instance (fresh process in real sweeps) hits disk.
        second = DPTableCache(cache_dir=cache_dir)
        loaded = second.solve(70, 2, 2)
        assert second.stats.disk_hits == 1 and second.stats.misses == 0
        assert np.array_equal(loaded.values, table.values)
        assert np.array_equal(loaded.first_periods, table.first_periods)
        assert loaded.setup_cost == table.setup_cost

    def test_disk_covering_lookup(self, tmp_path):
        cache_dir = str(tmp_path / "dp")
        # (90, 1, 2) first: stored after it, (120, 1, 3) would answer it.
        DPTableCache(cache_dir=cache_dir).solve(90, 1, 2)
        DPTableCache(cache_dir=cache_dir).solve(120, 1, 3)
        # The smallest stored table that covers the request answers it.
        cache = DPTableCache(cache_dir=cache_dir)
        table = cache.solve(80, 1, 2)
        assert cache.stats.disk_hits == 1 and cache.stats.misses == 0
        assert (table.max_lifespan, table.max_interrupts) == (90, 2)
        expected = solve(80, 1, 2)
        assert np.array_equal(table.values[:3, :81], expected.values)
        assert np.array_equal(table.first_periods[:3, :81],
                              expected.first_periods)
        # Kept under its own key: a second request is a memory hit.
        cache.solve(85, 1, 1)
        assert cache.stats.memory_hits == 1
        # Another setup cost or a larger range is not covered.
        cache.solve(80, 2, 2)
        cache.solve(130, 1, 2)
        assert cache.stats.misses == 2

    def test_corrupt_disk_file_is_recomputed(self, tmp_path):
        cache_dir = str(tmp_path / "dp")
        DPTableCache(cache_dir=cache_dir).solve(40, 1, 1)
        (path,) = [os.path.join(cache_dir, f) for f in os.listdir(cache_dir)]
        with open(path, "wb") as handle:
            handle.write(b"not an npz archive")
        cache = DPTableCache(cache_dir=cache_dir)
        table = cache.solve(40, 1, 1)
        assert cache.stats.misses == 1  # corrupt file treated as a miss
        assert np.array_equal(table.values, solve(40, 1, 1).values)
        # ... and the rewritten file is healthy again.
        fresh = DPTableCache(cache_dir=cache_dir)
        fresh.solve(40, 1, 1)
        assert fresh.stats.disk_hits == 1

    def test_lru_eviction(self):
        cache = DPTableCache(max_memory_entries=2)
        cache.solve(30, 1, 1)  # three setup costs: no table covers another
        cache.solve(30, 2, 1)
        cache.solve(30, 3, 1)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        cache.solve(30, 1, 1)  # evicted -> miss again (no disk level)
        assert cache.stats.misses == 4

    def test_non_integer_key_rejected(self):
        with pytest.raises(InvalidParameterError):
            DPTableCache().solve(10.5, 1, 1)

    def test_cached_solve_convenience(self, tmp_path):
        cache = DPTableCache(cache_dir=str(tmp_path))
        a = cached_solve(25, 1, 1, cache=cache)
        assert np.array_equal(a.values, solve(25, 1, 1).values)

    def test_clear(self, tmp_path):
        cache = DPTableCache(cache_dir=str(tmp_path / "dp"))
        cache.solve(20, 1, 1)
        cache.clear(memory=True, disk=True)
        assert len(cache) == 0
        assert not any(name.endswith(".npz")
                       for name in os.listdir(str(tmp_path / "dp")))


class TestGapCacheWiring:
    def test_optimality_gap_resolves_table_from_cache(self):
        from repro import CycleStealingParams
        from repro.analysis import optimality_gap
        from repro.schedules import EqualizingAdaptiveScheduler

        cache = DPTableCache()
        params = CycleStealingParams(lifespan=90.0, setup_cost=1.0,
                                     max_interrupts=2)
        report = optimality_gap(EqualizingAdaptiveScheduler(), params,
                                cache=cache)
        assert report.optimal_work == pytest.approx(solve(90, 1, 2).value(2, 90))
        # Second measurement reuses the cached table.
        optimality_gap(EqualizingAdaptiveScheduler(), params, cache=cache)
        assert cache.stats.misses == 1 and cache.stats.memory_hits == 1

    def test_dp_table_for_rejects_fractional_params(self):
        from repro import CycleStealingParams
        from repro.analysis import dp_table_for

        params = CycleStealingParams(lifespan=10.5, setup_cost=1.0,
                                     max_interrupts=1)
        with pytest.raises(ValueError):
            dp_table_for(params, cache=DPTableCache())
