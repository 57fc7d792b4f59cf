"""Shared-memory DP tables and the --profile stage breakdown."""

import re
import time

import numpy as np
import pytest

from repro.dp import solve
from repro.experiments import DPTableCache, SweepGrid, run_sweep
from repro.experiments.cache import (
    SharedTablePublisher,
    attach_shared_table,
)
from repro.experiments import orchestrator
from repro.experiments.orchestrator import (
    ExperimentConfig,
    plan_table_keys,
    publish_shared_tables,
)
from repro.experiments.profiling import (
    PROFILE_PREFIX,
    aggregate_profiles,
    pop_profile,
    render_profile,
    stage_column,
)
from repro.runstore import run_spec
from repro.specs import parse_spec


class TestSharedTableRoundTrip:
    def test_publish_attach_is_zero_copy_identical(self):
        table = solve(400, 1, 2)
        with SharedTablePublisher() as publisher:
            handle = publisher.publish(table)
            attached = attach_shared_table(handle)
            assert attached.setup_cost == table.setup_cost
            np.testing.assert_array_equal(attached.values, table.values)
            np.testing.assert_array_equal(attached.first_periods,
                                          table.first_periods)
            # Zero-copy: the attached arrays view the shared block, and the
            # views are read-only so no worker can corrupt the machine-wide
            # copy.
            assert not attached.values.flags.writeable
            assert not attached.first_periods.flags.writeable
            assert attached.values.base is not None
            # The full ValueTable API works on the attached view.
            assert attached.value(2, 400) == table.value(2, 400)
            assert attached.optimal_first_period(1, 100) == \
                table.optimal_first_period(1, 100)

    def test_publish_is_idempotent_per_key(self):
        table = solve(100, 1, 1)
        with SharedTablePublisher() as publisher:
            first = publisher.publish(table)
            second = publisher.publish(table)
            assert first is second
            assert len(publisher.handles) == 1

    def test_handle_reports_geometry(self):
        table = solve(250, 2, 3)
        with SharedTablePublisher() as publisher:
            handle = publisher.publish(table)
            assert handle.shape == (4, 251)
            assert handle.num_bytes == 2 * 4 * 251 * 8

    def test_attach_memoised_per_block(self):
        table = solve(120, 1, 1)
        with SharedTablePublisher() as publisher:
            handle = publisher.publish(table)
            assert attach_shared_table(handle) is attach_shared_table(handle)

    def test_preload_serves_solve_and_covering_lookups(self):
        table = solve(300, 1, 2)
        cache = DPTableCache()
        cache.preload(table)
        assert cache.solve(300, 1, 2) is table
        assert cache.stats.memory_hits == 1
        assert cache.stats.misses == 0
        # Covering lookup: a smaller range is served by the same table.
        assert cache.solve(200, 1, 1) is table
        assert cache.stats.misses == 0


class TestPublishForSweep:
    def test_publishes_only_needed_integer_keys(self):
        grid = SweepGrid(lifespans=(100.0, 200.0, 150.5),
                         setup_costs=(1.0,), interrupt_budgets=(1,),
                         schedulers=("equalizing-adaptive",))
        config = ExperimentConfig(include_optimal=True)
        publisher, shared = publish_shared_tables(grid.points(), config)
        try:
            assert publisher is not None
            # The non-integer lifespan point gets no table, and the
            # (200, 1, 1) table answers (100, 1, 1) by covering lookup.
            assert {h.key[0] for h in shared.shared_tables} == {200}
        finally:
            publisher.close()

    def test_no_publication_without_dp_consumers(self):
        grid = SweepGrid(lifespans=(100.0,), setup_costs=(1.0,),
                         interrupt_budgets=(1,),
                         schedulers=("equalizing-adaptive",))
        publisher, config = publish_shared_tables(grid.points(),
                                                  ExperimentConfig())
        assert publisher is None
        assert config.shared_tables == ()

    def test_dp_optimal_scheduler_forces_publication(self):
        grid = SweepGrid(lifespans=(100.0,), setup_costs=(1.0,),
                         interrupt_budgets=(2,), schedulers=("dp-optimal",))
        publisher, config = publish_shared_tables(grid.points(),
                                                  ExperimentConfig())
        try:
            assert publisher is not None
            assert [h.key[:3] for h in config.shared_tables] == [(100, 1, 2)]
        finally:
            publisher.close()

    def test_parallel_sweep_rows_identical_with_shared_tables(self):
        grid = SweepGrid(lifespans=(150.0, 300.0), setup_costs=(1.0,),
                         interrupt_budgets=(1, 2),
                         schedulers=("equalizing-adaptive", "dp-optimal"))
        serial = run_sweep(grid, jobs=1, include_optimal=True)
        parallel = run_sweep(grid, jobs=2, include_optimal=True)
        assert serial == parallel


class TestTablePlan:
    def test_rectangular_grid_merges_to_one_key_per_setup_cost(self):
        keys = [(L, c, p) for L in (100, 200, 400) for c in (1, 2)
                for p in (1, 2, 3)]
        assert plan_table_keys(keys) == [(400, 1, 3), (400, 2, 3)]

    def test_sparse_group_stays_per_key(self):
        # (100000, 1, 50) would hold ~5.1M cells for keys holding ~0.2M.
        keys = [(100000, 1, 1), (100, 1, 50)]
        assert plan_table_keys(keys) == sorted(keys)

    def test_plan_beyond_the_memory_level_is_left_to_the_points(
            self, monkeypatch):
        # 17 setup costs need 17 tables, one more than the memory level
        # holds: solving them all up front would evict each table before
        # its point ran and solve it twice.
        monkeypatch.setattr(orchestrator, "_worker_caches", {})
        grid = SweepGrid(lifespans=(20.0,), setup_costs=tuple(range(1, 18)),
                         interrupt_budgets=(1,), schedulers=("single-period",))
        run_sweep(grid, jobs=1, include_optimal=True)
        assert orchestrator._worker_cache(None).stats.misses == 17

    def test_serial_run_solves_one_table_per_setup_cost(self, tmp_path,
                                                        monkeypatch):
        monkeypatch.setattr(orchestrator, "_worker_caches", {})
        spec = parse_spec({
            "experiment": {"name": "plan", "kind": "sweep", "seed": 0,
                           "replications": 0},
            "sweep": {"lifespans": [100, 200, 300], "setup_costs": [1, 2],
                      "interrupts": [1, 2],
                      "schedulers": ["equalizing-adaptive"],
                      "optimal": True},
        })
        serial = run_spec(spec, runs_dir=str(tmp_path / "serial"), jobs=1)
        assert orchestrator._worker_cache(None).stats.misses == 2
        parallel = run_spec(spec, runs_dir=str(tmp_path / "parallel"),
                            jobs=2)
        assert serial.rows() == parallel.rows()


class TestEntryPointParity:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_run_sweep_rows_equal_stored_run_rows(self, tmp_path, jobs):
        spec = parse_spec({
            "experiment": {"name": "parity", "kind": "sweep", "seed": 5,
                           "replications": 8, "backend": "batch"},
            "sweep": {"lifespans": [100, 200], "setup_costs": [1],
                      "interrupts": [1, 2],
                      "schedulers": ["equalizing-adaptive", "dp-optimal"],
                      "adversaries": ["poisson-owner"], "optimal": True},
        })
        rows = run_sweep(spec.to_grid(), jobs=jobs,
                         replications=spec.replications, seed=spec.seed,
                         include_optimal=spec.optimal, backend=spec.backend,
                         aggregation=spec.aggregation,
                         chunk_size=spec.chunk_size, variance=spec.variance)
        run = run_spec(spec, runs_dir=str(tmp_path), jobs=jobs)
        assert len(rows) == 8
        assert rows == run.rows()


class TestProfiling:
    def test_pop_profile_strips_reserved_columns(self):
        row = {"a": 1.0, stage_column("referee"): 0.25,
               stage_column("monte_carlo"): 0.5}
        timings = pop_profile(row)
        assert timings == {"referee": 0.25, "monte_carlo": 0.5}
        assert row == {"a": 1.0}
        assert not any(k.startswith(PROFILE_PREFIX) for k in row)

    def test_aggregate_and_render(self):
        totals = aggregate_profiles([{"referee": 0.5}, {"referee": 0.25,
                                                        "dp_solve": 1.0}])
        assert totals == {"referee": 0.75, "dp_solve": 1.0}
        text = render_profile(totals, wall_seconds=2.0, points=3, jobs=1)
        assert "referee" in text and "dp_solve" in text
        assert "3 point(s)" in text
        parallel = render_profile(totals, wall_seconds=2.0, points=3, jobs=4)
        assert "summed across workers" in parallel

    def test_sweep_profile_prints_and_strips(self, capsys):
        grid = SweepGrid(lifespans=(100.0,), setup_costs=(1.0,),
                         interrupt_budgets=(1,),
                         schedulers=("equalizing-adaptive",))
        rows = run_sweep(grid, jobs=1, include_optimal=True, profile=True)
        err = capsys.readouterr().err
        assert "profile:" in err and "referee" in err
        assert not any(k.startswith(PROFILE_PREFIX) for row in rows
                       for k in row)

    def test_profiled_run_store_shards_stay_clean(self, tmp_path, capsys):
        from repro.runstore import run_spec
        from repro.specs import parse_spec

        spec = parse_spec({
            "experiment": {"name": "profiled", "kind": "sweep",
                           "replications": 0},
            "sweep": {"lifespans": [100.0], "setup_costs": [1.0],
                      "interrupts": [1],
                      "schedulers": ["equalizing-adaptive"],
                      "optimal": True},
        }, source="inline")
        run = run_spec(spec, runs_dir=tmp_path, run_id="profiled",
                       profile=True)
        err = capsys.readouterr().err
        assert "profile:" in err and "shard_io" in err
        for row in run.rows():
            assert not any(k.startswith(PROFILE_PREFIX) for k in row)

    @staticmethod
    def _slow_presolve(monkeypatch, seconds):
        solve = orchestrator.presolve_tables

        def slow(points, config):
            time.sleep(seconds)
            solve(points, config)

        monkeypatch.setattr(orchestrator, "presolve_tables", slow)

    @staticmethod
    def _seconds(pattern, text):
        match = re.search(pattern, text)
        assert match, text
        return float(match.group(1))

    def test_sweep_profile_counts_presolved_tables(self, capsys, monkeypatch):
        # The planned tables are solved before the first point; their time
        # belongs to dp_solve and to the wall time.
        self._slow_presolve(monkeypatch, 0.2)
        grid = SweepGrid(lifespans=(100.0, 200.0), setup_costs=(1.0,),
                         interrupt_budgets=(1,),
                         schedulers=("equalizing-adaptive",))
        run_sweep(grid, jobs=1, include_optimal=True, profile=True)
        err = capsys.readouterr().err
        assert self._seconds(r"dp_solve\s+([\d.]+)s", err) >= 0.2
        assert self._seconds(r"in ([\d.]+)s wall", err) >= 0.2

    def test_run_store_profile_counts_presolved_tables(self, tmp_path, capsys,
                                                       monkeypatch):
        self._slow_presolve(monkeypatch, 0.2)
        spec = parse_spec({
            "experiment": {"name": "presolved", "kind": "sweep",
                           "replications": 0},
            "sweep": {"lifespans": [100.0, 200.0], "setup_costs": [1.0],
                      "interrupts": [1],
                      "schedulers": ["equalizing-adaptive"],
                      "optimal": True},
        }, source="inline")
        run_spec(spec, runs_dir=tmp_path, run_id="presolved", profile=True)
        err = capsys.readouterr().err
        assert self._seconds(r"dp_solve\s+([\d.]+)s", err) >= 0.2

    def test_cli_sweep_profile_flag(self, capsys):
        from repro.cli import main

        assert main(["sweep", "--lifespans", "100", "--interrupts", "1",
                     "--schedulers", "equalizing-adaptive",
                     "--profile"]) == 0
        captured = capsys.readouterr()
        assert "profile:" in captured.err
        assert "referee" in captured.err


class TestProfiledRowsUnchanged:
    def test_profile_never_changes_results(self):
        grid = SweepGrid(lifespans=(200.0,), setup_costs=(1.0,),
                         interrupt_budgets=(1, 2),
                         schedulers=("equalizing-adaptive",),
                         adversaries=("poisson-owner",))
        plain = run_sweep(grid, jobs=1, replications=20, backend="batch")
        profiled = run_sweep(grid, jobs=1, replications=20, backend="batch",
                             profile=True)
        assert plain == profiled
