"""One scenario instance set per run, shared by a spec's schedulers.

Inside a run (``execute_points``' in-process loop) the batch backend of
``replicate_scenario`` reuses the instance list the previous call built
when the family, family kwargs, base seed, variance and replication range
all match.  These tests count task bags to see the sharing, and compare
rows against calls made outside a run to see that it changes nothing.
"""

import gc
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.experiments.grid import make_scheduler
from repro.experiments.montecarlo import instance_holder, replicate_scenario
from repro.registry import SCENARIO_FAMILIES
from repro.runstore import run_spec
from repro.specs import parse_spec
from repro.workloads import TaskBag, laptop_evening

SCHEDULERS = ["equalizing-adaptive", "rosenberg-adaptive", "fixed-period"]


@pytest.fixture
def bags(monkeypatch):
    """Weak references to every task bag built while the test runs."""
    built = []
    init = TaskBag.__init__

    def counting_init(self, sizes):
        init(self, sizes)
        built.append(weakref.ref(self))

    monkeypatch.setattr(TaskBag, "__init__", counting_init)
    return built


def scenario_spec(family, replications, *, seed=0, backend="batch"):
    return parse_spec({
        "experiment": {"name": f"shared-{family}", "kind": "scenario",
                       "seed": seed, "replications": replications,
                       "backend": backend},
        "scenario": {"family": family, "schedulers": SCHEDULERS},
    })


def outside_run_rows(family, replications, *, seed=0, backend="batch"):
    """Per-scheduler ``replicate_scenario`` rows, as a run's points build them."""
    generator = SCENARIO_FAMILIES[family]
    rows = []
    for name in SCHEDULERS:
        scheduler = make_scheduler(name, generator().params)
        rows.append(replicate_scenario(generator, replications, base_seed=seed,
                                       scheduler=scheduler, backend=backend))
    return rows


def first_difference(got, want):
    """Where two runs' row lists first differ (an assertion message)."""
    def shown(row, key):
        return repr(row[key]) if key in row else "no such column"

    if len(got) != len(want):
        return f"{len(got)} rows, expected {len(want)}"
    for index, (row, expected) in enumerate(zip(got, want)):
        for key in list(expected) + [key for key in row if key not in expected]:
            if key not in row or key not in expected \
                    or row[key] != expected[key]:
                return (f"row {index}, column {key!r}: got {shown(row, key)}, "
                        f"serial run has {shown(expected, key)}")
    return "no row differs"


def assert_rows_match(run, expected):
    rows = run.rows()
    assert len(rows) == len(expected)
    for row, want in zip(rows, expected):
        assert {key: row[key] for key in want} == want


def replicate_laptop(replications=6, **kwargs):
    return replicate_scenario(laptop_evening, replications, backend="batch",
                              **kwargs)


class TestRunSharesInstances:
    def test_diurnal_spec_builds_each_bag_once(self, bags, tmp_path):
        spec = scenario_spec("diurnal", 40)
        bags.clear()  # parsing the spec probes the family once
        run = run_spec(spec, runs_dir=tmp_path, jobs=1)
        # 40 shared instances plus each scheduler point's probe instance,
        # where building per scheduler would take 3 * 40 + 3 = 123.
        assert len(bags) == 43
        assert_rows_match(run, outside_run_rows("diurnal", 40))

    def test_event_backend_builds_fresh_instances(self, bags, tmp_path):
        spec = scenario_spec("laptop", 5, backend="event")
        bags.clear()
        run = run_spec(spec, runs_dir=tmp_path, jobs=1)
        assert len(bags) == 3 * 5 + 3
        assert_rows_match(run, outside_run_rows("laptop", 5, backend="event"))

    def test_no_instance_outlives_the_run(self, bags, tmp_path):
        spec = scenario_spec("laptop", 8)
        bags.clear()
        run_spec(spec, runs_dir=tmp_path, jobs=1)
        gc.collect()
        assert len(bags) == 8 + 3
        assert all(ref() is None for ref in bags)

    def test_concurrent_runs_match_serial_runs(self, tmp_path):
        # More runs than cores, switching threads often: each run must
        # replay its own instances, never another run's held set.
        specs = [scenario_spec("laptop", 12, seed=seed) for seed in range(4)]
        serial = [run_spec(spec, runs_dir=tmp_path / "serial", jobs=1).rows()
                  for spec in specs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=len(specs)) as pool:
                futures = [pool.submit(run_spec, spec,
                                       runs_dir=tmp_path / "threads", jobs=1)
                           for spec in specs]
                rows = [future.result(timeout=120).rows() for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert len(rows) == len(serial)
        for seed, (got, want) in enumerate(zip(rows, serial)):
            assert got == want, f"seed {seed}: {first_difference(got, want)}"


class TestHolderKey:
    def test_matching_call_reuses_the_held_set(self, bags):
        alone = replicate_laptop(base_seed=3)
        bags.clear()
        with instance_holder():
            first = replicate_laptop(base_seed=3)
            second = replicate_laptop(base_seed=3)
        assert len(bags) == 6
        assert first == second == alone

    @pytest.mark.parametrize("changed", [
        {"base_seed": 4},
        {"variance": "stratified"},
        {"lifespan": 200.0},
        {"aggregation": "streaming", "chunk_size": 3},
    ], ids=["seed", "variance", "kwargs", "chunk"])
    def test_any_key_change_rebuilds(self, bags, changed):
        alone = replicate_laptop(**changed)
        bags.clear()
        with instance_holder():
            replicate_laptop()
            row = replicate_laptop(**changed)
        assert len(bags) == 12
        assert row == alone

    def test_outside_a_holder_every_call_builds(self, bags):
        replicate_laptop()
        replicate_laptop()
        assert len(bags) == 12

    def test_unhashable_kwargs_build_fresh(self, bags):
        def tagged_laptop(*, seed, tags):
            return laptop_evening(seed=seed)

        with instance_holder():
            rows = [replicate_scenario(tagged_laptop, 4, backend="batch",
                                       tags=["a", "b"]) for _ in range(2)]
        assert len(bags) == 8
        assert rows[0] == rows[1]
