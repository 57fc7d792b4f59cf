"""Backend equivalence for the Monte-Carlo replication layer.

``replicate_point`` / ``replicate_scenario`` / ``run_sweep`` accept
``backend="event"`` (reference) and ``backend="batch"`` (vectorized).  Both
seed and consult the adversaries identically, so for the same seeds the
aggregates must agree to float summation order; 1e-9 is pinned here with
lots of margin (observed differences are ~1e-15 relative).
"""

import pytest

from repro.experiments import SweepGrid, SweepPoint, replicate_point, replicate_scenario, run_sweep
from repro.experiments.montecarlo import BACKENDS
from repro.workloads import flaky_owners, laptop_evening

TOL = 1e-9


def rows_close(a, b, tol=TOL):
    assert set(a) == set(b)
    for key in a:
        va, vb = a[key], b[key]
        if isinstance(va, str):
            assert va == vb
        else:
            assert abs(va - vb) <= tol * max(1.0, abs(va)), (key, va, vb)


class TestReplicatePointBackends:
    @pytest.mark.parametrize("scheduler", ["equalizing-adaptive",
                                           "rosenberg-adaptive"])
    @pytest.mark.parametrize("adversary", ["poisson-owner", "uniform-owner",
                                           "random-period", "never",
                                           "last-period"])
    def test_batch_matches_event(self, scheduler, adversary):
        point = SweepPoint(index=2, lifespan=400.0, setup_cost=1.0,
                           max_interrupts=2, scheduler=scheduler,
                           adversary=adversary)
        event_row = replicate_point(point, 40, base_seed=9, backend="event")
        batch_row = replicate_point(point, 40, base_seed=9, backend="batch")
        rows_close(event_row, batch_row)

    @pytest.mark.parametrize("variance", ["none", "antithetic", "stratified"])
    @pytest.mark.parametrize("scheduler", ["equalizing-adaptive",
                                           "rosenberg-nonadaptive"])
    @pytest.mark.parametrize("adversary", ["poisson-owner", "uniform-owner",
                                           "random-period"])
    def test_batch_matches_event_under_every_variance(self, scheduler,
                                                      adversary, variance):
        # The batch backend seeds its adversaries from words derived per
        # chunk, the event backend through default_rng: both must consume
        # the same (paired) streams, so the counts agree exactly.
        point = SweepPoint(index=2, lifespan=400.0, setup_cost=1.0,
                           max_interrupts=2, scheduler=scheduler,
                           adversary=adversary)
        event_row = replicate_point(point, 40, base_seed=9, backend="event",
                                    variance=variance)
        batch_row = replicate_point(point, 40, base_seed=9, backend="batch",
                                    variance=variance)
        rows_close(event_row, batch_row)
        counts = [key for key in event_row
                  if key.startswith(("interrupts_", "episodes_"))]
        assert len(counts) >= 16
        assert {key: event_row[key] for key in counts} \
            == {key: batch_row[key] for key in counts}

    def test_nonadaptive_points_batch_matches_event(self):
        # Non-adaptive points route through the vectorized tail-reuse batch
        # pass; seeds and adversary consultations are identical, so the
        # aggregates agree to float summation order.
        point = SweepPoint(index=0, lifespan=300.0, setup_cost=1.0,
                           max_interrupts=2,
                           scheduler="rosenberg-nonadaptive",
                           adversary="poisson-owner")
        event_row = replicate_point(point, 25, base_seed=4, backend="event")
        batch_row = replicate_point(point, 25, base_seed=4, backend="batch")
        rows_close(event_row, batch_row)

    @pytest.mark.parametrize("adversary", ["random-period", "last-period"])
    def test_nonadaptive_last_instant_points_batch_matches_event(self,
                                                                 adversary):
        # Here the padded tails end in rounding-residue periods a few ulps
        # long; a last-instant interrupt must still fall inside them.
        point = SweepPoint(index=0, lifespan=1000.0, setup_cost=2.0,
                           max_interrupts=3,
                           scheduler="rosenberg-nonadaptive",
                           adversary=adversary)
        event_row = replicate_point(point, 60, base_seed=3, backend="event")
        batch_row = replicate_point(point, 60, base_seed=3, backend="batch")
        rows_close(event_row, batch_row)

    def test_batch_is_deterministic(self):
        point = SweepPoint(index=5, lifespan=500.0, setup_cost=2.0,
                           max_interrupts=3, scheduler="equalizing-adaptive",
                           adversary="poisson-owner")
        first = replicate_point(point, 30, base_seed=1, backend="batch")
        second = replicate_point(point, 30, base_seed=1, backend="batch")
        assert first == second
        shifted = replicate_point(point, 30, base_seed=2, backend="batch")
        assert first["work_mean"] != shifted["work_mean"]

    def test_unknown_backend_rejected(self):
        point = SweepPoint(index=0, lifespan=100.0, setup_cost=1.0,
                           max_interrupts=1, scheduler="equalizing-adaptive",
                           adversary="poisson-owner")
        with pytest.raises(ValueError):
            replicate_point(point, 5, backend="vector")
        assert BACKENDS == ("event", "batch")


class TestReplicateScenarioBackends:
    def test_batch_matches_event_exactly(self):
        # Scenario replication is trace-identical under both backends, and
        # the batch simulator is bit-exact, so the whole row must be equal.
        for family in (laptop_evening, flaky_owners):
            event_row = replicate_scenario(family, 6, base_seed=3,
                                           backend="event")
            batch_row = replicate_scenario(family, 6, base_seed=3,
                                           backend="batch")
            assert event_row == batch_row

    def test_family_kwargs_forwarded(self):
        event_row = replicate_scenario(flaky_owners, 4, base_seed=2,
                                       num_machines=2, lifespan=120.0,
                                       backend="batch")
        again = replicate_scenario(flaky_owners, 4, base_seed=2,
                                   num_machines=2, lifespan=120.0,
                                   backend="event")
        assert event_row == again

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            replicate_scenario(laptop_evening, 2, backend="nope")


class TestSweepBackends:
    GRID = SweepGrid(lifespans=(150.0, 300.0), interrupt_budgets=(1, 2),
                     schedulers=("equalizing-adaptive",),
                     adversaries=("poisson-owner",))

    def test_sweep_batch_matches_event(self):
        event_rows = run_sweep(self.GRID, jobs=1, replications=20, seed=5,
                               backend="event")
        batch_rows = run_sweep(self.GRID, jobs=1, replications=20, seed=5,
                               backend="batch")
        assert len(event_rows) == len(batch_rows)
        for event_row, batch_row in zip(event_rows, batch_rows):
            rows_close(event_row, batch_row)

    def test_sweep_batch_parallel_equals_serial(self):
        serial = run_sweep(self.GRID, jobs=1, replications=10, seed=3,
                           backend="batch")
        fanned = run_sweep(self.GRID, jobs=3, replications=10, seed=3,
                           backend="batch")
        assert serial == fanned

    def test_sweep_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            run_sweep(self.GRID, replications=2, backend="bogus")


@pytest.mark.parametrize("scheduler", ["equalizing-adaptive",
                                       "rosenberg-adaptive", "fixed-period"])
def test_batch_replay_rejects_a_short_schedule_batch(monkeypatch, scheduler):
    # A batch one schedule short used to surface as a bare IndexError.
    from repro.core.exceptions import SchedulingError
    from repro.schedules import (EqualizingAdaptiveScheduler,
                                 FixedPeriodScheduler,
                                 RosenbergAdaptiveScheduler)

    for cls in (EqualizingAdaptiveScheduler, RosenbergAdaptiveScheduler,
                FixedPeriodScheduler):
        monkeypatch.setattr(cls, "episode_schedule_batch",
                            lambda self, *args, full=cls.episode_schedule_batch:
                            full(self, *args)[:-1])
    point = SweepPoint(index=0, lifespan=400.0, setup_cost=1.0,
                       max_interrupts=2, scheduler=scheduler,
                       adversary="poisson-owner")
    with pytest.raises(SchedulingError, match="episode-schedules for"):
        replicate_point(point, 20, base_seed=5, backend="batch")


def test_batch_replay_checks_lengths_like_the_event_referee():
    # The replay checks a level's schedule lengths on its flat rows, with
    # the tolerances of the event referee's validate_for_lifespan.
    from repro.core.exceptions import SchedulingError
    from repro.core.schedule import EpisodeSchedule
    from repro.experiments.montecarlo import _play_point_batch

    class Overshoot:
        def __init__(self, excess):
            self.excess = excess

        def episode_schedule(self, residual, interrupts_remaining, setup_cost):
            return EpisodeSchedule([residual / 2, residual / 2 + self.excess])

    point = SweepPoint(index=0, lifespan=400.0, setup_cost=1.0,
                       max_interrupts=2, scheduler="equalizing-adaptive",
                       adversary="poisson-owner")
    with pytest.raises(SchedulingError, match="exceeds the residual"):
        _play_point_batch(point, Overshoot(1e-3), 0, 8, 5)
    works, _, _ = _play_point_batch(point, Overshoot(1e-7), 0, 8, 5)
    assert len(works) == 8
