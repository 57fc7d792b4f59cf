"""Variance reduction: paired sampling, CI columns, and their invariants.

Pins the variance-reduction layer's contracts end to end: the antithetic
pairing is a bijection on absolute replication indices (member 0 bitwise
reproduces plain sampling), the distribution reflections are involutions,
CI columns are bit-identical under any chunking and between the exact and
streaming aggregation paths, ``variance="none"`` rows stay byte-identical
to the pre-variance pipeline, the spec/digest layer treats ``variance``
as part of a run's identity (unlike ``chunk_size``), NaN rejection names
the absolute replication index, and a SIGKILLed antithetic run resumes to
a byte-identical report.
"""

import math
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sampling import AntitheticRng, PairedSeed, reseed, spawn_rng
from repro.experiments import SweepPoint, replicate_point, run_sweep
from repro.experiments.grid import SweepGrid, point_seed
from repro.experiments.montecarlo import replicate_scenario
from repro.experiments.streaming import StreamingAggregator
from repro.experiments.variance import (
    BATCH_MEANS_SIZE,
    VARIANCE_MODES,
    Z95,
    CiAccumulator,
    replication_seed,
    resolve_variance,
)
from repro.specs import SpecError, parse_spec, payload_digest, spec_to_dict
from repro.workloads import laptop_evening

POINT = SweepPoint(index=3, lifespan=400.0, setup_cost=1.0, max_interrupts=2,
                   scheduler="equalizing-adaptive", adversary="poisson-owner")
NONADAPTIVE_POINT = SweepPoint(index=1, lifespan=300.0, setup_cost=1.0,
                               max_interrupts=2,
                               scheduler="rosenberg-nonadaptive",
                               adversary="uniform-owner")

seeds = st.integers(min_value=0, max_value=2**31 - 1)


class TestPairedSeed:
    def test_member_validation(self):
        with pytest.raises(ValueError, match="member"):
            PairedSeed(7, 2)

    @given(seed=seeds, member=st.integers(0, 1), offset=st.integers(0, 10**6))
    def test_arithmetic_preserves_tag(self, seed, member, offset):
        tagged = PairedSeed(seed, member)
        for derived in (tagged + offset, offset + tagged, tagged - offset,
                        tagged * 3, 3 * tagged):
            assert isinstance(derived, PairedSeed)
            assert derived.member == member
        assert int(tagged + offset) == seed + offset

    @given(seed=seeds, member=st.integers(0, 1))
    def test_default_rng_drops_the_tag(self, seed, member):
        # Structural randomness must be identical within a pair: feeding a
        # PairedSeed to default_rng yields the untagged seed's stream.
        tagged = np.random.default_rng(PairedSeed(seed, member))
        plain = np.random.default_rng(seed)
        assert tagged.random(4).tolist() == plain.random(4).tolist()

    def test_reseed_reattaches_tag(self):
        assert reseed(PairedSeed(5, 1), 42) == 42
        assert reseed(PairedSeed(5, 1), 42).member == 1
        assert reseed(7, 42) == 42
        assert not isinstance(reseed(7, 42), PairedSeed)


class TestAntitheticRng:
    @given(seed=seeds)
    def test_member_zero_is_bitwise_plain(self, seed):
        rng = AntitheticRng(seed, 0)
        ref = np.random.default_rng(seed)
        assert float(rng.random()) == float(ref.random())
        assert rng.uniform(2.0, 5.0, size=3).tolist() \
            == ref.uniform(2.0, 5.0, size=3).tolist()
        assert rng.exponential(2.5, size=3).tolist() \
            == ref.exponential(2.5, size=3).tolist()
        assert rng.integers(0, 10, size=3).tolist() \
            == ref.integers(0, 10, size=3).tolist()
        assert float(rng.normal(1.0, 2.0)) == float(ref.normal(1.0, 2.0))

    @given(seed=seeds)
    def test_reflections_pair_exactly(self, seed):
        a = AntitheticRng(seed, 0)
        b = AntitheticRng(seed, 1)
        # Uniform: u0 + u1 == 1 exactly (pure subtraction).
        assert float(a.random()) + float(b.random()) == 1.0
        # uniform(low, high): x0 + x1 == low + high.
        x0, x1 = float(a.uniform(2.0, 5.0)), float(b.uniform(2.0, 5.0))
        assert x0 + x1 == pytest.approx(7.0, rel=1e-12)
        # integers over [lo, hi): k0 + k1 == lo + hi - 1.
        k0 = a.integers(3, 9, size=8)
        k1 = b.integers(3, 9, size=8)
        assert (k0 + k1 == 3 + 9 - 1).all()
        assert ((3 <= k1) & (k1 < 9)).all()
        # normal: x0 + x1 == 2 * loc.
        n0, n1 = float(a.normal(4.0, 2.0)), float(b.normal(4.0, 2.0))
        assert n0 + n1 == pytest.approx(8.0, rel=1e-12)
        # exponential: survival probabilities are complementary.
        e0, e1 = float(a.exponential(2.0)), float(b.exponential(2.0))
        assert math.exp(-e0 / 2.0) + math.exp(-e1 / 2.0) \
            == pytest.approx(1.0, abs=1e-12)

    @given(seed=seeds)
    def test_exponential_reflection_is_an_involution(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.exponential(3.0, size=16)
        u = np.maximum(-np.expm1(-x / 3.0), np.finfo(float).tiny)
        reflected = -3.0 * np.log(u)
        back = -3.0 * np.log(np.maximum(-np.expm1(-reflected / 3.0),
                                        np.finfo(float).tiny))
        assert np.allclose(back, x, rtol=1e-9)

    @given(seed=seeds)
    def test_members_consume_identical_stream_positions(self, seed):
        # Interleave distributions; the pairing must hold draw by draw.
        a = AntitheticRng(seed, 0)
        b = AntitheticRng(seed, 1)
        assert float(a.random()) + float(b.random()) == 1.0
        a.exponential(1.0, size=5), b.exponential(1.0, size=5)
        assert float(a.random()) + float(b.random()) == 1.0


class TestReplicationSeed:
    @given(base=seeds, key=st.integers(0, 100), r=st.integers(0, 10_000))
    def test_pairing_is_a_bijection_on_absolute_indices(self, base, key, r):
        seed = replication_seed(base, key, r, "antithetic")
        partner = replication_seed(base, key, r ^ 1, "antithetic")
        assert isinstance(seed, PairedSeed)
        assert int(seed) == int(partner)          # shared pair seed
        assert seed.member == r % 2
        assert partner.member == (r ^ 1) % 2
        assert seed.member != partner.member      # the two members differ
        # The shared seed is the absolute-index seed of the even member.
        assert int(seed) == point_seed(base, key, r - (r % 2))

    @given(base=seeds, key=st.integers(0, 100), r=st.integers(0, 10_000))
    def test_none_and_stratified_use_the_historical_seed(self, base, key, r):
        for mode in ("none", "stratified"):
            seed = replication_seed(base, key, r, mode)
            assert seed == point_seed(base, key, r)
            assert not isinstance(seed, PairedSeed)

    @given(base=seeds, key=st.integers(0, 100), k=st.integers(0, 5_000))
    def test_member_zero_reproduces_plain_sampling(self, base, key, k):
        even = 2 * k
        paired = replication_seed(base, key, even, "antithetic")
        plain = replication_seed(base, key, even, "none")
        assert spawn_rng(paired).random(3).tolist() \
            == spawn_rng(plain).random(3).tolist()

    def test_resolve_variance(self):
        assert VARIANCE_MODES == ("none", "antithetic", "stratified")
        assert resolve_variance("antithetic", 10) == "antithetic"
        with pytest.raises(ValueError, match="unknown variance"):
            resolve_variance("qmc")
        with pytest.raises(ValueError, match="even"):
            resolve_variance("antithetic", 9)
        with pytest.raises(ValueError, match="even"):
            replicate_point(POINT, 5, variance="antithetic")


class TestCiAccumulator:
    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=200))
    def test_plain_sem_matches_numpy(self, values):
        acc = CiAccumulator("none")
        acc.extend(values)
        cols = acc.columns("x")
        expected = np.std(values, ddof=1) / math.sqrt(len(values))
        # Welford (streaming) and numpy's two-pass std agree to ~1e-9
        # relative in general, but near-identical large values (mean ~1e6,
        # spread ~1 ulp) lose up to half the mantissa to cancellation in
        # BOTH algorithms — scale the absolute floor by the mean's ulp.
        slack = 1e-12 + math.ulp(abs(float(np.mean(values)))) * len(values)
        assert cols["x_sem"] == pytest.approx(expected, rel=1e-6, abs=slack)
        assert cols["x_ci_lo"] == pytest.approx(
            np.mean(values) - Z95 * cols["x_sem"], rel=1e-9, abs=1e-9)
        assert cols["x_ci_hi"] == pytest.approx(
            np.mean(values) + Z95 * cols["x_sem"], rel=1e-9, abs=1e-9)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=4, max_size=200)
           .filter(lambda v: len(v) % 2 == 0))
    def test_antithetic_sem_is_the_pair_means_estimator(self, values):
        acc = CiAccumulator("antithetic")
        acc.extend(values)
        pair_means = np.asarray(values).reshape(-1, 2).mean(axis=1)
        expected = np.std(pair_means, ddof=1) / math.sqrt(len(pair_means))
        assert acc.columns("x")["x_sem"] \
            == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_stratified_sem_matches_cochran_reference(self):
        rng = np.random.default_rng(5)
        values = rng.normal(10.0, 3.0, size=120)
        strata = rng.integers(0, 4, size=120)
        acc = CiAccumulator("stratified")
        acc.extend(values, strata)
        n = len(values)
        pooled = np.var(values, ddof=1)
        within = correction = 0.0
        for label in np.unique(strata):
            cell = values[strata == label]
            weight = len(cell) / n
            var = np.var(cell, ddof=1) if len(cell) > 1 else pooled
            within += weight * var
            correction += (1.0 - weight) * var
        expected = math.sqrt(within / n + correction / n ** 2)
        assert acc.columns("x")["x_sem"] \
            == pytest.approx(expected, rel=1e-9)

    def test_batch_means_falls_back_below_two_batches(self):
        acc = CiAccumulator("none")
        acc.extend(range(BATCH_MEANS_SIZE))  # exactly one full batch
        cols = acc.columns("x")
        assert cols["x_sem_bm"] == cols["x_sem"]

    def test_batch_means_includes_the_partial_batch(self):
        values = list(np.random.default_rng(7).normal(size=3 * BATCH_MEANS_SIZE + 17))
        acc = CiAccumulator("none")
        acc.extend(values)
        batches = [values[i:i + BATCH_MEANS_SIZE]
                   for i in range(0, len(values), BATCH_MEANS_SIZE)]
        means = [np.mean(b) for b in batches]
        expected = np.std(means, ddof=1) / math.sqrt(len(means))
        assert acc.columns("x")["x_sem_bm"] \
            == pytest.approx(expected, rel=1e-9)

    @given(st.data())
    @settings(max_examples=25)
    def test_chunking_never_changes_ci_columns(self, data):
        values = data.draw(st.lists(st.floats(-1e3, 1e3),
                                    min_size=10, max_size=80))
        strata = data.draw(st.lists(st.integers(0, 5),
                                    min_size=len(values),
                                    max_size=len(values)))
        chunk = data.draw(st.integers(1, len(values)))
        for mode in VARIANCE_MODES:
            one_shot = CiAccumulator(mode)
            one_shot.extend(values, strata)
            chunked = CiAccumulator(mode)
            for start in range(0, len(values), chunk):
                chunked.extend(values[start:start + chunk],
                               strata[start:start + chunk])
            assert one_shot.columns("x") == chunked.columns("x")


class TestPipelineInvariants:
    @pytest.mark.parametrize("variance", ["antithetic", "stratified"])
    def test_ci_columns_bit_identical_across_chunkings(self, variance):
        exact = replicate_point(POINT, 32, base_seed=9, backend="batch",
                                aggregation="exact", variance=variance)
        for chunk in (7, 16):
            streamed = replicate_point(POINT, 32, base_seed=9,
                                       backend="batch",
                                       aggregation="streaming",
                                       chunk_size=chunk, variance=variance)
            for key, value in exact.items():
                if key.endswith(("_sem", "_ci_lo", "_ci_hi", "_sem_bm",
                                 "_ci_lo_bm", "_ci_hi_bm")):
                    assert streamed[key] == value, (variance, chunk, key)

    def test_none_mode_rows_are_byte_identical_to_the_legacy_call(self):
        legacy = replicate_point(POINT, 12, base_seed=3, backend="batch")
        explicit = replicate_point(POINT, 12, base_seed=3, backend="batch",
                                   variance="none")
        assert explicit == legacy
        assert "variance" not in explicit
        assert not any(k.endswith("_sem") for k in explicit)

    def test_stratified_keeps_every_base_column_bitwise(self):
        none = replicate_point(NONADAPTIVE_POINT, 20, base_seed=4,
                               backend="batch")
        stratified = replicate_point(NONADAPTIVE_POINT, 20, base_seed=4,
                                     backend="batch", variance="stratified")
        for key, value in none.items():
            assert stratified[key] == value, key
        assert stratified["variance"] == "stratified"
        assert "work_sem" in stratified

    @pytest.mark.parametrize("backend", ["event", "batch"])
    def test_scenario_backends_agree_under_antithetic(self, backend):
        row = replicate_scenario(laptop_evening, 8, base_seed=2,
                                 scheduler=None, backend=backend,
                                 variance="antithetic")
        assert row["variance"] == "antithetic"
        assert row["work_ci_lo"] <= row["work_mean"] <= row["work_ci_hi"]

    def test_event_and_batch_agree_bitwise_on_paired_traces(self):
        event = replicate_scenario(laptop_evening, 8, base_seed=2,
                                   scheduler=None, backend="event",
                                   variance="antithetic")
        batch = replicate_scenario(laptop_evening, 8, base_seed=2,
                                   scheduler=None, backend="batch",
                                   variance="antithetic")
        for key in event:
            if isinstance(event[key], str):
                assert event[key] == batch[key], key
            else:
                assert float(event[key]) == pytest.approx(
                    float(batch[key]), rel=1e-9, abs=1e-9), key

    def test_run_sweep_validates_variance_up_front(self):
        grid = SweepGrid(lifespans=(50.0,), setup_costs=(1.0,),
                         interrupt_budgets=(1,),
                         schedulers=("equalizing-adaptive",),
                         adversaries=("poisson-owner",))
        with pytest.raises(ValueError, match="even"):
            run_sweep(grid, replications=5, variance="antithetic")
        with pytest.raises(ValueError, match="unknown variance"):
            run_sweep(grid, replications=4, variance="qmc")


class TestNaNDiagnostics:
    def test_streaming_nan_names_the_absolute_index(self):
        agg = StreamingAggregator("work")
        agg.extend([1.0, 2.0, 3.0])
        with pytest.raises(ValueError,
                           match=r"absolute replication index 4"):
            agg.extend([4.0, float("nan"), 5.0])

    def test_scalar_update_nan_names_the_absolute_index(self):
        agg = StreamingAggregator("work")
        agg.extend([1.0, 2.0])
        with pytest.raises(ValueError,
                           match=r"absolute replication index 2"):
            agg.update(float("nan"))

    def test_chunk_context_wraps_streaming_errors(self):
        from repro.experiments.montecarlo import _replicate

        def play(start, stop):  # replication 100 yields NaN work
            reps = range(start, stop)
            return ([float("nan") if r == 100 else 1.0 for r in reps],
                    [0.0 for _ in reps])

        with pytest.raises(ValueError) as excinfo:
            _replicate(play, 200, ("work", "interrupts"), ("work",),
                       backend="batch", aggregation="streaming",
                       chunk_size=32, variance="none", profile=None)
        message = str(excinfo.value)
        assert "absolute replication index 100" in message
        assert "chunk 3" in message
        assert "[96, 128)" in message


class TestSpecPlumbing:
    def spec_data(self, **experiment):
        data = {
            "experiment": dict({"name": "v", "kind": "scenario", "seed": 1,
                                "replications": 8, "backend": "batch"},
                               **experiment),
            "scenario": {"family": "laptop",
                         "schedulers": ["equalizing-adaptive",
                                        "rosenberg-adaptive"]},
        }
        return data

    def test_variance_defaults_to_none_and_is_omitted(self):
        spec = parse_spec(self.spec_data())
        assert spec.variance == "none"
        assert "variance" not in spec_to_dict(spec)["experiment"]

    def test_non_default_variance_round_trips(self):
        spec = parse_spec(self.spec_data(variance="antithetic"))
        assert spec.variance == "antithetic"
        out = spec_to_dict(spec)
        assert out["experiment"]["variance"] == "antithetic"
        assert parse_spec(out) == spec

    def test_unknown_variance_rejected(self):
        with pytest.raises(SpecError, match="variance"):
            parse_spec(self.spec_data(variance="qmc"))

    def test_antithetic_odd_replications_rejected(self):
        with pytest.raises(SpecError, match="even"):
            parse_spec(self.spec_data(variance="antithetic", replications=7))

    def test_variance_is_part_of_the_point_identity(self):
        from repro.specs import expand_payloads

        digests = {}
        for mode in VARIANCE_MODES:
            spec = parse_spec(self.spec_data(variance=mode))
            digests[mode] = payload_digest(expand_payloads(spec)[0])
        assert len(set(digests.values())) == 3

    def test_chunk_size_still_excluded_from_the_identity(self):
        from repro.specs import expand_payloads

        base = parse_spec(self.spec_data(variance="antithetic"))
        chunked = parse_spec(self.spec_data(variance="antithetic",
                                            chunk_size=5))
        assert payload_digest(expand_payloads(base)[0]) \
            == payload_digest(expand_payloads(chunked)[0])


class TestKillResumeAntithetic:
    """SIGKILL a real antithetic run mid-sweep; the resume must be exact."""

    SPEC_TOML = """\
[experiment]
name = "kill-variance"
kind = "scenario"
seed = 0
replications = 30
backend = "event"
variance = "antithetic"

[scenario]
family = "laptop"
schedulers = ["equalizing-adaptive", "rosenberg-adaptive", "fixed-period", "single-period"]
"""

    def test_sigkill_mid_antithetic_run_then_resume_matches(self, tmp_path):
        from repro.reporting import render_run_report
        from repro.runstore import Run, resume_run, run_spec
        from repro.specs import load_spec

        spec_path = tmp_path / "kill.toml"
        spec_path.write_text(self.SPEC_TOML)
        runs_dir = tmp_path / "runs"
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep \
            + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "run", str(spec_path),
             "--runs-dir", str(runs_dir), "--run-id", "victim"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            points_dir = runs_dir / "victim" / "points"
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline and proc.poll() is None:
                if points_dir.is_dir() and any(points_dir.glob("point-*.npz")):
                    break
                time.sleep(0.02)
            if proc.poll() is None:
                proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup on failure
                proc.kill()
                proc.wait()

        resumed = resume_run("victim", runs_dir=runs_dir)
        assert resumed.status == "complete"
        assert resumed.completed_points() == set(range(4))
        rows = resumed.rows()
        assert all(row["variance"] == "antithetic" for row in rows)
        assert all("work_sem" in row for row in rows)

        # Byte-identical to an uninterrupted run with the same id.
        reference = run_spec(load_spec(spec_path), runs_dir=tmp_path / "ref",
                             run_id="victim")
        assert render_run_report(resumed) == render_run_report(reference)
        assert Run(str(runs_dir / "victim")).rows() == reference.rows()
