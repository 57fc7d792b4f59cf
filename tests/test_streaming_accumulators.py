"""Property tests for the streaming accumulators.

The contracts pinned here are what lets the chunked Monte-Carlo pipeline
claim "chunking is a memory knob, never a results knob":

* :class:`RunningMoments` is **bit-identical under any chunking** of the
  same stream, its min/max are exact, and Welford mean/std agree with
  numpy's pairwise reductions to far better than the 1e-9 the parity CI
  gates pin;
* :class:`P2Quantile` is bit-identical under any chunking, exact below
  five observations, and a bounded-error estimate of ``np.quantile``
  above;
* :class:`StreamingAggregator` emits the same columns as the exact
  ``aggregate`` (with monotone quantile estimates) and both reject NaN
  with an actionable error instead of poisoning the running state.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.montecarlo import aggregate
from repro.experiments.streaming import (
    P2Quantile,
    RunningMoments,
    StreamingAggregator,
)

#: Finite, moderately-scaled values: the accumulators' contracts are about
#: summation order, not about surviving 1e308 overflow.
finite_values = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)


def chunked(draw_boundaries, values):
    """Split ``values`` into the chunks encoded by a list of cut points."""
    cuts = sorted({b % (len(values) + 1) for b in draw_boundaries})
    pieces = []
    previous = 0
    for cut in cuts + [len(values)]:
        if cut > previous:
            pieces.append(values[previous:cut])
            previous = cut
    return pieces


class TestRunningMoments:
    @given(values=st.lists(finite_values, min_size=1, max_size=60),
           boundaries=st.lists(st.integers(min_value=0, max_value=60),
                               max_size=6))
    def test_bit_identical_under_any_chunking(self, values, boundaries):
        one_by_one = RunningMoments("x")
        for value in values:
            one_by_one.update(value)
        in_chunks = RunningMoments("x")
        for piece in chunked(boundaries, values):
            in_chunks.extend(piece)
        assert in_chunks.count == one_by_one.count
        assert in_chunks.mean == one_by_one.mean
        assert in_chunks.std == one_by_one.std
        assert in_chunks.minimum == one_by_one.minimum
        assert in_chunks.maximum == one_by_one.maximum

    @given(values=st.lists(finite_values, min_size=1, max_size=200))
    def test_matches_numpy(self, values):
        moments = RunningMoments()
        moments.extend(values)
        arr = np.asarray(values, dtype=float)
        assert moments.count == arr.size
        assert moments.minimum == float(arr.min())
        assert moments.maximum == float(arr.max())
        scale = max(1.0, abs(float(arr.mean())))
        assert abs(moments.mean - float(arr.mean())) <= 1e-9 * scale
        expected_std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
        assert abs(moments.std - expected_std) <= 1e-9 * max(1.0, expected_std)

    def test_single_value_std_is_pinned_zero(self):
        moments = RunningMoments()
        moments.update(3.5)
        assert moments.std == 0.0
        assert moments.mean == 3.5
        assert moments.minimum == moments.maximum == 3.5

    def test_rejects_nan(self):
        moments = RunningMoments("work")
        with pytest.raises(ValueError, match="NaN"):
            moments.update(float("nan"))
        moments.extend([1.0, 2.0])
        with pytest.raises(ValueError, match="'work'"):
            moments.extend([3.0, float("nan")])


def p2_state(estimator):
    """Everything a P² estimator carries from one value to the next."""
    return (estimator.count, list(estimator._heights),
            list(estimator._positions), list(estimator._desired))


def reference_p2_state(values, q):
    """The marker state after feeding ``values`` one at a time, written out
    as the textbook P² update (Jain & Chlamtac 1985) — an oracle that
    shares no code with :class:`P2Quantile`."""
    heights = sorted(values[:5])
    positions = [0.0, 1.0, 2.0, 3.0, 4.0]
    desired = ([0.0, 2.0 * q, 4.0 * q, 2.0 + 2.0 * q, 4.0]
               if len(values) >= 5 else [0.0] * 5)
    rates = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]
    if len(values) < 5:
        return len(values), list(values), positions, desired
    for x in values[5:]:
        if x < heights[0]:
            heights[0], cell = x, 0
        elif x >= heights[4]:
            heights[4], cell = x, 3
        else:
            cell = max(k for k in range(4) if x >= heights[k])
        for i in range(cell + 1, 5):
            positions[i] += 1.0
        for i in range(5):
            desired[i] += rates[i]
        for i in (1, 2, 3):
            h, n, d = heights, positions, desired[i] - positions[i]
            if not ((d >= 1.0 and n[i + 1] - n[i] > 1.0)
                    or (d <= -1.0 and n[i - 1] - n[i] < -1.0)):
                continue
            s = 1.0 if d >= 1.0 else -1.0
            new = h[i] + s / (n[i + 1] - n[i - 1]) * (
                (n[i] - n[i - 1] + s) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
                + (n[i + 1] - n[i] - s) * (h[i] - h[i - 1]) / (n[i] - n[i - 1]))
            if not h[i - 1] < new < h[i + 1]:
                j = i + int(s)
                new = h[i] + s * (h[j] - h[i]) / (n[j] - n[i])
            heights[i] = new
            positions[i] += s
    return len(values), heights, positions, desired


def p2_streams(seed, size, kind, order):
    """A stream of ``size`` values: continuous or small-integer (ties, like
    the interrupt and episode columns), in random, sorted or reverse order."""
    rng = np.random.default_rng(seed)
    if kind == "ties":
        values = rng.integers(0, 4, size).astype(float)
    else:
        values = rng.exponential(10.0, size)
    if order != "random":
        values.sort()
    if order == "reversed":
        values = values[::-1]
    return values.tolist()


def assert_p2_chunk_invariant(values, boundaries, q):
    one_by_one = P2Quantile(q)
    for value in values:
        one_by_one.update(value)
    in_chunks = P2Quantile(q)
    for piece in chunked(boundaries, values):
        in_chunks.extend(piece)
    expected = reference_p2_state(values, q)
    assert p2_state(one_by_one) == expected
    assert p2_state(in_chunks) == expected
    assert in_chunks.value() == one_by_one.value()


class TestP2Quantile:
    @given(values=st.lists(finite_values, min_size=1, max_size=60),
           boundaries=st.lists(st.integers(min_value=0, max_value=60),
                               max_size=6),
           q=st.sampled_from([0.1, 0.5, 0.9]))
    def test_bit_identical_under_any_chunking(self, values, boundaries, q):
        assert_p2_chunk_invariant(values, boundaries, q)

    @settings(max_examples=60)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
           size=st.integers(min_value=1, max_value=2000),
           kind=st.sampled_from(["continuous", "ties"]),
           order=st.sampled_from(["random", "sorted", "reversed"]),
           boundaries=st.lists(st.integers(min_value=0, max_value=2000),
                               max_size=8),
           q=st.sampled_from([0.1, 0.5, 0.9]))
    def test_long_streams_bit_identical_under_any_chunking(
            self, seed, size, kind, order, boundaries, q):
        assert_p2_chunk_invariant(p2_streams(seed, size, kind, order),
                                  boundaries, q)

    @pytest.mark.parametrize("kind", ["continuous", "ties"])
    @pytest.mark.parametrize("order", ["random", "sorted", "reversed"])
    def test_long_stream_in_one_chunk_matches_reference(self, kind, order):
        values = p2_streams(5, 2000, kind, order)
        for q in (0.1, 0.5, 0.9):
            assert_p2_chunk_invariant(values, [97, 500, 1999], q)

    @given(values=st.lists(finite_values, min_size=1, max_size=4),
           q=st.sampled_from([0.1, 0.5, 0.9]))
    def test_exact_below_five_observations(self, values, q):
        estimator = P2Quantile(q)
        estimator.extend(values)
        assert estimator.value() == float(np.quantile(np.asarray(values), q))

    @settings(max_examples=30)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
           size=st.integers(min_value=50, max_value=500),
           q=st.sampled_from([0.1, 0.5, 0.9]),
           distribution=st.sampled_from(["uniform", "exponential", "normal"]))
    def test_estimate_tracks_numpy_quantile(self, seed, size, q, distribution):
        rng = np.random.default_rng(seed)
        if distribution == "uniform":
            data = rng.uniform(0.0, 100.0, size)
        elif distribution == "exponential":
            data = rng.exponential(10.0, size)
        else:
            data = rng.normal(50.0, 15.0, size)
        estimator = P2Quantile(q)
        estimator.extend(data)
        exact = float(np.quantile(data, q))
        span = float(data.max() - data.min())
        # P² is an O(1)-memory estimator, not an exact quantile: on these
        # well-behaved distributions its error stays a small fraction of
        # the data range (typically <2%; 15% asserted for tail safety).
        assert abs(estimator.value() - exact) <= 0.15 * span + 1e-12

    def test_validates_quantile_and_rejects_nan(self):
        with pytest.raises(ValueError, match="quantile"):
            P2Quantile(1.5)
        estimator = P2Quantile(0.5, "work")
        with pytest.raises(ValueError, match="NaN"):
            estimator.update(float("nan"))
        with pytest.raises(ValueError, match="no observations"):
            P2Quantile(0.5).value()


class TestStreamingAggregator:
    @given(values=st.lists(finite_values, min_size=1, max_size=40),
           boundaries=st.lists(st.integers(min_value=0, max_value=40),
                               max_size=5))
    def test_same_columns_as_exact_aggregate(self, values, boundaries):
        aggregator = StreamingAggregator("work")
        for piece in chunked(boundaries, values):
            aggregator.extend(piece)
        summary = aggregator.summary("work")
        exact = aggregate(values, "work")
        assert set(summary) == set(exact)
        assert summary["work_n"] == exact["work_n"]
        assert summary["work_min"] == exact["work_min"]
        assert summary["work_max"] == exact["work_max"]
        for key in ("work_mean", "work_std"):
            assert abs(summary[key] - exact[key]) \
                <= 1e-9 * max(1.0, abs(exact[key]))

    @given(values=st.lists(finite_values, min_size=1, max_size=200))
    def test_quantile_estimates_are_monotone(self, values):
        aggregator = StreamingAggregator("work", quantiles=(0.1, 0.5, 0.9))
        aggregator.extend(values)
        summary = aggregator.summary("work")
        assert summary["work_q10"] <= summary["work_q50"] <= summary["work_q90"]
        assert math.isfinite(summary["work_q50"])

    @given(values=st.lists(finite_values, min_size=1, max_size=4))
    def test_quantiles_exact_below_five_observations(self, values):
        aggregator = StreamingAggregator("work")
        aggregator.extend(values)
        summary = aggregator.summary("work")
        exact = aggregate(values, "work")
        # Below five observations the P² estimators just sort their buffer,
        # so the quantile columns equal the exact path bit for bit (Welford
        # mean/std may differ in the last ULP and are covered above).
        for key in ("work_q10", "work_q50", "work_q90", "work_min",
                    "work_max", "work_n"):
            assert summary[key] == exact[key]

    def test_empty_summary(self):
        assert StreamingAggregator("work").summary("work") == {"work_n": 0}

    def test_rejects_nan(self):
        aggregator = StreamingAggregator("work")
        aggregator.extend([1.0, 2.0])
        with pytest.raises(ValueError, match="NaN"):
            aggregator.extend([float("nan")])
        with pytest.raises(ValueError, match="NaN"):
            aggregator.update(float("nan"))
