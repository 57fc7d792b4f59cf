"""Online accumulators for streaming Monte-Carlo aggregation.

The exact aggregation path of :mod:`repro.experiments.montecarlo`
materialises one full per-replication array per statistic, so its peak
memory grows linearly in ``--replications``.  This module provides the
*streaming* alternative: replications are played in fixed-size chunks and
fed — in replication order — into online accumulators whose state is O(1)
per statistic, making peak memory flat in the replication count:

* :class:`RunningMoments` — Welford's algorithm for mean and (sample)
  standard deviation plus running min/max.  Updates are strictly
  sequential, one value at a time, so the result is **bit-identical no
  matter how the stream is chunked** (and agrees with numpy's pairwise
  summation to ~1e-15 relative, pinned at 1e-9 by the parity gates).
  Min/max are exact.
* :class:`P2Quantile` — the P² algorithm of Jain & Chlamtac (1985): a
  five-marker parabolic estimator of one quantile in O(1) memory.  Exact
  below five observations (it just sorts the buffer), an estimate above —
  the reporting layer flags streamed quantile columns as ``p2`` so exact
  and estimated quantiles are never conflated.
* :class:`StreamingAggregator` — one statistic's bundle of the above,
  producing the same ``{prefix}_n/mean/std/min/max/q*`` columns as
  :func:`repro.experiments.montecarlo.aggregate`.

All accumulators reject NaN on entry with an actionable error instead of
silently absorbing it into the running state (where it would poison every
later summary).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["RunningMoments", "P2Quantile", "StreamingAggregator"]


def _reject_nan(name: Optional[str], count_nan: int, count_total: int,
                first_index: Optional[int] = None) -> None:
    label = f" {name!r}" if name else ""
    where = ("" if first_index is None
             else f" (first NaN at absolute replication index {first_index})")
    raise ValueError(
        f"replicated statistic{label}: {count_nan} of {count_total} values "
        f"in this update are NaN{where}; NaN cannot be aggregated (it would "
        "poison mean/std/quantiles) — check the scheduler/adversary/scenario "
        "for invalid parameters producing undefined work values")


class RunningMoments:
    """Welford mean/std plus exact running min/max, in O(1) state.

    The Welford update is applied strictly sequentially — one value at a
    time, in stream order — so feeding the same stream in any chunking
    yields bit-identical state.  ``std`` follows the convention of
    :func:`repro.experiments.montecarlo.aggregate`: sample standard
    deviation (``ddof=1``) for two or more values, ``0.0`` for fewer.
    """

    __slots__ = ("name", "count", "mean", "_m2", "minimum", "maximum")

    def __init__(self, name: Optional[str] = None):
        self.name = name
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def update(self, value: float) -> None:
        value = float(value)
        if math.isnan(value):
            _reject_nan(self.name, 1, 1, self.count)
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def extend(self, values: Iterable[float]) -> None:
        arr = np.asarray(list(values) if not isinstance(values, np.ndarray)
                         else values, dtype=float)
        if arr.size == 0:
            return
        nan_mask = np.isnan(arr)
        nan_count = int(nan_mask.sum())
        if nan_count:
            _reject_nan(self.name, nan_count, int(arr.size),
                        self.count + int(nan_mask.argmax()))
        # Welford is inherently sequential (each step divides by the
        # running count); min/max are associative, so they merge from the
        # chunk's exact numpy reduction — both stay chunking-invariant.
        count = self.count
        mean = self.mean
        m2 = self._m2
        for value in arr.tolist():
            count += 1
            delta = value - mean
            mean += delta / count
            m2 += delta * (value - mean)
        self.count = count
        self.mean = mean
        self._m2 = m2
        low = float(arr.min())
        high = float(arr.max())
        if low < self.minimum:
            self.minimum = low
        if high > self.maximum:
            self.maximum = high

    @property
    def std(self) -> float:
        """Sample standard deviation (``ddof=1``); ``0.0`` below 2 values."""
        if self.count < 2:
            return 0.0
        return math.sqrt(self._m2 / (self.count - 1))


def _p2_move(drift: float, left: float, height: float, right: float,
             left_at: float, at: float, right_at: float) -> Tuple[float, float]:
    """A P² marker's height and position after one step toward ``drift``:
    along the parabola through it and its neighbours, or the line to the
    neighbour it moves toward when the parabola leaves ``(left, right)``."""
    step = 1.0 if drift >= 1.0 else -1.0
    candidate = height + step / (right_at - left_at) * (
        (at - left_at + step) * (right - height) / (right_at - at)
        + (right_at - at - step) * (height - left) / (at - left_at))
    if not left < candidate < right:
        toward, toward_at = (right, right_at) if step > 0 else (left, left_at)
        candidate = height + step * (toward - height) / (toward_at - at)
    return candidate, at + step


class P2Quantile:
    """One quantile, estimated online with the P² algorithm.

    Jain & Chlamtac, "The P² algorithm for dynamic calculation of
    quantiles and histograms without storing observations", CACM 1985:
    five markers track the running minimum, the target quantile, the two
    flanking mid-quantiles and the running maximum; marker heights move by
    piecewise-parabolic interpolation as observations arrive.  Below five
    observations the estimate is exact (``numpy.quantile`` of the sorted
    buffer).  Updates are sequential, so the estimate is bit-identical
    under any chunking of the same stream.
    """

    __slots__ = ("q", "name", "count", "_heights", "_positions", "_desired",
                 "_rates")

    def __init__(self, q: float, name: Optional[str] = None):
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        self.q = float(q)
        self.name = name
        self.count = 0
        self._heights: List[float] = []
        self._positions = [0.0, 1.0, 2.0, 3.0, 4.0]
        self._desired = [0.0, 0.0, 0.0, 0.0, 0.0]
        q = self.q
        self._rates = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]

    def update(self, value: float) -> None:
        value = float(value)
        if math.isnan(value):
            _reject_nan(self.name, 1, 1, self.count)
        self._absorb([value])

    def extend(self, values: Iterable[float]) -> None:
        arr = np.asarray(list(values) if not isinstance(values, np.ndarray)
                         else values, dtype=float)
        if arr.size == 0:
            return
        nan_mask = np.isnan(arr)
        nan_count = int(nan_mask.sum())
        if nan_count:
            _reject_nan(self.name, nan_count, int(arr.size),
                        self.count + int(nan_mask.argmax()))
        self._absorb(arr.tolist())

    def _absorb(self, values: List[float]) -> None:
        """Feed NaN-free ``values``, in order, one P² update each.

        The five markers live in locals for the whole chunk, and a value
        costs a call only when a marker moves; the arithmetic is that of a
        per-value update, step for step, so the state is bit-identical
        under any chunking of the stream.
        """
        start = min(max(5 - self.count, 0), len(values))
        if start:
            self._heights.extend(values[:start])
            self.count += start
            if self.count == 5:
                self._heights.sort()
                q = self.q
                self._desired = [0.0, 2.0 * q, 4.0 * q, 2.0 + 2.0 * q, 4.0]
        if start == len(values):
            return
        h0, h1, h2, h3, h4 = self._heights
        # Marker 0 stays at position 0 (desired 0): nothing ever moves it.
        _, n1, n2, n3, n4 = self._positions
        _, d1, d2, d3, d4 = self._desired
        _, r1, r2, r3, r4 = self._rates
        for x in values[start:]:
            # Widen the extreme markers to a new minimum or maximum; every
            # marker above the observation moves up one position (heights
            # never decrease from marker to marker).
            if x < h0:
                h0 = x
            elif x >= h4:
                h4 = x
            if x < h1:
                n1 += 1.0
            if x < h2:
                n2 += 1.0
            if x < h3:
                n3 += 1.0
            n4 += 1.0
            d1 += r1
            d2 += r2
            d3 += r3
            d4 += r4
            drift = d1 - n1
            if drift >= 1.0 and n2 - n1 > 1.0 or drift <= -1.0 and 0.0 - n1 < -1.0:
                h1, n1 = _p2_move(drift, h0, h1, h2, 0.0, n1, n2)
            drift = d2 - n2
            if drift >= 1.0 and n3 - n2 > 1.0 or drift <= -1.0 and n1 - n2 < -1.0:
                h2, n2 = _p2_move(drift, h1, h2, h3, n1, n2, n3)
            drift = d3 - n3
            if drift >= 1.0 and n4 - n3 > 1.0 or drift <= -1.0 and n2 - n3 < -1.0:
                h3, n3 = _p2_move(drift, h2, h3, h4, n2, n3, n4)
        self.count += len(values) - start
        self._heights = [h0, h1, h2, h3, h4]
        self._positions = [0.0, n1, n2, n3, n4]
        self._desired = [0.0, d1, d2, d3, d4]

    def value(self) -> float:
        """The current estimate (exact below five observations)."""
        if self.count == 0:
            raise ValueError("no observations yet")
        if self.count < 5:
            return float(np.quantile(np.asarray(self._heights), self.q))
        return float(self._heights[2])


class StreamingAggregator:
    """Online mean/std/min/max/quantile summary of one replicated statistic.

    Produces the same columns as
    :func:`repro.experiments.montecarlo.aggregate` — ``{prefix}_n``,
    ``{prefix}_mean/std/min/max`` and one ``{prefix}_q<percent>`` per
    requested quantile — but with O(1) memory in the stream length.
    Quantile columns carry P² *estimates* once the stream exceeds four
    values (monotone across quantiles by construction: the summary sorts
    the estimates so ``q10 <= q50 <= q90`` always holds, matching the
    order exact quantiles satisfy automatically).

    ``ci`` (optional) attaches a confidence-interval accumulator — any
    object with ``update(value, stratum)``, ``extend(values, strata)``
    and ``columns(prefix)``, in practice
    :class:`repro.experiments.variance.CiAccumulator`.  It is fed the
    same stream in the same order (after NaN screening), and its columns
    are merged into :meth:`summary`, so ``{prefix}_sem/_ci_lo/_ci_hi``
    ride along with the mean/std/quantile columns.  ``strata`` (optional
    per-value stratum labels, e.g. observed interrupt counts) are passed
    through to the accumulator untouched.
    """

    def __init__(self, name: Optional[str] = None,
                 quantiles: Sequence[float] = (0.1, 0.5, 0.9), ci=None):
        self.name = name
        self.quantiles: Tuple[float, ...] = tuple(sorted(quantiles))
        self.moments = RunningMoments(name)
        self.estimators = [P2Quantile(q, name) for q in self.quantiles]
        self.ci = ci

    @property
    def count(self) -> int:
        return self.moments.count

    def update(self, value: float, stratum: Optional[float] = None) -> None:
        self.moments.update(value)
        for estimator in self.estimators:
            estimator.update(value)
        if self.ci is not None:
            self.ci.update(value, stratum)

    def extend(self, values: Iterable[float],
               strata: Optional[Sequence[float]] = None) -> None:
        arr = np.asarray(list(values) if not isinstance(values, np.ndarray)
                         else values, dtype=float)
        if arr.size == 0:
            return
        self.moments.extend(arr)
        for estimator in self.estimators:
            estimator.extend(arr)
        if self.ci is not None:
            self.ci.extend(arr.tolist(), strata)

    def summary(self, prefix: str) -> Dict[str, float]:
        """The aggregate row columns (same names/conventions as ``aggregate``)."""
        moments = self.moments
        if moments.count == 0:
            return {f"{prefix}_n": 0}
        out: Dict[str, float] = {
            f"{prefix}_n": int(moments.count),
            f"{prefix}_mean": float(moments.mean),
            f"{prefix}_std": float(moments.std),
            f"{prefix}_min": float(moments.minimum),
            f"{prefix}_max": float(moments.maximum),
        }
        estimates = sorted(est.value() for est in self.estimators)
        for q, estimate in zip(self.quantiles, estimates):
            out[f"{prefix}_q{int(round(q * 100))}"] = float(estimate)
        if self.ci is not None:
            out.update(self.ci.columns(prefix))
        return out
