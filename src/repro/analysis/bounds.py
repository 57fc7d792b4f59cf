"""Closed-form guarantees and guideline parameters from the paper.

Every formula the paper states in closed form lives here so that the
schedulers, the benchmarks and EXPERIMENTS.md all quote a single source:

* Section 3.1 — the non-adaptive guideline's period length, period count and
  guaranteed-work estimate.
* Theorem 5.1 — the adaptive guideline's guaranteed-work lower bound
  ``U − (2 − 2^{1−p})·√(2cU) − O(U^{1/4} + pc)``.
* Section 5.2 / Table 2 — the optimal p = 1 episode-schedule: its period
  count (eq. 5.1), the fractional part ε, the period lengths, and
  ``W^(1)[U] ≈ U − √(2cU) − c/2``.
* Proposition 4.1(c)/(d) — the zero-work threshold and the p = 0 optimum.

Functions are deliberately dependency-free (only :mod:`math`/:mod:`numpy`)
so they can be imported from anywhere in the library without cycles.

OCR note
--------
The extended abstract's Section 3.1 states the non-adaptive guarantee as
``U − √(2pcU) + pc + O(1)`` while a direct derivation for the stated
guideline (``m = ⌊√(pU/c)⌋`` equal periods of ``√(cU/p)``, adversary killing
the last ``p`` periods) gives ``U − 2√(pcU) + pc``.  Both are provided
(:func:`nonadaptive_guarantee_paper` and :func:`nonadaptive_guarantee`) and
the benchmark for Section 3.1 reports measured work against both.
"""

from __future__ import annotations

import math
from typing import Union

__all__ = [
    "zero_work_threshold",
    "p0_optimal_work",
    "nonadaptive_num_periods",
    "nonadaptive_period_length",
    "nonadaptive_guarantee",
    "nonadaptive_guarantee_paper",
    "adaptive_loss_coefficient",
    "adaptive_guarantee",
    "optimal_p1_num_periods",
    "optimal_p1_epsilon",
    "optimal_p1_period_length",
    "optimal_p1_work",
    "guideline_p1_num_periods",
    "guideline_p1_period_length",
    "closed_form_optimal_work",
]

Number = Union[int, float]


# ----------------------------------------------------------------------
# Basic structure (Proposition 4.1)
# ----------------------------------------------------------------------
def zero_work_threshold(setup_cost: Number, max_interrupts: int) -> float:
    """Lifespan below which no work can be guaranteed: ``(p + 1)·c``."""
    return (int(max_interrupts) + 1) * float(setup_cost)


def p0_optimal_work(lifespan: Number, setup_cost: Number) -> float:
    """Optimal guaranteed work with no interrupts: ``U − c`` (Prop. 4.1(d))."""
    return max(0.0, float(lifespan) - float(setup_cost))


# ----------------------------------------------------------------------
# Non-adaptive guideline (Section 3.1)
# ----------------------------------------------------------------------
def nonadaptive_num_periods(lifespan: Number, setup_cost: Number,
                            max_interrupts: int) -> int:
    """Guideline schedule length ``m^(p)[U] = ⌊√(pU/c)⌋`` (at least 1)."""
    p = int(max_interrupts)
    if p == 0:
        return 1
    c = float(setup_cost)
    if c == 0.0:
        return max(1, int(lifespan))
    return max(1, int(math.floor(math.sqrt(p * float(lifespan) / c))))


def nonadaptive_period_length(lifespan: Number, setup_cost: Number,
                              max_interrupts: int) -> float:
    """Guideline period length ``t_i = √(cU/p)`` (the lifespan for p = 0)."""
    p = int(max_interrupts)
    if p == 0:
        return float(lifespan)
    return math.sqrt(float(setup_cost) * float(lifespan) / p)


def nonadaptive_guarantee(lifespan: Number, setup_cost: Number,
                          max_interrupts: int) -> float:
    """Derived guaranteed work of the non-adaptive guideline.

    With ``m = √(pU/c)`` equal periods of ``√(cU/p)`` and the adversary
    killing the last ``p`` periods at their last instants, the surviving
    work is ``(m − p)(t − c) = U − 2√(pcU) + pc``.  Clamped at zero.
    """
    p = int(max_interrupts)
    U = float(lifespan)
    c = float(setup_cost)
    if p == 0:
        return p0_optimal_work(U, c)
    if U <= zero_work_threshold(c, p):
        return 0.0
    return max(0.0, U - 2.0 * math.sqrt(p * c * U) + p * c)


def nonadaptive_guarantee_paper(lifespan: Number, setup_cost: Number,
                                max_interrupts: int) -> float:
    """Non-adaptive guarantee exactly as printed in Section 3.1.

    ``W(S_na^(p)) = U − √(2pcU) + pc`` (up to ``O(1)``).  See the module
    docstring for why this differs from :func:`nonadaptive_guarantee`.
    """
    p = int(max_interrupts)
    U = float(lifespan)
    c = float(setup_cost)
    if p == 0:
        return p0_optimal_work(U, c)
    if U <= zero_work_threshold(c, p):
        return 0.0
    return max(0.0, U - math.sqrt(2.0 * p * c * U) + p * c)


# ----------------------------------------------------------------------
# Adaptive guideline (Theorem 5.1)
# ----------------------------------------------------------------------
def adaptive_loss_coefficient(max_interrupts: int) -> float:
    """The coefficient ``2 − 2^{1−p}`` multiplying ``√(2cU)`` in Thm 5.1.

    It equals 0 for p = 0 (no √ loss at all — only the single set-up cost),
    1 for p = 1 (the classical Bhatt–Chung–Leighton–Rosenberg bound) and
    increases towards 2 as the interrupt budget grows.
    """
    p = int(max_interrupts)
    if p <= 0:
        return 0.0
    return 2.0 - 2.0 ** (1 - p)


def adaptive_guarantee(lifespan: Number, setup_cost: Number,
                       max_interrupts: int,
                       *, include_low_order: bool = False) -> float:
    """Theorem 5.1's lower bound on the adaptive guideline's work.

    ``W(Σ_a^(p)[U]) >= U − (2 − 2^{1−p})·√(2cU) − O(U^{1/4} + pc)``.

    With ``include_low_order`` the ``U^{1/4} + pc`` slack is subtracted with
    unit constants, giving a conservative (certainly achievable) figure;
    without it only the leading terms are returned, which is what the
    benchmarks plot against measured work.
    """
    p = int(max_interrupts)
    U = float(lifespan)
    c = float(setup_cost)
    if p == 0:
        return p0_optimal_work(U, c)
    bound = U - adaptive_loss_coefficient(p) * math.sqrt(2.0 * c * U)
    if include_low_order:
        bound -= U ** 0.25 + p * c
    return max(0.0, bound)


def closed_form_optimal_work(lifespan: Number, setup_cost: Number,
                             max_interrupts: int) -> float:
    """Closed-form approximation of ``W^(p)[U]`` used as a scheduling oracle.

    The equalising scheduler (Theorem 4.3) needs an estimate of the optimal
    (p−1)-interrupt work for every residual lifespan.  We use the leading
    terms of Theorem 5.1 together with the exact structure near the origin
    (``W = 0`` below the ``(p+1)c`` threshold, ``W = U − c`` for p = 0).
    """
    p = int(max_interrupts)
    U = float(lifespan)
    c = float(setup_cost)
    if U <= zero_work_threshold(c, p):
        return 0.0
    if p == 0:
        return p0_optimal_work(U, c)
    return max(0.0, U - adaptive_loss_coefficient(p) * math.sqrt(2.0 * c * U) - c / 2.0)


# ----------------------------------------------------------------------
# The optimal p = 1 episode-schedule (Section 5.2, eq. 5.1, Table 2)
# ----------------------------------------------------------------------
def optimal_p1_num_periods(lifespan: Number, setup_cost: Number) -> int:
    """Equation (5.1): ``m^(1)[U] = ⌈√(2U/c − 7/4) − 1/2⌉`` (at least 2)."""
    U = float(lifespan)
    c = float(setup_cost)
    if c == 0.0:
        return max(2, int(U))
    inner = 2.0 * U / c - 7.0 / 4.0
    if inner <= 0.0:
        return 2
    return max(2, int(math.ceil(math.sqrt(inner) - 0.5)))


def optimal_p1_epsilon(lifespan: Number, setup_cost: Number,
                       num_periods: int = None) -> float:
    """The fractional part ``ε = (U − c)/(mc) − (m − 1)/2`` of Section 5.2.

    For the ``m`` of eq. (5.1) the paper shows ``ε ∈ (0, 1]``; callers may
    pass their own ``m`` to inspect how ε behaves off the optimum.
    """
    U = float(lifespan)
    c = float(setup_cost)
    m = optimal_p1_num_periods(U, c) if num_periods is None else int(num_periods)
    if c == 0.0 or m == 0:
        return 0.0
    return (U - c) / (m * c) - (m - 1) / 2.0


def optimal_p1_period_length(k: int, lifespan: Number, setup_cost: Number) -> float:
    """Period length ``t_k^(1)[U]`` of the optimal p = 1 schedule.

    Table 2 gives ``t_k = (m − k + ε)c`` for ``k <= m − 2`` (approximately
    ``√(2cU) − kc``) and ``t_{m−1} = t_m = (1 + ε)c``.
    """
    U = float(lifespan)
    c = float(setup_cost)
    m = optimal_p1_num_periods(U, c)
    eps = optimal_p1_epsilon(U, c, m)
    k = int(k)
    if k < 1 or k > m:
        raise ValueError(f"period index {k} out of range [1, {m}]")
    if k >= m - 1:
        return (1.0 + eps) * c
    return (m - k + eps) * c


def optimal_p1_work(lifespan: Number, setup_cost: Number) -> float:
    """Approximate optimal work for p = 1: ``W^(1)[U] ≈ U − √(2cU) − c/2``."""
    U = float(lifespan)
    c = float(setup_cost)
    return max(0.0, U - math.sqrt(2.0 * c * U) - c / 2.0)


# ----------------------------------------------------------------------
# The p = 1 guideline schedule S_a^(1) (Table 2, right column)
# ----------------------------------------------------------------------
def guideline_p1_num_periods(lifespan: Number, setup_cost: Number) -> int:
    """Table 2: ``m^(1)[U] = ⌊√(2U/c)⌋ + 2`` for the guideline ``S_a^(1)``."""
    U = float(lifespan)
    c = float(setup_cost)
    if c == 0.0:
        return max(2, int(U))
    return int(math.floor(math.sqrt(2.0 * U / c))) + 2


def guideline_p1_period_length(k: int, lifespan: Number, setup_cost: Number) -> float:
    """Table 2: ``t_k ≈ √(2cU) − (k − 7/2)c`` for ``k <= m − 2``, else ``3c/2``."""
    U = float(lifespan)
    c = float(setup_cost)
    m = guideline_p1_num_periods(U, c)
    k = int(k)
    if k < 1 or k > m:
        raise ValueError(f"period index {k} out of range [1, {m}]")
    if k >= m - 1:
        return 1.5 * c
    return math.sqrt(2.0 * c * U) - (k - 3.5) * c
