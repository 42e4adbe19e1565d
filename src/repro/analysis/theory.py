"""Predicted bounds and scaling-fit helpers.

The reproduction cannot match the paper's absolute constants (they are
never stated), so every experiment compares *shapes*: measured medians
against the predicted growth law, plus log-log power-law fits whose
exponents should land near the prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


# ---------------------------------------------------------------------------
# Predicted interaction counts (up to constants)
# ---------------------------------------------------------------------------


def elect_leader_interactions(n: int, r: int) -> float:
    """Theorem 1.1: ``Θ((n²/r)·log n)`` interactions to stabilize."""
    return (n * n / r) * math.log(max(2, n))


def predicted_stabilization_interactions(params) -> float:
    """Concrete clean-start prediction for *this implementation*.

    From a clean (awakening) configuration stabilization is
    countdown-dominated: the last ranker becomes a verifier after ``C_max``
    of its own interactions, i.e. about ``C_max · n/2`` global interactions
    (Lemma A.1's concentration).  Because ``C_max`` carries the
    ``Θ(log n)`` floor (see :class:`~repro.core.params.ProtocolParams`),
    this prediction correctly flattens at the ``Θ(n log n)``-interactions
    optimum for large ``r`` where the bare ``(n²/r) log n`` formula would
    dip below it.
    """
    return params.countdown_max * params.n / 2


def assign_ranks_interactions(n: int, r: int) -> float:
    """Lemma D.1: ``Θ((n²/r)·log n)`` interactions to a silent ranking."""
    return (n * n / r) * math.log(max(2, n))


def collision_detection_interactions(n: int, r: int) -> float:
    """Lemma E.1(b): ⊤ within ``Θ((n²/r)·log n)`` interactions."""
    return (n * n / r) * math.log(max(2, n))


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PowerLawFit:
    """``y ≈ coefficient · x^exponent`` fitted on log-log axes."""

    exponent: float
    coefficient: float
    r_squared: float


def fit_power_law(xs: Sequence[float], ys: Sequence[float]) -> PowerLawFit:
    """Least-squares power-law fit; requires ≥ 2 positive points."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least two (x, y) pairs")
    import numpy as np  # deferred: the repro CLI must not require numpy

    log_x = np.log(np.asarray(xs, dtype=float))
    log_y = np.log(np.asarray(ys, dtype=float))
    slope, intercept = np.polyfit(log_x, log_y, 1)
    predicted = slope * log_x + intercept
    residual = float(np.sum((log_y - predicted) ** 2))
    total = float(np.sum((log_y - np.mean(log_y)) ** 2))
    r_squared = 1.0 if total == 0 else 1.0 - residual / total
    return PowerLawFit(
        exponent=float(slope),
        coefficient=float(np.exp(intercept)),
        r_squared=r_squared,
    )


def normalized_ratio(measured: Sequence[float], predicted: Sequence[float]) -> list[float]:
    """measured/predicted — flat ratios mean the predicted shape holds."""
    if len(measured) != len(predicted):
        raise ValueError("length mismatch")
    return [m / p for m, p in zip(measured, predicted)]


def ratio_spread(measured: Sequence[float], predicted: Sequence[float]) -> float:
    """max/min of the normalized ratios (1.0 = perfect shape match)."""
    ratios = normalized_ratio(measured, predicted)
    low, high = min(ratios), max(ratios)
    if low <= 0:
        return float("inf")
    return high / low
