"""Statistical helpers for w.h.p.-style claims at finite n.

The paper's guarantees are "with probability at least 1 − O(1/n)"
statements.  A finite simulation can only estimate tail behaviour, so the
experiment harness uses:

* :func:`bootstrap_ci` — nonparametric bootstrap confidence intervals for
  medians (and any other statistic) of stabilization-time samples;
* :func:`tail_probability` — the empirical probability that a sample
  exceeds a threshold, with a rule-of-three upper bound when no
  exceedances are observed;
* :func:`geometric_tail_fit` — fits the exponential tail
  ``P[T > t] ≈ exp(−t/τ)`` beyond a quantile, the signature of the
  restart-style arguments behind the paper's w.h.p. amplifications
  (failed phases simply retry);
* :func:`success_rate_ci` — Wilson interval for Bernoulli success rates
  (the "did it stabilize within budget" column);
* :func:`ks_statistic` / :func:`ks_threshold` — the two-sample
  Kolmogorov–Smirnov test behind the law-equivalence checks between
  engines.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.scheduler.rng import RNG, make_rng


@dataclass(frozen=True)
class ConfidenceInterval:
    """A two-sided confidence interval for a statistic."""

    point: float
    low: float
    high: float
    confidence: float

    def contains(self, value: float) -> bool:
        return self.low <= value <= self.high

    @property
    def width(self) -> float:
        return self.high - self.low


def bootstrap_ci(
    samples: Sequence[float],
    statistic: Callable[[Sequence[float]], float] = statistics.median,
    confidence: float = 0.95,
    resamples: int = 2_000,
    rng: RNG | None = None,
) -> ConfidenceInterval:
    """Percentile-bootstrap CI for an arbitrary statistic."""
    if not samples:
        raise ValueError("need at least one sample")
    if not 0 < confidence < 1:
        raise ValueError("confidence must be in (0, 1)")
    rng = rng if rng is not None else make_rng(0)
    values = list(samples)
    n = len(values)
    replicates = sorted(
        statistic([values[rng.randrange(n)] for _ in range(n)])
        for _ in range(resamples)
    )
    alpha = (1 - confidence) / 2
    low_index = max(0, min(resamples - 1, int(alpha * resamples)))
    high_index = max(0, min(resamples - 1, int((1 - alpha) * resamples)))
    return ConfidenceInterval(
        point=statistic(values),
        low=replicates[low_index],
        high=replicates[high_index],
        confidence=confidence,
    )


def ks_statistic(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Two-sample Kolmogorov–Smirnov statistic, exact with ties.

    The largest gap between the two empirical CDFs.  Both CDFs step past
    each distinct value together, so discrete samples (interaction
    counts, state masses) that tie across the samples are measured
    exactly.
    """
    if len(xs) == 0 or len(ys) == 0:
        raise ValueError("need at least one sample on each side")
    xs, ys = sorted(xs), sorted(ys)
    nx, ny = len(xs), len(ys)
    ix = iy = 0
    stat = 0.0
    while ix < nx and iy < ny:
        value = min(xs[ix], ys[iy])
        while ix < nx and xs[ix] == value:
            ix += 1
        while iy < ny and ys[iy] == value:
            iy += 1
        stat = max(stat, abs(ix / nx - iy / ny))
    return stat


def ks_threshold(nx: int, ny: int, alpha: float) -> float:
    """The asymptotic two-sample KS critical value at false-alarm rate ``alpha``.

    :func:`ks_statistic` above this value rejects "same law" for samples
    of sizes ``nx`` and ``ny``.
    """
    return math.sqrt(-math.log(alpha / 2.0) / 2.0) * math.sqrt((nx + ny) / (nx * ny))


def tail_probability(samples: Sequence[float], threshold: float) -> float:
    """Empirical ``P[T > threshold]``; rule-of-three bound if no exceedance.

    With k = 0 exceedances out of m samples, returns the classical ``3/m``
    95%-confidence upper bound instead of a misleading exact 0.
    """
    if not samples:
        raise ValueError("need at least one sample")
    m = len(samples)
    exceedances = sum(1 for value in samples if value > threshold)
    if exceedances == 0:
        return 3.0 / m
    return exceedances / m


def geometric_tail_fit(
    samples: Sequence[float], quantile: float = 0.5
) -> tuple[float, float]:
    """Fit ``P[T > t] ≈ exp(−(t − t0)/τ)`` beyond the given quantile.

    Returns ``(t0, τ)`` where ``t0`` is the quantile threshold and ``τ``
    the mean residual excess (the MLE of an exponential tail).  Small τ
    relative to t0 is the signature of sharp concentration — the
    finite-n face of a w.h.p. bound.
    """
    if not samples:
        raise ValueError("need at least one sample")
    if not 0 <= quantile < 1:
        raise ValueError("quantile must be in [0, 1)")
    ordered = sorted(samples)
    cut = min(len(ordered) - 1, int(quantile * len(ordered)))
    t0 = ordered[cut]
    excesses = [value - t0 for value in ordered[cut:] if value > t0]
    tau = statistics.fmean(excesses) if excesses else 0.0
    return t0, tau


def success_rate_ci(
    successes: int, trials: int, confidence: float = 0.95
) -> ConfidenceInterval:
    """Wilson score interval for a Bernoulli success rate."""
    if trials <= 0:
        raise ValueError("need at least one trial")
    if not 0 <= successes <= trials:
        raise ValueError("successes must be within [0, trials]")
    z = {0.90: 1.6449, 0.95: 1.9600, 0.99: 2.5758}.get(round(confidence, 2))
    if z is None:
        # Inverse-normal via the Beasley-Springer-Moro-free approximation
        # is overkill here; restrict to the standard confidence levels.
        raise ValueError("supported confidence levels: 0.90, 0.95, 0.99")
    p = successes / trials
    denominator = 1 + z * z / trials
    centre = (p + z * z / (2 * trials)) / denominator
    margin = (
        z
        * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
        / denominator
    )
    return ConfidenceInterval(
        point=p,
        low=max(0.0, centre - margin),
        high=min(1.0, centre + margin),
        confidence=confidence,
    )
