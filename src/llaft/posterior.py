"""Posterior summaries: means, SDs, equal-tailed and highest-density intervals.

Coefficients are summarized from their Gaussian variational factor with
equal-tailed intervals. The scale parameter's Inverse-Gamma factor is skewed,
so its interval is the highest-density interval: the shortest interval with
the requested mass. It is solved directly from its two first-order conditions
(the mass is the level and the density is equal at both ends) by 2x2 Newton
from the equal-tailed interval: 12-32 CDF evaluations, counting the two
starting quantiles, and 16 at the shapes (200-750) of the bundled studies.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .cavi import VariationalState
from .exceptions import NumericalError
from .numerics import (InverseGammaParams, inverse_gamma_cdf, inverse_gamma_log_pdf,
                       inverse_gamma_quantile, normal_quantile)

__all__ = [
    "ParameterSummary",
    "summarize_coefficients",
    "summarize_scale",
    "acceleration_factor",
    "inverse_gamma_hdi",
    "hdi_from_draws",
]

# Newton steps of inverse_gamma_hdi before it gives up.
_HDI_STEPS = 50


@dataclass(frozen=True)
class ParameterSummary:
    name: str
    mean: float
    sd: float
    interval_low: float
    interval_high: float
    interval_kind: str  # "ETI" or "HDI"

    def __post_init__(self):
        if not self.interval_low < self.interval_high:
            raise ValueError("interval_low must be below interval_high")


def summarize_coefficients(state: VariationalState, level: float = 0.95,
                           names: list[str] | None = None) -> list[ParameterSummary]:
    """Per-coefficient mean, SD and equal-tailed interval mu_j +/- z * sd_j."""
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    if state.coef_cov is None:
        raise ValueError("state has no covariance; fit before summarizing")
    z = normal_quantile(0.5 * (1.0 + level))
    sds = np.sqrt(np.diag(state.coef_cov))
    names = names or [f"beta{j}" for j in range(len(sds))]
    out = []
    for j, (m, s) in enumerate(zip(state.coef_mean, sds)):
        out.append(ParameterSummary(
            name=names[j], mean=float(m), sd=float(s),
            interval_low=float(m - z * s), interval_high=float(m + z * s),
            interval_kind="ETI",
        ))
    return out


def inverse_gamma_hdi(params: InverseGammaParams,
                      level: float = 0.95) -> tuple[float, float]:
    """Shortest interval (l, u) holding `level` mass, by 2x2 Newton on its
    first-order conditions.

    For a unimodal density the shortest interval has the requested mass and
    equal density at both ends:

        F(u) - F(l) = level,   (a + 1) log(l / u) + w / l - w / u = 0.

    Newton starts from the equal-tailed interval, and each step is halved
    until 0 < l < u. It stops once neither endpoint moves by more than
    1e-13 of itself, or by more than 1e-9 of itself without the step
    shrinking: near the root, Newton's error shrinks quadratically, so a step
    that no longer shrinks is set by the rounding of the mass. The mass is
    then `level` up to the CDF's own rounding.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    a, w = params.shape, params.scale
    lo = inverse_gamma_quantile(params, 0.5 * (1.0 - level))
    hi = inverse_gamma_quantile(params, 0.5 * (1.0 + level))
    last_step = math.inf
    for _ in range(_HDI_STEPS):
        mass = inverse_gamma_cdf(params, hi) - inverse_gamma_cdf(params, lo) - level
        tilt = (a + 1.0) * math.log(lo / hi) + w / lo - w / hi
        f_lo = math.exp(inverse_gamma_log_pdf(params, lo))
        f_hi = math.exp(inverse_gamma_log_pdf(params, hi))
        # Jacobian [[-f(l), f(u)], [(a+1)/l - w/l^2, w/u^2 - (a+1)/u]]
        j21 = (a + 1.0 - w / lo) / lo
        j22 = (w / hi - a - 1.0) / hi
        det = -f_lo * j22 - f_hi * j21
        if not (det != 0.0 and math.isfinite(det)):
            break
        d_lo = (mass * j22 - f_hi * tilt) / det
        d_hi = (-f_lo * tilt - j21 * mass) / det
        for _ in range(60):
            new_lo, new_hi = lo - d_lo, hi - d_hi
            if 0.0 < new_lo < new_hi:
                break
            d_lo *= 0.5
            d_hi *= 0.5
        else:
            break
        step = max(abs(d_lo) / lo, abs(d_hi) / hi)
        if step <= 1e-13 or (step <= 1e-9 and step >= last_step):
            return new_lo, new_hi
        lo, hi, last_step = new_lo, new_hi, step
    raise NumericalError(
        f"HDI Newton iteration did not converge for shape={a}, scale={w}, "
        f"level={level}")


def summarize_scale(state: VariationalState, level: float = 0.95,
                    name: str = "scale") -> ParameterSummary:
    """Scale summary: mean omega/(alpha-1), SD omega/((alpha-1) sqrt(alpha-2))
    (NaN when alpha <= 2), and the highest-density interval."""
    a, w = state.scale_shape, state.scale_rate
    if a <= 1:
        raise NumericalError("scale mean undefined for shape <= 1")
    mean = w / (a - 1.0)
    sd = w / ((a - 1.0) * math.sqrt(a - 2.0)) if a > 2.0 else float("nan")
    low, high = inverse_gamma_hdi(InverseGammaParams(a, w), level)
    return ParameterSummary(name=name, mean=mean, sd=sd,
                            interval_low=low, interval_high=high,
                            interval_kind="HDI")


def acceleration_factor(summary: ParameterSummary) -> ParameterSummary:
    """Multiplicative effect on event time: exponentiates the point estimate
    and both interval endpoints (a monotone transform); the SD carries over by
    the first-order delta method."""
    mean = math.exp(summary.mean)
    return replace(
        summary,
        name=f"exp({summary.name})",
        mean=mean,
        sd=mean * summary.sd,
        interval_low=math.exp(summary.interval_low),
        interval_high=math.exp(summary.interval_high),
    )


def hdi_from_draws(draws: np.ndarray, level: float = 0.95) -> tuple[float, float]:
    """Sample highest-density interval: the shortest window covering
    ceil(level * n) sorted draws."""
    x = np.sort(np.asarray(draws, dtype=float))
    n = len(x)
    k = int(math.ceil(level * n))
    if k < 2 or k > n:
        raise ValueError("not enough draws for the requested level")
    widths = x[k - 1:] - x[: n - k + 1]
    i = int(np.argmin(widths))
    return float(x[i]), float(x[i + k - 1])
