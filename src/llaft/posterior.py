"""Posterior summaries: means, SDs, equal-tailed and highest-density intervals.

Coefficients are summarized from their Gaussian variational factor with
equal-tailed intervals. The scale parameter's Inverse-Gamma factor is skewed,
so its interval is the highest-density interval: the shortest interval with
the requested mass. It is solved directly from its two first-order conditions
(the mass is the level and the density is equal at both ends) by 2x2 Newton
from an approximate equal-tailed interval, for a whole array of
distributions at once. The mass of an interval comes from Gauss-Legendre
quadrature in log(1 / b), so the HDI makes no CDF call, and a study
summarizes the scales of a block of replicates in one call.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .cavi import VariationalState
from .exceptions import NumericalError
from .model import _readonly
from .numerics import InverseGammaParams, _horner, _lgamma, _quantile_start, normal_quantile

__all__ = [
    "ParameterSummary",
    "summarize_coefficients",
    "summarize_scale",
    "acceleration_factor",
    "inverse_gamma_hdi",
    "hdi_from_draws",
]

# Newton steps of inverse_gamma_hdi before it gives up, and the step halvings
# that keep an update inside 0 < l < u.
_HDI_STEPS = 50
_HDI_HALVINGS = 60
# Gauss-Legendre nodes in each of the two panels of the HDI's mass.
_GL_NODES = 48
# Binet's remainder log Gamma(a) - (a - 1/2) log a + a - log(2 pi) / 2 as a
# series in 1/a^2 times 1/a, highest power first (B_2k / (2k (2k - 1)),
# k = 6 .. 1); its first omitted term is below 1e-15 from _BINET_MIN up.
_BINET = (-691.0 / 360360.0, 1.0 / 1188.0, -1.0 / 1680.0, 1.0 / 1260.0,
          -1.0 / 360.0, 1.0 / 12.0)
_BINET_MIN = 10.0


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
    rows, = _etis([state], normal_quantile(0.5 * (1.0 + level)))
    names = names or [f"beta{j}" for j in range(len(rows))]
    return [ParameterSummary(name, *row, interval_kind="ETI") for name, row in zip(names, rows)]


def _etis(states, z) -> list:
    """Per state and coefficient, (mean, sd, mean -/+ z sd), for a block at once."""
    means = np.array([state.coef_mean for state in states])
    sds = np.sqrt(np.diagonal(np.array([state.coef_cov for state in states]), axis1=1, axis2=2))
    lows, highs = means - z * sds, means + z * sds
    if not (lows < highs).all():
        raise ValueError("interval_low must be below interval_high")
    return [list(zip(*cols)) for cols in zip(*(x.tolist() for x in (means, sds, lows, highs)))]


@functools.cache
def _legendre_rule() -> tuple:
    """Gauss-Legendre nodes and weights on [-1, 1], rounded from 34-digit
    values. The eigenvalues of the Legendre Jacobi matrix (Golub and Welsch
    1969) start one Newton step on P_n in decimal arithmetic, and the
    weights are 2 (1 - x^2) / (n P_{n-1}(x))^2 at the polished nodes.
    Weights from the eigenvectors in double precision are off by ~1e-15 in
    their sums, which moves the far end of a 0.999 HDI at shape 0.5 by
    ~5e-12."""
    import decimal  # here, not at the top: only the first HDI pays its import

    n = _GL_NODES
    k = np.arange(1.0, n)
    off = k / np.sqrt(4.0 * k * k - 1.0)
    start = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    nodes, weights = [], []
    with decimal.localcontext() as ctx:
        ctx.prec = 34
        for x in map(decimal.Decimal, start[n // 2:].tolist()):  # the positive half
            for newton in (True, False):
                p_prev, p = 1, x
                for j in range(1, n):
                    p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
                if newton:
                    x -= p * (1 - x * x) / (n * (p_prev - x * p))
            nodes.append(float(x))
            weights.append(float(2 * (1 - x * x) / (n * p_prev) ** 2))
    nodes, weights = np.array(nodes), np.array(weights)
    # read-only: every caller shares the cached arrays
    return (_readonly(np.concatenate([-nodes[::-1], nodes])),
            _readonly(np.concatenate([weights[::-1], weights])))


def _log_norm(a: np.ndarray) -> np.ndarray:
    """a log a - a - log Gamma(a), the log density of s = log(w / (a b)) at
    its mode s = 0. From _BINET_MIN up, the three terms cancel to
    1/2 log(a / 2 pi) minus Binet's remainder, which is summed instead: at
    shape 1e4 the direct sum loses 1e-11, and the mass with it."""
    inv = 1.0 / a
    binet = inv * _horner(_BINET, inv * inv)
    return np.where(a < _BINET_MIN, a * np.log(a) - a - _lgamma(a),
                    0.5 * np.log(a / (2.0 * math.pi)) - binet)


def _log_density(a, log_norm, s):
    # log density of s = log(omega / (a b)), b ~ Inverse-Gamma(a, omega):
    # log_norm + a (s - e^s + 1), largest at s = 0
    return log_norm + a * (s - np.expm1(s))


def _hdi(a: np.ndarray, w: np.ndarray, level: float) -> tuple:
    """The HDI Newton of `inverse_gamma_hdi` on 1-D arrays of shapes and
    rates; the endpoints are NaN where it failed."""
    nodes, weights = _legendre_rule()
    log_norm = _log_norm(a)
    out_lo, out_hi = np.full(a.shape, np.nan), np.full(a.shape, np.nan)
    ids = np.arange(a.size)  # the elements still iterating
    lo = _quantile_start(a, w, 0.5 * (1.0 - level))
    hi = _quantile_start(a, w, 0.5 * (1.0 + level))
    last_step = np.full(a.shape, np.inf)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for _ in range(_HDI_STEPS):
            if not ids.size:
                break
            s_lo, s_hi = np.log(w / (a * lo)), np.log(w / (a * hi))
            # mass of [lo, hi]: two panels in s, split at the mode
            ends = np.stack([s_hi, np.minimum(np.maximum(s_hi, 0.0), s_lo), s_lo], axis=-1)
            half = 0.5 * (ends[:, 1:] - ends[:, :-1])
            s = (ends[:, :-1] + half)[..., None] + half[..., None] * nodes
            density = np.exp(_log_density(a[:, None, None], log_norm[:, None, None], s))
            mass = ((density * weights).sum(axis=-1) * half).sum(axis=-1) - level
            tilt = (a + 1.0) * np.log(lo / hi) + w / lo - w / hi
            f_lo = np.exp(_log_density(a, log_norm, s_lo)) / lo
            f_hi = np.exp(_log_density(a, log_norm, s_hi)) / hi
            # Jacobian [[-f(l), f(u)], [(a+1)/l - w/l^2, w/u^2 - (a+1)/u]]
            j21 = (a + 1.0 - w / lo) / lo
            j22 = (w / hi - a - 1.0) / hi
            det = -f_lo * j22 - f_hi * j21
            failed = ~(np.isfinite(det) & (det != 0.0))
            d_lo = (mass * j22 - f_hi * tilt) / det
            d_hi = (-f_lo * tilt - j21 * mass) / det
            for _ in range(_HDI_HALVINGS):
                new_lo, new_hi = lo - d_lo, hi - d_hi
                outside = ~((0.0 < new_lo) & (new_lo < new_hi))
                if not outside.any():
                    break
                d_lo = np.where(outside, 0.5 * d_lo, d_lo)
                d_hi = np.where(outside, 0.5 * d_hi, d_hi)
            failed |= outside
            step = np.maximum(np.abs(d_lo) / lo, np.abs(d_hi) / hi)
            done = ~failed & ((step <= 1e-13) | ((step <= 1e-9) & (step >= last_step)))
            out_lo[ids[done]], out_hi[ids[done]] = new_lo[done], new_hi[done]
            keep = ~(done | failed)
            ids, a, w, log_norm = ids[keep], a[keep], w[keep], log_norm[keep]
            lo, hi, last_step = new_lo[keep], new_hi[keep], step[keep]
    return out_lo, out_hi


def inverse_gamma_hdi(params: InverseGammaParams, level: float = 0.95) -> tuple:
    """Shortest interval (l, u) holding `level` mass, by 2x2 Newton on its
    first-order conditions; for arrays of shapes and scales, arrays of
    endpoints, all solved at once.

    For a unimodal density the shortest interval has the requested mass and
    equal density at both ends:

        F(u) - F(l) = level,   (a + 1) log(l / u) + w / l - w / u = 0.

    With s = log(w / (a b)), the mass of [l, u] is the integral of
    exp(a log a - a - log Gamma(a) + a (s - e^s + 1)) over s from
    log(w / (a u)) to log(w / (a l)), split at the mode s = 0 (clipped to the
    interval) into two 48-node Gauss-Legendre panels; the densities at l and
    u come from the same expression, so no CDF is evaluated. Newton starts
    from the Wilson-Hilferty equal-tailed interval that
    `inverse_gamma_quantile` starts from, and each element's step is halved
    until 0 < l < u. An element stops once neither endpoint moves by more
    than 1e-13 of itself, or by more than 1e-9 of itself without the step
    shrinking: near the root, Newton's error shrinks quadratically, so a step
    that no longer shrinks is set by the rounding of the mass. Each element
    gets the endpoints it gets alone, bit for bit. Raises NumericalError if
    any element fails to converge within 50 steps.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    a, w = np.broadcast_arrays(np.asarray(params.shape, float),
                               np.asarray(params.scale, float))
    lo, hi = _hdi(a.ravel(), w.ravel(), level)
    bad = np.flatnonzero(np.isnan(lo))
    if bad.size:
        raise _hdi_error(a.ravel()[bad[0]], w.ravel()[bad[0]], level)
    if a.ndim == 0:
        return float(lo[0]), float(hi[0])
    return lo.reshape(a.shape), hi.reshape(a.shape)


def _hdi_error(a, w, level) -> NumericalError:
    return NumericalError(f"HDI Newton iteration did not converge for shape={a}, "
                          f"scale={w}, level={level}")


def summarize_scale(state, level: float = 0.95):
    """The "scale" summary: mean omega/(alpha-1) from `state.scale_mean`
    (NumericalError when alpha <= 1), SD omega/((alpha-1) sqrt(alpha-2))
    (NaN when alpha <= 2), and the highest-density interval.

    Given a sequence of states, such as the result of `cavi.fit_batch`, it
    returns one entry per state, in order: the ParameterSummary, or the
    NumericalError that state's summary raised, so that one bad state does
    not fail the others. A NumericalError in place of a state (a failed fit)
    is passed through. The intervals are solved in one `inverse_gamma_hdi`
    Newton."""
    if isinstance(state, VariationalState):
        summary, = _summarize_scales([state], level)
        if isinstance(summary, NumericalError):
            raise summary
        return summary
    return _summarize_scales(list(state), level)


def _summarize_scales(states, level):
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    out, pending = [], []  # pending: (index, mean, shape, rate)
    for state in states:
        if isinstance(state, NumericalError):
            out.append(state)
            continue
        try:
            pending.append((len(out), state.scale_mean, state.scale_shape, state.scale_rate))
            out.append(None)
        except NumericalError as exc:
            out.append(exc)
    lows, highs = _hdi(np.array([p[2] for p in pending], float),
                       np.array([p[3] for p in pending], float), level)
    for (i, mean, a, w), low, high in zip(pending, lows.tolist(), highs.tolist()):
        if math.isnan(low):
            out[i] = _hdi_error(a, w, level)
            continue
        sd = w / ((a - 1.0) * math.sqrt(a - 2.0)) if a > 2.0 else float("nan")
        out[i] = ParameterSummary(name="scale", mean=mean, sd=sd, interval_low=low,
                                  interval_high=high, interval_kind="HDI")
    return out


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
