"""Self-contained special functions, Inverse-Gamma primitives and the
counter-based uniform streams.

Everything here is built from elementary functions and the standard
library's `math.lgamma`, so the numerical behaviour of the package does not
depend on any third-party special-function library. Accuracy targets:
digamma to 1e-8 absolute on (0, 1e6]; the regularized incomplete gamma to
near machine precision in the same range, except that near z = a its
prefactor exp(a log z - z - log Gamma(a)) loses digits as a grows (measured
error ~1e-10 relative at a = 1e5 and ~4e-10 at 1e6). Inverse-Gamma
quantiles come from Newton on the CDF, safeguarded by bisection of a sign
bracket, and stop at machine precision, so |CDF(x) - q| <= 1e-8 holds with
a wide margin.

Every random draw in the package comes from `uniform_stream`: value i of a
stream is a pure function of (seed, replicate, role, i) through a
SplitMix64-style bit mixer, so a draw never depends on how many values were
asked for before it or at once, nor on the platform.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import NumericalError

__all__ = [
    "InverseGammaParams",
    "digamma",
    "regularized_gamma_p",
    "inverse_gamma_moments",
    "inverse_gamma_log_pdf",
    "inverse_gamma_cdf",
    "inverse_gamma_quantile",
    "normal_quantile",
    "uniform_stream",
]

# B_{2n}/2n for the asymptotic psi expansion, terms x^-2 .. x^-12.
_DIGAMMA_TAIL = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
)


@dataclass(frozen=True)
class InverseGammaParams:
    """Shape/scale pair (alpha, omega) of an Inverse-Gamma distribution.

    `posterior.inverse_gamma_hdi` also takes arrays of shapes and scales,
    one distribution per element; every function here takes floats.
    """

    shape: float
    scale: float

    def __post_init__(self):
        values = np.ravel(self.shape).tolist() + np.ravel(self.scale).tolist()
        if not all(v > 0 for v in values):
            raise ValueError(
                f"Inverse-Gamma parameters must be positive, got "
                f"shape={self.shape}, scale={self.scale}"
            )


def digamma(x: float) -> float:
    """Digamma function, d/dx log Gamma(x), for x > 0.

    Uses the recurrence psi(x) = psi(x+1) - 1/x to shift the argument above 6,
    then the asymptotic series with tail terms through x^-12.
    """
    if not x > 0:
        raise ValueError(f"digamma requires x > 0, got {x}")
    acc = 0.0
    while x < 6.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    tail = 0.0
    t = inv2
    for c in _DIGAMMA_TAIL:
        tail += c * t
        t *= inv2
    return acc + math.log(x) - 0.5 / x - tail


def _gamma_p_series(a: float, z: float) -> float:
    # Lower regularized gamma by power series; converges fast for z < a + 1.
    # Near z = a the terms decay like exp(-n^2 / 2a), so it takes ~8 sqrt(a)
    # of them to reach 1e-16: the cap grows with the shape.
    term = 1.0 / a
    total = term
    denom = a
    for _ in range(1000 + int(10.0 * math.sqrt(a))):
        denom += 1.0
        term *= z / denom
        total += term
        if abs(term) < abs(total) * 1e-16:
            break
    else:
        raise NumericalError(f"incomplete-gamma series stalled at a={a}, z={z}")
    return total * math.exp(-z + a * math.log(z) - math.lgamma(a))


def _gamma_q_contfrac(a: float, z: float) -> float:
    # Upper regularized gamma by modified Lentz continued fraction; z >= a + 1.
    tiny = 1e-300
    b = z + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b if b != 0 else 1.0 / tiny
    h = d
    for i in range(1, 1000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    else:
        raise NumericalError(f"incomplete-gamma fraction stalled at a={a}, z={z}")
    return h * math.exp(-z + a * math.log(z) - math.lgamma(a))


def regularized_gamma_p(a: float, z: float) -> float:
    """Regularized lower incomplete gamma P(a, z) for a > 0, z >= 0."""
    if not a > 0:
        raise ValueError(f"regularized_gamma_p requires a > 0, got {a}")
    if z < 0:
        raise ValueError(f"regularized_gamma_p requires z >= 0, got {z}")
    if z == 0.0:
        return 0.0
    if z < a + 1.0:
        return _gamma_p_series(a, z)
    return 1.0 - _gamma_q_contfrac(a, z)


def inverse_gamma_moments(params: InverseGammaParams) -> tuple:
    """(E[1/b], E[1/b^2], E[log b]) for b ~ Inverse-Gamma(shape, scale).

    Closed forms: alpha/omega, (alpha + alpha^2)/omega^2, log(omega) - psi(alpha).
    """
    a, w = params.shape, params.scale
    return _moments(a, w, digamma(a), math.log)


def _moments(a, w, psi, log=np.log):
    # the closed forms above, given psi = psi(alpha)
    return a / w, (a + a * a) / (w * w), log(w) - psi


def _digammas(a: np.ndarray) -> np.ndarray:
    """`digamma` element by element."""
    return np.array([digamma(x) for x in a.ravel().tolist()]).reshape(a.shape)


def _per_item(routine, *stacks) -> tuple:
    """`routine`, a NumPy linalg function, on stacks of items, and a mask of the
    items it raised LinAlgError on. Only if the stack raises does each item run
    alone; one that raises comes out NaN, shaped like the last stack's item."""
    try:
        return routine(*stacks), np.zeros(len(stacks[-1]), bool)
    except np.linalg.LinAlgError:
        out, failed = np.full(stacks[-1].shape, np.nan), np.zeros(len(stacks[-1]), bool)
        for i, items in enumerate(zip(*stacks)):
            try:
                out[i] = routine(*items)
            except np.linalg.LinAlgError:
                failed[i] = True
        return out, failed


def _dot(u, v):
    # per replicate u' v for (R, n) u and (R, n), (R, n, k) or shared (n,) v,
    # one BLAS call per replicate, so a row's value does not depend on R
    if v.ndim == 2:
        return np.matmul(u[:, None, :], v[:, :, None])[:, 0, 0]
    return np.matmul(u[:, None, :], v)[:, 0]


def inverse_gamma_log_pdf(params: InverseGammaParams, x: float) -> float:
    """Log density of Inverse-Gamma(shape, scale) at x > 0, constants included."""
    if not x > 0:
        raise ValueError(f"Inverse-Gamma density requires x > 0, got {x}")
    a, w = params.shape, params.scale
    return a * math.log(w) - math.lgamma(a) - (a + 1.0) * math.log(x) - w / x


def inverse_gamma_cdf(params: InverseGammaParams, x: float) -> float:
    """P(b <= x) = Q(shape, scale / x), the upper regularized gamma."""
    if not x > 0:
        raise ValueError(f"Inverse-Gamma CDF requires x > 0, got {x}")
    a, w = params.shape, params.scale
    z = w / x
    if z == 0.0:
        return 1.0
    if not math.isfinite(z):
        return 0.0
    if z < a + 1.0:
        return 1.0 - _gamma_p_series(a, z)
    return _gamma_q_contfrac(a, z)


def inverse_gamma_quantile(params: InverseGammaParams, q: float) -> float:
    """Inverse CDF by safeguarded Newton on the CDF.

    The start is the Wilson-Hilferty cube-root normal approximation of the
    Gamma(shape, 1) quantile g at level 1 - q, mapped back by x = scale / g;
    g is floored by a lower bound that is sharp in the far lower tail, where
    the approximation fails. Each step uses the closed-form density as the
    derivative and keeps a bracket [lo, hi] from the CDF signs. A Newton step
    that leaves the bracket, or is not at most half the previous step,
    bisects the bracket instead (doubles lo while hi is unbounded), so the
    bracket keeps shrinking. Iteration stops at a relative step of 1e-13 or
    |CDF(x) - q| <= 1e-15, which is machine precision for the CDF, so the
    1e-8 contract in probability holds with room to spare. It raises
    NumericalError if neither happens within 100 steps.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile level must be in (0, 1), got {q}")
    x = float(_quantile_start(params.shape, params.scale, q))
    lo, hi = 0.0, math.inf
    step = math.inf
    for _ in range(100):
        err = inverse_gamma_cdf(params, x) - q
        if abs(err) <= 1e-15:
            return x
        if err < 0.0:
            lo = x
        else:
            hi = x
        density = math.exp(inverse_gamma_log_pdf(params, x))
        new = x - err / density if density > 0.0 else math.nan
        if not (lo < new < hi and abs(new - x) <= 0.5 * step):
            new = 0.5 * (lo + hi) if math.isfinite(hi) else 2.0 * lo
        step = abs(new - x)
        if step <= 1e-13 * x:
            return new
        x = new
    raise NumericalError(
        f"Inverse-Gamma quantile did not converge for shape={params.shape}, "
        f"scale={params.scale}, q={q}")


def _quantile_start(shape, scale, q: float):
    """Starting point of `inverse_gamma_quantile` at level q, element by
    element for arrays of shapes and scales.

    Wilson-Hilferty: G ~ Gamma(a, 1) has (G/a)^(1/3) ~ N(1 - 1/(9a), 1/(9a)).
    P(G <= g) <= g^a / Gamma(a + 1) gives a lower bound on g that is sharp in
    the lower tail, where the cube-root base can turn negative. The normal
    quantile at 1 - q is taken as -z(q), which stays finite for q < 1e-16.
    """
    a, w = np.asarray(shape, float), np.asarray(scale, float)
    c = 1.0 / (9.0 * a)
    base = 1.0 - c - normal_quantile(q) * np.sqrt(c)
    g = np.where(base > 0.0, a * base ** 3, 0.0)
    g = np.maximum(g, np.exp((math.log1p(-q) + _lgamma(a + 1.0)) / a))
    x = np.divide(w, g, out=np.full_like(g, np.inf), where=g > 0.0)
    return np.where((0.0 < x) & (x < np.inf), x, w / np.where(a > 1.0, a - 1.0, 1.0))


def _lgamma(x) -> np.ndarray:
    """`math.lgamma` element by element."""
    x = np.asarray(x, float)
    return np.array([math.lgamma(v) for v in x.ravel().tolist()]).reshape(x.shape)


# Wichura's PPND16 coefficients, highest power first: numerator and
# denominator of the central fit (in s = 0.180625 - r^2), of the near tail
# (in t - 1.6) and of the far tail (in t - 5), t = sqrt(-log(tail mass)).
_PPND_CENTRAL = (
    (2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4,
     4.5921953931549871457e4, 1.3731693765509461125e4, 1.9715909503065514427e3,
     1.3314166789178437745e2, 3.3871328727963666080e0),
    (5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4,
     2.1213794301586595867e4, 5.3941960214247511077e3, 6.8718700749205790830e2,
     4.2313330701600911252e1, 1.0),
)
_PPND_NEAR = (
    (7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
     1.27045825245236838258e0, 3.64784832476320460504e0, 5.76949722146069140550e0,
     4.63033784615654529590e0, 1.42343711074968357734e0),
    (1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
     1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e0,
     2.05319162663775882187e0, 1.0),
)
_PPND_FAR = (
    (2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
     2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e0,
     5.46378491116411436990e0, 6.65790464350110377720e0),
    (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
     7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
     5.99832206555887937690e-1, 1.0),
)


def _horner(coeffs, x):
    # the same operations on a float or an array
    acc = coeffs[0]
    for c in coeffs[1:]:
        acc = acc * x + c
    return acc


def _tail_ratio(coeffs, t):
    return _horner(coeffs[0], t) / _horner(coeffs[1], t)


def normal_quantile(q):
    """Standard normal inverse CDF (Wichura's PPND16 rational minimax fit).

    Accepts a float or an ndarray of probabilities in (0, 1); accurate to
    about 1e-15 over the full range. A float takes a branch without masks
    that gives the array branch's result bit for bit, in 1.3 us against 47
    us for a 0-d array (a study op of 10 replicates makes 13 such calls).
    """
    if isinstance(q, float):
        return _normal_quantile_float(q)
    q_arr = np.asarray(q, dtype=float)
    if np.any(q_arr <= 0.0) or np.any(q_arr >= 1.0):
        raise ValueError("normal_quantile requires probabilities in (0, 1)")
    r = q_arr - 0.5
    out = np.empty_like(q_arr)

    central = np.abs(r) <= 0.425
    if np.any(central):
        rc = r[central]
        s = 0.180625 - rc * rc
        out[central] = rc * _horner(_PPND_CENTRAL[0], s) / _horner(_PPND_CENTRAL[1], s)

    tails = ~central
    if np.any(tails):
        qt = q_arr[tails]
        s = np.where(r[tails] < 0, qt, 1.0 - qt)
        t = np.sqrt(-np.log(s))
        near = t <= 5.0
        val = np.empty_like(t)
        val[near] = _tail_ratio(_PPND_NEAR, t[near] - 1.6)
        far = ~near
        if np.any(far):
            val[far] = _tail_ratio(_PPND_FAR, t[far] - 5.0)
        out[tails] = np.where(r[tails] < 0, -val, val)

    return float(out) if out.ndim == 0 else out


def _normal_quantile_float(q: float) -> float:
    # NumPy's log and sqrt, not math's: math.log differs from np.log in the
    # last bit on a few tail inputs, and the array branch uses NumPy's.
    if q <= 0.0 or q >= 1.0:
        raise ValueError("normal_quantile requires probabilities in (0, 1)")
    r = q - 0.5
    if abs(r) <= 0.425:
        s = 0.180625 - r * r
        return float(r * _horner(_PPND_CENTRAL[0], s) / _horner(_PPND_CENTRAL[1], s))
    t = float(np.sqrt(-np.log(q if r < 0 else 1.0 - q)))
    val = _tail_ratio(_PPND_NEAR, t - 1.6) if t <= 5.0 else _tail_ratio(_PPND_FAR, t - 5.0)
    return float(-val if r < 0 else val)


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_U30, _U27, _U31, _U11 = (np.uint64(30), np.uint64(27), np.uint64(31), np.uint64(11))

# The stream roles: one per kind of draw, so that no two kinds share values.
ROLE_X1, ROLE_X2, ROLE_NOISE, ROLE_CENSOR, ROLE_MCMC = range(5)


def _mix64(z: np.ndarray) -> np.ndarray:
    # uint64 array arithmetic wraps silently, which is exactly what we want
    z = (z ^ (z >> _U30)) * np.uint64(_MIX1)
    z = (z ^ (z >> _U27)) * np.uint64(_MIX2)
    return z ^ (z >> _U31)


def _stream_keys(seed: int, replicates, role: int) -> np.ndarray:
    """The uint64 keys of the streams of (seed, r, role), one for each r in
    `replicates`, mixed in one pass; every int counts modulo 2^64."""
    k = _mix64(np.array([((seed & _MASK64) * _GOLDEN + _GOLDEN) & _MASK64], np.uint64))
    k = _mix64(k + np.array([r & _MASK64 for r in replicates], np.uint64) * np.uint64(_GOLDEN))
    return _mix64(k + np.uint64((role * _GOLDEN) & _MASK64))


def _uniform_streams(seed: int, replicates, role: int, n: int, start: int = 0) -> np.ndarray:
    """Values start, ..., start + n - 1 of the streams of (seed, r, role) for
    each r in `replicates`, one row each: all rows are mixed in one pass, and
    row j equals `uniform_stream(seed, replicates[j], role, n, start)`."""
    keys = _stream_keys(seed, replicates, role)
    idx = np.arange(start + 1, start + n + 1, dtype=np.uint64)
    bits = _mix64(keys[:, None] + idx * np.uint64(_GOLDEN))
    return ((bits >> _U11).astype(np.float64) + 0.5) * (2.0 ** -53)


def uniform_stream(seed: int, replicate: int, role: int, n: int,
                   start: int = 0) -> np.ndarray:
    """Values start, ..., start + n - 1 of the stream of (seed, replicate,
    role): uniforms in (0, 1) from the top 53 bits of each mixed counter. A
    slice of a longer stream equals the shorter stream that starts there."""
    return _uniform_streams(seed, [replicate], role, n, start)[0]
