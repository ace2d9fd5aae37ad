"""Reference estimators: maximum likelihood and random-walk Metropolis.

Both serve as independent cross-checks of the variational fit. The MLE is a
damped Newton ascent in (beta, log b) with analytic gradient and Hessian; the
sampler is a joint Gaussian random-walk Metropolis in the same coordinates,
with per-component proposal scales adapted during burn-in and frozen after.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import NumericalError
from .model import ModelParams, PriorSpec, SurvivalDataset, _loglik
from .numerics import normal_quantile

__all__ = [
    "MleResult",
    "McmcChain",
    "loglik_grad_hess",
    "fit_mle",
    "sample_posterior",
]


@dataclass(frozen=True)
class MleResult:
    """MLE of (beta, b) with the inverse observed information on (beta, log b).

    `covariance` is (p+1) x (p+1); its last row/column belongs to log b. The
    scale standard error reported by `scale_se` is the delta-method transform
    b * se(log b).
    """

    coefficients: np.ndarray
    scale: float
    covariance: np.ndarray
    log_likelihood_at_max: float
    iterations: int
    gradient_norm: float

    @property
    def log_scale_se(self) -> float:
        return math.sqrt(self.covariance[-1, -1])

    @property
    def scale_se(self) -> float:
        return self.scale * self.log_scale_se

    def wald_intervals(self, level: float = 0.95) -> list[tuple[float, float]]:
        """Wald intervals: identity scale for coefficients, log scale
        (exponentiated) for b."""
        z = normal_quantile(0.5 * (1.0 + level))
        se = np.sqrt(np.diag(self.covariance))
        out = [(float(m - z * s), float(m + z * s))
               for m, s in zip(self.coefficients, se[:-1])]
        s_log = math.log(self.scale)
        out.append((math.exp(s_log - z * se[-1]), math.exp(s_log + z * se[-1])))
        return out


@dataclass(frozen=True)
class McmcChain:
    """Post-burn-in draws of (beta..., b), one row per retained iteration."""

    draws: np.ndarray
    acceptance_rate: float
    seed: int
    warning: str | None = None

    @property
    def coefficient_draws(self) -> np.ndarray:
        return self.draws[:, :-1]

    @property
    def scale_draws(self) -> np.ndarray:
        return self.draws[:, -1]


def loglik_grad_hess(data: SurvivalDataset, beta: np.ndarray,
                     log_b: float) -> tuple[float, np.ndarray, np.ndarray]:
    """Log-likelihood with analytic gradient and Hessian in (beta, log b).

    With z_i = (y_i - x_i' beta)/b, s = log b, g_i = delta_i - (1+delta_i)
    sigma(z_i) and w_i = (1+delta_i) sigma(z_i)(1 - sigma(z_i)):

        dl/dbeta = -X' g / b                 dl/ds = -r - sum z_i g_i
        d2l/dbeta2 = -X' diag(w) X / b^2     d2l/ds2 = sum z_i g_i - sum w_i z_i^2
        d2l/dbeta ds = X' (g - w z) / b
    """
    y, d, X = data.log_time, data.event, data.covariates
    p = data.p
    b = math.exp(log_b)
    z = (y - X @ beta) / b
    sig = np.empty_like(z)
    pos = z >= 0
    sig[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    sig[~pos] = ez / (1.0 + ez)
    g_i = d - (1.0 + d) * sig
    w_i = (1.0 + d) * sig * (1.0 - sig)
    r = data.r

    ll = float(-r * log_b + np.sum(d * z - (1.0 + d) * np.logaddexp(0.0, z)))
    grad = np.empty(p + 1)
    grad[:p] = -(X.T @ g_i) / b
    grad[p] = -r - float(z @ g_i)
    hess = np.empty((p + 1, p + 1))
    hess[:p, :p] = -(X.T * w_i) @ X / (b * b)
    cross = (X.T @ (g_i - w_i * z)) / b
    hess[:p, p] = cross
    hess[p, :p] = cross
    hess[p, p] = float(z @ g_i) - float(w_i @ (z * z))
    return ll, grad, hess


def _ascent_step(hess, grad):
    """Newton step when it points uphill, otherwise a normalized gradient step."""
    try:
        step = np.linalg.solve(hess, grad)
        # moving along -step must increase the objective: g'(-H^{-1}g) > 0
        if np.isfinite(step).all() and float(grad @ step) < 0.0:
            return step
    except np.linalg.LinAlgError:
        pass
    return -grad / max(float(np.linalg.norm(grad)), 1.0)


def fit_mle(data: SurvivalDataset, max_iterations: int = 200,
            gradient_tolerance: float = 1e-8) -> MleResult:
    """Maximize the log-likelihood by damped Newton ascent in (beta, log b).

    Starts from least squares of log-time on the covariates with the residual
    spread mapped to the logistic scale (sd * sqrt(3)/pi). Falls back to a
    scaled gradient step whenever the Hessian solve fails, and halves the
    step until the log-likelihood does not decrease.
    """
    if data.n <= data.p:
        raise NumericalError(
            f"need more observations than parameters (n={data.n}, p={data.p})")
    X, y = data.covariates, data.log_time
    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid_sd = float(np.std(y - X @ beta))
    theta = np.append(beta, math.log(max(resid_sd * math.sqrt(3.0) / math.pi, 1e-3)))

    ll, grad, hess = loglik_grad_hess(data, theta[:-1], theta[-1])
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        if np.linalg.norm(grad) <= gradient_tolerance:
            break
        step = _ascent_step(hess, grad)
        lam = 1.0
        improved = False
        while lam > 1e-12:
            cand = theta - lam * step
            try:
                ll_new, grad_new, hess_new = loglik_grad_hess(data, cand[:-1], cand[-1])
            except (FloatingPointError, OverflowError):
                ll_new = -np.inf
            if math.isfinite(ll_new) and ll_new >= ll - 1e-13:
                theta, ll, grad, hess = cand, ll_new, grad_new, hess_new
                improved = True
                break
            lam *= 0.5
        if not improved:
            raise NumericalError("MLE line search stalled")
    else:
        raise NumericalError(
            f"MLE did not converge in {max_iterations} Newton iterations "
            f"(gradient norm {np.linalg.norm(grad):.3g})")

    try:
        covariance = np.linalg.inv(-hess)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular observed information: {exc}") from exc
    covariance = 0.5 * (covariance + covariance.T)
    if np.any(np.diag(covariance) < 0):
        raise NumericalError("observed information is not positive definite")

    return MleResult(
        coefficients=theta[:-1].copy(),
        scale=math.exp(theta[-1]),
        covariance=covariance,
        log_likelihood_at_max=ll,
        iterations=iterations,
        gradient_norm=float(np.linalg.norm(grad)),
    )


def _log_posterior_theta(data, prior, theta) -> float:
    """Log posterior in (beta, log b), including the |db/ds| = b Jacobian."""
    p = len(theta) - 1
    beta, s = theta[:p], theta[p]
    ll = _loglik(data.log_time, data.event, data.covariates, beta, s) if data.n else 0.0
    diff = beta - prior.coef_mean
    lp_beta = -0.5 * prior.coef_precision * float(diff @ diff)
    lp_scale = -prior.scale_shape * s - prior.scale_rate * math.exp(-s)
    return ll + lp_beta + lp_scale


def sample_posterior(data: SurvivalDataset, prior: PriorSpec, n_iterations: int,
                     burn_in: int, seed: int) -> McmcChain:
    """Joint Gaussian random-walk Metropolis over (beta, log b).

    During burn-in a global step multiplier chases a 20-40% acceptance rate
    (checked every 100 iterations) while per-component scales track running
    posterior spreads; both freeze at the end of burn-in. Draws are returned
    with the scale mapped back to b. Deterministic for a fixed seed.
    """
    if n_iterations <= burn_in:
        raise ValueError("n_iterations must exceed burn_in")
    rng = np.random.default_rng(seed)
    p = data.p if data.n else prior.coef_mean.shape[0]
    dim = p + 1

    if data.n > p:
        beta0, *_ = np.linalg.lstsq(data.covariates, data.log_time, rcond=None)
        resid_sd = float(np.std(data.log_time - data.covariates @ beta0))
        theta = np.append(beta0, math.log(max(resid_sd * math.sqrt(3.0) / math.pi, 1e-3)))
    else:
        prior_scale_mean = prior.scale_rate / max(prior.scale_shape - 1.0, 0.5)
        theta = np.append(prior.coef_mean, math.log(prior_scale_mean))

    lp = _log_posterior_theta(data, prior, theta)
    scales = np.full(dim, 0.1)
    mult = 1.0
    window = 100
    accept_window = 0
    accepted_total = 0

    mean_acc = theta.copy()
    m2_acc = np.full(dim, 1e-4)
    count = 1

    draws = np.empty((n_iterations - burn_in, dim))
    for it in range(n_iterations):
        proposal = theta + mult * scales * rng.standard_normal(dim)
        lp_prop = _log_posterior_theta(data, prior, proposal)
        if math.log(rng.uniform()) < lp_prop - lp:
            theta, lp = proposal, lp_prop
            accept_window += 1
            accepted_total += 1
        if it < burn_in:
            count += 1
            delta = theta - mean_acc
            mean_acc += delta / count
            m2_acc += delta * (theta - mean_acc)
            if (it + 1) % window == 0:
                rate = accept_window / window
                if rate < 0.20:
                    mult *= 0.8
                elif rate > 0.40:
                    mult *= 1.25
                scales = np.maximum(np.sqrt(m2_acc / (count - 1)), 1e-3)
                accept_window = 0
        else:
            draws[it - burn_in] = theta

    draws[:, p] = np.exp(draws[:, p])
    rate = accepted_total / n_iterations
    warning = None
    if not 0.01 < rate < 0.99:
        warning = f"pathological acceptance rate {rate:.3f} after adaptation"
    return McmcChain(draws=draws, acceptance_rate=rate, seed=seed, warning=warning)


def vb_mean_params(state) -> ModelParams:
    """Posterior-mean parameters of a variational state, for likelihood checks."""
    return ModelParams(coefficients=state.coef_mean, scale=state.scale_mean)
