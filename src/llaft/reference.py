"""Reference estimators: maximum likelihood and random-walk Metropolis.

Both serve as independent cross-checks of the variational fit. The MLE is a
damped Newton ascent in (beta, log b) with analytic gradient and Hessian; the
sampler is a joint Gaussian random-walk Metropolis in the same coordinates,
with per-component proposal scales adapted during burn-in and frozen after.
A chain builds its log posterior once: the event count, 1 + event and the
prior constants do not depend on the parameters, so a step computes only z,
one softplus and two dot products over the data.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import NumericalError
from .model import DatasetStack, PriorSpec, SurvivalDataset, _stacked, _z_loglik
from .numerics import normal_quantile
from .piecewise import _solve

__all__ = [
    "MleResult",
    "McmcChain",
    "loglik_grad_hess",
    "fit_mle",
    "fit_mle_batch",
    "sample_posterior",
]

# The MLE's Newton loop: its iteration cap and the gradient norm that ends it.
_NEWTON_ITERATIONS = 200
_GRADIENT_TOLERANCE = 1e-8


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


def loglik_grad_hess(data, beta: np.ndarray, log_b):
    """Log-likelihood with analytic gradient and Hessian in (beta, log b).

    With z_i = (y_i - x_i' beta)/b, s = log b, g_i = delta_i - (1+delta_i)
    sigma(z_i) and w_i = (1+delta_i) sigma(z_i)(1 - sigma(z_i)):

        dl/dbeta = -X' g / b                 dl/ds = -r - sum z_i g_i
        d2l/dbeta2 = -X' diag(w) X / b^2     d2l/ds2 = sum z_i g_i - sum w_i z_i^2
        d2l/dbeta ds = X' (g - w z) / b

    z and the log-likelihood come from the model's own formula. For a
    DatasetStack, beta is (R, p), log_b is (R,), and the results carry the
    replicate axis; a single dataset is computed as a stack of one.
    """
    stack, single = _stacked(data)
    if single:
        beta, log_b = beta[None], np.array([log_b], float)
    y, d, X = stack.log_time, stack.event, stack.covariates
    R, p = len(stack), stack.p
    b = np.exp(log_b)[:, None]
    d1 = 1.0 + d
    z, ll = _z_loglik(y, d, X, beta, log_b, stack.r, d1)
    sig = np.empty_like(z)
    pos = z >= 0
    sig[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    sig[~pos] = ez / (1.0 + ez)
    g_i = d - d1 * sig
    w_i = d1 * sig * (1.0 - sig)
    Xt = X.transpose(0, 2, 1)
    z_g = _dot(z, g_i)

    grad = np.empty((R, p + 1))
    grad[:, :p] = -_dot(g_i, X) / b
    grad[:, p] = -stack.r - z_g
    hess = np.empty((R, p + 1, p + 1))
    hess[:, :p, :p] = np.matmul(-(Xt * w_i[:, None, :]), X) / (b * b)[:, :, None]
    cross = _dot(g_i - w_i * z, X) / b
    hess[:, :p, p] = cross
    hess[:, p, :p] = cross
    hess[:, p, p] = z_g - _dot(w_i, z * z)
    if single:
        return float(ll[0]), grad[0], hess[0]
    return ll, grad, hess


def _dot(u, v):
    # per replicate u' v for (R, n) u and (R, n) or (R, n, k) v
    if v.ndim == 2:
        return np.matmul(u[:, None, :], v[:, :, None])[:, 0, 0]
    return np.matmul(u[:, None, :], v)[:, 0]


def _ascent_steps(hess, grad):
    """Per replicate, the Newton step when it points uphill, otherwise a
    normalized gradient step."""
    step = _solve(hess, grad[..., None])[..., 0]
    # moving along -step must increase the objective: g'(-H^{-1}g) > 0
    uphill = np.isfinite(step).all(axis=1) & (_dot(grad, step) < 0.0)
    fallback = -grad / np.maximum(np.linalg.norm(grad, axis=1), 1.0)[:, None]
    return np.where(uphill[:, None], step, fallback)


def fit_mle(data: SurvivalDataset) -> MleResult:
    """Maximize the log-likelihood by damped Newton ascent in (beta, log b);
    a batch of one, see `fit_mle_batch`."""
    result, = fit_mle_batch([data])
    if isinstance(result, NumericalError):
        raise result
    return result


def fit_mle_batch(datasets) -> list:
    """Fit the MLE of each dataset of one (n, p), all at once.

    Each replicate starts from least squares of log-time on the covariates,
    with the residual spread mapped to the logistic scale (sd * sqrt(3)/pi).
    Each Newton iteration falls back to a scaled gradient step where the
    Hessian solve fails, and halves each replicate's step until its
    log-likelihood does not decrease. A replicate leaves the batch when its
    gradient norm reaches `_GRADIENT_TOLERANCE`, or when it fails; one still
    in it after `_NEWTON_ITERATIONS` iterations fails. Returns one entry
    per dataset, in order: its MleResult, or the NumericalError it raised.
    Raises ValueError if the datasets disagree on (n, p).
    """
    stack = DatasetStack.of(datasets)
    results: list = [None] * len(stack)
    if stack.n <= stack.p:
        return [NumericalError(
            f"need more observations than parameters (n={stack.n}, p={stack.p})")
            for _ in results]
    theta = np.stack([_start(y, X) for y, X in zip(stack.log_time, stack.covariates)])
    ids = np.arange(len(stack))  # the replicates still in the batch
    ll, grad, hess = loglik_grad_hess(stack, theta[:, :-1], theta[:, -1])

    def keep(mask):
        nonlocal ids, stack, theta, ll, grad, hess
        ids, stack, theta = ids[mask], stack.take(mask), theta[mask]
        ll, grad, hess = ll[mask], grad[mask], hess[mask]

    for iterations in range(1, _NEWTON_ITERATIONS + 1):
        norm = np.linalg.norm(grad, axis=1)
        done = norm <= _GRADIENT_TOLERANCE
        if done.any():
            for j in np.flatnonzero(done).tolist():
                results[ids[j]] = _mle_result(theta[j], ll[j], hess[j], iterations, norm[j])
            keep(~done)
            if not len(ids):
                break
        step = _ascent_steps(hess, grad)
        theta, ll, grad, hess, stalled = _line_search(stack, theta, ll, grad, hess, step)
        if stalled.any():
            for j in np.flatnonzero(stalled).tolist():
                results[ids[j]] = NumericalError(
                    f"MLE line search stalled at Newton iteration {iterations}")
            keep(~stalled)
            if not len(ids):
                break
    for j, i in enumerate(ids.tolist()):
        results[i] = NumericalError(
            f"MLE did not converge in {_NEWTON_ITERATIONS} Newton iterations "
            f"(gradient norm {np.linalg.norm(grad[j]):.3g})")
    return results


def _line_search(stack, theta, ll, grad, hess, step):
    """Per replicate, the first of theta - step, theta - step/2, ... (while
    the factor exceeds 1e-12) whose log-likelihood is finite and not below
    ll - 1e-13. Returns the new (theta, ll, grad, hess) and a mask of the
    replicates where no factor gave one; those keep their old values."""
    lam = 1.0
    pending = np.arange(len(theta))  # replicates without an accepted step
    while lam > 1e-12:
        sub = stack if len(pending) == len(theta) else stack.take(pending)
        cand = theta[pending] - lam * step[pending]
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            ll_new, grad_new, hess_new = loglik_grad_hess(sub, cand[:, :-1], cand[:, -1])
        ok = np.isfinite(ll_new) & (ll_new >= ll[pending] - 1e-13)
        if ok.all() and len(pending) == len(theta):
            return cand, ll_new, grad_new, hess_new, np.zeros(len(theta), bool)
        if lam == 1.0:
            theta, ll, grad, hess = theta.copy(), ll.copy(), grad.copy(), hess.copy()
        up = pending[ok]
        theta[up], ll[up], grad[up], hess[up] = cand[ok], ll_new[ok], grad_new[ok], hess_new[ok]
        pending = pending[~ok]
        if not len(pending):
            break
        lam *= 0.5
    stalled = np.zeros(len(theta), bool)
    stalled[pending] = True
    return theta, ll, grad, hess, stalled


def _start(y, X) -> np.ndarray:
    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid_sd = float(np.std(y - X @ beta))
    return np.append(beta, math.log(max(resid_sd * math.sqrt(3.0) / math.pi, 1e-3)))


def _mle_result(theta, ll, hess, iterations, gradient_norm):
    """The MleResult at a converged theta, or the NumericalError of a
    singular or indefinite observed information."""
    try:
        covariance = np.linalg.inv(-hess)
    except np.linalg.LinAlgError as exc:
        err = NumericalError(f"singular observed information: {exc}")
        err.__cause__ = exc
        return err
    covariance = 0.5 * (covariance + covariance.T)
    if np.any(np.diag(covariance) < 0):
        return NumericalError("observed information is not positive definite")
    return MleResult(
        coefficients=theta[:-1].copy(),
        scale=math.exp(theta[-1]),
        covariance=covariance,
        log_likelihood_at_max=float(ll),
        iterations=iterations,
        gradient_norm=float(gradient_norm),
    )


def _chain_log_posterior(data, prior):
    """The log posterior in (beta, log b) of one chain, as a function of theta.

    It includes the |db/ds| = b Jacobian and drops the normalizing constants.
    Everything that does not depend on theta (r, 1 + event and the prior
    constants) is built here, once per chain."""
    n, y, event, X = data.n, data.log_time, data.event, data.covariates
    r, event1 = data.r, 1.0 + event
    mu0 = prior.coef_mean
    neg_half_precision = -0.5 * prior.coef_precision
    neg_shape, rate = -prior.scale_shape, prior.scale_rate
    exp = math.exp

    def log_posterior(theta) -> float:
        beta, s = theta[:-1], theta[-1]
        ll = _z_loglik(y, event, X, beta, s, r, event1)[1] if n else 0.0
        diff = beta - mu0
        return ll + neg_half_precision * float(diff @ diff) + (neg_shape * s - rate * exp(-s))
    return log_posterior


def sample_posterior(data: SurvivalDataset, prior: PriorSpec, n_iterations: int,
                     burn_in: int, seed: int) -> McmcChain:
    """Joint Gaussian random-walk Metropolis over (beta, log b).

    During burn-in a global step multiplier chases a 20-40% acceptance rate
    (checked every 100 iterations) while per-component scales track running
    posterior spreads; both freeze at the end of burn-in. Draws are returned
    with the scale mapped back to b. Deterministic for a fixed seed.
    """
    if not 0 <= burn_in < n_iterations:
        raise ValueError("burn_in must be nonnegative and below n_iterations")
    rng = np.random.default_rng(seed)
    p = data.p if data.n else prior.coef_mean.shape[0]
    dim = p + 1

    if data.n > p:
        theta = _start(data.log_time, data.covariates)
    else:
        prior_scale_mean = prior.scale_rate / max(prior.scale_shape - 1.0, 0.5)
        theta = np.append(prior.coef_mean, math.log(prior_scale_mean))

    log_posterior = _chain_log_posterior(data, prior)
    normal, uniform = rng.standard_normal, rng.uniform
    lp = log_posterior(theta)
    scales = np.full(dim, 0.1)
    mult = 1.0
    step = mult * scales  # recomputed only when adaptation changes either factor
    window = 100
    accept_window = 0
    accepted_total = 0

    mean_acc = theta.copy()
    m2_acc = np.full(dim, 1e-4)
    count = 1

    draws = np.empty((n_iterations - burn_in, dim))
    for it in range(n_iterations):
        proposal = theta + step * normal(dim)
        lp_prop = log_posterior(proposal)
        if math.log(uniform()) < lp_prop - lp:
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
                step = mult * scales
                accept_window = 0
        else:
            draws[it - burn_in] = theta

    draws[:, p] = np.exp(draws[:, p])
    rate = accepted_total / n_iterations
    warning = None
    if not 0.01 < rate < 0.99:
        warning = f"pathological acceptance rate {rate:.3f} after adaptation"
    return McmcChain(draws=draws, acceptance_rate=rate, seed=seed, warning=warning)

