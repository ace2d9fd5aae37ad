"""Reference estimators: maximum likelihood and random-walk Metropolis.

Both serve as independent cross-checks of the variational fit. The MLE is a
damped Newton ascent in (beta, log b) with analytic gradient and Hessian; the
sampler is a joint Gaussian random-walk Metropolis in the same coordinates,
with per-component proposal scales adapted during burn-in and frozen after.
A chain builds its log posterior once, from the parts that do not depend on
the parameters; scoring a stack of K proposals then takes one matrix product
for z, a softplus and two dot products per row. The chain scores its
next _PREFETCH proposals in one such call and keeps the draws of a chain that
scores them one at a time.

The sampler's randomness comes from the counter-based streams of `numerics`,
the ones that generate the study data: a chain's proposal normals and accept
uniforms are values of the stream of (seed, ROLE_MCMC), read once per
chain, the normals through `normal_quantile`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import NumericalError
from .model import DatasetStack, PriorSpec, SurvivalDataset, _softplus, _z_loglik
from .numerics import ROLE_MCMC, _dot, _per_item, normal_quantile, uniform_stream

__all__ = [
    "MleResult",
    "McmcChain",
    "loglik_grad_hess",
    "fit_mle",
    "fit_mle_batch",
    "check_chain_length",
    "sample_posterior",
]

# The MLE's Newton loop: its iteration cap and the gradient norm that ends it.
_NEWTON_ITERATIONS = 200
_GRADIENT_TOLERANCE = 1e-8

# The Metropolis run of `fit --methods mcmc`, `compare` and each study
# replicate where the caller sets none: its length, burn-in and seed.
MCMC_ITERATIONS = 5000
MCMC_BURN_IN = 1000
MCMC_SEED = 0

_WINDOW = 100  # burn-in adapts the proposal at the end of each window of this many steps
# Proposals scored in one call of the chain's log posterior. A call costs
# about as much as five rows, and at the rhDNase chain's acceptance rate of
# 0.33 the chain moves 2.4 steps per call of 4 rows (2.8 of 6), which makes 4
# the cheapest per step; the draws do not depend on it.
_PREFETCH = 4


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
    """Post-burn-in draws of (beta..., b), one row per retained iteration,
    and the share of post-burn-in proposals that were accepted."""

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


def loglik_grad_hess(stack: DatasetStack, beta: np.ndarray, log_b: np.ndarray):
    """Log-likelihood with analytic gradient and Hessian in (beta, log b),
    for each replicate of a stack: beta is (R, p), log_b is (R,), and the
    results are (R,), (R, p+1) and (R, p+1, p+1).

    With z_i = (y_i - x_i' beta)/b, s = log b, g_i = delta_i - (1+delta_i)
    sigma(z_i) and w_i = (1+delta_i) sigma(z_i)(1 - sigma(z_i)):

        dl/dbeta = -X' g / b                 dl/ds = -r - sum z_i g_i
        d2l/dbeta2 = -X' diag(w) X / b^2     d2l/ds2 = sum z_i g_i - sum w_i z_i^2
        d2l/dbeta ds = X' (g - w z) / b

    z and the log-likelihood come from the model's own formula.
    """
    d, d1, X = stack.event, stack.event1, stack.covariates
    R, p = len(stack), stack.p
    b = np.exp(log_b)[:, None]
    z, ll = _z_loglik(stack, beta, log_b)
    # sigma(z) as 1/(1 + e^-z) for z >= 0 and e^z/(1 + e^z) below, without
    # masks; min(z, -z) is -|z| but keeps the sign of a NaN, as e^z does
    e = np.exp(np.minimum(z, -z))
    d_e = 1.0 + e
    sig = np.where(z >= 0, 1.0 / d_e, e / d_e)
    g_i = d - d1 * sig
    w_i = d1 * sig * (1.0 - sig)
    Xt = X.transpose(0, 2, 1)
    z_g = _dot(z, g_i)

    grad = np.empty((R, p + 1))
    grad[:, :p] = -_dot(g_i, X) / b
    grad[:, p] = -stack.r - z_g
    hess = np.empty((R, p + 1, p + 1))
    hess[:, :p, :p] = -np.matmul(Xt * w_i[:, None, :], X) / (b * b)[:, :, None]
    cross = _dot(g_i - w_i * z, X) / b
    hess[:, :p, p] = cross
    hess[:, p, :p] = cross
    hess[:, p, p] = z_g - _dot(w_i, z * z)
    return ll, grad, hess


def _ascent_steps(hess, grad):
    """Per replicate, the Newton step when it points uphill, otherwise a
    normalized gradient step."""
    step, _ = _per_item(np.linalg.solve, hess, grad[..., None])
    step = step[..., 0]
    # moving along -step must increase the objective: g'(-H^{-1}g) > 0
    uphill = np.isfinite(step).all(axis=1) & (_dot(grad, step) < 0.0)
    fallback = -grad / np.maximum(np.linalg.norm(grad, axis=1), 1.0)[:, None]
    return np.where(uphill[:, None], step, fallback)


def fit_mle(data: SurvivalDataset) -> MleResult:
    """Maximize the log-likelihood by damped Newton ascent in (beta, log b);
    a batch of one, see `fit_mle_batch`."""
    result, = fit_mle_batch(DatasetStack.of([data]))
    if isinstance(result, NumericalError):
        raise result
    return result


def fit_mle_batch(stack: DatasetStack) -> list:
    """Fit the MLE of each replicate of a stack, all at once.

    Each replicate starts from its row of `stack.start` (least squares of
    log-time on the covariates, with the residual spread mapped to the
    logistic scale), which the stack computes once for every fit that reads it.
    Each Newton iteration falls back to a scaled gradient step where the
    Hessian solve fails, and halves each replicate's step until its
    log-likelihood does not decrease. A replicate leaves the batch when its
    gradient norm reaches `_GRADIENT_TOLERANCE`, or when it fails; one whose
    gradient norm is still above it after `_NEWTON_ITERATIONS` steps fails.
    Returns one entry per replicate, in order: its MleResult, or the
    NumericalError it raised.
    """
    results: list = [None] * len(stack)
    if stack.n <= stack.p:
        return [NumericalError(
            f"need more observations than parameters (n={stack.n}, p={stack.p})")
            for _ in results]
    theta = stack.start
    ids = np.arange(len(stack))  # the replicates still in the batch
    ll, grad, hess = loglik_grad_hess(stack, theta[:, :-1], theta[:, -1])

    def keep(mask):
        nonlocal ids, stack, theta, ll, grad, hess
        ids, stack, theta = ids[mask], stack.take(mask), theta[mask]
        ll, grad, hess = ll[mask], grad[mask], hess[mask]

    # check m follows m - 1 steps, and check _NEWTON_ITERATIONS + 1 takes no step
    for iterations in range(1, _NEWTON_ITERATIONS + 2):
        norm = np.linalg.norm(grad, axis=1)
        done = norm <= _GRADIENT_TOLERANCE
        if done.any():
            hits = np.flatnonzero(done)
            for i, result in zip(ids[hits].tolist(), _mle_results(
                    theta[hits], ll[hits], hess[hits], iterations, norm[hits])):
                results[i] = result
            keep(~done)
        if not len(ids) or iterations > _NEWTON_ITERATIONS:
            break
        step = _ascent_steps(hess, grad)
        theta, ll, grad, hess, stalled = _line_search(stack, theta, ll, grad, hess, step)
        if stalled.any():
            for j in np.flatnonzero(stalled).tolist():
                results[ids[j]] = NumericalError(
                    f"MLE line search stalled at Newton iteration {iterations}")
            keep(~stalled)  # an empty batch ends at the next check
    for j, i in enumerate(ids.tolist()):
        results[i] = NumericalError(
            f"MLE did not converge in {_NEWTON_ITERATIONS} Newton iterations "
            f"(gradient norm {np.linalg.norm(grad[j]):.3g})")
    return results


def _line_search(stack, theta, ll, grad, hess, step):
    """Per replicate, the first of theta - step, theta - step/2, ... (while
    the factor exceeds 1e-12) whose log-likelihood is finite and not below
    ll - 1e-13. Returns the new (theta, ll, grad, hess) and a mask of the
    replicates where no factor gave one; those keep their old values. Each
    factor scores the whole batch and merges in the rows it accepts first;
    one that every row accepts, nearly always the full step, is returned."""
    lam = 1.0
    pending = np.ones(len(theta), bool)  # replicates without an accepted step
    while lam > 1e-12:
        cand = theta - lam * step
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            ll_new, grad_new, hess_new = loglik_grad_hess(stack, cand[:, :-1], cand[:, -1])
        ok = pending & np.isfinite(ll_new) & (ll_new >= ll - 1e-13)
        if ok.all():  # skips the merges: 140 against 150 us on a 10 x 300 block
            return cand, ll_new, grad_new, hess_new, ~ok
        theta, ll = np.where(ok[:, None], cand, theta), np.where(ok, ll_new, ll)
        grad = np.where(ok[:, None], grad_new, grad)
        hess = np.where(ok[:, None, None], hess_new, hess)
        pending &= ~ok
        if not pending.any():
            break
        lam *= 0.5
    return theta, ll, grad, hess, pending


def _mle_results(theta, ll, hess, iterations, gradient_norm) -> list:
    """Per converged replicate, the MleResult, or the NumericalError of a
    singular or indefinite observed information. The informations are
    inverted as one stack (see `_per_item`)."""
    covariances, singular = _per_item(np.linalg.inv, -hess)
    covariances = 0.5 * (covariances + covariances.transpose(0, 2, 1))
    return [NumericalError("singular observed information: Singular matrix") if bad else
            NumericalError("observed information is not positive definite")
            if np.any(np.diag(cov) < 0) else
            MleResult(coefficients=t[:-1].copy(), scale=math.exp(t[-1]), covariance=cov,
                      log_likelihood_at_max=v, iterations=iterations, gradient_norm=norm)
            for t, v, cov, norm, bad in zip(theta, ll.tolist(), covariances,
                                            gradient_norm.tolist(), singular.tolist())]


def _chain_log_posterior(stack, prior):
    """The log posterior in (beta, log b) of one chain on a stack of one, as
    a function of a (K, p+1) stack of parameter vectors; returns the K values.

    It includes the |db/ds| = b Jacobian and drops the normalizing constants.
    With w = (beta, 1)/b and z = [-X, y] w, a row's value is
    c'[w, (beta - mu0)^2, s] - (1 + event)' softplus(z), where c, built here
    once per chain with [-X, y]', holds event'[-X, y] less omega0 on 1/b,
    -v0/2 on each square and -(alpha0 + r) on s (-r s from the likelihood,
    -alpha0 s from the prior with its Jacobian). `_softplus` redoes the
    entries not finite when the stack's largest z is above 709 or NaN (exp
    can overflow).

    A row's value does not depend on the rows stacked with it: z is one
    matrix product (gemm, which sums each entry in the same order whatever
    the number of rows), both sums are one BLAS dot product per row (a
    matrix-vector product sums in an order that depends on K), and the two
    softplus paths give a finite entry the same bits. NumPy hands a one-row
    product to gemv, which rounds differently, so a lone row is padded."""
    design = np.column_stack([-stack.covariates[0], stack.log_time[0]])
    design_t, event1, mu0 = np.ascontiguousarray(design.T), stack.event1[0], prior.coef_mean
    coef = np.concatenate([stack.event[0] @ design, np.full(stack.p, -0.5 * prior.coef_precision),
                           [-(prior.scale_shape + stack.r[0])]])
    coef[stack.p] -= prior.scale_rate

    def log_posterior(thetas):
        k = len(thetas)
        if k == 1:
            thetas = np.concatenate((thetas, thetas))
        s = thetas[:, -1:]
        inv_b = np.exp(-s)
        w = thetas * inv_b
        w[:, -1:] = inv_b
        terms = np.concatenate((w, np.square(thetas[:, :-1] - mu0), s), axis=1)
        z = _softplus(w @ design_t)
        return (np.matmul(terms[:, None], coef) - np.matmul(z[:, None], event1))[:k, 0]
    return log_posterior


def check_chain_length(n_iterations: int, burn_in: int) -> None:
    """Raise ValueError unless the burn-in is nonnegative and the chain keeps
    at least two draws, the fewest that a posterior SD or interval needs."""
    if not (burn_in >= 0 and n_iterations - burn_in >= 2):
        raise ValueError("burn_in must be nonnegative and keep at least two draws, got "
                         f"burn_in={burn_in} with n_iterations={n_iterations}")


def sample_posterior(data: SurvivalDataset, prior: PriorSpec, n_iterations: int,
                     burn_in: int, seed: int) -> McmcChain:
    """Joint Gaussian random-walk Metropolis over (beta, log b).

    Burn-in runs in windows of _WINDOW iterations. After each full one (a
    last, shorter one adapts nothing) a global step multiplier chases a
    20-40% acceptance rate and per-component scales track running posterior
    spreads. Sampling then runs, with both frozen, as one block of steps.
    Draws are returned with the scale mapped back to b. The acceptance rate,
    and the warning when it is pathological, count the kept draws only.

    Iteration t reads values t(d+1), ..., t(d+1) + d of the stream
    `uniform_stream(seed, 0, ROLE_MCMC)`, with d = p + 1: the first d become
    the proposal's normals through `normal_quantile`, the last is the accept
    uniform. So the draws are a pure function of the arguments, and a chain
    with the same seed and burn-in but fewer iterations is a prefix of this
    one. The proposals are scored _PREFETCH at a time (see
    `_metropolis_block`), with the same draws as one at a time. The chain
    reads its whole stream at once, so its memory is a small multiple of its
    draws. Raises ValueError when `check_chain_length` does, or on a prior
    mean whose dimension is not the data's.
    """
    check_chain_length(n_iterations, burn_in)
    prior.check_dimension(data.p)
    dim = data.p + 1

    stack = DatasetStack.of([data])
    if data.n > data.p:
        theta = stack.start[0]
    else:
        prior_scale_mean = prior.scale_rate / max(prior.scale_shape - 1.0, 0.5)
        theta = np.append(prior.coef_mean, math.log(prior_scale_mean))

    log_posterior = _chain_log_posterior(stack, prior)
    lp = float(log_posterior(theta[None])[0])
    scales = np.full(dim, 0.1)
    mult = 1.0
    # count, mean and sum of squared deviations of the start and the burn-in
    # states so far, with the squared deviations seeded at 1e-4
    count, mean, m2 = 1, theta.copy(), np.full(dim, 1e-4)
    window = np.empty((_WINDOW, dim))  # the states of the current window
    u = uniform_stream(seed, 0, ROLE_MCMC, n_iterations * (dim + 1)).reshape(-1, dim + 1)
    normals, log_u = normal_quantile(u[:, :dim]), np.log(u[:, dim].copy()).tolist()
    del u

    for t in range(0, burn_in, _WINDOW):
        end = min(t + _WINDOW, burn_in)
        theta, lp, accepted = _metropolis_block(
            log_posterior, theta, lp, normals[t:end] * (mult * scales), log_u[t:end],
            window[:end - t])
        if end - t < _WINDOW:  # the last, shorter window adapts nothing
            break
        rate = accepted / _WINDOW
        if rate < 0.20:
            mult *= 0.8
        elif rate > 0.40:
            mult *= 1.25
        # fold the window into the running moments (the pairwise update
        # of Chan, Golub and LeVeque)
        window_mean = window.mean(axis=0)
        delta = window_mean - mean
        total = count + _WINDOW
        mean = mean + delta * (_WINDOW / total)
        m2 = (m2 + ((window - window_mean) ** 2).sum(axis=0)
              + delta * delta * (count * _WINDOW / total))
        count = total
        scales = np.maximum(np.sqrt(m2 / (count - 1)), 1e-3)

    draws = np.empty((n_iterations - burn_in, dim))
    accepted_kept = _metropolis_block(
        log_posterior, theta, lp, normals[burn_in:] * (mult * scales), log_u[burn_in:], draws)[2]

    draws[:, -1] = np.exp(draws[:, -1])
    rate = accepted_kept / (n_iterations - burn_in)
    warning = None
    if not 0.01 < rate < 0.99:
        warning = f"pathological acceptance rate {rate:.3f} after adaptation"
    return McmcChain(draws=draws, acceptance_rate=rate, seed=seed, warning=warning)


def _metropolis_block(log_posterior, theta, lp, increments, log_u, out):
    """Run one Metropolis step per row of `increments` (the proposal's steps)
    and entry of `log_u` (the logs of the accept uniforms), storing each
    step's state in `out`. Returns the last state, its log posterior and the
    number of accepted proposals.

    The proposals are scored _PREFETCH at a time (pre-fetching; Brockwell
    2006, J. Comput. Graph. Stat. 15:246): from theta, the next K proposals
    are theta + increments[k:k+K], all scored in one call. The first one
    the sequential test accepts moves the chain, the steps before it stay
    at theta, and the next batch starts after it; the ones after it were
    proposed from the old state and are dropped. Every increment of a block
    has the same scale, so the accept decisions, and the draws, are the
    one-at-a-time algorithm's own."""
    k, n, accepted = 0, len(increments), 0
    held = 0  # the chain has held theta since step `held`
    while k < n:
        proposals = theta + increments[k:k + _PREFETCH]
        for i, lp_proposal in enumerate(log_posterior(proposals).tolist()):
            if log_u[k + i] < lp_proposal - lp:
                out[held:k + i] = theta
                theta, lp, held = proposals[i], lp_proposal, k + i
                accepted += 1
                k += i + 1
                break
        else:
            k += len(proposals)
    out[held:n] = theta
    return theta, lp, accepted
