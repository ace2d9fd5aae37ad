"""Coordinate-ascent variational inference for the log-logistic AFT model.

The mean-field family is q(beta, b) = q(beta) q(b) with q(beta) = N_p(mu,
Sigma) and q(b) = Inverse-Gamma(alpha, omega). Conjugacy of the coordinate
updates is obtained by replacing log(1 + e^z) with the quadratic surrogate
(rho, zeta) inside the beta-update and with the linear surrogate (phi) inside
the b-update and the ELBO. Surrogate segments are chosen at the plug-in
standardized residual z_hat_i = (y_i - x_i' mu) * E[1/b].

Each block update maximizes its own surrogate bound exactly: the (Sigma, mu)
update maximizes the quadratic-surrogate bound L_Q at fixed q(b) and fixed
(rho, zeta); the omega update maximizes the linear-surrogate bound L_L at
fixed q(beta) and fixed phi. The reported ELBO is L_L. L_Q - L_L does not
split into a q(beta) part plus a q(b) part, so no single scalar is ascended
by both blocks: the reported trace is not guaranteed to be monotone across
beta-updates, even while segment assignments stay the same.

Per iteration the engine looks up the quadratic coefficients at the current
(mu, q(b)), updates Sigma then mu, looks up the linear coefficients at the
updated mu, updates omega, and finally evaluates the ELBO. The shape of
q(b) is alpha0 + r from its first update onward; expectations taken before
q(b) has ever been updated (the first beta-update) use the prior shape
alpha0, which is what keeps the early iterations on scale. The loop stops
when the ELBO difference falls below the tolerance, when the same segment
assignment and parameters recur within the last three iterations (the
surrogate switching can otherwise cycle forever), or at the iteration cap,
and records which of the three rules fired in `stop_reason`.

`fit_batch` runs that loop over the replicates of a DatasetStack at once,
from the start `initialize` gives (the stack's least-squares start where a
replicate has more events than covariates, the prior mean elsewhere): every
update takes a DatasetStack and arrays with a leading replicate axis, and a
replicate leaves the batch when it stops or fails. `fit` is a batch of one,
so a single dataset and a batch go through the same arithmetic, and each
replicate of a batch gets the result `fit` gives it alone, bit for bit.
Inside the loop y - X mu is computed once per new mu and serves the
linear-segment lookup, the omega update, the ELBO and the next iteration's
plug-in residuals; psi(alpha) is computed once per replicate per fit, since
alpha = alpha0 + r is fixed, and so are v0 I and v0 mu0. The stack carries
1 + delta.

No update raises: `_iterate` names, per replicate, the first of its checks
that fails (`_FAILURES`); that replicate leaves the batch with the
iteration's error, as the stopped ones do, and the others go on.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .exceptions import NumericalError
from .model import DatasetStack, PriorSpec, SurvivalDataset
from .numerics import _digammas, _dot, _moments, _per_item
from .piecewise import (LINEAR_SLOPES, QUADRATIC_LINEAR, QUADRATIC_QUADRATIC,
                        _linear_segment, _quadratic_segment)

__all__ = [
    "FitConfig",
    "VariationalState",
    "initialize",
    "fit",
    "fit_batch",
]

_CYCLE_WINDOW = 3
_CYCLE_ATOL = 1e-10

# The checks of `_iterate` in the order it meets them, as a failed iteration
# reports them (index 0 is none; the omega check shows the replicate's omega).
_FAILURES = (None,
             "covariance update is not positive definite: Matrix is not positive definite",
             "covariance update has no inverse: Singular matrix",
             "non-finite covariance update",
             "scale rate update produced omega={:.6g} <= 0",
             "covariance has non-positive determinant",
             "non-finite ELBO")


@dataclass(frozen=True)
class FitConfig:
    elbo_tolerance: float = 0.01
    max_iterations: int = 100

    def __post_init__(self):
        if not 0 < self.elbo_tolerance < math.inf:
            raise ValueError(f"elbo_tolerance must be positive and finite, "
                             f"got {self.elbo_tolerance}")
        if not (isinstance(self.max_iterations, numbers.Integral) and self.max_iterations >= 1):
            raise ValueError(f"max_iterations must be an integer of at least 1, "
                             f"got {self.max_iterations!r}")


@dataclass(frozen=True)
class VariationalState:
    """Variational parameters of a fit plus per-iteration diagnostics.

    `coef_mean` is (p,), `coef_cov` (p, p), and `scale_shape` and
    `scale_rate` are floats; `scale_shape` is the prior shape plus the event
    count.

    The traces record, per iteration: the ELBO, the updated rate omega, the
    covariance matrix, and a compact key of the surrogate segment assignment
    in effect for that iteration's updates. `stop_reason` says why `fit`
    stopped: "tolerance" (the ELBO change fell to the tolerance), "cycle" (a
    segment assignment and parameters recurred) or "cap" (the iteration
    cap), and `converged` is True for the first two.
    """

    coef_mean: np.ndarray
    coef_cov: np.ndarray
    scale_shape: float
    scale_rate: float
    elbo_trace: tuple = ()
    omega_trace: tuple = ()
    sigma_trace: tuple = ()
    segment_trace: tuple = ()
    iterations: int = 0
    stop_reason: str | None = None

    @property
    def converged(self) -> bool:
        return self.stop_reason in ("tolerance", "cycle")

    @property
    def scale_mean(self) -> float:
        """Posterior mean of the scale, omega / (alpha - 1)."""
        if self.scale_shape <= 1:
            raise NumericalError("scale mean undefined for shape <= 1")
        return self.scale_rate / (self.scale_shape - 1.0)


def initialize(stack: DatasetStack, prior: PriorSpec) -> tuple:
    """The start `fit_batch` runs from, per replicate: mu (R, p) is the
    least-squares beta of `stack.start` where the replicate has more events
    than covariates (r > p), and the prior mean elsewhere, since least
    squares on censored log-times ignores the censoring; alpha = alpha0 (R,)
    and omega = omega0 (R,), so that the first beta-update integrates against
    the prior Inverse-Gamma(alpha0, omega0). Raises ValueError unless the
    prior mean has one entry per covariate."""
    prior.check_dimension(stack.p)
    R = len(stack)
    mu = np.tile(prior.coef_mean, (R, 1))
    fits = stack.r > stack.p
    if fits.any():
        mu[fits] = stack.start[fits, :-1]
    return mu, np.full(R, prior.scale_shape), np.full(R, prior.scale_rate)


def _block_terms(stack, prior):
    # the prior's terms of the updates, which no iteration changes: v0 I and v0 mu0
    return prior.coef_precision * np.eye(stack.p), prior.coef_precision * prior.coef_mean


def _update_sigma(stack, terms, moments, zeta):
    # [v0 I + 2 E(1/b^2) sum_i (1+delta_i) zeta_i x_i x_i']^{-1}, (R, p, p), and
    # per replicate whether the bracket has no Cholesky factor, and no inverse
    v0_eye, _ = terms
    _, e_inv2, _ = moments
    X = stack.covariates
    weights = stack.event1 * zeta
    XtW = (2.0 * e_inv2)[:, None, None] * (X.transpose(0, 2, 1) * weights[:, None, :])
    A = v0_eye + np.matmul(XtW, X)
    _, no_factor = _per_item(np.linalg.cholesky, A)
    sigma, singular = _per_item(np.linalg.inv, A)
    return 0.5 * (sigma + sigma.transpose(0, 2, 1)), no_factor, singular


def _update_mu(stack, terms, moments, rho, zeta, sigma_new):
    # the surrogate linear form times the new covariance, (R, p)
    _, v0_mu0 = terms
    e_inv, e_inv2, _ = moments
    # (1 + delta) rho - delta, which is -delta + (1 + delta) rho to the bit
    row = (e_inv[:, None] * (stack.event1 * rho - stack.event)
           + 2.0 * e_inv2[:, None] * stack.event1 * stack.log_time * zeta)
    linear = v0_mu0 + _dot(row, stack.covariates)
    return np.matmul(sigma_new, linear[..., None])[..., 0]


def _linear_form(stack, resid, phi):
    # sum_i (delta_i - (1+delta_i) phi_i)(y_i - x_i' mu), per replicate, from
    # the residuals y - X mu
    return np.sum((stack.event - stack.event1 * phi) * resid, axis=-1)


def _update_omega(prior, linear):
    # omega0 minus the linear form, (R,); a non-positive value is a failure
    return prior.scale_rate - linear


def _elbo(stack, prior, mu, cov, a, w, moments, linear):
    """Linear-surrogate evidence lower bound L_L, iteration-constant terms
    dropped, (R,), from the moments of q(b) and the likelihood's linear form
    `_linear_form`, and per replicate whether the covariance's determinant
    is not positive.

    L_L is the bound `_update_omega` maximizes; `_update_sigma` and
    `_update_mu` maximize the quadratic-surrogate bound instead, so a
    beta-update may lower this value (see the module docstring).

    Likelihood term: -r E(log b) + E(1/b) sum_i c_i (y_i - x_i' mu) with
    c_i = delta_i - (1+delta_i) phi_i. Coefficient term: -(v0/2)[tr Sigma +
    |mu - mu0|^2] + (1/2) log|Sigma|. Scale term: (alpha - alpha0) E(log b) +
    (omega - omega0) E(1/b) - alpha log omega.
    """
    e_inv, _, e_log_b = moments
    likelihood = -stack.r * e_log_b + e_inv * linear

    sign, logdet = np.linalg.slogdet(cov)
    dmu = mu - prior.coef_mean
    coef_term = (-0.5 * prior.coef_precision
                 * (np.trace(cov, axis1=1, axis2=2) + _dot(dmu, dmu))
                 + 0.5 * logdet)

    scale_term = ((a - prior.scale_shape) * e_log_b
                  + (w - prior.scale_rate) * e_inv
                  - a * np.log(w))

    return likelihood + coef_term + scale_term, sign <= 0


def _iterate(stack: DatasetStack, prior: PriorSpec, terms: tuple, moments: tuple,
             resid: np.ndarray, alpha: np.ndarray, psi_alpha: np.ndarray):
    """One CAVI iteration on a stack, from `_block_terms`, q(b) moments
    `moments` and the residuals y - X mu of the current mu. Returns the new
    (mu, Sigma, omega), their q(b) moments (psi_alpha is psi(alpha)), the
    residuals of the new mu, its ELBO, per replicate the segment key
    (quadratic segments at the start residuals, then linear segments at the
    residuals after the beta-update), and None, or if a check fails, per
    replicate the `_FAILURES` index of its first failed check (0 for none).
    y - X mu is computed once per new mu."""
    e_inv = moments[0][:, None]
    kq = _quadratic_segment(resid * e_inv)
    zeta = QUADRATIC_QUADRATIC[kq]
    sigma, no_factor, singular = _update_sigma(stack, terms, moments, zeta)
    sigma_failed = no_factor.any() or not np.isfinite(sigma).all()
    if sigma_failed:  # NaN carries a failed covariance on without warnings
        failed = no_factor | ~np.isfinite(sigma).all(axis=(1, 2))
        sigma = np.where(failed[:, None, None], np.nan, sigma)
    mu = _update_mu(stack, terms, moments, QUADRATIC_LINEAR[kq], zeta, sigma)

    # the b-update sees the freshest mu, so its linear surrogate is
    # re-anchored at the updated residuals, under the same q(b)
    resid = stack.residuals(mu)
    kl = _linear_segment(resid * e_inv)
    linear = _linear_form(stack, resid, LINEAR_SLOPES[kl])
    omega = _update_omega(prior, linear)
    with np.errstate(divide="ignore", invalid="ignore"):  # a failed omega <= 0, or NaN Sigma
        moments = _moments(alpha, omega, psi_alpha)
        value, bad_det = _elbo(stack, prior, mu, sigma, alpha, omega, moments, linear)
    failures = None
    if sigma_failed or (omega <= 0).any() or bad_det.any() or not np.isfinite(value).all():
        # a covariance set to NaN above fails check 3 too, after the one that did it
        failures = np.select([no_factor, singular, ~np.isfinite(sigma).all(axis=(1, 2)),
                              omega <= 0, bad_det, ~np.isfinite(value)], range(1, len(_FAILURES)))
    keys = np.concatenate([kq, kl], axis=1).astype(np.int8)
    return (mu, sigma, omega), moments, resid, value, keys, failures


def fit(data: SurvivalDataset, prior: PriorSpec,
        config: FitConfig | None = None) -> VariationalState:
    """Run the coordinate-ascent loop to convergence; a batch of one. See the
    module docstring for the exact update schedule and stopping rules."""
    result, = fit_batch(DatasetStack.of([data]), prior, config)
    if isinstance(result, NumericalError):
        raise result
    return result


def fit_batch(stack: DatasetStack, prior: PriorSpec,
              config: FitConfig | None = None) -> list:
    """Fit each replicate of a stack with the loop `fit` runs, all at once.

    Returns one entry per replicate, in order: its VariationalState, or the
    NumericalError of the first check it failed, naming the iteration. A
    replicate leaves the batch after an iteration in which it stops by
    tolerance, cycle or cap, or fails (then it never stops, even at the
    cap); the others carry on. psi(alpha) is computed once per replicate:
    for the prior shape at the start, and for alpha0 + r, every update's.
    """
    config = config or FitConfig()
    mu0, alpha0, omega0 = initialize(stack, prior)
    moments = _moments(alpha0, omega0, _digammas(alpha0))
    resid = stack.residuals(mu0)
    terms = _block_terms(stack, prior)
    results: list = [None] * len(stack)
    traces = [[] for _ in results]  # per iteration (ELBO, omega, Sigma, key)

    ids = np.arange(len(stack))  # the replicates still in the batch
    alpha = prior.scale_shape + stack.r
    psi_alpha = _digammas(alpha)
    elbo_prev = np.full(len(ids), np.inf)  # the first iteration never stops by tolerance
    # the last _CYCLE_WINDOW (key, mu, omega), oldest overwritten first
    history = [None] * _CYCLE_WINDOW

    def keep(mask):
        nonlocal ids, stack, alpha, psi_alpha, moments, resid, elbo_prev, history
        ids, stack, elbo_prev = ids[mask], stack.take(mask), elbo_prev[mask]
        alpha, psi_alpha, resid = alpha[mask], psi_alpha[mask], resid[mask]
        moments = tuple(x[mask] for x in moments)
        history = [None if h is None else tuple(x[mask] for x in h) for h in history]

    for m in range(1, config.max_iterations + 1):
        (mu, sigma, omega), moments, resid, value, keys, failures = _iterate(
            stack, prior, terms, moments, resid, alpha, psi_alpha)
        ok = True  # no mask when nothing failed: 0.7 us an iteration less
        if failures is not None:  # the failed replicates leave with the stopped ones
            ok = failures == 0
            for j in np.flatnonzero(failures).tolist():
                results[ids[j]] = NumericalError(f"variational update failed at iteration {m}: "
                                                 + _FAILURES[failures[j]].format(omega[j]))
        for i, row in zip(ids.tolist(), zip(value.tolist(), omega.tolist(), sigma,
                                            map(bytes, keys))):
            traces[i].append(row)

        by_tolerance = np.abs(value - elbo_prev) <= config.elbo_tolerance
        cycled = np.zeros(len(ids), bool)
        for h in history:
            if h is None:
                continue
            pk, pm, po = h
            same = np.abs(po - omega) <= _CYCLE_ATOL
            if same.any():
                cycled |= (same & (pk == keys).all(axis=1)
                           & (np.abs(pm - mu) <= _CYCLE_ATOL).all(axis=1))
        stopped = (by_tolerance | cycled | (m == config.max_iterations)) & ok
        for j in np.flatnonzero(stopped).tolist():
            reason = ("tolerance" if by_tolerance[j] else "cycle" if cycled[j] else "cap")
            elbos, omegas, sigmas, segment_keys = zip(*traces[ids[j]])
            results[ids[j]] = VariationalState(
                coef_mean=mu[j], coef_cov=sigma[j],
                scale_shape=float(alpha[j]), scale_rate=omegas[-1],
                elbo_trace=elbos, omega_trace=omegas,
                sigma_trace=sigmas, segment_trace=segment_keys,
                iterations=m, stop_reason=reason)

        history[(m - 1) % _CYCLE_WINDOW] = (keys, mu, omega)
        elbo_prev = value
        going = ok & ~stopped
        if not going.all():
            keep(going)
            if not len(ids):
                break
    return results

