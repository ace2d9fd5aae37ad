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

Per iteration the engine recomputes the quadratic coefficients at the current
(mu, q(b)), updates Sigma then mu, re-evaluates the linear coefficients at
the updated mu, updates omega, and finally evaluates the ELBO. The shape of
q(b) is alpha0 + r from its first update onward; expectations taken before
q(b) has ever been updated (the first beta-update) use the prior shape
alpha0, which is what keeps the early iterations on scale. The loop stops
when the ELBO difference falls below the tolerance, when the same segment
assignment and parameters recur within the last three iterations (the
surrogate switching can otherwise cycle forever), or at the iteration cap,
and records which of the three rules fired in `stop_reason`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .exceptions import NumericalError
from .model import PriorSpec, SurvivalDataset
from .numerics import digamma
from .piecewise import (LINEAR_KNOTS, QUADRATIC_KNOTS, PiecewiseCoefficients,
                        segment_coefficients)

__all__ = [
    "FitConfig",
    "VariationalState",
    "initialize",
    "plugin_residuals",
    "update_sigma",
    "update_mu",
    "update_omega",
    "elbo",
    "fit",
]

_CYCLE_WINDOW = 3
_CYCLE_ATOL = 1e-10


@dataclass(frozen=True)
class FitConfig:
    elbo_tolerance: float = 0.01
    max_iterations: int = 100

    def __post_init__(self):
        if not self.elbo_tolerance > 0:
            raise ValueError("elbo_tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass(frozen=True)
class VariationalState:
    """Variational parameters plus per-iteration diagnostics.

    `coef_cov` is None on a freshly initialized state and set from the first
    update onward. `scale_shape` is the shape the next update takes
    expectations at: the prior shape plus the event count on every state
    `initialize` and `fit` return, and the prior shape alone inside `fit`
    until q(b) is first updated. The traces record, per iteration: the ELBO,
    the updated rate omega, the covariance matrix, and a compact key of the
    surrogate segment assignment in effect for that iteration's updates.
    `stop_reason` says why `fit` stopped: "tolerance" (the ELBO change fell
    to the tolerance), "cycle" (a segment assignment and parameters recurred)
    or "cap" (the iteration cap); it is None on a state `fit` did not return.
    `converged` is False only for "cap".
    """

    coef_mean: np.ndarray
    coef_cov: np.ndarray | None
    scale_shape: float
    scale_rate: float
    elbo_trace: tuple = ()
    omega_trace: tuple = ()
    sigma_trace: tuple = ()
    segment_trace: tuple = ()
    iterations: int = 0
    converged: bool = False
    stop_reason: str | None = None

    @property
    def scale_mean(self) -> float:
        """Posterior mean of the scale, omega / (alpha - 1)."""
        if self.scale_shape <= 1:
            raise NumericalError("scale mean undefined for shape <= 1")
        return self.scale_rate / (self.scale_shape - 1.0)


def initialize(data: SurvivalDataset, prior: PriorSpec) -> VariationalState:
    """Starting state: mu = prior mean, omega = prior rate, alpha = alpha0 + r."""
    if prior.coef_mean.shape[0] != data.p:
        raise ValueError("prior mean dimension does not match the data")
    return VariationalState(
        coef_mean=prior.coef_mean.copy(),
        coef_cov=None,
        scale_shape=prior.scale_shape + data.r,
        scale_rate=prior.scale_rate,
    )


def plugin_residuals(data: SurvivalDataset, state: VariationalState) -> np.ndarray:
    """Standardized residuals (y - X mu) * E[1/b] under the current state."""
    e_inv = state.scale_shape / state.scale_rate
    return (data.log_time - data.covariates @ state.coef_mean) * e_inv


def update_sigma(data: SurvivalDataset, prior: PriorSpec, state: VariationalState,
                 coeffs: PiecewiseCoefficients) -> np.ndarray:
    """New coefficient covariance
    [v0 I + 2 E(1/b^2) sum_i (1+delta_i) zeta_i x_i x_i']^{-1}."""
    a, w = state.scale_shape, state.scale_rate
    e_inv2 = (a + a * a) / (w * w)
    X = data.covariates
    weights = (1.0 + data.event) * coeffs.zeta
    A = prior.coef_precision * np.eye(data.p) + 2.0 * e_inv2 * (X.T * weights) @ X
    try:
        np.linalg.cholesky(A)
        sigma = np.linalg.inv(A)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"covariance update is not positive definite: {exc}") from exc
    sigma = 0.5 * (sigma + sigma.T)
    if not np.all(np.isfinite(sigma)):
        raise NumericalError("non-finite covariance update")
    return sigma


def update_mu(data: SurvivalDataset, prior: PriorSpec, state: VariationalState,
              coeffs: PiecewiseCoefficients, sigma_new: np.ndarray) -> np.ndarray:
    """New coefficient mean, the surrogate linear form times the new covariance."""
    a, w = state.scale_shape, state.scale_rate
    e_inv, e_inv2 = a / w, (a + a * a) / (w * w)
    d = data.event
    row = (e_inv * (-d + (1.0 + d) * coeffs.rho)
           + 2.0 * e_inv2 * (1.0 + d) * data.log_time * coeffs.zeta)
    linear = prior.coef_precision * prior.coef_mean + data.covariates.T @ row
    return sigma_new @ linear


def update_omega(data: SurvivalDataset, prior: PriorSpec, state: VariationalState,
                 coeffs: PiecewiseCoefficients, mu_new: np.ndarray) -> float:
    """New rate omega0 - sum_i (delta_i - (1+delta_i) phi_i)(y_i - x_i' mu);
    a non-positive value is a numerical failure."""
    resid = data.log_time - data.covariates @ mu_new
    c = data.event - (1.0 + data.event) * coeffs.phi
    omega_new = float(prior.scale_rate - np.sum(c * resid))
    if omega_new <= 0:
        raise NumericalError(f"scale rate update produced omega={omega_new:.6g} <= 0")
    return omega_new


def elbo(data: SurvivalDataset, prior: PriorSpec, state: VariationalState,
         coeffs: PiecewiseCoefficients) -> float:
    """Linear-surrogate evidence lower bound L_L, iteration-constant terms
    dropped.

    L_L is the bound `update_omega` maximizes; `update_sigma` and `update_mu`
    maximize the quadratic-surrogate bound instead, so a beta-update may
    lower this value (see the module docstring).

    Likelihood term: -r E(log b) + E(1/b) sum_i c_i (y_i - x_i' mu) with
    c_i = delta_i - (1+delta_i) phi_i. Coefficient term: -(v0/2)[tr Sigma +
    |mu - mu0|^2] + (1/2) log|Sigma|. Scale term: (alpha - alpha0) E(log b) +
    (omega - omega0) E(1/b) - alpha log omega.
    """
    if state.coef_cov is None:
        raise ValueError("state has no covariance yet; run an update first")
    a, w = state.scale_shape, state.scale_rate
    e_inv = a / w
    e_log_b = math.log(w) - digamma(a)
    mu = state.coef_mean
    resid = data.log_time - data.covariates @ mu
    c = data.event - (1.0 + data.event) * coeffs.phi
    likelihood = -data.r * e_log_b + e_inv * float(np.sum(c * resid))

    sign, logdet = np.linalg.slogdet(state.coef_cov)
    if sign <= 0:
        raise NumericalError("covariance has non-positive determinant")
    dmu = mu - prior.coef_mean
    coef_term = (-0.5 * prior.coef_precision
                 * (float(np.trace(state.coef_cov)) + float(dmu @ dmu))
                 + 0.5 * logdet)

    scale_term = ((a - prior.scale_shape) * e_log_b
                  + (w - prior.scale_rate) * e_inv
                  - a * math.log(w))

    value = likelihood + coef_term + scale_term
    if not math.isfinite(value):
        raise NumericalError("non-finite ELBO")
    return value


def _segment_key(z_quad: np.ndarray, z_lin: np.ndarray) -> bytes:
    kq = np.searchsorted(QUADRATIC_KNOTS, z_quad, side="left").astype(np.int8)
    kl = np.searchsorted(LINEAR_KNOTS, z_lin, side="left").astype(np.int8)
    return kq.tobytes() + kl.tobytes()


def fit(data: SurvivalDataset, prior: PriorSpec,
        config: FitConfig | None = None) -> VariationalState:
    """Run the coordinate-ascent loop to convergence. See the module docstring
    for the exact update schedule and stopping rules."""
    config = config or FitConfig()
    state = initialize(data, prior)
    alpha = state.scale_shape
    # q(b) has not been updated yet, so the first beta-update integrates
    # against the prior Inverse-Gamma(alpha0, omega0).
    cur = replace(state, scale_shape=prior.scale_shape)

    elbo_prev = 0.0
    elbos: list[float] = []
    omegas: list[float] = []
    sigmas: list[np.ndarray] = []
    segment_keys: list[bytes] = []
    history: list[tuple[bytes, np.ndarray, float]] = []
    stop_reason = "cap"

    for m in range(1, config.max_iterations + 1):
        z_start = plugin_residuals(data, cur)
        coeffs = segment_coefficients(z_start)

        try:
            sigma = update_sigma(data, prior, cur, coeffs)
            mu = update_mu(data, prior, cur, coeffs, sigma)

            # the b-update sees the freshest mu, so its linear surrogate is
            # re-anchored at the updated residuals
            z_mid = plugin_residuals(data, replace(cur, coef_mean=mu))
            coeffs = PiecewiseCoefficients(phi=segment_coefficients(z_mid).phi,
                                           rho=coeffs.rho, zeta=coeffs.zeta)
            omega = update_omega(data, prior, cur, coeffs, mu)
            cur = VariationalState(coef_mean=mu, coef_cov=sigma,
                                   scale_shape=alpha, scale_rate=omega)
            value = elbo(data, prior, cur, coeffs)
        except NumericalError as exc:
            raise NumericalError(f"variational update failed at iteration {m}: {exc}") from exc

        elbos.append(value)
        omegas.append(omega)
        sigmas.append(sigma)
        segment_keys.append(_segment_key(z_start, z_mid))

        if abs(value - elbo_prev) <= config.elbo_tolerance:
            stop_reason = "tolerance"
            break
        key = (segment_keys[-1], mu.copy(), omega)
        cycled = any(
            k == key[0]
            and np.allclose(pm, mu, rtol=0.0, atol=_CYCLE_ATOL)
            and abs(po - omega) <= _CYCLE_ATOL
            for k, pm, po in history[-_CYCLE_WINDOW:]
        )
        if cycled:
            stop_reason = "cycle"
            break
        history.append(key)
        elbo_prev = value

    return replace(
        cur,
        elbo_trace=tuple(elbos),
        omega_trace=tuple(omegas),
        sigma_trace=tuple(sigmas),
        segment_trace=tuple(segment_keys),
        iterations=len(elbos),
        converged=stop_reason != "cap",
        stop_reason=stop_reason,
    )
