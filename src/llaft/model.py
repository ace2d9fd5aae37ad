"""Log-logistic accelerated failure time model for right-censored data.

The model is log(T_i) = x_i' beta + b z_i with z_i standard logistic, so that
with y_i = log(t_i), delta_i the event indicator and r = sum(delta_i), the
log-likelihood is

    l(beta, b) = -r log b + sum_i [ delta_i z_i - (1 + delta_i) log(1 + e^{z_i}) ],
    z_i = (y_i - x_i' beta) / b.

Priors for the Bayesian treatment are beta ~ N_p(mu0, (1/v0) I) and
b ~ Inverse-Gamma(alpha0, omega0).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DataError, NumericalError
from .numerics import InverseGammaParams, inverse_gamma_log_pdf

__all__ = [
    "SurvivalDataset",
    "DatasetStack",
    "PriorSpec",
    "ModelParams",
    "log_likelihood",
    "log_posterior",
]


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SurvivalDataset:
    """Right-censored survival data with an intercept-leading design matrix.

    Attributes
    ----------
    time : (n,) observed times t_i = min(T_i, C_i), strictly positive
    event : (n,) indicators, 1.0 = event observed, 0.0 = right censored
    covariates : (n, p) design matrix whose first column is all ones
    log_time : (n,) natural log of `time`, derived at construction
    """

    time: np.ndarray
    event: np.ndarray
    covariates: np.ndarray
    log_time: np.ndarray = field(init=False)

    def __post_init__(self):
        time = _readonly(self.time)
        event = _readonly(self.event)
        X = _readonly(self.covariates)
        if X.ndim != 2:
            raise DataError("covariates must be a 2-D array")
        n, p = X.shape
        if time.shape != (n,) or event.shape != (n,):
            raise DataError("time, event and covariates disagree on n")
        if p < 1:
            raise DataError("covariates must at least contain the intercept column")
        if not np.all(np.isfinite(X)):
            raise DataError("covariates must be finite")
        if n and not np.all(X[:, 0] == 1.0):
            raise DataError("first covariate column must be the intercept (all ones)")
        if np.any(time <= 0) or not np.all(np.isfinite(time)):
            raise DataError("observed times must be positive and finite")
        if not np.all((event == 0.0) | (event == 1.0)):
            raise DataError("event indicators must be 0 or 1")
        object.__setattr__(self, "time", time)
        object.__setattr__(self, "event", event)
        object.__setattr__(self, "covariates", X)
        object.__setattr__(self, "log_time", _readonly(np.log(time)))

    @property
    def n(self) -> int:
        return self.time.shape[0]

    @property
    def p(self) -> int:
        return self.covariates.shape[1]

    @property
    def r(self) -> int:
        """Number of observed (uncensored) events."""
        return int(self.event.sum())


@dataclass(frozen=True)
class PriorSpec:
    """N_p(coef_mean, (1/coef_precision) I) prior on the coefficients and
    Inverse-Gamma(scale_shape, scale_rate) prior on the scale."""

    coef_mean: np.ndarray
    coef_precision: float
    scale_shape: float
    scale_rate: float

    def __post_init__(self):
        mean = _readonly(np.atleast_1d(self.coef_mean))
        if mean.ndim != 1:
            raise ValueError("coef_mean must be a vector")
        if not self.coef_precision > 0:
            raise ValueError(f"coef_precision must be positive, got {self.coef_precision}")
        if not (self.scale_shape > 0 and self.scale_rate > 0):
            raise ValueError("scale_shape and scale_rate must be positive")
        object.__setattr__(self, "coef_mean", mean)

    @property
    def scale_params(self) -> InverseGammaParams:
        return InverseGammaParams(self.scale_shape, self.scale_rate)


@dataclass(frozen=True)
class ModelParams:
    """A point (beta, b) in parameter space."""

    coefficients: np.ndarray
    scale: float

    def __post_init__(self):
        if not self.scale > 0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        object.__setattr__(self, "coefficients", _readonly(np.atleast_1d(self.coefficients)))


@dataclass(frozen=True)
class DatasetStack:
    """Datasets of one (n, p), stacked on a leading replicate axis.

    `log_time` and `event` are (R, n), `covariates` is (R, n, p) and `r`
    holds the R event counts as floats. The batch fits take one; a single
    dataset enters them as a stack of one.
    """

    log_time: np.ndarray
    event: np.ndarray
    covariates: np.ndarray
    r: np.ndarray

    @classmethod
    def of(cls, datasets) -> "DatasetStack":
        """Stack SurvivalDatasets; raises ValueError unless they share (n, p)."""
        datasets = list(datasets)
        if not datasets:
            raise ValueError("need at least one dataset to stack")
        shapes = sorted({d.covariates.shape for d in datasets})
        if len(shapes) > 1:
            raise ValueError(f"datasets disagree on (n, p): {shapes}")
        log_time = np.stack([d.log_time for d in datasets])
        event = np.stack([d.event for d in datasets])
        X = np.stack([d.covariates for d in datasets])
        return cls(log_time, event, X, event.sum(axis=-1))

    def __len__(self) -> int:
        return self.log_time.shape[0]

    @property
    def n(self) -> int:
        return self.covariates.shape[1]

    @property
    def p(self) -> int:
        return self.covariates.shape[2]

    def take(self, index) -> "DatasetStack":
        """The replicates at `index` (an integer array or a boolean mask)."""
        return DatasetStack(self.log_time[index], self.event[index],
                            self.covariates[index], self.r[index])


def _stacked(data) -> tuple[DatasetStack, bool]:
    """`data` as a stack, and whether it was a single SurvivalDataset."""
    if isinstance(data, SurvivalDataset):
        return DatasetStack.of([data]), True
    return data, False


def _softplus(z: np.ndarray) -> np.ndarray:
    """log(1 + e^z) elementwise, as log1p(exp(z)), for an array z of at least
    one axis. exp overflows only where z > ~709.78, so when the maximum of z
    is above 709, or NaN, the entries that come out not finite are redone
    with np.logaddexp(0, z), which costs ~4x as much as log1p(exp(z)).
    NaN propagates without a floating-point warning."""
    if z.max(initial=-np.inf) <= 709.0:
        out = np.exp(z)
        return np.log1p(out, out=out)
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.log1p(np.exp(z))
        return np.where(np.isfinite(out), out, np.logaddexp(0.0, z))


def _z_loglik(y, event, X, beta, log_b, r, event1):
    """z = (y - X beta) / b and the log-likelihood above on raw arrays. The
    caller passes the event count r and event1 = 1 + event, which do not
    depend on (beta, b). With a leading replicate axis, beta is (R, p) and
    log_b, r are (R,), and both results carry the axis. It validates nothing.

    One dataset sums by dot products. A stack sums each row pairwise: the
    sequential sums of a stacked matmul round enough to flip the MLE line
    search's 1e-13 acceptance test."""
    if np.ndim(beta) == 1:
        z = (y - X @ beta) / np.exp(log_b)
        return z, -r * log_b + (event @ z - event1 @ _softplus(z))
    z = (y - np.matmul(X, beta[..., None])[..., 0]) / np.exp(log_b)[..., None]
    return z, -r * log_b + ((event * z).sum(axis=-1) - (event1 * _softplus(z)).sum(axis=-1))


def log_likelihood(data: SurvivalDataset, params: ModelParams) -> float:
    """Exact log-likelihood at (beta, b); raises on a non-finite result."""
    if data.n == 0:
        raise DataError("log_likelihood requires a nonempty dataset")
    if params.coefficients.shape[0] != data.p:
        raise ValueError("coefficient vector does not match covariate dimension")
    value = float(_z_loglik(data.log_time, data.event, data.covariates,
                            params.coefficients, math.log(params.scale),
                            data.r, 1.0 + data.event)[1])
    if not math.isfinite(value):
        raise NumericalError(f"non-finite log-likelihood at scale={params.scale}")
    return value


def log_posterior(data: SurvivalDataset, params: ModelParams, prior: PriorSpec) -> float:
    """Log of likelihood times prior, all normalizing constants included."""
    beta = params.coefficients
    p = beta.shape[0]
    v0 = prior.coef_precision
    diff = beta - prior.coef_mean
    lp_beta = -0.5 * p * math.log(2.0 * math.pi / v0) - 0.5 * v0 * float(diff @ diff)
    lp_scale = inverse_gamma_log_pdf(prior.scale_params, params.scale)
    value = log_likelihood(data, params) + lp_beta + lp_scale
    if not math.isfinite(value):
        raise NumericalError("non-finite log-posterior")
    return value
