"""Synthetic-data generation and the replication study harness.

Every variate comes from the counter-based streams of `numerics`
(`uniform_stream`): a pure function of (seed, replicate, role, index), so
the generated datasets are identical across platforms and never shift when
methods are added to a study. Logistic and censoring draws invert their
CDFs and normal draws go through the rational-approximation normal quantile.
A study generates each block of replicates as one DatasetStack: each
role's streams for the whole block in one pass, and every transform on
(R, n) arrays except X beta, one product per replicate. A replicate's data
are the same bits in any block, and `generate_dataset` is the block of one.

The estimators are one table, `_METHODS`: per name (vb, mle, mcmc, in the
order reports list them), a function that fits a DatasetStack, one result
or NumericalError per replicate, and one that summarizes those. A study
block and the CLI's `fit` and `compare` (a block of one) run it through
`fit_summaries`. The chain of replicate i gets the seed `stream_seed(seed,
i, ROLE_MCMC)`, whose stream `reference.sample_posterior` reads, so a study
has one source of randomness.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .cavi import FitConfig, fit_batch
from .exceptions import DataError, NumericalError
from .model import DatasetStack, PriorSpec, SurvivalDataset, _readonly
from .numerics import (ROLE_CENSOR, ROLE_MCMC, ROLE_NOISE, ROLE_X1, ROLE_X2, _stream_keys,
                       _uniform_streams, normal_quantile)
from .posterior import _etis, hdi_from_draws, summarize_scale
from .reference import (MCMC_BURN_IN, MCMC_ITERATIONS, check_chain_length, fit_mle_batch,
                        sample_posterior)

__all__ = [
    "SimulationScenario",
    "ParameterStats",
    "ReplicationReport",
    "WEAK_PRIOR",
    "STRONG_PRIOR",
    "generate_dataset",
    "aggregate_estimates",
    "check_methods",
    "fit_summaries",
    "summarize_fits",
    "run_replication",
    "write_report_csv",
    "format_table",
    "report_text_table",
]

# Simulation priors for the three-covariate study model.
WEAK_PRIOR = PriorSpec(coef_mean=np.zeros(3), coef_precision=0.1,
                       scale_shape=11.0, scale_rate=10.0)
STRONG_PRIOR = PriorSpec(coef_mean=np.array([0.3, 0.1, 1.0]), coef_precision=0.15,
                         scale_shape=11.0, scale_rate=8.0)

# Replicates a study generates and fits at a time: the VB and MLE fits of a
# block run as one batch. At n = 300, blocks of 50 ran a 200-replicate study
# as fast as blocks of 100 or 200, and a block holds ~0.4 MB of covariates.
_BLOCK_SIZE = 50

# The level of every interval a study summary reports.
_LEVEL = 0.95


def stream_seed(seed: int, replicate: int, role: int) -> int:
    """A derived integer seed (e.g. for the Metropolis sampler)."""
    return int(_stream_keys(seed, [replicate], role)[0])


@dataclass(frozen=True)
class SimulationScenario:
    """Data-generating configuration for one study cell.

    censor_bound is the finite upper limit u of the Uniform(0, u) censoring
    times; zero disables censoring entirely.
    """

    n: int
    censor_bound: float = 0.0
    n_replicates: int = 500
    seed: int = 0
    true_coefficients: np.ndarray = field(
        default_factory=lambda: np.array([0.5, 0.2, 0.8]))
    true_scale: float = 0.8

    def __post_init__(self):
        if self.n < 1 or self.n_replicates < 1:
            raise ValueError("n and n_replicates must be at least 1")
        if not 0 <= self.censor_bound < np.inf:
            raise ValueError(f"censor_bound must be nonnegative and finite, "
                             f"got {self.censor_bound}")
        if not 0 < self.true_scale < np.inf:
            raise ValueError(f"true_scale must be positive and finite, got {self.true_scale}")
        coefficients = _readonly(self.true_coefficients)
        if coefficients.shape != (3,) or not np.isfinite(coefficients).all():
            raise ValueError("true_coefficients must be 3 finite numbers (intercept, x1, x2), "
                             f"got {self.true_coefficients!r}")
        object.__setattr__(self, "true_coefficients", coefficients)

    @property
    def true_values(self) -> np.ndarray:
        return np.append(self.true_coefficients, self.true_scale)


def generate_dataset(scenario: SimulationScenario, replicate_index: int) -> SurvivalDataset:
    """One synthetic dataset: x1 ~ N(1, 0.2^2), x2 ~ Bernoulli(1/2),
    logistic noise, and Uniform(0, u) right censoring when u > 0. It is the
    block of one of `_generate_block`."""
    stack, observed = _generate_block(scenario, [replicate_index])
    return SurvivalDataset(time=observed[0], event=stack.event[0],
                           covariates=stack.covariates[0])


def _generate_block(scenario: SimulationScenario, indices) -> tuple:
    """The replicates at `indices` as one DatasetStack, plus their observed
    times, (R, n). Each role's streams are drawn for the whole block at once
    and transformed as (R, n) arrays; only X beta is one product per
    replicate, since NumPy does not promise that a stacked product rounds
    as a single one does. Row j is
    `generate_dataset(scenario, indices[j])` bit for bit. Raises DataError,
    as SurvivalDataset would, on covariates or observed times that are not
    finite or not positive."""
    n, seed, R = scenario.n, scenario.seed, len(indices)
    x1 = 1.0 + 0.2 * normal_quantile(_uniform_streams(seed, indices, ROLE_X1, n))
    x2 = (_uniform_streams(seed, indices, ROLE_X2, n) < 0.5).astype(float)
    u_noise = _uniform_streams(seed, indices, ROLE_NOISE, n)
    z = np.log(u_noise / (1.0 - u_noise))
    X = np.stack([np.ones((R, n)), x1, x2], axis=-1)
    linear = np.stack([Xj @ scenario.true_coefficients for Xj in X])
    with np.errstate(over="ignore"):  # an overflow is the DataError below
        event_time = np.exp(linear + scenario.true_scale * z)
    if scenario.censor_bound > 0:
        censor_time = scenario.censor_bound * _uniform_streams(seed, indices, ROLE_CENSOR, n)
        observed = np.minimum(event_time, censor_time)
        event = (event_time <= censor_time).astype(float)
    else:
        observed = event_time
        event = np.ones((R, n))
    if not np.all(np.isfinite(X)):
        raise DataError("covariates must be finite")
    if np.any(observed <= 0) or not np.all(np.isfinite(observed)):
        raise DataError("observed times must be positive and finite")
    return DatasetStack(np.log(observed), event, X, event.sum(axis=-1)), observed


@dataclass(frozen=True)
class ParameterStats:
    parameter: str
    bias: float
    sample_sd: float
    mse: float
    coverage_percent: float
    avg_interval_length: float


@dataclass(frozen=True)
class ReplicationReport:
    """One method's study. n_nonconverged counts the fits included in the
    statistics that did not settle: VB fits stopped by the iteration cap and
    Metropolis chains flagged with a warning (an MLE that does not converge
    raises and counts as a failure instead). n_cycles counts the VB fits
    that stopped by cycle detection; they are kept as converged, so they are
    not in n_nonconverged, and the other methods never count any."""

    method: str
    stats: tuple
    n_replicates: int
    n_failures: int
    wall_time: float
    n_nonconverged: int
    n_cycles: int


def aggregate_estimates(estimates: np.ndarray, intervals: np.ndarray,
                        truth: np.ndarray, names: list[str]) -> tuple:
    """Bias, sample SD, MSE, closed-interval coverage and average length,
    parameter by parameter. Each statistic is one reduction over the rows of
    the transposed block: a contiguous row rounds as its column alone does,
    where a reduction along axis 0 may not."""
    est = np.ascontiguousarray(estimates.T)
    low, high = np.ascontiguousarray(intervals.transpose(2, 1, 0))
    t = truth[:, None]
    bias = est.mean(axis=1) - truth
    sd = est.std(axis=1, ddof=1) if est.shape[1] > 1 else np.zeros(len(names))
    mse = ((t - est) ** 2).mean(axis=1)
    coverage = 100.0 * ((low <= t) & (t <= high)).mean(axis=1)
    length = (high - low).mean(axis=1)
    return tuple(ParameterStats(name, *map(float, row))
                 for name, *row in zip(names, bias, sd, mse, coverage, length))


def _vb_summaries(fits) -> list:
    # a VB fit's scale summary stands in for the fit where it failed
    scales = summarize_scale(fits, _LEVEL)
    kept = [fit for fit, scale in zip(fits, scales) if not isinstance(scale, NumericalError)]
    etis = iter(_etis(kept, normal_quantile(0.5 * (1.0 + _LEVEL))) if kept else ())
    out = []
    for fit, scale in zip(fits, scales):
        if isinstance(scale, NumericalError):
            out.append(scale)
            continue
        rows = [(f"beta{j}", *eti, "ETI") for j, eti in enumerate(next(etis))]
        rows.append(("scale", scale.mean, scale.sd, scale.interval_low,
                     scale.interval_high, scale.interval_kind))
        note = (None if fit.converged else
                f"stopped at the iteration cap after {fit.iterations} iterations")
        out.append((rows, note, fit.stop_reason == "cycle"))
    return out


def _each(summary):
    """Summarizes fits one at a time, passing errors through."""
    return lambda fits: [fit if isinstance(fit, NumericalError) else summary(fit)
                         for fit in fits]


def _mle_summary(fit) -> tuple:
    se = np.sqrt(np.diag(fit.covariance))
    ends = fit.wald_intervals(_LEVEL)
    rows = [(f"beta{j}", float(m), float(s), *iv, "Wald")
            for j, (m, s, iv) in enumerate(zip(fit.coefficients, se, ends))]
    rows.append(("scale", fit.scale, fit.scale_se, *ends[-1], "Wald-log"))
    return rows, None, False


def _mcmc_summary(chain) -> tuple:
    q = [50.0 - 50.0 * _LEVEL, 50.0 + 50.0 * _LEVEL]
    rows = [(f"beta{j}", float(d.mean()), float(d.std(ddof=1)),
             *map(float, np.percentile(d, q)), "ETI")
            for j, d in enumerate(chain.coefficient_draws.T)]
    d = chain.scale_draws
    rows.append(("scale", float(d.mean()), float(d.std(ddof=1)),
                 *hdi_from_draws(d, _LEVEL), "HDI"))
    return rows, chain.warning, False


def _chains(stack, prior, config, chain) -> list:
    """One chain per replicate; a stack of one runs as it is, with its start."""
    n_iterations, burn_in, seeds = chain
    return [sample_posterior(stack if len(stack) == 1 else stack.take([j]), prior,
                             n_iterations, burn_in, seed) for j, seed in enumerate(seeds)]


# Each fit looks fit_batch, fit_mle_batch or sample_posterior up by its name
# here when it runs, so a patched or traced one is the one called.
_METHODS = {
    "vb": (lambda stack, prior, config, chain: fit_batch(stack, prior, config), _vb_summaries),
    "mle": (lambda stack, prior, config, chain: fit_mle_batch(stack), _each(_mle_summary)),
    "mcmc": (_chains, _each(_mcmc_summary)),
}


def summarize_fits(method: str, fits) -> list:
    """One summary per fit of `method`, in order: (rows, note, cycled), or
    the fit's NumericalError passed through.

    rows are (parameter, mean, sd, low, high, kind), beta0, beta1, ... and
    then the scale, with intervals at the level `_LEVEL` (95%). VB gives
    the ETI for beta and the HDI for b, both for all fits at once (the
    scales in one `summarize_scale` call); the MLE Wald intervals, on the
    log scale for b; Metropolis each column's draw mean and SD, percentile
    ETIs for beta and `hdi_from_draws` for b.
    note says why a fit did not settle: "stopped at the iteration cap after
    N iterations" for a VB fit, the sampler's warning for a flagged chain,
    and None for a fit that settled. cycled marks a VB fit stopped by cycle
    detection."""
    return _METHODS[method][1](list(fits))


def fit_summaries(method: str, stack: DatasetStack, prior: PriorSpec, config: FitConfig,
                  chain: tuple | None) -> list:
    """`summarize_fits` of `method`'s fits of the stack, one per replicate;
    chain = (n_iterations, burn_in, a seed per replicate) runs mcmc."""
    fit, summarize = _METHODS[method]
    return summarize(fit(stack, prior, config, chain))


def check_methods(methods) -> list:
    """The method names lower-cased, each once, in the order of first
    mention; raises ValueError when there are none or one is not vb, mle or
    mcmc."""
    methods = list(dict.fromkeys(m.lower() for m in methods))
    if not methods or not set(methods) <= set(_METHODS):
        raise ValueError(f"methods must be a nonempty list from {','.join(_METHODS)}, "
                         f"got {','.join(methods)!r}")
    return methods


def run_replication(scenario: SimulationScenario, prior: PriorSpec,
                    methods=("vb", "mle"), config: FitConfig | None = None,
                    mcmc_iterations: int = MCMC_ITERATIONS, mcmc_burn_in: int = MCMC_BURN_IN,
                    max_failure_rate: float = 0.01) -> list[ReplicationReport]:
    """Run the study: generate each replicate once, fit every requested
    method on it, and aggregate bias/SD/MSE/coverage/length per parameter.

    Replicates are generated in blocks of `_BLOCK_SIZE`, each as one
    DatasetStack, and each method fits and summarizes a block in one
    `fit_summaries` call. Replicates on which a method breaks down
    numerically are excluded from that method's aggregate; more than
    `max_failure_rate` of them, or all of them, fails the whole run with
    NumericalError. A method's report is read from its list of outcomes:
    kept fits with a note (they did not settle) count in `n_nonconverged`,
    and VB fits stopped in a cycle in `n_cycles`.
    An empty or unknown method list, or an MCMC run that keeps fewer than two
    draws, raises ValueError before any work.
    """
    methods = check_methods(methods)
    if "mcmc" in methods:
        check_chain_length(mcmc_iterations, mcmc_burn_in)
    methods = tuple(m for m in _METHODS if m in methods)
    config = config or FitConfig()
    p = scenario.true_coefficients.shape[0]
    names = [f"beta{j}" for j in range(p)] + ["scale"]
    truth = scenario.true_values

    outcomes = {m: [] for m in methods}
    wall_time = dict.fromkeys(methods, 0.0)
    for first in range(0, scenario.n_replicates, _BLOCK_SIZE):
        indices = range(first, min(first + _BLOCK_SIZE, scenario.n_replicates))
        block, _ = _generate_block(scenario, indices)
        chain = (mcmc_iterations, mcmc_burn_in,
                 _stream_keys(scenario.seed, indices, ROLE_MCMC).tolist())
        for m in methods:
            start = time.perf_counter()
            outcomes[m] += fit_summaries(m, block, prior, config, chain)
            wall_time[m] += time.perf_counter() - start

    reports = []
    for m in methods:
        failed = [o for o in outcomes[m] if isinstance(o, NumericalError)]
        kept = [o for o in outcomes[m] if not isinstance(o, NumericalError)]
        if len(failed) > max_failure_rate * scenario.n_replicates or not kept:
            err = NumericalError(f"method {m} failed on {len(failed)}/{scenario.n_replicates} "
                                 f"replicates; the first failure: {failed[0]}")
            err.method = m
            raise err
        stats = aggregate_estimates(np.array([[row[1] for row in rows] for rows, *_ in kept]),
                                    np.array([[row[3:5] for row in rows] for rows, *_ in kept]),
                                    truth, names)
        reports.append(ReplicationReport(
            method=m, stats=stats, n_replicates=len(kept), n_failures=len(failed),
            wall_time=wall_time[m],
            n_nonconverged=sum(note is not None for _, note, _ in kept),
            n_cycles=sum(cycled for *_, cycled in kept),
        ))
    return reports


def _fmt(x: float) -> str:
    return repr(float(x))


def write_report_csv(path, reports, scenario: SimulationScenario,
                     prior: PriorSpec) -> None:
    """Serialize reports with a run-metadata header block. Output bytes are a
    pure function of scenario, prior and results (timings stay out)."""
    lines = [
        "# llaft replication report",
        f"# scenario: n={scenario.n} censor_bound={_fmt(scenario.censor_bound)}"
        f" replicates={scenario.n_replicates} seed={scenario.seed}",
        f"# true: coefficients={','.join(_fmt(v) for v in scenario.true_coefficients)}"
        f" scale={_fmt(scenario.true_scale)}",
        f"# prior: mean={','.join(_fmt(v) for v in prior.coef_mean)}"
        f" precision={_fmt(prior.coef_precision)}"
        f" shape={_fmt(prior.scale_shape)} rate={_fmt(prior.scale_rate)}",
        f"# methods: {','.join(r.method for r in reports)}",
        f"# failures: {' '.join(f'{r.method}={r.n_failures}' for r in reports)}",
        f"# nonconverged: {' '.join(f'{r.method}={r.n_nonconverged}' for r in reports)}",
        f"# cycles: {' '.join(f'{r.method}={r.n_cycles}' for r in reports)}",
        "method,parameter,bias,sd,mse,coverage,avg_length",
    ]
    for rep in reports:
        for s in rep.stats:
            lines.append(
                f"{rep.method},{s.parameter},{_fmt(s.bias)},{_fmt(s.sample_sd)},"
                f"{_fmt(s.mse)},{_fmt(s.coverage_percent)},{_fmt(s.avg_interval_length)}")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _fmt6(x: float) -> str:
    return f"{x:.6g}"


def format_table(rows) -> str:
    """Rows of string cells as left-justified columns, each as wide as its
    widest cell, joined by two spaces; the first row is the header."""
    widths = [max(len(row[j]) for row in rows) for j in range(len(rows[0]))]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths))
                     for row in rows)


def report_text_table(reports, scenario: SimulationScenario) -> str:
    """Fixed-width summary table, six significant digits."""
    header = (f"replication study: n={scenario.n}, censoring bound="
              f"{_fmt6(scenario.censor_bound)}, replicates={scenario.n_replicates}, "
              f"seed={scenario.seed}")
    rows = [("method", "parameter", "bias", "sd", "mse", "coverage%", "avg_len")]
    for rep in reports:
        for s in rep.stats:
            rows.append((rep.method, s.parameter, _fmt6(s.bias), _fmt6(s.sample_sd),
                         _fmt6(s.mse), _fmt6(s.coverage_percent),
                         _fmt6(s.avg_interval_length)))
    body = format_table(rows)
    nonconverged = "  ".join(f"{r.method}: {r.n_nonconverged}" for r in reports)
    cycles = "  ".join(f"{r.method}: {r.n_cycles}" for r in reports)
    times = "  ".join(f"{r.method}: {r.wall_time:.2f}s" for r in reports)
    return (f"{header}\n{body}\nnonconverged  {nonconverged}\ncycles  {cycles}\n"
            f"wall time  {times}\n")
