"""Synthetic-data generation and the replication study harness.

Draw streams are counter-based: every variate is a pure function of
(seed, replicate, role, index) through a SplitMix64-style bit mixer, so the
generated datasets are identical across platforms and never shift when
methods are added to a study. Uniforms come from the top 53 bits; logistic
and censoring draws invert their CDFs and normal draws go through the
rational-approximation normal quantile.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .cavi import FitConfig, fit_batch
from .exceptions import NumericalError
from .model import PriorSpec, SurvivalDataset, _readonly
from .numerics import normal_quantile
from .posterior import hdi_from_draws, summarize_coefficients, summarize_scale
from .reference import fit_mle_batch, sample_posterior

__all__ = [
    "SimulationScenario",
    "ParameterStats",
    "ReplicationReport",
    "WEAK_PRIOR",
    "STRONG_PRIOR",
    "uniform_stream",
    "generate_dataset",
    "aggregate_estimates",
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

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_U30, _U27, _U31, _U11 = (np.uint64(30), np.uint64(27), np.uint64(31), np.uint64(11))

ROLE_X1, ROLE_X2, ROLE_NOISE, ROLE_CENSOR, ROLE_MCMC = range(5)

# Replicates a study generates and fits at a time: the VB and MLE fits of a
# block run as one batch. At n = 300, blocks of 50 ran a 200-replicate study
# as fast as blocks of 100 or 200, and a block holds ~0.4 MB of covariates.
_BLOCK_SIZE = 50


def _mix64(z: np.ndarray) -> np.ndarray:
    # uint64 array arithmetic wraps silently, which is exactly what we want
    z = (z ^ (z >> _U30)) * np.uint64(_MIX1)
    z = (z ^ (z >> _U27)) * np.uint64(_MIX2)
    return z ^ (z >> _U31)


def _mix64_int(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _stream_key(seed: int, replicate: int, role: int) -> int:
    k = _mix64_int(((seed & _MASK64) * _GOLDEN + _GOLDEN) & _MASK64)
    k = _mix64_int((k + replicate * _GOLDEN) & _MASK64)
    return _mix64_int((k + role * _GOLDEN) & _MASK64)


def uniform_stream(seed: int, replicate: int, role: int, n: int) -> np.ndarray:
    """n uniforms in (0, 1), a pure function of (seed, replicate, role)."""
    key = _stream_key(seed, replicate, role)
    idx = np.arange(1, n + 1, dtype=np.uint64)
    bits = _mix64(np.uint64(key) + idx * np.uint64(_GOLDEN))
    return ((bits >> _U11).astype(np.float64) + 0.5) * (2.0 ** -53)


def stream_seed(seed: int, replicate: int, role: int) -> int:
    """A derived integer seed (e.g. for the Metropolis sampler)."""
    return _stream_key(seed, replicate, role)


@dataclass(frozen=True)
class SimulationScenario:
    """Data-generating configuration for one study cell.

    censor_bound is the upper limit u of the Uniform(0, u) censoring times;
    zero disables censoring entirely.
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
        if self.censor_bound < 0:
            raise ValueError("censor_bound must be nonnegative")
        object.__setattr__(self, "true_coefficients", _readonly(self.true_coefficients))

    @property
    def true_values(self) -> np.ndarray:
        return np.append(self.true_coefficients, self.true_scale)


def generate_dataset(scenario: SimulationScenario, replicate_index: int) -> SurvivalDataset:
    """One synthetic dataset: x1 ~ N(1, 0.2^2), x2 ~ Bernoulli(1/2),
    logistic noise, and Uniform(0, u) right censoring when u > 0."""
    n, seed = scenario.n, scenario.seed
    x1 = 1.0 + 0.2 * normal_quantile(uniform_stream(seed, replicate_index, ROLE_X1, n))
    x2 = (uniform_stream(seed, replicate_index, ROLE_X2, n) < 0.5).astype(float)
    u_noise = uniform_stream(seed, replicate_index, ROLE_NOISE, n)
    z = np.log(u_noise / (1.0 - u_noise))
    X = np.column_stack([np.ones(n), x1, x2])
    event_time = np.exp(X @ scenario.true_coefficients + scenario.true_scale * z)
    if scenario.censor_bound > 0:
        censor_time = scenario.censor_bound * uniform_stream(
            seed, replicate_index, ROLE_CENSOR, n)
        observed = np.minimum(event_time, censor_time)
        event = (event_time <= censor_time).astype(float)
    else:
        observed = event_time
        event = np.ones(n)
    return SurvivalDataset(time=observed, event=event, covariates=X)


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
    parameter by parameter."""
    out = []
    n = estimates.shape[0]
    for j, name in enumerate(names):
        est = estimates[:, j]
        bias = float(est.mean() - truth[j])
        sd = float(est.std(ddof=1)) if n > 1 else 0.0
        mse = float(np.mean((truth[j] - est) ** 2))
        inside = (intervals[:, j, 0] <= truth[j]) & (truth[j] <= intervals[:, j, 1])
        out.append(ParameterStats(
            parameter=name,
            bias=bias,
            sample_sd=sd,
            mse=mse,
            coverage_percent=float(100.0 * inside.mean()),
            avg_interval_length=float(np.mean(intervals[:, j, 1] - intervals[:, j, 0])),
        ))
    return tuple(out)


# Each _fit_* returns one outcome per dataset: (estimates, intervals,
# settled, cycled), where settled is False for a fit that is kept but did not
# converge and cycled is True for a VB fit stopped by cycle detection, or the
# NumericalError that ruled the replicate out.

def _fit_vb(datasets, prior, config, level):
    outcomes = []
    for state in fit_batch(datasets, prior, config):
        if isinstance(state, NumericalError):
            outcomes.append(state)
            continue
        try:
            coef = summarize_coefficients(state, level)
            scale = summarize_scale(state, level)
        except NumericalError as exc:
            outcomes.append(exc)
            continue
        est = np.array([s.mean for s in coef] + [scale.mean])
        iv = np.array([[s.interval_low, s.interval_high] for s in coef]
                      + [[scale.interval_low, scale.interval_high]])
        outcomes.append((est, iv, state.converged, state.stop_reason == "cycle"))
    return outcomes


def _fit_mle(datasets, level):
    outcomes = []
    for res in fit_mle_batch(datasets):
        if isinstance(res, NumericalError):
            outcomes.append(res)
        else:
            est = np.append(res.coefficients, res.scale)
            outcomes.append((est, np.array(res.wald_intervals(level)), True, False))
    return outcomes


def _fit_mcmc(data, prior, level, seed, n_iterations, burn_in):
    try:
        chain = sample_posterior(data, prior, n_iterations, burn_in, seed)
    except NumericalError as exc:
        return exc
    qs = [100.0 * (1.0 - level) / 2.0, 100.0 * (1.0 + level) / 2.0]
    est = chain.draws.mean(axis=0)
    iv = [np.percentile(chain.coefficient_draws[:, j], qs)
          for j in range(chain.coefficient_draws.shape[1])]
    iv.append(hdi_from_draws(chain.scale_draws, level))
    return est, np.asarray(iv), chain.warning is None, False


def run_replication(scenario: SimulationScenario, prior: PriorSpec,
                    methods=("vb", "mle"), config: FitConfig | None = None,
                    level: float = 0.95, mcmc_iterations: int = 5000,
                    mcmc_burn_in: int = 1000,
                    max_failure_rate: float = 0.01) -> list[ReplicationReport]:
    """Run the study: generate each replicate once, fit every requested
    method on it, and aggregate bias/SD/MSE/coverage/length per parameter.

    Replicates are generated in blocks of `_BLOCK_SIZE`; VB and the MLE fit
    a block as one batch, Metropolis one replicate at a time. Replicates on
    which a method breaks down numerically are excluded from that method's
    aggregate; more than `max_failure_rate` of them fails the whole run. Fits
    that are kept but did not converge are counted in each report's
    `n_nonconverged`, and VB fits stopped by cycle detection in `n_cycles`.
    """
    methods = tuple(m.lower() for m in methods)
    known = {"vb", "mle", "mcmc"}
    if not set(methods) <= known:
        raise ValueError(f"unknown methods: {set(methods) - known}")
    methods = tuple(m for m in ("vb", "mle", "mcmc") if m in methods)
    config = config or FitConfig()
    p = scenario.true_coefficients.shape[0]
    names = [f"beta{j}" for j in range(p)] + ["scale"]
    truth = scenario.true_values

    per_method = {m: {"est": [], "iv": [], "failures": 0, "nonconverged": 0,
                      "cycles": 0, "time": 0.0}
                  for m in methods}
    for first in range(0, scenario.n_replicates, _BLOCK_SIZE):
        indices = range(first, min(first + _BLOCK_SIZE, scenario.n_replicates))
        block = [generate_dataset(scenario, i) for i in indices]
        for m in methods:
            bucket = per_method[m]
            start = time.perf_counter()
            if m == "vb":
                outcomes = _fit_vb(block, prior, config, level)
            elif m == "mle":
                outcomes = _fit_mle(block, level)
            else:
                outcomes = [_fit_mcmc(data, prior, level,
                                      stream_seed(scenario.seed, i, ROLE_MCMC),
                                      mcmc_iterations, mcmc_burn_in)
                            for i, data in zip(indices, block)]
            for outcome in outcomes:
                if isinstance(outcome, NumericalError):
                    bucket["failures"] += 1
                    continue
                est, iv, settled, cycled = outcome
                bucket["est"].append(est)
                bucket["iv"].append(iv)
                bucket["nonconverged"] += not settled
                bucket["cycles"] += cycled
            bucket["time"] += time.perf_counter() - start

    reports = []
    for m in methods:
        bucket = per_method[m]
        failures = bucket["failures"]
        if failures > max_failure_rate * scenario.n_replicates:
            raise NumericalError(
                f"method {m} failed on {failures}/{scenario.n_replicates} replicates")
        stats = aggregate_estimates(np.asarray(bucket["est"]),
                                    np.asarray(bucket["iv"]), truth, names)
        reports.append(ReplicationReport(
            method=m, stats=stats,
            n_replicates=scenario.n_replicates - failures,
            n_failures=failures,
            wall_time=bucket["time"],
            n_nonconverged=bucket["nonconverged"],
            n_cycles=bucket["cycles"],
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
