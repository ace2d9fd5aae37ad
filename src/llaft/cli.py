"""Command-line interface: fit, replicate, approx-check, compare.

Exit codes: 0 success, 1 numerical failure, 2 usage or I/O error. All output
is deterministic for fixed flags and seed; text tables print six significant
digits while CSV files carry full precision.
"""
from __future__ import annotations

import argparse
import csv
import sys
import time
from dataclasses import replace

import numpy as np

from .cavi import FitConfig, fit
from .exceptions import DataError, NumericalError
from .model import PriorSpec, SurvivalDataset
from .piecewise import (LINEAR_KNOTS, fit_linear_breakpoints, softplus, softplus_linear,
                        softplus_quadratic, table_sse)
from .posterior import hdi_from_draws, summarize_coefficients, summarize_scale
from .reference import fit_mle, sample_posterior
from .simulate import (STRONG_PRIOR, WEAK_PRIOR, SimulationScenario, _fmt6, format_table,
                       report_text_table, run_replication, write_report_csv)

__all__ = ["ingest_csv", "load_config", "main"]


def ingest_csv(path) -> SurvivalDataset:
    """Load a dataset from CSV with required columns `time` and `status`.

    Every other column is taken as a covariate, order preserved, with an
    intercept column prepended. Rows violating the domain (time <= 0, status
    not 0/1, unparsable numbers) raise DataError naming the line.
    """
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if "time" not in header or "status" not in header:
            raise DataError(f"{path}: header must contain 'time' and 'status', got {header}")
        t_col = header.index("time")
        s_col = header.index("status")
        cov_cols = [j for j in range(len(header)) if j not in (t_col, s_col)]

        times, events, rows = [], [], []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise DataError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            try:
                t = float(row[t_col])
            except ValueError:
                raise DataError(f"{path}:{lineno}: bad time value {row[t_col]!r}") from None
            if not t > 0:
                raise DataError(f"{path}:{lineno}: time must be positive, got {t}")
            s = row[s_col].strip()
            if s not in ("0", "1"):
                raise DataError(f"{path}:{lineno}: status must be 0 or 1, got {s!r}")
            try:
                cov = [float(row[j]) for j in cov_cols]
            except ValueError:
                raise DataError(f"{path}:{lineno}: bad covariate value") from None
            times.append(t)
            events.append(float(s))
            rows.append(cov)

    if not times:
        raise DataError(f"{path}: no data rows")
    X = np.column_stack([np.ones(len(times)), np.asarray(rows, dtype=float)])
    return SurvivalDataset(time=np.asarray(times), event=np.asarray(events),
                           covariates=X)


def load_config(path) -> dict:
    """Flat key = value configuration file; '#' starts a comment."""
    out = {}
    try:
        fh = open(path)
    except OSError as exc:
        raise DataError(f"cannot open config {path}: {exc}") from exc
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DataError(f"{path}:{lineno}: expected key = value, got {raw!r}")
            key, value = line.split("=", 1)
            out[key.strip().replace("-", "_")] = value.strip()
    return out


_CONFIG_KEYS = {
    "prior_mean": str, "prior_precision": float, "prior_shape": float,
    "prior_rate": float, "prior_preset": str, "elbo_tol": float, "max_iter": int,
    "methods": str, "n": int, "censor_u": float, "replicates": int,
    "seed": int, "out": str, "mcmc_iterations": int, "mcmc_burn_in": int,
}


def _merged(args: argparse.Namespace) -> argparse.Namespace:
    """Config-file values fill in flags the user did not pass."""
    if not getattr(args, "config", None):
        return args
    cfg = load_config(args.config)
    for key, value in cfg.items():
        if key not in _CONFIG_KEYS:
            raise DataError(f"unknown config key {key!r}")
        if getattr(args, key, None) is None:
            try:
                setattr(args, key, _CONFIG_KEYS[key](value))
            except ValueError:
                raise DataError(f"config key {key!r}: bad value {value!r}") from None
    return args


def _given(args, **flags) -> dict:
    """The flags that were set, on the command line or in the config file,
    as keyword arguments named by `flags` (keyword=flag); the library's own
    defaults fill in the rest."""
    return {kw: getattr(args, flag) for kw, flag in flags.items()
            if getattr(args, flag, None) is not None}


def _build_prior(args, p: int) -> PriorSpec:
    """The preset, or the weak prior with a zero mean, as the base; explicit
    prior flags override it."""
    preset = getattr(args, "prior_preset", None)
    if preset:
        if preset not in ("weak", "strong"):
            raise DataError(f"unknown prior preset {preset!r}")
        base = WEAK_PRIOR if preset == "weak" else STRONG_PRIOR
        if p != base.coef_mean.shape[0]:
            raise DataError(f"prior preset {preset!r} expects p=3, data has p={p}")
        mean = base.coef_mean
    else:
        base, mean = WEAK_PRIOR, np.zeros(p)
    if args.prior_mean is not None:
        mean = np.array([float(v) for v in str(args.prior_mean).split(",")])
        if mean.shape[0] == 1:
            mean = np.full(p, mean[0])
        if mean.shape[0] != p:
            raise DataError(f"prior mean needs {p} entries, got {mean.shape[0]}")
    return replace(base, coef_mean=mean, **_given(
        args, coef_precision="prior_precision", scale_shape="prior_shape",
        scale_rate="prior_rate"))


def _default_prior_hint(args) -> str:
    """A clause for a numerical failure of a fit that ran on the default
    prior, which no prior flag, config key or preset changed."""
    if any(getattr(args, key, None) is not None for key in (
            "prior_mean", "prior_precision", "prior_shape", "prior_rate", "prior_preset")):
        return ""
    return (f"; the default prior (mean 0, precision {WEAK_PRIOR.coef_precision:g}, "
            f"shape {WEAK_PRIOR.scale_shape:g}, rate {WEAK_PRIOR.scale_rate:g}) may not "
            "suit the data: set --prior-mean, --prior-shape, --prior-rate or --prior-preset")


def _fit_config(args) -> FitConfig:
    return FitConfig(**_given(args, elbo_tolerance="elbo_tol", max_iterations="max_iter"))


def _method_summaries(method, data, prior, config, args):
    """[(parameter, mean, sd, low, high, kind)] plus the elapsed time."""
    names = [f"beta{j}" for j in range(data.p)]
    start = time.perf_counter()
    if method == "vb":
        state = fit(data, prior, config)
        coef = summarize_coefficients(state, names=names)
        scale = summarize_scale(state)
        rows = [(s.name, s.mean, s.sd, s.interval_low, s.interval_high, s.interval_kind)
                for s in coef]
        rows.append((scale.name, scale.mean, scale.sd, scale.interval_low,
                     scale.interval_high, scale.interval_kind))
    elif method == "mle":
        res = fit_mle(data)
        se = np.sqrt(np.diag(res.covariance))
        ivs = res.wald_intervals()
        rows = [(names[j], float(res.coefficients[j]), float(se[j]),
                 ivs[j][0], ivs[j][1], "Wald") for j in range(data.p)]
        rows.append(("scale", res.scale, res.scale_se, ivs[-1][0], ivs[-1][1],
                     "Wald-log"))
    elif method == "mcmc":
        n_iter = args.mcmc_iterations if args.mcmc_iterations is not None else 5000
        burn = args.mcmc_burn_in if args.mcmc_burn_in is not None else 1000
        seed = args.seed if args.seed is not None else 0
        chain = sample_posterior(data, prior, n_iter, burn, seed)
        rows = []
        for j in range(data.p):
            d = chain.coefficient_draws[:, j]
            lo, hi = np.percentile(d, [2.5, 97.5])
            rows.append((names[j], float(d.mean()), float(d.std(ddof=1)),
                         float(lo), float(hi), "ETI"))
        sd_draws = chain.scale_draws
        lo, hi = hdi_from_draws(sd_draws)
        rows.append(("scale", float(sd_draws.mean()), float(sd_draws.std(ddof=1)),
                     lo, hi, "HDI"))
    else:
        raise DataError(f"unknown method {method!r}")
    return rows, time.perf_counter() - start


def _write_summary_csv(path, all_rows):
    with open(path, "w", newline="\n") as fh:
        fh.write("method,parameter,mean,sd,low,high,interval\n")
        for method, rows in all_rows:
            for name, mean, sd, lo, hi, kind in rows:
                fh.write(f"{method},{name},{mean!r},{sd!r},{lo!r},{hi!r},{kind}\n")


def cmd_fit(args) -> int:
    if not args.data:
        raise DataError("fit requires --data")
    data = ingest_csv(args.data)
    prior = _build_prior(args, data.p)
    config = _fit_config(args)
    methods = [m.strip().lower() for m in (args.methods or "vb").split(",") if m.strip()]
    all_rows = []
    for method in methods:
        rows, elapsed = _method_summaries(method, data, prior, config, args)
        all_rows.append((method, rows))
        print(f"[{method}] fit of {args.data} (n={data.n}, p={data.p}, events={data.r}), "
              f"{elapsed:.3f}s")
        print(format_table(
            [("parameter", "mean", "sd", "low", "high", "interval")]
            + [(n, _fmt6(m), _fmt6(s), _fmt6(lo), _fmt6(hi), kind)
               for n, m, s, lo, hi, kind in rows]))
        print()
    if args.out:
        _write_summary_csv(args.out, all_rows)
    return 0


def cmd_replicate(args) -> int:
    scenario = SimulationScenario(
        n=args.n if args.n is not None else 300,
        **_given(args, censor_bound="censor_u", n_replicates="replicates", seed="seed"))
    prior = _build_prior(args, 3)
    methods = [m.strip().lower() for m in (args.methods or "vb,mle").split(",") if m.strip()]
    reports = run_replication(
        scenario, prior, methods, config=_fit_config(args),
        **_given(args, mcmc_iterations="mcmc_iterations", mcmc_burn_in="mcmc_burn_in"))
    print(report_text_table(reports, scenario))
    if args.out:
        write_report_csv(args.out, reports, scenario, prior)
    return 0


def cmd_approx_check(args) -> int:
    grid_size = 10_000
    lin_sse, quad_sse = table_sse(grid_size)
    x = np.linspace(-8.0, 8.0, 100_001)
    exact = softplus(x)
    lin_max = float(np.max(np.abs(softplus_linear(x) - exact)))
    quad_max = float(np.max(np.abs(softplus_quadratic(x) - exact)))
    print("published-table audit on a 10000-point grid over [-5, 5]:")
    print(f"  linear    SSE {_fmt6(lin_sse)}   max|err| {_fmt6(lin_max)} on [-8, 8]")
    print(f"  quadratic SSE {_fmt6(quad_sse)}   max|err| {_fmt6(quad_max)} on [-8, 8]")

    print("segmented least-squares search (knots on a 0.05 lattice):")
    rows = [("breakpoints", "sse", "r_squared", "knots")]
    fit3 = None
    for k in range(1, 6):
        res = fit_linear_breakpoints(grid_size, k)
        if k == 3:
            fit3 = res
        rows.append((str(k), _fmt6(res.sse), f"{res.r_squared:.6f}",
                     ", ".join(_fmt6(b) for b in res.breakpoints)))
    print(format_table(rows))

    ok = (3.30 <= lin_sse <= 3.40 and 0.11 <= quad_sse <= 0.13
          and np.all(np.abs(fit3.breakpoints - LINEAR_KNOTS[1:4]) <= 0.1)
          and fit3.sse <= 3.40)
    print(f"audit {'passed' if ok else 'FAILED'}")
    return 0 if ok else 1


def cmd_compare(args) -> int:
    if not args.data:
        raise DataError("compare requires --data")
    data = ingest_csv(args.data)
    prior = _build_prior(args, data.p)
    config = _fit_config(args)
    timings = {}
    all_rows = []
    for method in ("vb", "mle", "mcmc"):
        rows, elapsed = _method_summaries(method, data, prior, config, args)
        timings[method] = elapsed
        all_rows.append((method, rows))
    header = ["parameter"]
    for method, _ in all_rows:
        header += [f"{method}:mean", f"{method}:sd", f"{method}:95%"]
    table = [header]
    for i, (name, *_) in enumerate(all_rows[0][1]):
        row = [name]
        for _, rows in all_rows:
            _, mean, sd, lo, hi, _ = rows[i]
            row += [_fmt6(mean), _fmt6(sd), f"[{_fmt6(lo)}, {_fmt6(hi)}]"]
        table.append(row)
    print(format_table(table))
    ratio = timings["mcmc"] / max(timings["vb"], 1e-9)
    print(f"\ntimings: vb {timings['vb']:.3f}s, mle {timings['mle']:.3f}s, "
          f"mcmc {timings['mcmc']:.3f}s  (mcmc/vb = {ratio:.0f}x)")
    if args.out:
        _write_summary_csv(args.out, all_rows)
    return 0


def _add_common(sp):
    sp.add_argument("--config", help="flat key = value configuration file")
    sp.add_argument("--prior-mean", dest="prior_mean",
                    help="comma-separated prior mean (scalar broadcasts)")
    sp.add_argument("--prior-precision", dest="prior_precision", type=float)
    sp.add_argument("--prior-shape", dest="prior_shape", type=float)
    sp.add_argument("--prior-rate", dest="prior_rate", type=float)
    sp.add_argument("--prior-preset", dest="prior_preset", choices=("weak", "strong"),
                    help="named simulation prior (3-covariate model)")
    sp.add_argument("--elbo-tol", dest="elbo_tol", type=float,
                    help="ELBO convergence threshold (default 0.01)")
    sp.add_argument("--max-iter", dest="max_iter", type=int,
                    help="iteration cap (default 100)")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--out", help="write results as CSV to this path")
    sp.add_argument("--mcmc-iterations", dest="mcmc_iterations", type=int)
    sp.add_argument("--mcmc-burn-in", dest="mcmc_burn_in", type=int)


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="llaft",
        description="Log-logistic AFT survival models: variational Bayes, "
                    "maximum likelihood and Metropolis inference.")
    sub = ap.add_subparsers(dest="command", required=True)

    fit_p = sub.add_parser("fit", help="fit estimators to a CSV dataset")
    fit_p.add_argument("--data", help="CSV with time,status and covariates")
    fit_p.add_argument("--methods", help="comma list from vb,mle,mcmc (default vb)")
    _add_common(fit_p)
    fit_p.set_defaults(func=cmd_fit)

    rep = sub.add_parser("replicate", help="run a simulation replication study")
    rep.add_argument("--n", type=int, help="sample size per replicate (default 300)")
    rep.add_argument("--censor-u", dest="censor_u", type=float,
                     help="upper bound of Uniform(0,u) censoring; 0 disables")
    rep.add_argument("--replicates", type=int, help="number of replicates (default 500)")
    rep.add_argument("--methods", help="comma list from vb,mle,mcmc (default vb,mle)")
    _add_common(rep)
    rep.set_defaults(func=cmd_replicate)

    apx = sub.add_parser("approx-check",
                         help="audit the piecewise softplus tables and re-derive knots")
    _add_common(apx)
    apx.set_defaults(func=cmd_approx_check)

    cmp_p = sub.add_parser("compare", help="fit vb, mle and mcmc side by side")
    cmp_p.add_argument("--data", help="CSV with time,status and covariates")
    _add_common(cmp_p)
    cmp_p.set_defaults(func=cmd_compare)
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        args = _merged(args)
        return args.func(args)
    except ValueError as exc:  # DataError and out-of-range flag values
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}{_default_prior_hint(args)}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
