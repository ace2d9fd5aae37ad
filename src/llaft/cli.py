"""Command-line interface: fit, replicate, approx-check, compare.

Exit codes: 0 success, 1 numerical failure, 2 usage or I/O error. All output
is deterministic for fixed flags and seed; text tables print six significant
digits while CSV files carry full precision.
"""
from __future__ import annotations

import argparse
import csv
import io
import math
import sys
import time
from dataclasses import replace
from functools import cache

import numpy as np

from .cavi import FitConfig, fit
from .exceptions import DataError, NumericalError
from .model import PriorSpec, SurvivalDataset
from .piecewise import LINEAR_KNOTS, fit_linear_breakpoints, table_max_error, table_sse
from .reference import (MCMC_BURN_IN, MCMC_ITERATIONS, MCMC_SEED, check_chain_length, fit_mle,
                        sample_posterior)
from .simulate import (STRONG_PRIOR, WEAK_PRIOR, SimulationScenario, _fmt6, check_methods,
                       format_table, report_text_table, run_replication, summarize_fits,
                       write_report_csv)

__all__ = ["ingest_csv", "load_config", "main"]


def ingest_csv(path) -> SurvivalDataset:
    """Load a dataset from UTF-8 CSV (a byte-order mark is skipped) whose
    header has the columns `time` and `status` once each, or raise DataError.

    Every other column is taken as a covariate, order preserved, with an
    intercept column prepended. Rows violating the domain (a time that is not
    positive and finite, status not 0/1, a covariate that is not finite,
    unparsable numbers) raise DataError naming the line; bytes that are not
    UTF-8 raise DataError naming the file.
    """
    try:
        with open(path, "rb") as fh:  # decoded whole, so an error has its file offset
            text = fh.read().decode("utf-8").removeprefix("\ufeff")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: byte 0x{exc.object[exc.start]:02x} "
                        f"at offset {exc.start}") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path}: empty file") from None
    header = [h.strip() for h in header]
    for name in ("time", "status"):
        if header.count(name) != 1:
            raise DataError(f"{path}: header must contain {name!r} once, got {header}")
    t_col, s_col = header.index("time"), header.index("status")
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
        if not 0 < t < math.inf:
            raise DataError(f"{path}:{lineno}: time must be positive and finite, got {t}")
        s = row[s_col].strip()
        if s not in ("0", "1"):
            raise DataError(f"{path}:{lineno}: status must be 0 or 1, got {s!r}")
        try:
            cov = [float(row[j]) for j in cov_cols]
        except ValueError:
            raise DataError(f"{path}:{lineno}: bad covariate value") from None
        if not all(map(math.isfinite, cov)):
            raise DataError(f"{path}:{lineno}: covariates must be finite, got {cov}")
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
        if not hasattr(args, key):
            raise DataError(f"config key {key!r} is not taken by {args.command}")
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


_PRESETS = {"weak": WEAK_PRIOR, "strong": STRONG_PRIOR}


def _build_prior(args, p: int) -> PriorSpec:
    """The preset, or the weak prior with a zero mean, as the base; explicit
    prior flags override it."""
    preset = getattr(args, "prior_preset", None)
    if preset:
        if preset not in _PRESETS:
            raise DataError(f"unknown prior preset {preset!r}")
        base = _PRESETS[preset]
        if p != base.coef_mean.shape[0]:
            raise DataError(f"prior preset {preset!r} expects p=3, data has p={p}")
        mean = base.coef_mean
    else:
        base, mean = WEAK_PRIOR, np.zeros(p)
    if args.prior_mean is not None:
        try:
            mean = np.array([float(v) for v in str(args.prior_mean).split(",")])
        except ValueError:
            raise DataError(f"prior mean must be comma-separated numbers, "
                            f"got {args.prior_mean!r}") from None
        if mean.shape[0] == 1:
            mean = np.full(p, mean[0])
        if mean.shape[0] != p:
            raise DataError(f"prior mean needs {p} entries, got {mean.shape[0]}")
    return replace(base, coef_mean=mean, **_given(
        args, coef_precision="prior_precision", scale_shape="prior_shape",
        scale_rate="prior_rate"))


def _prior_hint(args) -> str:
    """A clause for a numerical failure of a fit that ran on the default
    prior or on a preset as it stands, which no other prior flag or config
    key changed."""
    if any(getattr(args, key, None) is not None for key in (
            "prior_mean", "prior_precision", "prior_shape", "prior_rate")):
        return ""
    preset = getattr(args, "prior_preset", None)
    if preset is None:
        prior, name, mean = WEAK_PRIOR, "the default prior", "0"
        flags = "--prior-mean, --prior-shape, --prior-rate or --prior-preset"
    else:
        prior, name = _PRESETS[preset], f"the {preset} prior preset"
        mean = ",".join(f"{v:g}" for v in prior.coef_mean)
        flags = "--prior-mean, --prior-precision, --prior-shape or --prior-rate to override it"
    return (f"; {name} (mean {mean}, precision {prior.coef_precision:g}, shape "
            f"{prior.scale_shape:g}, rate {prior.scale_rate:g}) may not suit the data: "
            f"set {flags}")


def _methods(args, default: str) -> list:
    """The --methods list, checked before any fit runs."""
    return check_methods(m.strip() for m in (args.methods or default).split(",") if m.strip())


def _fit_config(args) -> FitConfig:
    return FitConfig(**_given(args, elbo_tolerance="elbo_tol", max_iterations="max_iter"))


def _mcmc_run(args) -> dict:
    """The chain's length, burn-in and seed, checked before any fit runs."""
    run = {"n_iterations": MCMC_ITERATIONS, "burn_in": MCMC_BURN_IN, "seed": MCMC_SEED,
           **_given(args, n_iterations="mcmc_iterations", burn_in="mcmc_burn_in",
                    seed="seed")}
    check_chain_length(run["n_iterations"], run["burn_in"])
    return run


def _method_summaries(method, data, prior, config, mcmc_run):
    """[(parameter, mean, sd, low, high, kind)] plus the elapsed time; a fit
    that did not settle is reported on stderr."""
    start = time.perf_counter()
    try:
        if method == "vb":
            result = fit(data, prior, config)
        elif method == "mle":
            result = fit_mle(data)
        else:
            result = sample_posterior(data, prior, **mcmc_run)
        outcome, = summarize_fits(method, [result])
        if isinstance(outcome, NumericalError):
            raise outcome
    except NumericalError as exc:
        exc.method = method
        raise
    rows, note, _ = outcome
    if note is not None:
        print(f"warning: {method}: {note}", file=sys.stderr)
    return rows, time.perf_counter() - start


def _write_summary_csv(path, all_rows):
    with open(path, "w", newline="\n") as fh:
        fh.write("method,parameter,mean,sd,low,high,interval\n")
        for method, rows in all_rows:
            for name, mean, sd, lo, hi, kind in rows:
                fh.write(f"{method},{name},{mean!r},{sd!r},{lo!r},{hi!r},{kind}\n")


def _dataset_fits(args):
    """Yields (data, method, rows, elapsed) as each fit of `fit` (its
    --methods) or `compare` (all three) on --data completes. Checked before
    any fit, in order: --data, the methods, the chain length, the file."""
    if not args.data:
        raise DataError(f"{args.command} requires --data")
    methods = _methods(args, "vb") if args.command == "fit" else ("vb", "mle", "mcmc")
    mcmc_run = _mcmc_run(args) if "mcmc" in methods else None
    data = ingest_csv(args.data)
    prior = _build_prior(args, data.p)
    config = _fit_config(args)
    for method in methods:
        yield data, method, *_method_summaries(method, data, prior, config, mcmc_run)


def cmd_fit(args) -> int:
    all_rows = []
    for data, method, rows, elapsed in _dataset_fits(args):
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
    reports = run_replication(
        scenario, prior, _methods(args, "vb,mle"), config=_fit_config(args),
        **_given(args, mcmc_iterations="mcmc_iterations", mcmc_burn_in="mcmc_burn_in"))
    print(report_text_table(reports, scenario))
    if args.out:
        write_report_csv(args.out, reports, scenario, prior)
    return 0


def cmd_approx_check(args) -> int:
    lin_sse, quad_sse = table_sse()
    lin_max, quad_max = table_max_error()
    print("published-table audit on a 10000-point grid over [-5, 5]:")
    print(f"  linear    SSE {_fmt6(lin_sse)}   max|err| {_fmt6(lin_max)} on [-8, 8]")
    print(f"  quadratic SSE {_fmt6(quad_sse)}   max|err| {_fmt6(quad_max)} on [-8, 8]")

    print("segmented least-squares search (knots on a 0.05 lattice):")
    rows = [("breakpoints", "sse", "r_squared", "knots")]
    for k in range(1, 4):
        res = fit_linear_breakpoints(n_breakpoints=k)
        rows.append((str(k), _fmt6(res.sse), f"{res.r_squared:.6f}",
                     ", ".join(_fmt6(b) for b in res.breakpoints)))
    print(format_table(rows))

    # res is the last search's: three knots, as in the published table
    ok = (3.30 <= lin_sse <= 3.40 and 0.11 <= quad_sse <= 0.13
          and np.all(np.abs(res.breakpoints - LINEAR_KNOTS[1:4]) <= 0.1)
          and res.sse <= 3.40)
    print(f"audit {'passed' if ok else 'FAILED'}")
    return 0 if ok else 1


def cmd_compare(args) -> int:
    timings, all_rows = {}, []
    for _, method, rows, elapsed in _dataset_fits(args):
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


@cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process: `parse_args` leaves it unchanged."""
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
        hint = "" if exc.method == "mle" else _prior_hint(args)  # the MLE takes no prior
        print(f"numerical failure: {exc}{hint}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
