"""Per-layer tracing from outside the package.

While a traced op runs, the public functions named in SPANNED are replaced,
in every `llaft` module namespace that refers to them, by wrappers that
record a span (name, op, parent, start, end) and read counts off the
function's arguments and result. Nothing inside the package changes.
Numerics functions are called thousands of times per scale summary, so they
are counted in a separate profiler pass instead of being wrapped.
"""
from __future__ import annotations

import cProfile
import pstats
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

SPANNED = {
    "cli": ("main", "ingest_csv"),
    "simulate": ("run_replication", "generate_dataset", "aggregate_estimates",
                 "write_report_csv"),
    "cavi": ("fit",),
    "posterior": ("summarize_scale", "summarize_coefficients", "hdi_from_draws"),
    "reference": ("fit_mle", "sample_posterior"),
    "piecewise": ("table_sse", "fit_linear_breakpoints"),
}
COUNTED = ("inverse_gamma_cdf", "inverse_gamma_quantile")
PROFILED_SCALE_SUMMARIES = 5
KNOT_COUNTS = range(1, 6)


def _arg(args, kwargs, index, name, default):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    """Spans and counts of the traced ops of one run, kept in memory."""

    def __init__(self):
        self.spans = []          # (name, op, parent index, start, end)
        self.counts = defaultdict(float)
        self.scale_calls = []    # (args, kwargs) of summarize_scale, replayed by profile_numerics
        self.ops = 0
        self._stack = []

    # -- recording ---------------------------------------------------------

    def _after(self, name, args, kwargs, result):
        c = self.counts
        if name == "cavi.fit":
            c["cavi.iterations"] += result.iterations
            c["cavi.cap_stops"] += not result.converged
        elif name == "reference.fit_mle":
            c["reference.mle_iterations"] += result.iterations
        elif name == "reference.sample_posterior":
            steps = _arg(args, kwargs, 2, "n_iterations", None)
            c["reference.mcmc_steps"] += steps
            c["reference.mcmc_accepted"] += result.acceptance_rate * steps
        elif name == "posterior.summarize_scale":
            if len(self.scale_calls) < PROFILED_SCALE_SUMMARIES:
                self.scale_calls.append((args, kwargs))

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            span = name
            if name == "piecewise.fit_linear_breakpoints":
                span = f"{name}.k{_arg(args, kwargs, 1, 'n_breakpoints', 3)}"
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = (span, self.ops, parent, start, end)
            self._after(name, args, kwargs, result)
            return result
        return wrapper

    @contextmanager
    def traced(self):
        """Install the wrappers for one op and remove them afterwards."""
        originals = {}
        for layer, names in SPANNED.items():
            module = sys.modules[f"llaft.{layer}"]
            for fn_name in names:
                fn = getattr(module, fn_name)
                originals[id(fn)] = (fn, self._wrap(f"{layer}.{fn_name}", fn))
        patched = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "llaft" and not mod_name.startswith("llaft."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    setattr(module, attr, originals[id(value)][1])
                    patched.append((module, attr, value))
        try:
            yield
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)
            self.ops += 1

    # -- reporting ---------------------------------------------------------

    def profile_numerics(self, summarize_scale) -> dict:
        """Numerics calls per scale summary, counted by cProfile while the
        recorded summarize_scale calls are replayed untraced."""
        profiler = cProfile.Profile()
        for args, kwargs in self.scale_calls:
            profiler.runcall(summarize_scale, *args, **kwargs)
        calls = dict.fromkeys(COUNTED, 0)
        if self.scale_calls:
            for (filename, _, func), (_, ncalls, *_) in pstats.Stats(profiler).stats.items():
                if func in calls and filename.endswith("numerics.py"):
                    calls[func] += ncalls
        n = max(len(self.scale_calls), 1)
        return {f"numerics.{f}.calls": (calls[f] / n, "count") for f in COUNTED}

    def metrics(self) -> dict:
        """Per-layer metrics, each a mean per traced op: inclusive time of
        each spanned function, self time of each layer, and the counts."""
        n = max(self.ops, 1)
        child = defaultdict(float)
        for _, _, parent, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        inclusive = defaultdict(float)
        self_time = defaultdict(float)
        for i, (name, _, _, start, end) in enumerate(self.spans):
            inclusive[name] += end - start
            self_time[name] += end - start - child[i]
        layer_self = defaultdict(float)
        for name, t in self_time.items():
            layer_self[name.split(".")[0]] += t

        def ms(seconds):
            return (1e3 * seconds / n, "ms")

        c = self.counts
        out = {}
        for name in ("simulate.generate_dataset", "simulate.aggregate_estimates",
                     "simulate.write_report_csv", "cavi.fit",
                     "posterior.summarize_scale", "posterior.summarize_coefficients",
                     "posterior.hdi_from_draws", "reference.fit_mle",
                     "reference.sample_posterior", "piecewise.table_sse",
                     "cli.ingest_csv"):
            out[f"{name}.ms"] = ms(inclusive[name])
        # a k-knot scan starts the (k-1)-knot scan; each k keeps only its own time
        for k in KNOT_COUNTS:
            name = f"piecewise.fit_linear_breakpoints.k{k}"
            out[f"{name}.ms"] = ms(self_time[name])
        for layer in ("simulate", "cavi", "posterior", "reference", "piecewise"):
            out[f"{layer}.self_ms"] = ms(layer_self[layer])
        out["cli.self_ms"] = ms(self_time["cli.main"])
        out["trace.op_ms"] = ms(inclusive["cli.main"])

        fits = sum(1 for s in self.spans if s[0] == "cavi.fit")
        iterations = c["cavi.iterations"]
        steps = c["reference.mcmc_steps"]
        out["cavi.fit.calls"] = (fits / n, "count")
        out["cavi.iterations"] = (iterations / n, "count")
        out["cavi.cap_stops"] = (c["cavi.cap_stops"] / n, "count")
        out["cavi.us_per_iteration"] = (
            1e6 * inclusive["cavi.fit"] / iterations if iterations else 0.0, "us")
        out["reference.mle_iterations"] = (c["reference.mle_iterations"] / n, "count")
        out["reference.mcmc_us_per_step"] = (
            1e6 * inclusive["reference.sample_posterior"] / steps if steps else 0.0, "us")
        out["reference.mcmc_acceptance"] = (
            c["reference.mcmc_accepted"] / steps if steps else 0.0, "ratio")
        return out
