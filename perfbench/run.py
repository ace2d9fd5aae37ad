#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the llaft command-line workloads.

Each op is one `llaft` CLI command run in-process through `llaft.cli.main`,
in a single process with BLAS pinned to one thread. The loop is closed: the
next op starts when the previous one has finished and been checked.

    python3 perfbench/run.py --workload study_n300 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --out BENCH_new.json
    python3 perfbench/run.py --workload all --seed 1 --compare BENCH_old.json
    python3 perfbench/run.py --smoke

A single-workload run prints a readable report and, as its last line, one
JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. The times in
the end-to-end metrics are calibrated: a fixed kernel samples the host's
speed while each op runs, and the op's time is scaled by it. `all` runs
each workload in its own child process, so peak memory is per workload. See
perfbench/README.md for the metrics and which workload each should move.
"""
from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from time import CLOCK_MONOTONIC, clock_gettime, perf_counter

ROOT = Path(__file__).resolve().parent.parent
BLAS_PIN = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 15
P90_MIN_OPS = 100          # ten ops beyond the 90th percentile
CHILD_TIMEOUT_S = 900
CAL_REF_MS = 1.0           # calibrated times are for a host where the kernel takes this
CAL_PERIOD_S = 0.05        # the kernel samples the host's speed this often during an op
CAL_BATCH_S = 0.03         # kernel runs between two set-up interpreters


def load_llaft():
    """Pin BLAS, then import llaft from this checkout's src/ (never from an
    installed copy), before NumPy is imported anywhere in the process."""
    os.environ.update(BLAS_PIN)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import llaft
        import llaft.cli  # noqa: F401  (the entry point every op calls)
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import llaft from {src}: {exc}") from None
    if not Path(llaft.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: llaft was imported from {llaft.__file__}, not {src}")
    return llaft


def environment(llaft, seed: int) -> dict:
    import numpy as np
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    # a later change may drop the compiled backend; then NumPy is the only one
    backend = llaft.kernel_backend() if hasattr(llaft, "kernel_backend") else "pure"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_PIN},
        "kernel_backend": backend,
        "seed": seed,
    }


def calibration_kernel() -> float:
    """About 1 ms of fixed work in the mix of a llaft op: scalar math in the
    interpreter, small NumPy array operations, and small linear solves, one
    and a batch of 200. It is not part of llaft, so a change to the program
    never changes its time; only the speed of the host does."""
    import numpy as np
    total = 0.0
    for i in range(1, 600):
        total += math.lgamma(1.0 + 0.01 * i) * math.exp(-1e-4 * i)
    x = np.linspace(-5.0, 5.0, 2_000)
    for _ in range(3):
        x = np.sqrt(x * x + 1.0) - np.logaddexp(0.0, -x)
    m = np.eye(5) + np.outer(x[:5], x[:5]) * 1e-3
    batch, rhs = np.broadcast_to(m, (200, 5, 5)).copy(), np.ones((200, 5, 1))
    for _ in range(3):
        total += float(np.linalg.solve(batch, rhs)[0, 0, 0])
        total += float(np.linalg.solve(m, x[:5])[0])
    return total


def timed_kernel() -> float:
    begun = perf_counter()
    calibration_kernel()
    return perf_counter() - begun


def kernel_seconds(budget_s: float) -> float:
    """Median time of calibration kernel runs that fill budget_s (one at least)."""
    times = []
    start = perf_counter()
    while not times or perf_counter() - start < budget_s:
        times.append(timed_kernel())
    return statistics.median(times)


@contextmanager
def sampling_host(samples: list):
    """While the block runs, time the calibration kernel every CAL_PERIOD_S
    from a SIGALRM handler, so that the samples span the whole op, and
    append each time to samples."""
    previous = signal.signal(signal.SIGALRM, lambda signum, frame: samples.append(timed_kernel()))
    signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def measure_setup(repeats: int = SETUP_REPEATS) -> tuple[list, list]:
    """Times from starting a fresh interpreter until it has imported the CLI
    module, the NumPy and llaft imports every `llaft` command pays, and for
    each the mean calibration kernel time just before and just after it. The
    child stamps the system-wide monotonic clock once the imports are done,
    so its exit is not counted."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    code = "import llaft.cli, time; print(time.clock_gettime(time.CLOCK_MONOTONIC))"
    times, kernel = [], []
    before = kernel_seconds(CAL_BATCH_S)
    for _ in range(repeats):
        start = clock_gettime(CLOCK_MONOTONIC)
        child = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                               stdout=subprocess.PIPE, text=True, timeout=120)
        times.append(float(child.stdout) - start)
        after = kernel_seconds(CAL_BATCH_S)
        kernel.append(0.5 * (before + after))
        before = after
    return times, kernel


def calibrate(times: list, kernel: list) -> list:
    """Each time scaled to a host where the calibration kernel takes CAL_REF_MS."""
    return [t * 1e-3 * CAL_REF_MS / k for t, k in zip(times, kernel)]


def execute(cli, workload, op, samples: list | None = None):
    """Run one op and check its output: (seconds, error or None). Given a
    samples list, the calibration kernel samples the host's speed during the
    op (see sampling_host), and the kernel's own time is not counted."""
    out, err = io.StringIO(), io.StringIO()
    sampling = nullcontext() if samples is None else sampling_host(samples)
    start = perf_counter()
    try:
        with sampling, redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(op.argv)
    except (Exception, SystemExit) as exc:  # an escaped exception fails the op, not the run
        rc = f"{type(exc).__name__}: {exc}"
    elapsed = perf_counter() - start - sum(samples or ())
    if rc != 0:
        return elapsed, f"exit {rc}: {err.getvalue().strip()[-300:]}"
    try:
        return elapsed, workload.check(op, out.getvalue())
    except (OSError, ValueError, IndexError, KeyError) as exc:
        return elapsed, f"unreadable output: {exc!r}"


def run_workload(llaft, name: str, seed: int, seconds: int, traced: bool,
                 smoke: bool) -> dict:
    """Measure one workload; print a report; return the result object."""
    import llaft.cli as cli
    import workloads
    from spans import Tracer

    setup = None if traced else measure_setup()
    tracer = Tracer() if traced else None
    times, traced_times, errors = [], [], []
    kernel = []     # mean calibration kernel time during each untraced op
    items = 0
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        workload = workloads.make(name, seed, Path(tmp), ROOT)
        calibration_kernel()    # warm-up
        start = perf_counter()
        costs = []
        # start another op only while its expected cost fits in the window
        while not costs or (not smoke and perf_counter() - start
                            + statistics.median(costs) <= seconds):
            begun = perf_counter()
            op = workload.op(len(costs))
            samples = None if tracer else []
            elapsed, error = execute(cli, workload, op, samples)
            if samples is not None:
                # the op pays the host's mean slowness over its span, not the median
                kernel.append(statistics.fmean(samples or [timed_kernel()]))
            times.append(elapsed)
            errors.append(error)
            items += 0 if error else op.items
            if tracer:
                with tracer.traced():
                    elapsed, error = execute(cli, workload, op)
                traced_times.append(elapsed)
                errors.append(error)
            costs.append(perf_counter() - begun)
        errors += workload.final_check(lambda op: execute(cli, workload, op)[1])

    attempted = len(errors)
    failures = [e for e in errors if e]
    for e in failures[:5]:
        print(f"perfbench: {name}: failed op: {e}", file=sys.stderr)

    if traced:
        metrics = tracer.metrics()
        metrics.update(tracer.profile_numerics(llaft.posterior.summarize_scale))
        metrics["trace.overhead_pct"] = (100.0 * (sum(traced_times) / sum(times) - 1.0), "%")
    else:
        calibrated = calibrate(times, kernel)
        metrics = {
            "setup_s": (statistics.median(calibrate(*setup)), "s"),
            "items_per_cal_s": (items / sum(calibrated), "1/s"),
            "op_p50_cal_ms": (1e3 * statistics.median(calibrated), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    print(f"workload {name}: seed={seed} seconds={seconds} trace={int(traced)} "
          f"ops={len(times)} attempted={attempted} failed={len(failures)} "
          f"error_rate={len(failures) / attempted:.4g}")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:<44} {value:>14.6g} {unit}")
    if not traced:
        print("  uncalibrated, for reading only:")
        print(f"  {'calibration kernel mean, median op':<44} {1e3 * statistics.median(kernel):>14.6g} ms  "
              f"(nominal {CAL_REF_MS:g} ms)")
        print(f"  {'setup_s':<44} {statistics.median(setup[0]):>14.6g} s")
        print(f"  {'items_per_s':<44} {items / sum(times):>14.6g} 1/s")
        print(f"  {'op_p50_ms':<44} {1e3 * statistics.median(times):>14.6g} ms")
        if len(times) >= P90_MIN_OPS:
            p90 = 1e3 * statistics.quantiles(times, n=10)[-1]
            print(f"  {'op_p90_ms':<44} {p90:>14.6g} ms  (n={len(times)})")
        else:
            print(f"  {'op_p90_ms':<44} {'n/a':>14} ms  "
                  f"(n={len(times)} < {P90_MIN_OPS} ops)")
    else:
        function_ms = {m: v for m, (v, _) in metrics.items() if m.endswith(".ms")}
        accounted = sum(v for m, (v, u) in metrics.items()
                        if m.endswith(".self_ms") or m == "cli.ingest_csv.ms")
        print(f"  largest function span: {max(function_ms, key=function_ms.get)}; layer self "
              f"times + cli.self_ms = {accounted:.6g} ms of trace.op_ms "
              f"{metrics['trace.op_ms'][0]:.6g} ms")
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()}}


def run_children(names, seed, seconds, trace, smoke) -> dict:
    """Run each workload in a child process; relay its report; collect results."""
    results = {}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd + (["--smoke"] if smoke else []), cwd=ROOT,
                              stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {name} exited with {proc.returncode}", file=sys.stderr)
            results[name] = None
        else:
            results[name] = json.loads(lines[-1])
    return results


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke(seed: int) -> int:
    """One op per workload in each trace mode; every metric BENCHMARK.json
    names must be emitted, with its unit and nothing else."""
    spec = load_spec()
    problems = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[section]}
        for name, result in run_children([w["name"] for w in spec["workloads"]],
                                         seed, 1, trace, smoke=True).items():
            if result is None:
                problems.append(f"{name} trace={trace}: no result")
                continue
            if not result["correct"]:
                problems.append(f"{name} trace={trace}: output check failed")
            got = {m: v["unit"] for m, v in result["metrics"].items()}
            for metric in sorted(expected.keys() | got.keys()):
                if got.get(metric) != expected.get(metric):
                    problems.append(f"{name} trace={trace}: {metric} unit "
                                    f"{got.get(metric)!r}, expected {expected.get(metric)!r}")
    for p in problems:
        print(f"smoke: {p}")
    print(f"smoke {'FAILED' if problems else 'passed'}")
    return 1 if problems else 0


def compare(old_path: Path, new: dict) -> int:
    """Print new/old per workload and metric; flag end-to-end metrics that
    got worse by more than their bound. Returns 1 if any is flagged."""
    old = json.loads(old_path.read_text())
    if old["env"]["kernel_backend"] != new["env"]["kernel_backend"]:
        print(f"compare: refusing to compare kernel backend {new['env']['kernel_backend']!r} "
              f"with {old['env']['kernel_backend']!r}")
        return 2
    bounds = {m["name"]: m for m in load_spec()["end_to_end"]}
    flagged = 0
    print(f"{'workload':<14} {'metric':<44} {'old':>12} {'new':>12} {'new/old':>8}")
    for name, result in new["workloads"].items():
        before = (old["workloads"].get(name) or {}).get("metrics", {})
        for metric, entry in (result or {}).get("metrics", {}).items():
            if metric not in before:
                continue
            o, n = before[metric]["value"], entry["value"]
            ratio = n / o if o else float("nan")
            flag = ""
            if metric in bounds:
                b = bounds[metric]
                worse = ratio - 1.0 if b["better"] == "lower" else 1.0 - ratio
                if worse > b["bound"]:
                    flag = f"  WORSE beyond bound {b['bound']}"
                    flagged += 1
            print(f"{name:<14} {metric:<44} {o:>12.6g} {n:>12.6g} {ratio:>8.3f}{flag}")
    return 1 if flagged else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="workload name, or 'all'")
    ap.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    ap.add_argument("--seconds", type=int, default=30, help="measuring window per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="0: end-to-end metrics; 1: per-layer metrics from a traced run")
    ap.add_argument("--smoke", action="store_true",
                    help="one op per workload; check every metric in BENCHMARK.json is emitted")
    ap.add_argument("--out", type=Path, help="write environment and results as JSON")
    ap.add_argument("--compare", type=Path, metavar="OLD.json",
                    help="print new/old against an earlier --out file")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    llaft = load_llaft()
    import workloads

    if args.smoke and not args.workload:
        return smoke(args.seed)
    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be 'all' or one of {', '.join(workloads.WORKLOADS)}")

    env = environment(llaft, args.seed)
    env.update(seconds=args.seconds, trace=args.trace)
    print("env " + json.dumps(env))
    if args.workload == "all":
        results = run_children(list(workloads.WORKLOADS), args.seed, args.seconds,
                               args.trace, args.smoke)
    else:
        results = {args.workload: run_workload(llaft, args.workload, args.seed,
                                               args.seconds, bool(args.trace), args.smoke)}
    report = {"env": env, "workloads": results}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    status = 0
    if args.compare:
        status = compare(args.compare, report)
    if args.workload == "all":
        if not all(r and r["correct"] for r in results.values()):
            status = status or 1
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return status


if __name__ == "__main__":
    sys.exit(main())
