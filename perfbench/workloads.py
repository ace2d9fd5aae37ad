"""The benchmark's workloads: how each op is built from the workload seed and
how its output is checked.

An op is one `llaft` CLI command, run in-process through `llaft.cli.main`.
Every check compares against published or acceptance-criterion values written
here, never against constants read from the package under test.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

# Criterion 1: the published linear-table knots and the SSE ceiling.
PUBLISHED_KNOTS = (-1.701, 0.0, 1.702)
KNOT_TOLERANCE = 0.1
MAX_THREE_KNOT_SSE = 3.40

# Criterion 6: published rhDNase summaries and their tolerances.
RHDNASE_PRIOR_FLAGS = ["--prior-mean", "4.4,0.25,0.04", "--prior-precision", "1",
                       "--prior-shape", "501", "--prior-rate", "500"]
VB_MEANS = {"beta1": (0.416, 0.02), "beta2": (0.021, 0.002), "scale": (0.908, 0.02)}
VB_INTERVALS = {"beta0": (3.740, 4.486), "beta1": (0.139, 0.692),
                "beta2": (0.016, 0.027), "scale": (0.844, 0.974)}
VB_INTERVAL_TOLERANCE = 0.05
MLE_COEFFICIENTS = {"beta0": 4.086, "beta1": 0.402, "beta2": 0.021}
MLE_COEFFICIENT_TOLERANCE = 0.02
MLE_SCALE_SE = (0.045, 0.005)

# Criterion 4 cells: no censoring, ~15% and heavier censoring.
STUDY_CENSOR_BOUNDS = ("0", "48", "17")
STUDY_REPLICATES = 10


@dataclass(frozen=True)
class Op:
    argv: list
    items: int
    out: Path | None = None


def op_seed(seed: int, index: int) -> int:
    """Per-op seed, a pure function of the workload seed and the op index."""
    return random.Random(f"{seed}:{index}").getrandbits(31)


def _read_rows(path: Path) -> list:
    """CSV data rows, skipping '#' metadata lines and the column header."""
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def _finite(values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


class Workload:
    name = ""

    def final_check(self, run_op) -> list:
        """Errors of the ops run after the measured window; none by default."""
        return []


class StudyN300(Workload):
    """The replication harness users run: today ~85% scale HDI at
    Inverse-Gamma shapes ~200-310, so HDI, CAVI and batching changes show here."""

    name = "study_n300"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.out = workdir / "study.csv"
        self.first_report = None

    def op(self, index: int, out: Path | None = None) -> Op:
        out = out or self.out
        argv = ["replicate", "--n", "300",
                "--censor-u", STUDY_CENSOR_BOUNDS[index % len(STUDY_CENSOR_BOUNDS)],
                "--replicates", str(STUDY_REPLICATES),
                "--seed", str(op_seed(self.seed, index)),
                "--prior-preset", "weak", "--methods", "vb,mle", "--out", str(out)]
        return Op(argv, STUDY_REPLICATES, out)

    def check(self, op: Op, stdout: str) -> str | None:
        report = op.out.read_bytes()
        text = report.decode()
        if "# failures: vb=0 mle=0\n" not in text:
            return "report does not show 'failures: vb=0 mle=0'"
        rows = _read_rows(op.out)
        if len(rows) != 8 or not all(_finite(r[2:]) for r in rows):
            return "report does not hold 8 rows of finite statistics"
        if self.first_report is None:
            self.first_report = report
        return None

    def final_check(self, run_op) -> list:
        """Criterion 8: the first cell, run again, gives the same bytes."""
        repeat = self.op(0, self.out.with_name("study_repeat.csv"))
        error = run_op(repeat)
        if not error and repeat.out.read_bytes() != self.first_report:
            error = "repeated cell is not byte-identical"
        return [error]


class TrialCompare(Workload):
    """Single-dataset latency: ~78% Metropolis and one HDI at shape 742; the
    only workload that runs reference.sample_posterior."""

    name = "trial_compare"

    def __init__(self, seed: int, workdir: Path, data_csv: Path):
        self.seed = seed
        self.out = workdir / "compare.csv"
        self.data_csv = data_csv

    def op(self, index: int) -> Op:
        argv = ["compare", "--data", str(self.data_csv), *RHDNASE_PRIOR_FLAGS,
                "--seed", str(op_seed(self.seed, index)), "--out", str(self.out)]
        return Op(argv, 1, self.out)

    def check(self, op: Op, stdout: str) -> str | None:
        rows = {(r[0], r[1]): r for r in _read_rows(op.out)}
        if len(rows) != 12 or not all(_finite(r[2:6]) for r in rows.values()):
            return "summary CSV does not hold 12 finite rows"
        for method, name, mean, sd, low, high, _ in rows.values():
            if not float(low) < float(high):
                return f"{method} {name}: empty interval"
        for name, (target, tol) in VB_MEANS.items():
            if abs(float(rows["vb", name][2]) - target) > tol:
                return f"vb {name} mean outside {target}±{tol}"
        for name, (lo, hi) in VB_INTERVALS.items():
            row = rows["vb", name]
            if (abs(float(row[4]) - lo) > VB_INTERVAL_TOLERANCE
                    or abs(float(row[5]) - hi) > VB_INTERVAL_TOLERANCE):
                return f"vb {name} interval outside the published one ±{VB_INTERVAL_TOLERANCE}"
        for name, target in MLE_COEFFICIENTS.items():
            if abs(float(rows["mle", name][2]) - target) > MLE_COEFFICIENT_TOLERANCE:
                return f"mle {name} outside {target}±{MLE_COEFFICIENT_TOLERANCE}"
        target, tol = MLE_SCALE_SE
        if abs(float(rows["mle", "scale"][3]) - target) > tol:
            return f"mle scale SE outside {target}±{tol}"
        return None


class KnotAudit(Workload):
    """Only the piecewise knot scan runs, so a scan change shows here and should
    leave the other two workloads unchanged. approx-check takes no input, so
    the seed selects nothing."""

    name = "knot_audit"

    def op(self, index: int) -> Op:
        return Op(["approx-check"], 1)

    def check(self, op: Op, stdout: str) -> str | None:
        if "audit passed" not in stdout:
            return "output does not say 'audit passed'"
        rows = [ln.split(None, 3) for ln in stdout.splitlines()]
        three = [r for r in rows if len(r) == 4 and r[0] == "3"]
        if len(three) != 1:
            return "no single 3-breakpoint row in the output"
        _, sse, _, knots = three[0]
        knots = [float(k) for k in knots.split(",")]
        if len(knots) != 3 or any(abs(k - p) > KNOT_TOLERANCE
                                  for k, p in zip(knots, PUBLISHED_KNOTS)):
            return f"3-knot fit {knots} is not within {KNOT_TOLERANCE} of the table"
        if float(sse) > MAX_THREE_KNOT_SSE:
            return f"3-knot SSE {sse} above {MAX_THREE_KNOT_SSE}"
        return None


WORKLOADS = (StudyN300.name, TrialCompare.name, KnotAudit.name)


def make(name: str, seed: int, workdir: Path, root: Path) -> Workload:
    if name == StudyN300.name:
        return StudyN300(seed, workdir)
    if name == TrialCompare.name:
        return TrialCompare(seed, workdir, root / "src" / "llaft" / "data" / "rhdnase.csv")
    return KnotAudit()
