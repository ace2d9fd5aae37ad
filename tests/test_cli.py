import hashlib
import re
from dataclasses import replace

import numpy as np
import pytest

import llaft.cli
import llaft.simulate
from llaft.cli import ingest_csv, load_config, main
from llaft.datasets import rhdnase_path
from llaft.exceptions import DataError
from llaft.simulate import (ROLE_MCMC, WEAK_PRIOR, SimulationScenario, generate_dataset,
                            run_replication, stream_seed)


def write(path, text):
    path.write_text(text)
    return str(path)


TINY = """time,status,x
1,1,0
2.5,0,1.3
0.7,1,-0.2
3.1,1,0.4
0.9,0,0.8
1.8,1,1.1
2.2,1,-0.5
4.0,0,0.3
"""

# 160 censored times at log time -0.5 on two covariates: with no events, VB
# starts at the prior mean, and the default and strong priors both fail
ALL_CENSORED = "time,status,x1,x2\n" + "".join(
    f"0.6065306597126334,0,{i % 2},{i % 3}\n" for i in range(160))


class TestIngest:
    def test_basic_row_semantics(self, tmp_path):
        data = ingest_csv(write(tmp_path / "d.csv", "time,status,x\n1,1,0\n"))
        assert data.n == 1
        assert data.log_time[0] == 0.0
        assert data.event[0] == 1.0
        assert np.array_equal(data.covariates, [[1.0, 0.0]])

    def test_bundled_trial_file(self):
        data = ingest_csv(rhdnase_path())
        assert data.n == 645
        assert data.p == 3
        assert int((data.covariates[:, 1] == 0).sum()) == 324

    def test_zero_time_rejected_with_line(self, tmp_path):
        path = write(tmp_path / "d.csv", "time,status,x\n1,1,0\n0,1,2\n")
        with pytest.raises(DataError, match=":3"):
            ingest_csv(path)

    def test_infinite_time_exits_2_naming_the_line(self, tmp_path, capsys):
        path = write(tmp_path / "d.csv", "time,status,x\n1,1,0.5\ninf,1,0.5\n3,1,1.5\n")
        message = f"{path}:3: time must be positive and finite"
        with pytest.raises(DataError, match=f"^{re.escape(message)}"):
            ingest_csv(path)
        assert main(["fit", "--data", path, "--methods", "mle"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")

    def test_bad_status_rejected(self, tmp_path):
        path = write(tmp_path / "d.csv", "time,status,x\n1,2,0\n")
        with pytest.raises(DataError, match="status"):
            ingest_csv(path)

    def test_missing_required_column(self, tmp_path):
        path = write(tmp_path / "d.csv", "time,x\n1,0\n")
        with pytest.raises(DataError, match="header"):
            ingest_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            ingest_csv(tmp_path / "nope.csv")

    def test_empty_data(self, tmp_path):
        path = write(tmp_path / "d.csv", "time,status,x\n")
        with pytest.raises(DataError, match="no data rows"):
            ingest_csv(path)

    def test_column_order_preserved(self, tmp_path):
        path = write(tmp_path / "d.csv", "b,time,a,status\n5,1,7,1\n")
        data = ingest_csv(path)
        assert np.array_equal(data.covariates, [[1.0, 5.0, 7.0]])

    @pytest.mark.parametrize("header, name", [("time,status,x,time", "time"),
                                              ("status,time, status ,x", "status")])
    def test_repeated_required_column_is_named(self, tmp_path, capsys, header, name):
        # a second time or status column would otherwise enter the design
        path = write(tmp_path / "d.csv", header + "\n" + "".join(
            f"{t},1,{x},1\n" for t, x in ((1, 0), (2, 1), (3, 0), (4, 1))))
        message = f"{path}: header must contain {name!r} once"
        with pytest.raises(DataError, match=f"^{re.escape(message)}"):
            ingest_csv(path)
        assert main(["fit", "--data", path, "--methods", "mle"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # spreadsheet programs save "CSV UTF-8" with a leading mark
        text = "time,status,x\n1,1,0\n2.5,0,1.5\n"
        plain = ingest_csv(write(tmp_path / "plain.csv", text))
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        marked = ingest_csv(path)
        for name in ("time", "event", "covariates"):
            assert getattr(marked, name).tobytes() == getattr(plain, name).tobytes()

    @pytest.mark.parametrize("mark", [b"", b"\xef\xbb\xbf"])
    def test_non_utf8_bytes_name_the_file(self, tmp_path, capsys, mark):
        # a Latin-1 byte once left the decoder's own message, naming no file
        path = tmp_path / "latin1.csv"
        path.write_bytes(mark + b"time,status,x\n1,1,0.5\n2,0,x\xe9\n")
        message = f"{path}: not UTF-8 text: byte 0xe9 at offset {len(mark) + 27}"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            ingest_csv(path)
        assert main(["fit", "--data", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestOneParser:
    def test_parser_is_built_once(self):
        assert llaft.cli._parser() is llaft.cli._parser()

    def test_usage_error_leaves_later_calls_alone(self, tmp_path, capsys):
        fit_argv = ["fit", "--data", write(tmp_path / "d.csv", TINY), "--methods", "vb,mle"]
        rep_argv = ["replicate", "--n", "40", "--replicates", "3", "--censor-u", "17"]

        def run(argv, name):
            assert main([*argv, "--out", str(tmp_path / name)]) == 0
            stdout = re.sub(r"\d+\.\d+s", "<t>s", capsys.readouterr().out)
            return stdout, (tmp_path / name).read_bytes()

        separate = []
        for argv, name in ((fit_argv, "fit1.csv"), (rep_argv, "rep1.csv")):
            llaft.cli._parser.cache_clear()
            separate.append(run(argv, name))
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--no-such-flag"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert [run(fit_argv, "fit2.csv"), run(rep_argv, "rep2.csv")] == separate


class TestConfig:
    def test_parse_and_override(self, tmp_path):
        cfg = write(tmp_path / "c.cfg", """
# study settings
seed = 7
replicates = 3
n = 25
prior_precision = 0.2   # flat-ish
""")
        parsed = load_config(cfg)
        assert parsed == {"seed": "7", "replicates": "3", "n": "25",
                          "prior_precision": "0.2"}
        out = tmp_path / "r.csv"
        code = main(["replicate", "--config", cfg, "--seed", "9",
                     "--censor-u", "0", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert "seed=9" in text       # flag wins over config
        assert "replicates=3" in text

    def test_bad_key(self, tmp_path):
        cfg = write(tmp_path / "c.cfg", "bogus = 1\n")
        assert main(["replicate", "--config", cfg, "--replicates", "1"]) == 2

    def test_bad_line(self, tmp_path):
        cfg = write(tmp_path / "c.cfg", "just words\n")
        assert main(["replicate", "--config", cfg]) == 2

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # a config saved as "UTF-8 with BOM" once read its first key as '\ufeffseed'
        path = tmp_path / "c.cfg"
        path.write_bytes(b"\xef\xbb\xbfseed = 7\r\nreplicates = 3\n")
        assert load_config(path) == {"seed": "7", "replicates": "3"}

    def test_non_utf8_bytes_name_the_file(self, tmp_path, capsys):
        # a Latin-1 byte once left the decoder's own message, naming no file
        path = tmp_path / "c.cfg"
        path.write_bytes(b"seed = 7\nout = r\xe9sultat.csv\n")
        message = f"{path}: not UTF-8 text: byte 0xe9 at offset 16"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            load_config(path)
        assert main(["replicate", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("command, line", [("compare", "methods = vb"),
                                               ("fit", "n = 50")])
    def test_key_the_subcommand_does_not_take(self, tmp_path, capsys, command, line):
        cfg = write(tmp_path / "c.cfg", line + "\n")
        assert main([command, "--config", cfg, "--data", str(rhdnase_path())]) == 2
        captured = capsys.readouterr()
        key = line.split()[0]
        assert captured.err == f"error: config key {key!r} is not taken by {command}\n"
        assert captured.out == ""


class TestFitCommand:
    def test_fit_writes_summary(self, tmp_path, capsys):
        data = write(tmp_path / "d.csv", TINY)
        out = tmp_path / "fit.csv"
        assert main(["fit", "--data", data, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "method,parameter,mean,sd,low,high,interval"
        assert len(lines) == 1 + 3  # beta0, beta1, scale
        printed = capsys.readouterr().out
        assert "parameter" in printed and "scale" in printed

    def test_three_methods(self, tmp_path):
        data = write(tmp_path / "d.csv", TINY)
        out = tmp_path / "fit.csv"
        code = main(["fit", "--data", data, "--methods", "vb,mle,mcmc",
                     "--seed", "3", "--mcmc-iterations", "800",
                     "--mcmc-burn-in", "200", "--out", str(out)])
        assert code == 0
        body = out.read_text()
        assert {line.split(",")[0] for line in body.splitlines()[1:]} == \
            {"vb", "mle", "mcmc"}

    def test_repeated_method_runs_once(self, tmp_path, capsys):
        out = tmp_path / "fit.csv"
        assert main(["fit", "--data", str(rhdnase_path()), "--prior-mean", "4.4,0.25,0.04",
                     "--prior-precision", "1", "--prior-shape", "501",
                     "--prior-rate", "500", "--methods", "mle,MLE,vb,mle",
                     "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert printed.count("[mle]") == printed.count("[vb]") == 1
        assert printed.index("[mle]") < printed.index("[vb]")
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == len(set(rows)) == 2 * 4
        assert [r.split(",")[0] for r in rows] == ["mle"] * 4 + ["vb"] * 4

    def test_missing_data_file_exit_2(self, tmp_path):
        assert main(["fit", "--data", str(tmp_path / "nope.csv")]) == 2

    def test_no_data_flag_exit_2(self):
        assert main(["fit"]) == 2

    def test_numerical_failure_exit_1(self, tmp_path):
        rows = "\n".join("0.606530659712633,0,0" for _ in range(10))
        data = write(tmp_path / "bad.csv", "time,status,x\n" + rows + "\n")
        code = main(["fit", "--data", data, "--prior-mean", "0",
                     "--prior-precision", "1e9", "--prior-shape", "2",
                     "--prior-rate", "1"])
        assert code == 1

    def test_bundled_trial_file_fits_at_the_default_prior(self):
        # the least-squares start reaches the trial's intercept of ~4 that the
        # zero prior mean is far from
        assert main(["fit", "--data", str(rhdnase_path()), "--methods", "vb,mle"]) == 0

    def test_failure_on_the_default_prior_names_the_prior_flags(self, tmp_path, capsys):
        # no events, so VB starts at the prior mean, and omega falls below 0
        data = write(tmp_path / "censored.csv", ALL_CENSORED)
        assert main(["fit", "--data", data]) == 1
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ")
        assert "default prior" in err and "--prior-mean" in err
        assert main(["fit", "--data", data, "--prior-rate", "10"]) == 1
        assert "--prior-mean" not in capsys.readouterr().err

    def test_failure_on_a_preset_names_the_preset_and_the_prior_flags(self, tmp_path, capsys):
        # the strong preset as it stands cannot fit the all-censored data
        data = write(tmp_path / "censored.csv", ALL_CENSORED)
        assert main(["fit", "--data", data, "--prior-preset", "strong",
                     "--methods", "vb"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ")
        assert ("the strong prior preset (mean 0.3,0.1,1, precision 0.15, shape 11, rate 8)"
                in err)
        assert "--prior-mean" in err and "--prior-rate" in err
        # a prior flag overriding the preset leaves the hint out
        assert main(["fit", "--data", data, "--prior-preset", "strong",
                     "--prior-rate", "10", "--methods", "vb"]) == 1
        assert "--prior-mean" not in capsys.readouterr().err

    def test_mle_failure_names_no_prior(self, tmp_path, capsys):
        # the MLE takes no prior, so no prior hint follows its failure
        data = write(tmp_path / "two.csv", "time,status,x\n1,1,0.5\n2,0,1.5\n")
        assert main(["fit", "--data", data, "--methods", "mle"]) == 1
        assert capsys.readouterr().err == (
            "numerical failure: need more observations than parameters (n=2, p=2)\n")

    @pytest.mark.parametrize("bad", ["inf", "nan"])
    def test_nonfinite_covariate_exit_2(self, tmp_path, capsys, bad):
        data = write(tmp_path / "bad.csv",
                     f"time,status,x\n1,1,0.5\n2,0,{bad}\n3,1,1.5\n4,1,2\n")
        assert main(["fit", "--data", data, "--methods", "mle"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {data}:3: covariates must be finite")

    def test_deterministic_output_bytes(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            assert main(["fit", "--data", rhdnase_path(),
                         "--prior-mean", "4.4,0.25,0.04",
                         "--prior-precision", "1",
                         "--prior-shape", "501", "--prior-rate", "500",
                         "--out", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


# sha256 of the report of `replicate --n 300 --censor-u U --replicates 10
# --prior-preset weak --methods vb,mle --seed 1`, the benchmark's study_n300
# op, for each of its censoring cells U
STUDY_REPORT_SHA256 = {
    "0": "a7af6d6838c511d455bf74a5561e50df14b964876269f2b76054e0e30d17713d",
    "48": "d5d848655e87bacce6b5493dca9124e70fbb044ecefb35baf910b3df7cf17087",
    "17": "d5f3aae704d0a13dedd3133725e6a3683f167629cacf2e07dcffd30f1855207e",
}
# sha256 of the report of `replicate --n 50 --replicates 3 --methods
# vb,mle,mcmc --seed 1 --mcmc-iterations 1000 --mcmc-burn-in 200`
THREE_METHOD_STUDY_SHA256 = "9ab83c95178a6474514727bf0426701c03ad2b1950c77ef0035748d281593dd9"


class TestReplicateCommand:
    def test_report_shape_and_default_prior(self, tmp_path):
        out = tmp_path / "rep.csv"
        code = main(["replicate", "--n", "40", "--censor-u", "0",
                     "--replicates", "4", "--seed", "7", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        data_rows = [l for l in lines if not l.startswith("#")][1:]
        assert len(data_rows) == 8  # 4 parameters x {vb, mle}
        assert ("# prior: mean=0.0,0.0,0.0 precision=0.1 shape=11.0 rate=10.0"
                in lines)

    def test_prior_presets(self, tmp_path):
        for preset in ("weak", "strong"):
            code = main(["replicate", "--n", "30", "--censor-u", "0",
                         "--replicates", "2", "--seed", "1",
                         "--prior-preset", preset, "--methods", "vb"])
            assert code == 0

    @pytest.mark.parametrize("preset,flags,header", [
        ("weak", ["--prior-precision", "5"],
         "# prior: mean=0.0,0.0,0.0 precision=5.0 shape=11.0 rate=10.0"),
        ("strong", ["--prior-mean", "0", "--prior-rate", "9"],
         "# prior: mean=0.0,0.0,0.0 precision=0.15 shape=11.0 rate=9.0"),
    ])
    def test_explicit_prior_flags_override_the_preset(self, tmp_path, preset, flags,
                                                      header):
        out = tmp_path / "rep.csv"
        code = main(["replicate", "--n", "40", "--replicates", "3",
                     "--prior-preset", preset, *flags, "--out", str(out)])
        assert code == 0
        assert header in out.read_text().splitlines()

    def test_nonconverged_fits_are_counted(self, tmp_path, capsys):
        # one iteration is never enough, so every VB fit stops at the cap
        out = tmp_path / "rep.csv"
        code = main(["replicate", "--n", "40", "--censor-u", "0",
                     "--replicates", "3", "--seed", "7", "--max-iter", "1",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        at = lines.index("# failures: vb=0 mle=0")
        assert lines[at + 1] == "# nonconverged: vb=3 mle=0"
        assert lines[at + 2] == "# cycles: vb=0 mle=0"
        assert lines[at + 3] == "method,parameter,bias,sd,mse,coverage,avg_length"
        table = capsys.readouterr().out.splitlines()
        assert "nonconverged  vb: 3  mle: 0" in table
        assert "cycles  vb: 0  mle: 0" in table

    def test_failed_study_names_the_first_failure_and_no_prior(self, capsys):
        # n = 3 leaves the MLE no degree of freedom on either replicate
        assert main(["replicate", "--n", "3", "--replicates", "2"]) == 1
        assert capsys.readouterr().err == (
            "numerical failure: method mle failed on 2/2 replicates; the first failure: "
            "need more observations than parameters (n=3, p=3)\n")

    @pytest.mark.parametrize("u,digest", STUDY_REPORT_SHA256.items())
    def test_study_report_is_golden(self, tmp_path, u, digest):
        # the benchmark's study_n300 op over its three censoring cells: a
        # speed change to the batch fits or the summaries must not move a
        # byte of the report
        out = tmp_path / "study.csv"
        assert main(["replicate", "--n", "300", "--censor-u", u, "--replicates", "10",
                     "--prior-preset", "weak", "--methods", "vb,mle", "--seed", "1",
                     "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_three_method_study_report_is_golden(self, tmp_path):
        # the study CI runs with every method: the chains' outcomes are
        # gathered as the batch fits' are, and one VB fit stops in a cycle
        out = tmp_path / "study.csv"
        assert main(["replicate", "--n", "50", "--replicates", "3", "--methods",
                     "vb,mle,mcmc", "--seed", "1", "--mcmc-iterations", "1000",
                     "--mcmc-burn-in", "200", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == THREE_METHOD_STUDY_SHA256


class TestFlagValidation:
    """Out-of-range flag values are usage errors: exit 2 and one error line,
    not a traceback."""

    @pytest.mark.parametrize("argv", [
        ["fit", "--elbo-tol", "0"],
        ["fit", "--max-iter", "0"],
        ["fit", "--prior-precision", "-1"],
        ["fit", "--methods", "mcmc", "--mcmc-burn-in", "-50"],
        ["replicate", "--replicates", "0"],
        ["replicate", "--censor-u", "-1"],
        ["replicate", "--n", "20", "--replicates", "1", "--methods", "mcmc",
         "--mcmc-burn-in", "-50"],
        # method lists are checked before any fit runs or prints
        ["fit", "--methods", "vb,bogus"],
        ["fit", "--methods", ","],
        ["replicate", "--n", "20", "--replicates", "1", "--methods", ","],
    ])
    def test_exit_2(self, tmp_path, capsys, argv):
        if argv[0] == "fit":
            argv = [*argv, "--data", write(tmp_path / "d.csv", TINY)]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["fit", "--methods", "vb,mcmc"],
        ["compare"],
        ["replicate", "--n", "50", "--replicates", "3", "--methods", "vb,mle,mcmc"],
    ])
    def test_one_kept_draw_exits_before_any_fit(self, tmp_path, capsys, argv):
        # a chain that keeps one draw once ran every other method first and
        # then failed in its summary, after NumPy warnings
        if argv[0] != "replicate":
            argv = [*argv, "--data", write(tmp_path / "d.csv", TINY)]
        out = tmp_path / "out.csv"
        assert main([*argv, "--mcmc-iterations", "10", "--mcmc-burn-in", "9",
                     "--out", str(out)]) == 2
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err.startswith("error: burn_in") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_non_numeric_prior_mean_names_the_prior_mean(self, tmp_path, capsys, source):
        # float()'s own message named neither the flag nor the config key
        if source == "flag":
            argv, value = ["--prior-mean", "a,b,c"], "a,b,c"
        else:
            argv, value = ["--config", write(tmp_path / "c.cfg", "prior_mean = x\n")], "x"
        assert main(["replicate", "--replicates", "1", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: prior mean must be comma-separated numbers, got {value!r}\n"

    @pytest.mark.parametrize("argv,field", [
        (["fit", "--prior-mean", "nan", "--methods", "mcmc"], "coef_mean"),
        (["fit", "--prior-precision", "inf", "--methods", "vb,mcmc"], "coef_precision"),
        (["replicate", "--n", "50", "--replicates", "3", "--censor-u", "nan"],
         "censor_bound"),
        (["replicate", "--n", "50", "--replicates", "3", "--censor-u", "inf"],
         "censor_bound"),
        (["fit", "--elbo-tol", "inf"], "elbo_tolerance"),
    ])
    def test_nonfinite_value_names_the_field(self, capsys, argv, field):
        # a NaN prior mean once ran a chain that never moved, an infinite
        # precision failed as a numerical error and a NaN censoring bound
        # ran an uncensored study; an infinite ELBO tolerance stopped every
        # fit after one iteration
        if argv[0] == "fit":
            argv = [*argv, "--data", str(rhdnase_path())]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err


class TestDefaults:
    """Flags left unset take the library's defaults: spelling them out
    changes no byte of the report."""

    LIBRARY_DEFAULTS = ["--elbo-tol", "0.01", "--max-iter", "100",
                        "--prior-precision", "0.1", "--prior-shape", "11",
                        "--prior-rate", "10"]

    def run(self, tmp_path, name, argv):
        out = tmp_path / name
        assert main([*argv, "--out", str(out)]) == 0
        return out.read_bytes()

    def test_replicate(self, tmp_path):
        argv = ["replicate", "--n", "40", "--replicates", "3"]
        explicit = [*argv, "--censor-u", "0", "--seed", "0", *self.LIBRARY_DEFAULTS]
        assert (self.run(tmp_path, "a.csv", argv)
                == self.run(tmp_path, "b.csv", explicit))

    def test_fit(self, tmp_path):
        argv = ["fit", "--data", write(tmp_path / "d.csv", TINY), "--methods", "vb,mle"]
        assert (self.run(tmp_path, "a.csv", argv)
                == self.run(tmp_path, "b.csv", [*argv, *self.LIBRARY_DEFAULTS]))


# approx-check's whole stdout, byte for byte, as first printed by the
# exhaustive knot scans that screened every tuple and its mirror image
APPROX_CHECK_STDOUT = "\n".join([
    "published-table audit on a 10000-point grid over [-5, 5]:",
    "  linear    SSE 3.35213   max|err| 0.0526472 on [-8, 8]",
    "  quadratic SSE 0.120855   max|err| 0.0121772 on [-8, 8]",
    "segmented least-squares search (knots on a 0.05 lattice):",
    "breakpoints  sse      r_squared  knots       ",
    "1            68.3055  0.997157   0           ",
    "2            11.3254  0.999529   -1.1, 1.05  ",
    "3            3.3523   0.999860   -1.7, 0, 1.7",
    "audit passed",
]) + "\n"


class TestApproxCheckCommand:
    def test_audit_passes(self, capsys):
        assert main(["approx-check"]) == 0
        out = capsys.readouterr().out
        assert "3.35" in out        # linear table SSE
        assert "0.12" in out        # quadratic table SSE
        assert "audit passed" in out

    def test_stdout_is_golden(self, capsys):
        assert main(["approx-check"]) == 0
        assert capsys.readouterr().out == APPROX_CHECK_STDOUT

    @pytest.mark.parametrize("flag", [
        ["--out", "x.csv"], ["--seed", "3"], ["--prior-mean", "9"], ["--max-iter", "0"],
        ["--mcmc-burn-in", "-5"], ["--config", "study.cfg"]])
    def test_takes_no_flags(self, tmp_path, monkeypatch, capsys, flag):
        # the audit has one configuration, so a flag is a usage error
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["approx-check", *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


# sha256 of the compare report of the benchmark's trial_compare op at seed 1:
# the bundled rhDNase file with the README prior
TRIAL_REPORT_SHA256 = "a3f17db6261f0447699a0c2ec2e309dfcfe7e172d1855dd1237ef82078554319"
# sha256 of the `fit --methods mcmc` report on the same data and prior at seed
# 5, with a schedule (2301 iterations, burn-in 1999) whose burn-in ends inside
# an adaptation window and whose sampling ends inside a stream block
ODD_SCHEDULE_CHAIN_SHA256 = "2f6532eb27d988fe08aefff23ca8926ea2ecdb16b28deab248ffa34aac012fcb"


class TestCompareCommand:
    def test_side_by_side(self, tmp_path, capsys):
        data = write(tmp_path / "d.csv", TINY)
        code = main(["compare", "--data", data, "--seed", "2",
                     "--mcmc-iterations", "800", "--mcmc-burn-in", "200"])
        assert code == 0
        out = capsys.readouterr().out
        assert "vb:mean" in out and "mcmc:mean" in out
        assert "mcmc/vb" in out

    def test_trial_report_is_golden(self, tmp_path):
        # the benchmark's trial_compare op at seed 1: the rhDNase file with
        # the README prior; a change to the sampler's kernel must not move a
        # byte of it
        out = tmp_path / "compare.csv"
        assert main(["compare", "--data", rhdnase_path(), "--prior-mean", "4.4,0.25,0.04",
                     "--prior-precision", "1", "--prior-shape", "501",
                     "--prior-rate", "500", "--seed", "1", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == TRIAL_REPORT_SHA256

    def test_odd_schedule_chain_is_golden(self, tmp_path):
        out = tmp_path / "chain.csv"
        assert main(["fit", "--data", rhdnase_path(), "--prior-mean", "4.4,0.25,0.04",
                     "--prior-precision", "1", "--prior-shape", "501",
                     "--prior-rate", "500", "--methods", "mcmc", "--mcmc-iterations", "2301",
                     "--mcmc-burn-in", "1999", "--seed", "5", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == ODD_SCHEDULE_CHAIN_SHA256


class TestSharedCommandPath:
    """`fit` and `compare` run one setup: its checks come in one order, all
    before any fit, and the same fits give the same report rows."""

    BURN_IN = ("error: burn_in must be nonnegative and keep at least two draws, "
               "got burn_in=-1 with n_iterations=5000\n")
    METHODS = "error: methods must be a nonempty list from vb,mle,mcmc, got 'bogus'\n"
    TRIAL = ["--data", str(rhdnase_path()), "--prior-mean", "4.4,0.25,0.04",
             "--prior-precision", "1", "--prior-shape", "501", "--prior-rate", "500",
             "--seed", "1"]

    @pytest.mark.parametrize("argv, err", [
        (["fit", "--methods", "bogus", "--mcmc-burn-in", "-1"],
         "error: fit requires --data\n"),
        (["compare", "--mcmc-burn-in", "-1"], "error: compare requires --data\n"),
        (["fit", "--data", "MISSING", "--methods", "bogus", "--mcmc-burn-in", "-1"], METHODS),
        (["fit", "--data", "MISSING", "--methods", "vb,mcmc", "--mcmc-burn-in", "-1"],
         BURN_IN),
        (["compare", "--data", "MISSING", "--mcmc-burn-in", "-1"], BURN_IN),
    ])
    def test_the_first_failing_check_wins(self, tmp_path, capsys, argv, err):
        missing = str(tmp_path / "nope.csv")
        assert main([missing if a == "MISSING" else a for a in argv]) == 2
        assert capsys.readouterr().err == err

    def test_the_chain_length_is_checked_only_for_a_chain(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        assert main(["fit", "--data", str(missing), "--methods", "vb,mle",
                     "--mcmc-burn-in", "-1"]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot open {missing}: ")

    def test_fit_prints_each_table_before_the_next_fit_runs(self, capsys, monkeypatch):
        printed = []
        fit_mle_batch = llaft.simulate.fit_mle_batch

        def spy(*args, **kwargs):
            printed.append(capsys.readouterr().out)
            return fit_mle_batch(*args, **kwargs)

        monkeypatch.setattr(llaft.simulate, "fit_mle_batch", spy)
        assert main(["fit", "--methods", "vb,mle", *self.TRIAL]) == 0
        assert printed[0].startswith("[vb] fit of ") and "scale" in printed[0]
        assert capsys.readouterr().out.startswith("[mle] fit of ")

    @pytest.mark.parametrize("command", [["compare"], ["fit", "--methods", "vb,mle"],
                                         ["fit", "--methods", "vb,mle,mcmc"]])
    def test_one_least_squares_start_per_command(self, monkeypatch, command):
        # every method fits the one stack of the data, which solves its start once
        calls = []
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(1) or lstsq(*a, **k))
        assert main(command + self.TRIAL) == 0
        assert len(calls) == 1

    def test_fit_and_compare_write_the_same_report(self, tmp_path):
        fit_out, compare_out = tmp_path / "fit.csv", tmp_path / "compare.csv"
        assert main(["fit", "--methods", "vb,mle,mcmc", *self.TRIAL,
                     "--out", str(fit_out)]) == 0
        assert main(["compare", *self.TRIAL, "--out", str(compare_out)]) == 0
        assert fit_out.read_bytes() == compare_out.read_bytes()


class TestSamplerWarning:
    """`fit` and `compare` report a chain flagged by the sampler on stderr."""

    RUN = ["--mcmc-iterations", "400", "--mcmc-burn-in", "100", "--seed", "3"]

    @pytest.fixture
    def flagged(self, monkeypatch):
        sample = llaft.simulate.sample_posterior

        def flagged_sample(*args, **kwargs):
            return replace(sample(*args, **kwargs), acceptance_rate=0.004,
                           warning="pathological acceptance rate 0.004 after adaptation")
        monkeypatch.setattr(llaft.simulate, "sample_posterior", flagged_sample)

    @pytest.mark.parametrize("command", [["fit", "--methods", "mcmc"], ["compare"]])
    def test_warning_names_method_and_rate(self, tmp_path, capsys, flagged, command):
        data = write(tmp_path / "d.csv", TINY)
        assert main(command + ["--data", data] + self.RUN) == 0
        captured = capsys.readouterr()
        assert captured.err == ("warning: mcmc: pathological acceptance rate 0.004 "
                                "after adaptation\n")
        assert "pathological" not in captured.out

    @pytest.mark.parametrize("command", [["fit", "--methods", "mcmc"], ["compare"]])
    def test_no_warning_prints_nothing(self, tmp_path, capsys, command):
        data = write(tmp_path / "d.csv", TINY)
        assert main(command + ["--data", data] + self.RUN) == 0
        assert capsys.readouterr().err == ""


class TestVbCapWarning:
    """`fit` and `compare` report a VB fit stopped at the iteration cap on
    stderr."""

    RUN = ["--data", str(rhdnase_path()), "--prior-mean", "4.4,0.25,0.04",
           "--prior-precision", "1", "--prior-shape", "501", "--prior-rate", "500",
           "--mcmc-iterations", "1000", "--mcmc-burn-in", "200", "--seed", "1"]

    @pytest.mark.parametrize("command", [["fit"], ["compare"]])
    def test_cap_stop_is_reported(self, capsys, command):
        assert main(command + self.RUN + ["--max-iter", "2"]) == 0
        captured = capsys.readouterr()
        assert captured.err == "warning: vb: stopped at the iteration cap after 2 iterations\n"
        assert "warning" not in captured.out

    @pytest.mark.parametrize("command", [["fit"], ["compare"]])
    def test_cycle_stop_prints_nothing(self, capsys, command):
        # without the cap this fit stops by cycle detection after 11
        # iterations, which counts as settled
        assert main(command + self.RUN) == 0
        assert capsys.readouterr().err == ""


class TestOneSummaryPath:
    @pytest.mark.parametrize("method", ["vb", "mle", "mcmc"])
    def test_study_and_fit_summarize_alike(self, tmp_path, monkeypatch, method):
        # replicate 0 of a study, written to CSV and fitted by `fit` with
        # the chain seed the study gives it: the same means and interval ends
        sc = SimulationScenario(n=60, censor_bound=17.0, n_replicates=1, seed=5)
        data = generate_dataset(sc, 0)
        path = tmp_path / "d.csv"
        path.write_text("time,status,x1,x2\n" + "".join(
            f"{t!r},{e:.0f},{x1!r},{x2!r}\n" for t, e, (_, x1, x2) in zip(
                data.time.tolist(), data.event.tolist(), data.covariates.tolist())))
        read = ingest_csv(path)
        assert np.array_equal(read.time, data.time)
        assert np.array_equal(read.event, data.event)
        assert np.array_equal(read.covariates, data.covariates)

        seen = []
        aggregate = llaft.simulate.aggregate_estimates

        def spy(estimates, intervals, *rest):
            seen.append((estimates[0].tolist(), intervals[0].tolist()))
            return aggregate(estimates, intervals, *rest)

        monkeypatch.setattr(llaft.simulate, "aggregate_estimates", spy)
        run_replication(sc, WEAK_PRIOR, methods=(method,), mcmc_iterations=1000,
                        mcmc_burn_in=200)
        out = tmp_path / "fit.csv"
        assert main(["fit", "--data", str(path), "--methods", method, "--prior-preset",
                     "weak", "--seed", str(stream_seed(sc.seed, 0, ROLE_MCMC)),
                     "--mcmc-iterations", "1000", "--mcmc-burn-in", "200",
                     "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert seen == [([float(r[2]) for r in rows],
                         [[float(r[4]), float(r[5])] for r in rows])]
