import numpy as np
import pytest

from llaft.cli import ingest_csv, load_config, main
from llaft.datasets import rhdnase_path
from llaft.exceptions import DataError


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

    def test_failure_on_the_default_prior_names_the_prior_flags(self, capsys):
        # the zero-mean default prior cannot fit the bundled trial data
        assert main(["fit", "--data", str(rhdnase_path())]) == 1
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ")
        assert "default prior" in err and "--prior-mean" in err
        assert main(["fit", "--data", str(rhdnase_path()), "--prior-rate", "10"]) == 1
        assert "--prior-mean" not in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["inf", "nan"])
    def test_nonfinite_covariate_exit_2(self, tmp_path, capsys, bad):
        data = write(tmp_path / "bad.csv",
                     f"time,status,x\n1,1,0.5\n2,0,{bad}\n3,1,1.5\n4,1,2\n")
        assert main(["fit", "--data", data, "--methods", "mle"]) == 2
        assert "covariates must be finite" in capsys.readouterr().err

    def test_deterministic_output_bytes(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            assert main(["fit", "--data", rhdnase_path(),
                         "--prior-mean", "4.4,0.25,0.04",
                         "--prior-precision", "1",
                         "--prior-shape", "501", "--prior-rate", "500",
                         "--out", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


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
    ])
    def test_exit_2(self, tmp_path, capsys, argv):
        if argv[0] == "fit":
            argv = [*argv, "--data", write(tmp_path / "d.csv", TINY)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")


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


class TestApproxCheckCommand:
    def test_audit_passes(self, capsys):
        assert main(["approx-check"]) == 0
        out = capsys.readouterr().out
        assert "3.35" in out        # linear table SSE
        assert "0.12" in out        # quadratic table SSE
        assert "audit passed" in out


class TestCompareCommand:
    def test_side_by_side(self, tmp_path, capsys):
        data = write(tmp_path / "d.csv", TINY)
        code = main(["compare", "--data", data, "--seed", "2",
                     "--mcmc-iterations", "800", "--mcmc-burn-in", "200"])
        assert code == 0
        out = capsys.readouterr().out
        assert "vb:mean" in out and "mcmc:mean" in out
        assert "mcmc/vb" in out
