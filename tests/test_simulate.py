import numpy as np
import pytest

import llaft.simulate
from llaft.cavi import fit
from llaft.exceptions import NumericalError
from llaft.simulate import (ROLE_NOISE, ROLE_X1, STRONG_PRIOR, WEAK_PRIOR,
                            SimulationScenario, aggregate_estimates,
                            generate_dataset, report_text_table, run_replication,
                            uniform_stream, write_report_csv)


class TestUniformStream:
    def test_counter_based_reproducibility(self):
        a = uniform_stream(7, 3, ROLE_X1, 1000)
        b = uniform_stream(7, 3, ROLE_X1, 1000)
        assert np.array_equal(a, b)
        # a longer draw extends, never rewrites, the stream
        c = uniform_stream(7, 3, ROLE_X1, 1500)
        assert np.array_equal(c[:1000], a)

    def test_streams_are_distinct(self):
        a = uniform_stream(7, 3, ROLE_X1, 100)
        assert not np.array_equal(a, uniform_stream(7, 4, ROLE_X1, 100))
        assert not np.array_equal(a, uniform_stream(7, 3, ROLE_NOISE, 100))
        assert not np.array_equal(a, uniform_stream(8, 3, ROLE_X1, 100))

    def test_open_unit_interval_and_uniformity(self):
        u = uniform_stream(0, 0, 0, 200_000)
        assert u.min() > 0.0 and u.max() < 1.0
        assert u.mean() == pytest.approx(0.5, abs=0.005)
        assert u.var() == pytest.approx(1.0 / 12.0, abs=0.002)


class TestGenerateDataset:
    def test_covariate_distributions(self):
        sc = SimulationScenario(n=100_000, censor_bound=0.0, n_replicates=1, seed=5)
        data = generate_dataset(sc, 0)
        x1, x2 = data.covariates[:, 1], data.covariates[:, 2]
        assert x1.mean() == pytest.approx(1.0, abs=0.01)
        assert x1.std() == pytest.approx(0.2, abs=0.005)
        assert x2.mean() == pytest.approx(0.5, abs=0.01)
        assert set(np.unique(x2)) == {0.0, 1.0}
        assert np.all(data.event == 1.0)

    # The nominal rates are 15% and 30%; the model's exact rates (pinned by an
    # independent 2e7-draw Monte Carlo) are 14.9% and 31.2%.
    @pytest.mark.parametrize("bound,target", [(48.0, 0.149), (17.0, 0.312)])
    def test_censoring_fractions(self, bound, target):
        sc = SimulationScenario(n=100_000, censor_bound=bound, n_replicates=1,
                                seed=11)
        data = generate_dataset(sc, 0)
        assert 1.0 - data.event.mean() == pytest.approx(target, abs=0.01)

    def test_replicates_differ_but_are_stable(self):
        sc = SimulationScenario(n=50, censor_bound=0.0, n_replicates=2, seed=3)
        d0 = generate_dataset(sc, 0)
        d1 = generate_dataset(sc, 1)
        assert not np.array_equal(d0.time, d1.time)
        again = generate_dataset(sc, 0)
        assert np.array_equal(again.time, d0.time)
        assert np.array_equal(again.covariates, d0.covariates)

    def test_censored_times_equal_censor_draw(self):
        sc = SimulationScenario(n=2000, censor_bound=17.0, n_replicates=1, seed=2)
        data = generate_dataset(sc, 0)
        censored = data.event == 0.0
        assert censored.any()
        assert np.all(data.time[censored] <= 17.0)

    def test_noise_is_inverse_cdf_of_uniform_stream(self):
        # the logistic noise is log(u/(1-u)) of the role-2 stream, so the
        # median uniform maps to z = 0 and the event times reconstruct exactly
        sc = SimulationScenario(n=500, censor_bound=0.0, n_replicates=1, seed=14)
        data = generate_dataset(sc, 0)
        u = uniform_stream(14, 0, ROLE_NOISE, 500)
        z = np.log(u / (1.0 - u))
        rebuilt = data.covariates @ sc.true_coefficients + sc.true_scale * z
        assert np.allclose(data.log_time, rebuilt, atol=1e-12)
        assert np.log(0.5 / (1.0 - 0.5)) == 0.0


class TestAggregate:
    def test_mse_identity(self, rng):
        # MSE = bias^2 + (N-1)/N * SD^2
        est = rng.normal(0.7, 0.3, size=(400, 1))
        huge = np.tile([[-np.inf, np.inf]], (400, 1)).reshape(400, 1, 2)
        stats, = aggregate_estimates(est, huge, np.array([0.5]), ["x"])
        n = 400
        assert stats.mse == pytest.approx(
            stats.bias ** 2 + (n - 1) / n * stats.sample_sd ** 2, abs=1e-10)
        assert stats.coverage_percent == 100.0

    def test_empty_interval_never_covers(self):
        est = np.zeros((10, 1))
        iv = np.tile([[0.4, 0.2]], (10, 1)).reshape(10, 1, 2)  # inverted: empty
        stats, = aggregate_estimates(est, iv, np.array([0.3]), ["x"])
        assert stats.coverage_percent == 0.0

    def test_identity_estimator(self):
        est = np.full((25, 1), 0.8)
        iv = np.tile([[0.8, 0.8]], (25, 1)).reshape(25, 1, 2)
        stats, = aggregate_estimates(est, iv, np.array([0.8]), ["x"])
        assert stats.bias == pytest.approx(0.0, abs=1e-12)
        assert stats.mse == pytest.approx(0.0, abs=1e-12)
        assert stats.coverage_percent == 100.0  # closed-interval convention

    def test_boundary_counts_as_covered(self):
        est = np.zeros((4, 1))
        iv = np.tile([[0.3, 0.9]], (4, 1)).reshape(4, 1, 2)
        stats, = aggregate_estimates(est, iv, np.array([0.3]), ["x"])
        assert stats.coverage_percent == 100.0


class TestRunReplication:
    def test_small_study_shape(self):
        sc = SimulationScenario(n=60, censor_bound=0.0, n_replicates=6, seed=1)
        reports = run_replication(sc, WEAK_PRIOR, methods=("vb", "mle"))
        assert [r.method for r in reports] == ["vb", "mle"]
        for r in reports:
            assert len(r.stats) == 4
            assert r.n_failures == 0
            assert {s.parameter for s in r.stats} == {"beta0", "beta1",
                                                      "beta2", "scale"}

    def test_vb_stats_unchanged_by_adding_methods(self):
        sc = SimulationScenario(n=50, censor_bound=0.0, n_replicates=4, seed=8)
        only_vb = run_replication(sc, WEAK_PRIOR, methods=("vb",))
        both = run_replication(sc, WEAK_PRIOR, methods=("vb", "mle"))
        assert only_vb[0].stats == both[0].stats

    def test_deterministic_given_seed(self):
        sc = SimulationScenario(n=40, censor_bound=48.0, n_replicates=4, seed=12)
        a = run_replication(sc, STRONG_PRIOR, methods=("vb",))
        b = run_replication(sc, STRONG_PRIOR, methods=("vb",))
        assert a[0].stats == b[0].stats

    def test_mcmc_method_runs(self):
        sc = SimulationScenario(n=30, censor_bound=0.0, n_replicates=2, seed=4)
        reports = run_replication(sc, WEAK_PRIOR, methods=("mcmc",),
                                  mcmc_iterations=1500, mcmc_burn_in=300)
        assert reports[0].method == "mcmc"
        assert len(reports[0].stats) == 4

    def test_failure_rate_above_threshold_fails_run(self):
        # n = 3 <= p + 1 makes every MLE fit raise
        sc = SimulationScenario(n=3, censor_bound=0.0, n_replicates=4, seed=0)
        with pytest.raises(NumericalError, match="failed on"):
            run_replication(sc, WEAK_PRIOR, methods=("mle",))

    def test_cycle_stops_are_counted_apart(self, tmp_path):
        # replicate 0 of seed 3 at n = 300 stops in a two-state cycle
        sc = SimulationScenario(n=300, censor_bound=0.0, n_replicates=5, seed=3)
        reasons = [fit(generate_dataset(sc, i), WEAK_PRIOR).stop_reason
                   for i in range(5)]
        assert reasons[0] == "cycle"
        vb, mle = run_replication(sc, WEAK_PRIOR, methods=("vb", "mle"))
        assert vb.n_cycles == reasons.count("cycle")
        assert vb.n_nonconverged == reasons.count("cap") == 0
        assert mle.n_cycles == 0
        path = tmp_path / "r.csv"
        write_report_csv(path, [vb, mle], sc, WEAK_PRIOR)
        lines = path.read_text().splitlines()
        at = lines.index("# nonconverged: vb=0 mle=0")
        assert lines[at + 1] == f"# cycles: vb={vb.n_cycles} mle=0"
        assert f"cycles  vb: {vb.n_cycles}  mle: 0" in report_text_table([vb, mle], sc)

    def test_block_size_does_not_change_reports(self, monkeypatch):
        sc = SimulationScenario(n=40, censor_bound=17.0, n_replicates=7, seed=5)
        whole = run_replication(sc, WEAK_PRIOR, methods=("vb", "mle"))
        monkeypatch.setattr(llaft.simulate, "_BLOCK_SIZE", 3)
        blocks = run_replication(sc, WEAK_PRIOR, methods=("vb", "mle"))
        for a, b in zip(whole, blocks):
            assert a.stats == b.stats
            assert (a.n_failures, a.n_nonconverged, a.n_cycles) == (
                b.n_failures, b.n_nonconverged, b.n_cycles)

    def test_unknown_method_rejected(self):
        sc = SimulationScenario(n=10, censor_bound=0.0, n_replicates=1, seed=0)
        with pytest.raises(ValueError):
            run_replication(sc, WEAK_PRIOR, methods=("hmc",))


class TestSerialization:
    def test_report_csv_is_deterministic(self, tmp_path):
        sc = SimulationScenario(n=40, censor_bound=0.0, n_replicates=4, seed=2)
        reports = run_replication(sc, WEAK_PRIOR, methods=("vb", "mle"))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_report_csv(p1, reports, sc, WEAK_PRIOR)
        reports2 = run_replication(sc, WEAK_PRIOR, methods=("vb", "mle"))
        write_report_csv(p2, reports2, sc, WEAK_PRIOR)
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()
        assert header[-9] == "method,parameter,bias,sd,mse,coverage,avg_length"
