import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import llaft.simulate
from llaft.cavi import FitConfig, fit
from llaft.exceptions import DataError, NumericalError
from llaft.model import DatasetStack
from llaft.numerics import _uniform_streams, normal_quantile, uniform_stream
from llaft.simulate import (ROLE_CENSOR, ROLE_NOISE, ROLE_X1, ROLE_X2, STRONG_PRIOR,
                            WEAK_PRIOR, ParameterStats, SimulationScenario, _generate_block,
                            aggregate_estimates, check_methods, generate_dataset,
                            report_text_table, run_replication, summarize_fits,
                            write_report_csv)


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

    def test_start_index_gives_the_matching_slice(self):
        whole = uniform_stream(7, 3, ROLE_X1, 500)
        assert np.array_equal(uniform_stream(7, 3, ROLE_X1, 50, start=123), whole[123:173])
        blocks = [uniform_stream(7, 3, ROLE_X1, 7, start=s) for s in range(0, 500, 7)]
        assert np.array_equal(np.concatenate(blocks)[:500], whole)

    def test_block_rows_equal_single_streams(self):
        replicates = [0, 3, 50, 7, 1000]
        block = _uniform_streams(7, replicates, ROLE_X1, 40, start=9)
        for row, r in zip(block, replicates):
            assert np.array_equal(row, uniform_stream(7, r, ROLE_X1, 40, start=9))

    def test_library_has_no_other_random_source(self):
        # every draw in the package comes from the counter-based streams
        package = Path(llaft.simulate.__file__).parent
        sources = {path.name: path.read_text() for path in package.glob("*.py")}
        assert "reference.py" in sources
        assert [name for name, text in sources.items()
                if "np.random" in text or "numpy.random" in text] == []

    def test_open_unit_interval_and_uniformity(self):
        u = uniform_stream(0, 0, 0, 200_000)
        assert u.min() > 0.0 and u.max() < 1.0
        assert u.mean() == pytest.approx(0.5, abs=0.005)
        assert u.var() == pytest.approx(1.0 / 12.0, abs=0.002)


class TestSimulationScenario:
    @pytest.mark.parametrize("bound", [np.nan, np.inf, -1.0])
    def test_censor_bound_must_be_finite_and_nonnegative(self, bound):
        with pytest.raises(ValueError, match="censor_bound"):
            SimulationScenario(n=10, censor_bound=bound)

    @pytest.mark.parametrize("scale", [-0.5, 0.0, np.nan, np.inf])
    def test_true_scale_must_be_positive_and_finite(self, scale):
        with pytest.raises(ValueError, match="true_scale"):
            SimulationScenario(n=10, true_scale=scale)

    @pytest.mark.parametrize("coefficients", [[0.5, 0.2], [0.5, 0.2, 0.8, 0.1], [[0.5, 0.2, 0.8]],
                                              [0.5, np.nan, 0.8], [np.inf, 0.2, 0.8]])
    def test_true_coefficients_must_be_three_finite_numbers(self, coefficients):
        with pytest.raises(ValueError, match="true_coefficients"):
            SimulationScenario(n=10, true_coefficients=np.array(coefficients))


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


def one_replicate(sc, i):
    """Replicate i generated on its own from the per-replicate streams: the
    formula the study's data have always followed."""
    n, seed = sc.n, sc.seed
    x1 = 1.0 + 0.2 * normal_quantile(uniform_stream(seed, i, ROLE_X1, n))
    x2 = (uniform_stream(seed, i, ROLE_X2, n) < 0.5).astype(float)
    u = uniform_stream(seed, i, ROLE_NOISE, n)
    X = np.column_stack([np.ones(n), x1, x2])
    event_time = np.exp(X @ sc.true_coefficients + sc.true_scale * np.log(u / (1.0 - u)))
    if sc.censor_bound == 0:
        return event_time, np.ones(n), X
    censor_time = sc.censor_bound * uniform_stream(seed, i, ROLE_CENSOR, n)
    return (np.minimum(event_time, censor_time),
            (event_time <= censor_time).astype(float), X)


class TestGenerateBlock:
    @pytest.mark.parametrize("n", [1, 300])
    @pytest.mark.parametrize("u", [0.0, 17.0])
    @pytest.mark.parametrize("first", [0, 50])
    @pytest.mark.parametrize("size", [1, 7, 50])
    def test_rows_equal_generate_dataset(self, n, u, first, size):
        sc = SimulationScenario(n=n, censor_bound=u, seed=4)
        indices = range(first, first + size)
        stack, observed = _generate_block(sc, indices)
        assert np.array_equal(stack.r, stack.event.sum(axis=1))
        for j, i in enumerate(indices):
            one = generate_dataset(sc, i)
            assert np.array_equal(observed[j], one.time)
            assert np.array_equal(stack.event[j], one.event)
            assert np.array_equal(stack.covariates[j], one.covariates)
            assert np.array_equal(stack.log_time[j], one.log_time)

    @pytest.mark.parametrize("u", [0.0, 17.0])
    def test_generate_dataset_follows_the_per_replicate_formula(self, u):
        sc = SimulationScenario(n=300, censor_bound=u, seed=11)
        for i in (0, 1, 49, 50):
            observed, event, X = one_replicate(sc, i)
            data = generate_dataset(sc, i)
            assert np.array_equal(data.time, observed)
            assert np.array_equal(data.event, event)
            assert np.array_equal(data.covariates, X)

    def test_overflowing_times_raise_data_error(self):
        sc = SimulationScenario(n=20, censor_bound=0.0, n_replicates=3, seed=1,
                                true_coefficients=np.array([800.0, 0.2, 0.8]))
        with pytest.raises(DataError, match="observed times must be positive and finite"):
            _generate_block(sc, range(3))
        with pytest.raises(DataError, match="observed times must be positive and finite"):
            generate_dataset(sc, 0)
        with pytest.raises(DataError, match="observed times must be positive and finite"):
            run_replication(sc, WEAK_PRIOR)


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

    def test_each_statistic_is_its_column_formula_bit_for_bit(self, rng):
        # random (n, P) blocks; every statistic must round as the formula on
        # the column alone does
        for n in range(1, 501):
            P = 1 + n % 6
            est = rng.normal(0.5, 0.3, size=(n, P))
            half = rng.uniform(0.05, 0.6, size=(n, P))
            iv = np.stack([est - half, est + half], axis=-1)
            truth = rng.normal(0.5, 0.2, size=P)
            names = [f"p{j}" for j in range(P)]
            for j, s in enumerate(aggregate_estimates(est, iv, truth, names)):
                col, t = est[:, j], truth[j]
                inside = (iv[:, j, 0] <= t) & (t <= iv[:, j, 1])
                assert s == ParameterStats(
                    parameter=names[j],
                    bias=float(col.mean() - t),
                    sample_sd=float(col.std(ddof=1)) if n > 1 else 0.0,
                    mse=float(np.mean((t - col) ** 2)),
                    coverage_percent=float(100.0 * inside.mean()),
                    avg_interval_length=float(np.mean(iv[:, j, 1] - iv[:, j, 0])))


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

    def test_method_that_keeps_no_replicate_fails_run(self):
        # every MLE fit raises, and even a run that allows that has no fit
        # left to aggregate
        sc = SimulationScenario(n=3, n_replicates=2, seed=1)
        with pytest.raises(NumericalError, match="method mle failed on 2/2"):
            run_replication(sc, WEAK_PRIOR, methods=("mle",), max_failure_rate=1.0)

    def test_vb_keeps_its_fits_when_the_intercept_is_far_from_the_prior_mean(self):
        # 79% censored, n = 50: the least-squares start where r > p fails 4 of
        # 500; the prior mean 0, far from the intercept 3, failed 419
        sc = SimulationScenario(n=50, censor_bound=25.0, n_replicates=500, seed=11,
                                true_coefficients=np.array([3.0, 0.2, 0.8]))
        report, = run_replication(sc, WEAK_PRIOR, methods=("vb",))
        assert report.n_failures <= 5

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

    def test_vb_and_the_mle_share_one_least_squares_start(self, monkeypatch):
        # every replicate has r > p, so both fits of each block (3, 3 and 1
        # replicates) read the block's start, one least-squares solve per
        # replicate
        calls = []
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(1) or lstsq(*a, **k))
        monkeypatch.setattr(llaft.simulate, "_BLOCK_SIZE", 3)
        sc = SimulationScenario(n=40, n_replicates=7, seed=5)
        vb, mle = run_replication(sc, WEAK_PRIOR, methods=("vb", "mle"))
        assert vb.n_replicates == mle.n_replicates == 7
        assert len(calls) == 7

    def test_block_size_does_not_change_reports(self, monkeypatch):
        sc = SimulationScenario(n=40, censor_bound=17.0, n_replicates=7, seed=5)
        whole = run_replication(sc, WEAK_PRIOR, methods=("vb", "mle"))
        monkeypatch.setattr(llaft.simulate, "_BLOCK_SIZE", 3)
        blocks = run_replication(sc, WEAK_PRIOR, methods=("vb", "mle"))
        for a, b in zip(whole, blocks):
            assert a.stats == b.stats
            assert (a.n_failures, a.n_nonconverged, a.n_cycles) == (
                b.n_failures, b.n_nonconverged, b.n_cycles)

    def test_blocks_of_one_give_the_same_reports_for_every_method(self, monkeypatch):
        # 60 replicates: one full block of 50 and a partial one of 10
        sc = SimulationScenario(n=40, censor_bound=17.0, n_replicates=60, seed=8)
        kwargs = dict(methods=("vb", "mle", "mcmc"), mcmc_iterations=300, mcmc_burn_in=100,
                      max_failure_rate=0.1)
        whole = run_replication(sc, WEAK_PRIOR, **kwargs)
        monkeypatch.setattr(llaft.simulate, "_BLOCK_SIZE", 1)
        ones = run_replication(sc, WEAK_PRIOR, **kwargs)
        assert [r.method for r in whole] == ["vb", "mle", "mcmc"]
        for a, b in zip(whole, ones):
            assert a.stats == b.stats
            assert (a.n_replicates, a.n_failures, a.n_nonconverged, a.n_cycles) == (
                b.n_replicates, b.n_failures, b.n_nonconverged, b.n_cycles)

    def test_unknown_method_rejected(self):
        sc = SimulationScenario(n=10, censor_bound=0.0, n_replicates=1, seed=0)
        with pytest.raises(ValueError):
            run_replication(sc, WEAK_PRIOR, methods=("hmc",))

    def test_one_bad_scale_fails_only_its_replicate(self, monkeypatch):
        # a state with shape <= 1 has no scale mean; the block's other
        # scales are still summarized, in the same one call
        sc = SimulationScenario(n=60, censor_bound=17.0, n_replicates=4, seed=9)
        block = DatasetStack.of([generate_dataset(sc, i) for i in range(4)])
        fit_batch = llaft.simulate.fit_batch

        def one_bad_shape(stack, prior, config):
            states = fit_batch(stack, prior, config)
            states[1] = replace(states[1], scale_shape=0.9)
            return states

        good = summarize_fits("vb", fit_batch(block, WEAK_PRIOR, FitConfig()))
        got = summarize_fits("vb", one_bad_shape(block, WEAK_PRIOR, FitConfig()))
        assert isinstance(got[1], NumericalError)
        assert good[::2] + good[3:] == got[::2] + got[3:]
        monkeypatch.setattr(llaft.simulate, "fit_batch", one_bad_shape)
        vb, = run_replication(sc, WEAK_PRIOR, methods=("vb",), max_failure_rate=0.5)
        assert (vb.n_failures, vb.n_replicates) == (1, 3)


class TestCheckMethods:
    def test_repeats_dropped_in_order_of_first_mention(self):
        assert check_methods(["MLE", "vb", "mle", "VB", "mcmc"]) == ["mle", "vb", "mcmc"]

    def test_unknown_method_lists_the_table_in_order(self):
        message = "methods must be a nonempty list from vb,mle,mcmc, got 'vb,hmc'"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check_methods(["vb", "hmc"])
        assert list(llaft.simulate._METHODS) == ["vb", "mle", "mcmc"]


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
