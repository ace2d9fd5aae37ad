import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_dataset
from llaft.cavi import fit
from llaft.exceptions import NumericalError
from llaft.model import (DatasetStack, ModelParams, PriorSpec, SurvivalDataset,
                         log_likelihood, log_posterior)
from llaft.numerics import inverse_gamma_log_pdf
from llaft.reference import (_ascent_steps, _chain_log_posterior, fit_mle, fit_mle_batch,
                             loglik_grad_hess, sample_posterior)
from llaft.simulate import WEAK_PRIOR, SimulationScenario, generate_dataset


def random_dataset(rng, n, p_extra=2, censored=True):
    X_extra = rng.normal(size=(n, p_extra))
    z = rng.logistic(size=n)
    beta = rng.normal(0.0, 0.5, size=p_extra + 1)
    b = rng.uniform(0.4, 1.5)
    logT = beta[0] + X_extra @ beta[1:] + b * z
    if censored:
        logC = rng.normal(1.0, 1.5, size=n)
        y = np.minimum(logT, logC)
        d = (logT <= logC).astype(float)
    else:
        y, d = logT, np.ones(n)
    return make_dataset(y, d, X_extra)


class TestGradientAndHessian:
    def test_matches_central_differences(self, rng):
        # relative 1e-5 agreement with step-1e-6 central differences
        h = 1e-6
        for _ in range(100):
            data = random_dataset(rng, int(rng.integers(5, 30)))
            theta = np.append(rng.normal(0.0, 0.5, size=data.p),
                              rng.uniform(-0.7, 0.5))
            ll, grad, hess = loglik_grad_hess(data, theta[:-1], theta[-1])

            def f(t):
                return loglik_grad_hess(data, t[:-1], t[-1])[0]

            for j in range(len(theta)):
                e = np.zeros_like(theta)
                e[j] = h
                fd = (f(theta + e) - f(theta - e)) / (2.0 * h)
                assert grad[j] == pytest.approx(fd, rel=1e-5, abs=1e-6)

    def test_hessian_matches_gradient_differences(self, rng):
        h = 1e-6
        data = random_dataset(rng, 40)
        theta = np.array([0.2, -0.1, 0.4, math.log(0.8)])

        def g(t):
            return loglik_grad_hess(data, t[:-1], t[-1])[1]

        _, _, hess = loglik_grad_hess(data, theta[:-1], theta[-1])
        for j in range(len(theta)):
            e = np.zeros_like(theta)
            e[j] = h
            fd = (g(theta + e) - g(theta - e)) / (2.0 * h)
            assert np.allclose(hess[:, j], fd, rtol=1e-4, atol=1e-5)


class TestFitMle:
    def test_gradient_norm_at_optimum(self, rng):
        data = random_dataset(rng, 150)
        res = fit_mle(data)
        assert res.gradient_norm <= 1e-8
        assert res.scale > 0
        assert np.all(np.diag(res.covariance) > 0)

    def test_intercept_only_against_golden_section(self, rng):
        # profile check: with b frozen at the fitted value, a 1-D golden
        # section search over the intercept lands on the same maximizer
        n = 80
        y = 0.7 + 0.9 * rng.logistic(size=n)
        data = SurvivalDataset(time=np.exp(y), event=np.ones(n),
                               covariates=np.ones((n, 1)))
        res = fit_mle(data)

        def nll(b0):
            return log_likelihood(data, ModelParams(
                coefficients=np.array([b0]), scale=res.scale))

        golden = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = -5.0, 5.0
        c, d = b - golden * (b - a), a + golden * (b - a)
        fc, fd = nll(c), nll(d)
        for _ in range(200):
            if fc > fd:
                b, d, fd = d, c, fc
                c = b - golden * (b - a)
                fc = nll(c)
            else:
                a, c, fc = c, d, fd
                d = a + golden * (b - a)
                fd = nll(d)
        assert res.coefficients[0] == pytest.approx(0.5 * (a + b), abs=1e-6)

    def test_underdetermined_raises(self):
        data = make_dataset([0.1, 0.2], [1, 1], [[1.0], [2.0]])
        with pytest.raises(NumericalError):
            fit_mle(data)

    def test_delta_method_relation(self, rng):
        res = fit_mle(random_dataset(rng, 120))
        assert res.scale_se == pytest.approx(res.scale * res.log_scale_se)

    def test_wald_interval_shapes(self, rng):
        res = fit_mle(random_dataset(rng, 100))
        ivs = res.wald_intervals()
        assert len(ivs) == 4
        assert all(lo < hi for lo, hi in ivs)
        # scale interval is the log-scale Wald interval, hence positive
        assert ivs[-1][0] > 0

    def test_mle_dominates_vb_mean_loglik(self, rng):
        for seed in (0, 1, 2):
            sc = SimulationScenario(n=120, censor_bound=17.0,
                                    n_replicates=1, seed=seed)
            data = generate_dataset(sc, 0)
            res = fit_mle(data)
            state = fit(data, WEAK_PRIOR)
            assert res.log_likelihood_at_max >= log_likelihood(
                data, ModelParams(state.coef_mean, state.scale_mean)) - 1e-9


def assert_same_mle(a, b):
    assert np.array_equal(a.coefficients, b.coefficients)
    assert a.scale == b.scale
    assert np.array_equal(a.covariance, b.covariance)
    assert a.log_likelihood_at_max == b.log_likelihood_at_max
    assert (a.iterations, a.gradient_norm) == (b.iterations, b.gradient_norm)


def separated_dataset():
    # events at y = 0 in one group, censoring at y = 3 in the other: the
    # likelihood has no maximum, and the Newton steps run out of ascent
    x = np.r_[np.zeros(5), np.ones(5)]
    return make_dataset(3.0 * x, 1.0 - x, x[:, None])


class TestAscentSteps:
    def test_singular_hessian_falls_back_to_gradient_step(self):
        # one exactly singular Hessian makes the batched solve raise; the
        # negative-definite one must still get its Newton step, and a
        # positive-definite one, whose Newton step points downhill, the
        # gradient step with norm at most 1
        singular = np.diag([-1.0, -2.0, 0.0])
        definite = -np.array([[2.0, 0.3, 0.1], [0.3, 1.5, -0.2], [0.1, -0.2, 1.0]])
        g_singular = np.array([3.0, -4.0, 0.0])
        g_definite = np.array([0.5, -1.0, 2.0])
        g_downhill = np.array([0.3, 0.0, -0.4])
        steps = _ascent_steps(np.stack([singular, definite, -definite]),
                              np.stack([g_singular, g_definite, g_downhill]))
        assert np.array_equal(steps[0], -g_singular / 5.0)
        np.testing.assert_allclose(steps[1], np.linalg.solve(definite, g_definite),
                                   rtol=1e-15, atol=0.0)
        assert np.array_equal(steps[2], -g_downhill)


class TestFitMleBatch:
    def test_each_entry_equals_its_own_fit(self):
        datasets = [generate_dataset(SimulationScenario(n=300, censor_bound=u,
                                                        n_replicates=10, seed=21), i)
                    for u in (0.0, 48.0, 17.0) for i in range(10)]
        batch = fit_mle_batch(datasets)
        assert len(batch) == 30
        for data, res in zip(datasets, batch):
            assert_same_mle(res, fit_mle(data))
        assert len({r.iterations for r in batch}) > 1

    def test_stalled_dataset_fails_only_its_entry(self, rng):
        with pytest.raises(NumericalError, match="stalled"):
            fit_mle(separated_dataset())
        good = [random_dataset(rng, 10, p_extra=1, censored=False) for _ in range(3)]
        batch = fit_mle_batch([good[0], good[1], separated_dataset(), good[2]])
        assert isinstance(batch[2], NumericalError)
        assert "stalled at Newton iteration" in str(batch[2])
        for data, res in zip(good, [batch[0], batch[1], batch[3]]):
            assert_same_mle(res, fit_mle(data))

    def test_underdetermined_batch_fails_every_entry(self):
        data = make_dataset([0.1, 0.2], [1, 1], [[1.0], [2.0]])
        assert all(isinstance(r, NumericalError) for r in fit_mle_batch([data, data]))

    def test_mismatched_datasets_raise(self, rng):
        with pytest.raises(ValueError, match="disagree"):
            fit_mle_batch([random_dataset(rng, 10), random_dataset(rng, 11)])

    def test_stacked_gradient_matches_single(self, rng):
        datasets = [random_dataset(rng, 25) for _ in range(4)]
        theta = rng.normal(0.0, 0.4, size=(4, 4))
        ll, grad, hess = loglik_grad_hess(DatasetStack.of(datasets),
                                          theta[:, :-1], theta[:, -1])
        for j, data in enumerate(datasets):
            one = loglik_grad_hess(data, theta[j, :-1], theta[j, -1])
            assert ll[j] == one[0]
            assert np.array_equal(grad[j], one[1])
            assert np.array_equal(hess[j], one[2])


class TestSamplePosterior:
    def test_zero_data_recovers_prior(self):
        data = SurvivalDataset(time=np.empty(0), event=np.empty(0),
                               covariates=np.empty((0, 3)))
        chain = sample_posterior(data, WEAK_PRIOR, n_iterations=30_000,
                                 burn_in=5_000, seed=123)
        draws = chain.coefficient_draws
        # batch-means Monte Carlo standard errors
        nb = 50
        batches = draws[: (len(draws) // nb) * nb].reshape(nb, -1, 3).mean(axis=1)
        mcse = batches.std(axis=0, ddof=1) / math.sqrt(nb)
        for j in range(3):
            assert abs(draws[:, j].mean() - 0.0) < 3.0 * mcse[j]
        # prior sd of each coefficient is 1/sqrt(0.1)
        assert draws.std() == pytest.approx(math.sqrt(10.0), rel=0.1)
        prior_scale_mean = 10.0 / (11.0 - 1.0)
        assert chain.scale_draws.mean() == pytest.approx(prior_scale_mean, rel=0.1)

    def test_moderate_n_agrees_with_mle(self):
        sc = SimulationScenario(n=100, censor_bound=0.0, n_replicates=1, seed=0)
        data = generate_dataset(sc, 0)
        res = fit_mle(data)
        chain = sample_posterior(data, WEAK_PRIOR, n_iterations=30_000,
                                 burn_in=5_000, seed=77)
        mc = chain.draws.mean(axis=0)
        assert np.all(np.abs(mc - np.append(res.coefficients, res.scale)) < 0.1)

    def test_reasonable_acceptance_and_positive_scales(self):
        sc = SimulationScenario(n=60, censor_bound=17.0, n_replicates=1, seed=13)
        data = generate_dataset(sc, 0)
        chain = sample_posterior(data, WEAK_PRIOR, 6_000, 1_000, seed=5)
        assert 0.1 < chain.acceptance_rate < 0.6
        assert np.all(chain.scale_draws > 0)
        assert chain.warning is None

    def test_deterministic_given_seed(self):
        sc = SimulationScenario(n=40, censor_bound=0.0, n_replicates=1, seed=1)
        data = generate_dataset(sc, 0)
        a = sample_posterior(data, WEAK_PRIOR, 3_000, 500, seed=9)
        b = sample_posterior(data, WEAK_PRIOR, 3_000, 500, seed=9)
        assert np.array_equal(a.draws, b.draws)
        assert a.acceptance_rate == b.acceptance_rate

    def test_percentiles_stable_across_seeds(self):
        # same tiny dataset, two seeds: medians agree within Monte Carlo error
        data = make_dataset([0.3, -0.2, 0.9, 0.1, 0.8, -0.5], [1, 1, 0, 1, 1, 0],
                            [[0.2], [1.0], [-0.4], [0.7], [0.1], [1.3]])
        prior = PriorSpec(coef_mean=np.zeros(2), coef_precision=0.5,
                          scale_shape=5.0, scale_rate=4.0)
        m = []
        for seed in (101, 202):
            chain = sample_posterior(data, prior, 40_000, 5_000, seed=seed)
            m.append(np.median(chain.draws, axis=0))
        assert np.all(np.abs(m[0] - m[1]) < 0.08)

    def test_burn_in_validation(self):
        data = make_dataset([0.1], [1], [[0.0]])
        prior = replace(WEAK_PRIOR, coef_mean=np.zeros(2))
        with pytest.raises(ValueError, match="burn_in"):
            sample_posterior(data, prior, 100, 100, seed=0)
        # a negative burn-in would return rows of an uninitialized buffer
        with pytest.raises(ValueError, match="burn_in"):
            sample_posterior(data, prior, 200, -50, seed=0)


@pytest.fixture(scope="module")
def trial():
    from llaft.cli import ingest_csv
    from llaft.datasets import rhdnase_path
    return ingest_csv(rhdnase_path())


class TestTrialData:
    """Bundled cystic-fibrosis trial file against its published analyses."""

    def test_mle_point_estimates(self, trial):
        res = fit_mle(trial)
        se = np.sqrt(np.diag(res.covariance))
        assert res.coefficients[1] == pytest.approx(0.402, abs=0.02)
        assert se[1] == pytest.approx(0.130, abs=0.02)
        assert res.scale == pytest.approx(0.796, abs=0.02)

    def test_metropolis_treatment_effect(self, trial):
        prior = PriorSpec(coef_mean=np.array([4.4, 0.25, 0.04]),
                          coef_precision=1.0, scale_shape=501.0,
                          scale_rate=500.0)
        chain = sample_posterior(trial, prior, n_iterations=45_000,
                                 burn_in=5_000, seed=36)
        b1 = chain.coefficient_draws[:, 1]
        assert b1.mean() == pytest.approx(0.44, abs=0.05)
        lo, hi = np.percentile(b1, [2.5, 97.5])
        assert lo == pytest.approx(0.165, abs=0.08)
        assert hi == pytest.approx(0.737, abs=0.08)


class TestChainLogPosterior:
    """The sampler's per-chain log posterior in (beta, log b) is the model's
    log posterior at (beta, e^s) plus the log Jacobian s, up to a constant."""

    PRIOR = PriorSpec(coef_mean=np.array([4.4, 0.25, 0.04]), coef_precision=1.0,
                      scale_shape=501.0, scale_rate=500.0)

    @staticmethod
    def assert_constant_offset(got, expected):
        got, expected = np.asarray(got), np.asarray(expected)
        offset = got - expected
        assert np.all(np.abs(offset - offset[0]) <= 1e-10 * np.abs(expected))

    def test_matches_model_log_posterior(self, trial):
        rng = np.random.default_rng(7)
        thetas = np.column_stack([rng.normal([4.1, 0.4, 0.02], [0.3, 0.3, 0.01], size=(60, 3)),
                                  rng.normal(-0.1, 0.3, size=60)])
        # a tiny scale drives z past 710, where the softplus takes np.logaddexp
        thetas[-1, -1] = -8.0
        beta, s = thetas[-1, :-1], thetas[-1, -1]
        assert ((trial.log_time - trial.covariates @ beta) / math.exp(s)).max() > 710.0
        chain_lp = _chain_log_posterior(trial, self.PRIOR)
        got = [chain_lp(theta) for theta in thetas]
        expected = [log_posterior(trial, ModelParams(theta[:-1], math.exp(theta[-1])),
                                  self.PRIOR) + theta[-1] for theta in thetas]
        self.assert_constant_offset(got, expected)

    def test_no_data_gives_the_prior(self):
        data = SurvivalDataset(time=np.empty(0), event=np.empty(0),
                               covariates=np.empty((0, 3)))
        rng = np.random.default_rng(8)
        thetas = rng.normal(0.0, 1.0, size=(50, 4))
        chain_lp = _chain_log_posterior(data, WEAK_PRIOR)
        got = [chain_lp(theta) for theta in thetas]
        v0 = WEAK_PRIOR.coef_precision
        expected = [-0.5 * v0 * float((t[:-1] - WEAK_PRIOR.coef_mean) @ (t[:-1] - WEAK_PRIOR.coef_mean))
                    + inverse_gamma_log_pdf(WEAK_PRIOR.scale_params, math.exp(t[-1])) + t[-1]
                    for t in thetas]
        self.assert_constant_offset(got, expected)
