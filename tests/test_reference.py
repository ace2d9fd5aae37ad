import gc
import hashlib
import importlib.util
import math
import warnings
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import llaft.reference
from conftest import make_dataset
from llaft.cavi import fit
from llaft.exceptions import NumericalError
from llaft.model import (DatasetStack, ModelParams, PriorSpec, SurvivalDataset,
                         log_likelihood, log_posterior)
from llaft.numerics import _dot, inverse_gamma_log_pdf
from llaft.reference import (_ascent_steps, _chain_log_posterior, fit_mle, fit_mle_batch,
                             loglik_grad_hess, sample_posterior)
from llaft.simulate import WEAK_PRIOR, SimulationScenario, _generate_block, generate_dataset


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


def grad_hess_at(data, theta):
    """loglik_grad_hess of one dataset at one theta, as a stack of one."""
    ll, grad, hess = loglik_grad_hess(DatasetStack.of([data]), theta[None, :-1],
                                      theta[None, -1])
    return ll[0], grad[0], hess[0]


class TestGradientAndHessian:
    def test_matches_central_differences(self, rng):
        # relative 1e-5 agreement with step-1e-6 central differences
        h = 1e-6
        for _ in range(100):
            data = random_dataset(rng, int(rng.integers(5, 30)))
            theta = np.append(rng.normal(0.0, 0.5, size=data.p),
                              rng.uniform(-0.7, 0.5))
            ll, grad, hess = grad_hess_at(data, theta)

            def f(t):
                return grad_hess_at(data, t)[0]

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
            return grad_hess_at(data, t)[1]

        _, _, hess = grad_hess_at(data, theta)
        for j in range(len(theta)):
            e = np.zeros_like(theta)
            e[j] = h
            fd = (g(theta + e) - g(theta - e)) / (2.0 * h)
            assert np.allclose(hess[:, j], fd, rtol=1e-4, atol=1e-5)

    def test_mask_free_logistic_gives_the_masked_bits(self):
        # z = y exactly at beta = 0, b = 1, across both tails, both zeros and
        # NaN; the expected values follow the masked formula for sigma(z)
        z = np.array([[-800.0, -40.0, -0.0, 0.0, 40.0, 800.0, 1.5],
                      [0.3, -800.0, np.nan, 800.0, -0.0, -2.0, 40.0]])
        d = np.array([[1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0], [0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0]])
        X = np.stack([np.ones_like(z), np.linspace(-1.0, 1.0, 7) + np.zeros_like(z)], axis=-1)
        stack = DatasetStack(z, d, X, d.sum(axis=-1))
        beta, log_b = np.zeros((2, 2)), np.zeros(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = loglik_grad_hess(stack, beta, log_b)

        d1 = 1.0 + d
        zz, ll = llaft.reference._z_loglik(stack, beta, log_b)
        assert np.array_equal(zz.view(np.int64), z.view(np.int64))
        sig = np.empty_like(z)
        pos = z >= 0
        sig[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        sig[~pos] = ez / (1.0 + ez)
        g, w = d - d1 * sig, d1 * sig * (1.0 - sig)
        grad = np.column_stack([-_dot(g, X), -stack.r - _dot(z, g)])
        hess = np.empty((2, 3, 3))
        hess[:, :2, :2] = np.matmul(-(X.transpose(0, 2, 1) * w[:, None, :]), X)
        hess[:, :2, 2] = hess[:, 2, :2] = _dot(g - w * z, X)
        hess[:, 2, 2] = _dot(z, g) - _dot(w, z * z)
        for a, b in zip(got, (ll, grad, hess)):
            assert np.array_equal(a.view(np.int64), b.view(np.int64))
        assert np.isfinite(got[1][0]).all() and np.isnan(got[1][1]).all()


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


class TestNewtonCap:
    def test_a_fit_converged_by_its_last_allowed_step_is_returned(self, trial, monkeypatch):
        # the gradient is checked once more after the last step, so a cap of
        # one step fewer than the fit's checks still returns the same fit
        full = fit_mle(trial)
        assert full.iterations == 8
        monkeypatch.setattr(llaft.reference, "_NEWTON_ITERATIONS", full.iterations - 1)
        assert_same_mle(fit_mle(trial), full)

    def test_a_fit_one_step_short_of_the_tolerance_fails(self, trial, monkeypatch):
        cap = fit_mle(trial).iterations - 2
        monkeypatch.setattr(llaft.reference, "_NEWTON_ITERATIONS", cap)
        with pytest.raises(NumericalError, match=f"did not converge in {cap} Newton iterations"):
            fit_mle(trial)


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
        batch = fit_mle_batch(DatasetStack.of(datasets))
        assert len(batch) == 30
        for data, res in zip(datasets, batch):
            assert_same_mle(res, fit_mle(data))
        assert len({r.iterations for r in batch}) > 1

    def test_stalled_dataset_fails_only_its_entry(self, rng):
        with pytest.raises(NumericalError, match="stalled"):
            fit_mle(separated_dataset())
        good = [random_dataset(rng, 10, p_extra=1, censored=False) for _ in range(3)]
        stack = DatasetStack.of([good[0], good[1], separated_dataset(), good[2]])
        batch = fit_mle_batch(stack)
        assert isinstance(batch[2], NumericalError)
        assert "stalled at Newton iteration" in str(batch[2])
        for data, res in zip(good, [batch[0], batch[1], batch[3]]):
            assert_same_mle(res, fit_mle(data))

    def test_a_singular_information_fails_only_its_entry(self, rng):
        # the converged replicates' informations are inverted as one stack;
        # a singular one among them fails alone, and the others are the
        # results each gets by itself
        fits = fit_mle_batch(DatasetStack.of([random_dataset(rng, 25) for _ in range(3)]))
        theta = np.array([np.append(f.coefficients, math.log(f.scale)) for f in fits])
        ll = np.array([f.log_likelihood_at_max for f in fits])
        hess = -np.linalg.inv(np.array([f.covariance for f in fits]))
        norm = np.array([f.gradient_norm for f in fits])
        results = llaft.reference._mle_results
        alone = [results(theta[j:j + 1], ll[j:j + 1], hess[j:j + 1], 5, norm[j:j + 1])[0]
                 for j in range(3)]
        for a, b in zip(results(theta, ll, hess, 5, norm), alone):
            assert_same_mle(a, b)
        hess[1] = 0.0
        fallback = results(theta, ll, hess, 5, norm)
        assert str(fallback[1]) == "singular observed information: Singular matrix"
        assert_same_mle(fallback[0], alone[0])
        assert_same_mle(fallback[2], alone[2])

    def test_newton_cap_names_the_gradient_norm(self):
        # replicate 0 of this heavily censored cell is still short of the
        # gradient tolerance after the last Newton iteration
        sc = SimulationScenario(n=50, censor_bound=1.0, seed=1,
                                true_coefficients=[3, 0.2, 0.8])
        result, = fit_mle_batch(DatasetStack.of([generate_dataset(sc, 0)]))
        assert isinstance(result, NumericalError)
        assert str(result) == ("MLE did not converge in 200 Newton iterations "
                               "(gradient norm 6.25e-05)")

    def test_a_halving_line_search_in_a_mixed_batch(self, monkeypatch):
        # in this block a few line searches halve their step while the
        # others take the full step; each entry must still be its own fit
        sc = SimulationScenario(n=50, censor_bound=3.0, n_replicates=50, seed=11)
        block, _ = _generate_block(sc, range(50))
        scores = [0]  # the start's scoring calls, then those of each line search
        score, search = llaft.reference.loglik_grad_hess, llaft.reference._line_search

        def score_spy(*args):
            scores[-1] += 1
            return score(*args)

        def search_spy(*args):
            scores.append(0)
            return search(*args)

        monkeypatch.setattr(llaft.reference, "loglik_grad_hess", score_spy)
        monkeypatch.setattr(llaft.reference, "_line_search", search_spy)
        batch = fit_mle_batch(block)
        monkeypatch.undo()
        assert max(scores[1:]) > 1
        for j, res in enumerate(batch):
            assert_same_mle(res, fit_mle(generate_dataset(sc, j)))

    def test_underdetermined_batch_fails_every_entry(self):
        data = make_dataset([0.1, 0.2], [1, 1], [[1.0], [2.0]])
        batch = fit_mle_batch(DatasetStack.of([data, data]))
        assert all(isinstance(r, NumericalError) for r in batch)

    def test_mismatched_datasets_raise(self, rng):
        # a batch is a stack, and datasets of different (n, p) do not stack
        with pytest.raises(ValueError, match="disagree"):
            DatasetStack.of([random_dataset(rng, 10), random_dataset(rng, 11)])

    def test_stacked_gradient_matches_single(self, rng):
        datasets = [random_dataset(rng, 25) for _ in range(4)]
        theta = rng.normal(0.0, 0.4, size=(4, 4))
        ll, grad, hess = loglik_grad_hess(DatasetStack.of(datasets),
                                          theta[:, :-1], theta[:, -1])
        for j, data in enumerate(datasets):
            one = grad_hess_at(data, theta[j])
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

    def test_a_stack_of_one_is_its_dataset(self):
        sc = SimulationScenario(n=40, censor_bound=17.0, n_replicates=2, seed=1)
        data = generate_dataset(sc, 0)
        alone = sample_posterior(data, WEAK_PRIOR, 1_000, 200, seed=9)
        stacked = sample_posterior(DatasetStack.of([data]), WEAK_PRIOR, 1_000, 200, seed=9)
        assert alone.draws.tobytes() == stacked.draws.tobytes()
        two = _generate_block(sc, range(2))[0]
        with pytest.raises(ValueError, match="a chain runs on one dataset, got a stack of 2"):
            sample_posterior(two, WEAK_PRIOR, 1_000, 200, seed=9)

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

    def test_chain_reads_its_stream_once(self, monkeypatch):
        data = generate_dataset(SimulationScenario(n=40, censor_bound=17.0, seed=2), 0)
        calls = {"uniform_stream": 0, "normal_quantile": 0}
        for name in calls:
            def counted(*args, _f=getattr(llaft.reference, name), _name=name, **kwargs):
                calls[_name] += 1
                return _f(*args, **kwargs)
            monkeypatch.setattr(llaft.reference, name, counted)
        sample_posterior(data, WEAK_PRIOR, 5_000, 1_000, seed=4)
        assert calls == {"uniform_stream": 1, "normal_quantile": 1}

    @pytest.mark.parametrize("dataset", ["simulated", "trial"])
    def test_draws_do_not_depend_on_prefetch_depth(self, monkeypatch, request, dataset):
        if dataset == "simulated":
            # burn-in 350 ends inside a window, so the last burn-in block is partial
            data = generate_dataset(SimulationScenario(n=40, censor_bound=17.0, seed=2), 0)
            prior, depths = WEAK_PRIOR, (1, 2, 7, llaft.reference._PREFETCH)
            length, seed = (1_500, 350), 4
        else:
            # the chain of `compare` on the bundled file with the README prior
            data = request.getfixturevalue("trial")
            prior = PriorSpec(coef_mean=np.array([4.4, 0.25, 0.04]), coef_precision=1.0,
                              scale_shape=501.0, scale_rate=500.0)
            depths = (1, 2, 5, 6, 8, llaft.reference._PREFETCH)
            length, seed = (5_000, 1_000), 1
        chains = []
        for depth in depths:
            monkeypatch.setattr(llaft.reference, "_PREFETCH", depth)
            chains.append(sample_posterior(data, prior, *length, seed=seed))
        for chain in chains[1:]:
            assert np.array_equal(chain.draws, chains[0].draws)
            assert chain.acceptance_rate == chains[0].acceptance_rate

    def test_shorter_chain_is_a_prefix(self):
        data = generate_dataset(SimulationScenario(n=40, censor_bound=0.0, seed=1), 0)
        short = sample_posterior(data, WEAK_PRIOR, 3_000, 500, seed=9)
        long = sample_posterior(data, WEAK_PRIOR, 5_000, 500, seed=9)
        assert short.draws.shape[0] == 2_500
        assert np.array_equal(short.draws, long.draws[:2_500])

    def test_prior_dimension_must_match_data(self):
        data = generate_dataset(SimulationScenario(n=30, seed=3), 0)  # p = 3
        prior = replace(WEAK_PRIOR, coef_mean=np.zeros(1))
        with pytest.raises(ValueError, match="prior mean dimension"):
            sample_posterior(data, prior, 200, 100, seed=0)
        # with no data the dimension still comes from the covariates
        empty = SurvivalDataset(time=np.empty(0), event=np.empty(0),
                                covariates=np.empty((0, 3)))
        with pytest.raises(ValueError, match="prior mean dimension"):
            sample_posterior(empty, replace(WEAK_PRIOR, coef_mean=np.zeros(2)), 200, 100,
                             seed=0)

    def test_burn_in_validation(self):
        data = make_dataset([0.1], [1], [[0.0]])
        prior = replace(WEAK_PRIOR, coef_mean=np.zeros(2))
        with pytest.raises(ValueError, match="burn_in"):
            sample_posterior(data, prior, 100, 100, seed=0)
        # a negative burn-in would return rows of an uninitialized buffer
        with pytest.raises(ValueError, match="burn_in"):
            sample_posterior(data, prior, 200, -50, seed=0)
        # one kept draw has no SD and no interval
        with pytest.raises(ValueError, match="burn_in"):
            sample_posterior(data, prior, 10, 9, seed=0)


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

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_acceptance_rate_counts_kept_draws_only(self, trial, seed):
        # an accepted proposal moves the chain, so the rate is the share of
        # kept rows that differ from the row before, up to the first kept
        # row, whose predecessor is the last burn-in state; counted over all
        # iterations, burn-in included, seed 1 read 0.306 against 0.328 here
        prior = PriorSpec(coef_mean=np.array([4.4, 0.25, 0.04]),
                          coef_precision=1.0, scale_shape=501.0,
                          scale_rate=500.0)
        chain = sample_posterior(trial, prior, 5_000, 1_000, seed=seed)
        moved = int(np.any(np.diff(chain.draws, axis=0) != 0, axis=1).sum())
        assert moved <= chain.acceptance_rate * 4_000 <= moved + 1

    def test_file_is_the_generator_output_at_seed_36(self, tmp_path):
        # a full run of scripts/make_rhdnase_csv.py selects seed 36; its scan
        # and 45,000-step chain are too slow to repeat here, so this checks
        # the construction at that seed against the bundled bytes
        from llaft.datasets import rhdnase_path
        path = Path(__file__).parents[1] / "scripts" / "make_rhdnase_csv.py"
        spec = importlib.util.spec_from_file_location("make_rhdnase_csv", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        out = tmp_path / "rhdnase.csv"
        script.write_csv(script.pin_mle(script.raw_dataset(36)), out)
        assert out.read_bytes() == Path(rhdnase_path()).read_bytes()

    def test_golden_chain(self, trial):
        # recorded when each proposal was scored on its own, before proposals
        # were prefetched; scoring them a batch at a time must not move a draw
        prior = PriorSpec(coef_mean=np.array([4.4, 0.25, 0.04]),
                          coef_precision=1.0, scale_shape=501.0,
                          scale_rate=500.0)
        chain = sample_posterior(trial, prior, 5_000, 1_000, seed=1)
        assert chain.acceptance_rate == 0.32775
        assert chain.draws[0].tolist() == [3.7553394278579755, 0.5676095212985051,
                                           0.02655530629264133, 0.9173658983217103]
        assert hashlib.sha256(chain.draws.tobytes()).hexdigest() == (
            "1c6e75110292af1d57022e4b0e97edf327ca8f45b59bddc713339cc9d8cb64e7")


# (n_iterations, burn_in) of chains whose burn-in ends inside a window of
# `_WINDOW`, is empty, or is whole windows before an odd-length sampling
# phase, and the golden chain's schedule
ODD_SCHEDULES = [(1050, 250), (2301, 1999), (2399, 199), (1234, 100), (100, 98), (3, 1),
                 (2501, 0), (5000, 1000)]
# sha256 of every chain of ODD_SCHEDULES at seed 5 on the trial data with the
# README prior, then on a simulated dataset with WEAK_PRIOR: the draws, the
# acceptance rate and the warning of each
ODD_SCHEDULES_SHA256 = "a9abea3a86e6cb3c64b99319496888b1faae9bc77b0fc86df54b59a5aafa00b0"


def test_chain_at_odd_schedules(trial):
    readme_prior = PriorSpec(coef_mean=np.array([4.4, 0.25, 0.04]), coef_precision=1.0,
                             scale_shape=501.0, scale_rate=500.0)
    simulated = generate_dataset(SimulationScenario(n=50, censor_bound=3.0, seed=7), 2)
    digest = hashlib.sha256()
    for data, prior in [(trial, readme_prior), (simulated, WEAK_PRIOR)]:
        for n_iterations, burn_in in ODD_SCHEDULES:
            chain = sample_posterior(data, prior, n_iterations, burn_in, seed=5)
            digest.update(chain.draws.tobytes())
            digest.update(f"{chain.acceptance_rate!r} {chain.warning!r}".encode())
    assert digest.hexdigest() == ODD_SCHEDULES_SHA256


class TestChainLogPosterior:
    """The sampler's per-chain log posterior in (beta, log b) is the model's
    log posterior at (beta, e^s) plus the log Jacobian s, up to a constant,
    and scores a stack of parameter vectors one row at a time."""

    PRIOR = PriorSpec(coef_mean=np.array([4.4, 0.25, 0.04]), coef_precision=1.0,
                      scale_shape=501.0, scale_rate=500.0)

    @staticmethod
    def assert_constant_offset(got, expected):
        got, expected = np.asarray(got), np.asarray(expected)
        offset = got - expected
        assert np.all(np.abs(offset - offset[0]) <= 1e-10 * np.abs(expected))

    @staticmethod
    def thetas_with_overflow(data, rng, center, spread, overflow_row):
        thetas = rng.normal(center, spread, size=(60, 4))
        # a tiny scale drives z past 710, where the softplus takes np.logaddexp
        thetas[overflow_row, -1] = -8.0
        beta, s = thetas[overflow_row, :-1], thetas[overflow_row, -1]
        assert ((data.log_time - data.covariates @ beta) / math.exp(s)).max() > 710.0
        return thetas

    def test_matches_model_log_posterior(self, trial):
        thetas = self.thetas_with_overflow(trial, np.random.default_rng(7),
                                           [4.1, 0.4, 0.02, -0.1], [0.3, 0.3, 0.01, 0.3], -1)
        got = _chain_log_posterior(DatasetStack.of([trial]), self.PRIOR)(thetas)
        assert got.shape == (60,)
        expected = [log_posterior(trial, ModelParams(theta[:-1], math.exp(theta[-1])),
                                  self.PRIOR) + theta[-1] for theta in thetas]
        self.assert_constant_offset(got, expected)

    def test_overflow_check_starts_below_the_largest_finite_exp(self, trial):
        # exp overflows above z = 709.78, so a stack whose largest z is just
        # past it must take the np.logaddexp path (a warning is an error)
        beta = np.array([4.1, 0.4, 0.02])
        largest = float((trial.log_time - trial.covariates @ beta).max())
        thetas = np.array([[*beta, math.log(largest / 709.9)], [4.1, 0.4, 0.02, -0.1]])
        got = _chain_log_posterior(DatasetStack.of([trial]), self.PRIOR)(thetas)
        expected = [log_posterior(trial, ModelParams(theta[:-1], math.exp(theta[-1])),
                                  self.PRIOR) + theta[-1] for theta in thetas]
        self.assert_constant_offset(got, expected)

    def test_no_data_gives_the_prior(self):
        data = SurvivalDataset(time=np.empty(0), event=np.empty(0),
                               covariates=np.empty((0, 3)))
        rng = np.random.default_rng(8)
        thetas = rng.normal(0.0, 1.0, size=(50, 4))
        got = _chain_log_posterior(DatasetStack.of([data]), WEAK_PRIOR)(thetas)
        v0 = WEAK_PRIOR.coef_precision
        expected = [-0.5 * v0 * float((t[:-1] - WEAK_PRIOR.coef_mean) @ (t[:-1] - WEAK_PRIOR.coef_mean))
                    + inverse_gamma_log_pdf(WEAK_PRIOR.scale_params, math.exp(t[-1])) + t[-1]
                    for t in thetas]
        self.assert_constant_offset(got, expected)

    def test_kernel_is_freed_without_the_cycle_collector(self, trial):
        # the kernel and its copies of the data must not outlive the chain
        # until a cyclic garbage collection, so it must not refer to itself
        chain_lp = _chain_log_posterior(DatasetStack.of([trial]), self.PRIOR)
        chain_lp(np.array([[4.1, 0.4, 0.02, -0.1]]))
        alive = weakref.ref(chain_lp)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del chain_lp
            assert alive() is None
        finally:
            if enabled:
                gc.enable()

    @pytest.mark.parametrize("dataset", ["trial", "simulated"])
    def test_rows_do_not_depend_on_the_batch(self, trial, dataset):
        # every row of a K-row stack equals its value scored alone, bit for
        # bit, with a row on the np.logaddexp branch in some of the stacks
        rng = np.random.default_rng(9)
        if dataset == "trial":
            data, prior = trial, self.PRIOR
            thetas = self.thetas_with_overflow(data, rng, [4.1, 0.4, 0.02, -0.1],
                                               [0.3, 0.3, 0.01, 0.3], 17)
        else:
            data, prior = generate_dataset(SimulationScenario(n=40, seed=2), 0), WEAK_PRIOR
            thetas = self.thetas_with_overflow(data, rng, [0.5, 1.0, -1.0, 0.0], 0.5, 17)
        chain_lp = _chain_log_posterior(DatasetStack.of([data]), prior)
        alone = np.concatenate([chain_lp(theta[None]) for theta in thetas])
        assert np.all(np.isfinite(alone))
        for k in range(1, 10):
            for start in range(len(thetas) - k + 1):
                assert np.array_equal(chain_lp(thetas[start:start + k]),
                                      alone[start:start + k])
