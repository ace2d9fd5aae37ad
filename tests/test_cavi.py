import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from conftest import make_dataset
from llaft.cavi import (_FAILURES, FitConfig, VariationalState, _block_terms, _elbo,
                        _iterate, _linear_form, _update_mu, _update_omega, _update_sigma,
                        fit, fit_batch, initialize)
from llaft.exceptions import NumericalError
from llaft.model import DatasetStack, PriorSpec, SurvivalDataset
from llaft.numerics import _digammas, _moments
from llaft.piecewise import (LINEAR_SLOPES, QUADRATIC_LINEAR, QUADRATIC_QUADRATIC,
                             _linear_segment, _quadratic_segment)
from llaft.reference import fit_mle_batch
from llaft.simulate import (STRONG_PRIOR, WEAK_PRIOR, SimulationScenario, _generate_block,
                            generate_dataset)

RHDNASE_PRIOR = PriorSpec(coef_mean=np.array([4.4, 0.25, 0.04]),
                          coef_precision=1.0, scale_shape=501.0, scale_rate=500.0)


def empty_dataset(p=3):
    return SurvivalDataset(time=np.empty(0), event=np.empty(0),
                           covariates=np.empty((0, p)))


def stack_of(data):
    return DatasetStack.of([data])


def moments_at(a, w):
    """The q(b) moments (E[1/b], E[1/b^2], E[log b]) the kernels take, at
    arrays of shapes and rates, one per replicate."""
    a, w = np.asarray(a, float), np.asarray(w, float)
    return _moments(a, w, _digammas(a))


def plugin(stack, mu, moments):
    """Standardized residuals (y - X mu) E[1/b], (R, n)."""
    return stack.residuals(mu) * moments[0][:, None]


def quadratic(z):
    """The quadratic surrogate's (rho, zeta) at standardized residuals z."""
    k = _quadratic_segment(z)
    return QUADRATIC_LINEAR[k], QUADRATIC_QUADRATIC[k]


def slopes(z):
    """The linear surrogate's slopes phi at standardized residuals z."""
    return LINEAR_SLOPES[_linear_segment(z)]


def linear_form(stack, mu, phi):
    """sum_i (delta_i - (1+delta_i) phi_i)(y_i - x_i' mu), (R,)."""
    return _linear_form(stack, stack.residuals(mu), phi)


class TestInitialize:
    def test_all_events(self):
        sc = SimulationScenario(n=300, censor_bound=0.0, n_replicates=1, seed=0)
        data = generate_dataset(sc, 0)
        mu, alpha, omega = initialize(stack_of(data), WEAK_PRIOR)
        assert mu.shape == (1, 3) and alpha.shape == omega.shape == (1,)
        assert np.array_equal(alpha, [11.0])
        assert np.array_equal(omega, [10.0])
        # r > p: mu is least squares of log-time on the covariates
        ols = np.linalg.lstsq(data.covariates, data.log_time, rcond=None)[0]
        assert np.array_equal(mu, [ols])

    def test_all_censored(self):
        data = make_dataset([0.1, 0.2, 0.3], [0, 0, 0], [[1.0], [2.0], [3.0]])
        prior = PriorSpec(coef_mean=np.zeros(2), coef_precision=0.1,
                          scale_shape=11.0, scale_rate=10.0)
        mu, alpha, _ = initialize(stack_of(data), prior)
        assert np.array_equal(alpha, [11.0])
        # r <= p: least squares would ignore the censoring, so mu is the prior mean
        assert np.array_equal(mu, [prior.coef_mean])

    def test_each_replicate_takes_its_own_rule(self):
        # a stack mixing r > p and r <= p starts each row by its own rule
        # and as it starts alone
        fits = make_dataset([0.1, 0.5, 0.3, 0.9], [1, 1, 1, 0], [[1.0], [2.0], [3.0], [4.0]])
        censored = make_dataset([0.1, 0.5, 0.3, 0.9], [1, 0, 0, 0], [[1.0], [2.0], [3.0], [4.0]])
        prior = PriorSpec(coef_mean=np.array([0.5, -0.5]), coef_precision=0.1,
                          scale_shape=11.0, scale_rate=10.0)
        mu, _, _ = initialize(DatasetStack.of([fits, censored]), prior)
        assert np.array_equal(mu[1], prior.coef_mean)
        assert np.array_equal(mu[0], initialize(stack_of(fits), prior)[0][0])
        assert not np.array_equal(mu[0], prior.coef_mean)

    def test_event_count_added_to_prior_shape(self):
        from llaft.cli import ingest_csv
        from llaft.datasets import rhdnase_path
        data = ingest_csv(rhdnase_path())
        # the start takes the prior shape; the first update of q(b) adds r
        _, alpha, _ = initialize(stack_of(data), RHDNASE_PRIOR)
        assert np.array_equal(alpha, [501.0])
        assert fit(data, RHDNASE_PRIOR).scale_shape == 501.0 + data.r


class TestUpdateSigma:
    def test_prior_only_when_zeta_vanishes(self):
        data = make_dataset([9.0, -9.0], [1, 1], [[0.4], [0.6]])
        prior = PriorSpec(coef_mean=np.zeros(2), coef_precision=0.25,
                          scale_shape=2.0, scale_rate=2.0)
        _, zeta = quadratic(np.array([[400.0, -400.0]]))
        assert np.all(zeta == 0.0)
        stack = stack_of(data)
        _, alpha, omega = initialize(stack, prior)
        sigma, _, _ = _update_sigma(stack, _block_terms(stack, prior),
                                    moments_at(alpha, omega), zeta)
        assert np.allclose(sigma[0], np.eye(2) / 0.25, atol=1e-14)

    def test_scalar_hand_oracle(self):
        # n=1, delta=1, zeta=0.1138, X=(1), alpha=12, omega=10, v0=0.1:
        # E(1/b^2) = (12 + 144)/100, Sigma = 1/(0.1 + 2*1.56*2*0.1138)
        data = SurvivalDataset(time=np.array([1.0]), event=np.array([1.0]),
                               covariates=np.array([[1.0]]))
        prior = PriorSpec(coef_mean=np.zeros(1), coef_precision=0.1,
                          scale_shape=2.0, scale_rate=2.0)
        stack = stack_of(data)
        sigma, _, _ = _update_sigma(stack, _block_terms(stack, prior), moments_at([12.0], [10.0]),
                                    np.array([[0.1138]]))
        expected = 1.0 / (0.1 + 2.0 * (156.0 / 100.0) * 2.0 * 0.1138)
        assert sigma[0, 0, 0] == pytest.approx(expected, rel=1e-14)

    def test_symmetry_on_random_fixtures(self, rng):
        for _ in range(20):
            n = int(rng.integers(3, 40))
            X = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
            data = SurvivalDataset(time=np.exp(rng.normal(size=n)),
                                   event=(rng.uniform(size=n) < 0.6).astype(float),
                                   covariates=X)
            stack = stack_of(data)
            mu, alpha, omega = initialize(stack, WEAK_PRIOR)
            moments = moments_at(alpha, omega)
            _, zeta = quadratic(plugin(stack, mu, moments))
            sigma = _update_sigma(stack, _block_terms(stack, WEAK_PRIOR), moments, zeta)[0][0]
            assert np.array_equal(sigma, sigma.T)
            assert np.all(np.linalg.eigvalsh(sigma) > 0)

    def test_matches_per_observation_assembly(self, rng):
        # dense-matrix oracle: accumulate v0 I + 2 E(1/b^2)(1+d) zeta x x'
        # observation by observation and invert
        n = 25
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        data = SurvivalDataset(time=np.exp(rng.normal(size=n)),
                               event=np.ones(n), covariates=X)
        prior = PriorSpec(coef_mean=np.zeros(2), coef_precision=0.3,
                          scale_shape=5.0, scale_rate=4.0)
        stack = stack_of(data)
        mu, alpha, omega = initialize(stack, prior)
        moments = moments_at(alpha, omega)
        _, zeta = quadratic(plugin(stack, mu, moments))
        a, w = alpha[0], omega[0]
        e_inv2 = (a + a ** 2) / w ** 2
        A = 0.3 * np.eye(2)
        for i in range(n):
            xi = X[i]
            A = A + 2.0 * e_inv2 * 2.0 * zeta[0, i] * np.outer(xi, xi)
        assert np.allclose(_update_sigma(stack, _block_terms(stack, prior), moments, zeta)[0][0],
                           np.linalg.inv(A), rtol=1e-10)


class TestUpdateMu:
    def test_no_data_returns_prior_mean(self):
        stack = stack_of(empty_dataset(3))
        _, alpha, omega = initialize(stack, WEAK_PRIOR)
        moments = moments_at(alpha, omega)
        terms = _block_terms(stack, WEAK_PRIOR)
        rho, zeta = quadratic(np.empty((1, 0)))
        sigma, _, _ = _update_sigma(stack, terms, moments, zeta)
        mu = _update_mu(stack, terms, moments, rho, zeta, sigma)
        assert np.allclose(mu[0], WEAK_PRIOR.coef_mean, atol=1e-14)

    def test_scalar_hand_oracle(self):
        # continue the scalar sigma fixture with y = 0.3, rho = 0.5:
        # linear form = v0*mu0 + E(1/b)(-1 + 2*0.5) + 2 E(1/b^2) * 2 * y * zeta
        data = SurvivalDataset(time=np.array([math.exp(0.3)]),
                               event=np.array([1.0]),
                               covariates=np.array([[1.0]]))
        prior = PriorSpec(coef_mean=np.zeros(1), coef_precision=0.1,
                          scale_shape=2.0, scale_rate=2.0)
        rho, zeta = np.array([[0.5]]), np.array([[0.1138]])
        moments = moments_at([12.0], [10.0])
        stack = stack_of(data)
        terms = _block_terms(stack, prior)
        sigma, _, _ = _update_sigma(stack, terms, moments, zeta)
        linear = 0.0 + 1.2 * 0.0 + 2.0 * 1.56 * 2.0 * 0.3 * 0.1138
        assert _update_mu(stack, terms, moments, rho, zeta, sigma)[0, 0] == pytest.approx(
            sigma[0, 0, 0] * linear, rel=1e-13)

    def test_duplication_regression(self, rng):
        # duplicating every observation: pin against direct recomputation
        n = 15
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = rng.normal(size=n)
        data = make_dataset(y, np.ones(n), X[:, 1:])
        doubled = make_dataset(np.tile(y, 2), np.ones(2 * n),
                               np.tile(X[:, 1:], (2, 1)))
        prior = PriorSpec(coef_mean=np.zeros(2), coef_precision=0.1,
                          scale_shape=11.0, scale_rate=10.0)
        for d in (data, doubled):
            stack = stack_of(d)
            mu, alpha, omega = initialize(stack, prior)
            moments = moments_at(alpha, omega)
            terms = _block_terms(stack, prior)
            rho, zeta = quadratic(plugin(stack, mu, moments))
            sigma, _, _ = _update_sigma(stack, terms, moments, zeta)
            mu = _update_mu(stack, terms, moments, rho, zeta, sigma)
            # direct recomputation oracle
            a, w = alpha[0], omega[0]
            e1, e2 = a / w, (a + a * a) / w ** 2
            acc = 0.1 * prior.coef_mean
            for i in range(d.n):
                acc = acc + (e1 * (-1.0 + 2.0 * rho[0, i])
                             + 2.0 * e2 * 2.0 * d.log_time[i] * zeta[0, i]) \
                    * d.covariates[i]
            assert np.allclose(mu[0], sigma[0] @ acc, rtol=1e-10)


class TestUpdateOmega:
    def test_zero_residuals_leave_prior_rate(self):
        data = make_dataset([0.5, 0.8], [1, 1], [[0.5], [0.8]])
        prior = PriorSpec(coef_mean=np.zeros(2), coef_precision=0.1,
                          scale_shape=11.0, scale_rate=10.0)
        mu = np.array([[0.0, 1.0]])  # exact fit: y = x
        phi = slopes(np.zeros((1, 2)))
        assert _update_omega(prior, linear_form(stack_of(data), mu, phi))[0] == pytest.approx(10.0)

    def test_single_censored_hand_oracle(self):
        # censored obs, phi = 0.695, residual 0.5: omega = omega0 + 0.695*0.5
        data = make_dataset([0.5], [0], [[0.0]])
        prior = PriorSpec(coef_mean=np.zeros(2), coef_precision=0.1,
                          scale_shape=11.0, scale_rate=10.0)
        phi = np.array([[0.695]])
        got = _update_omega(prior, linear_form(stack_of(data), np.zeros((1, 2)), phi))
        assert got[0] == pytest.approx(10.0 + 0.695 * 0.5, rel=1e-14)

    def test_frozen_golden_from_seeded_fit(self):
        # regression oracle: converged rate of the first verified run
        sc = SimulationScenario(n=50, censor_bound=17.0, n_replicates=1, seed=9)
        data = generate_dataset(sc, 0)
        state = fit(data, WEAK_PRIOR)
        assert state.scale_rate == pytest.approx(33.46842602622162, abs=1e-10)
        # re-applying the update at the fixed point reproduces the rate
        stack = stack_of(data)
        mu = state.coef_mean[None]
        phi = slopes(plugin(stack, mu, moments_at([state.scale_shape], [state.scale_rate])))
        again = _update_omega(WEAK_PRIOR, linear_form(stack, mu, phi))
        assert again[0] == pytest.approx(state.scale_rate, abs=1e-9)

    def test_nonpositive_rate_is_returned_for_the_caller_to_flag(self):
        # all censored, residuals pinned at -0.5 by an enormous prior precision;
        # the kernel raises nothing, and `_iterate` flags omega <= 0
        data = make_dataset([-0.5] * 10, [0] * 10, [[0.0]] * 10)
        prior = PriorSpec(coef_mean=np.zeros(2), coef_precision=1e9,
                          scale_shape=2.0, scale_rate=1.0)
        stack = stack_of(data)
        mu, alpha, omega = initialize(stack, prior)
        phi = slopes(plugin(stack, mu, moments_at(alpha, omega)))
        got = _update_omega(prior, linear_form(stack, np.zeros((1, 2)), phi))
        assert got[0] == pytest.approx(-0.526, rel=1e-12)


class TestElbo:
    def test_no_data_at_prior(self):
        # likelihood term vanishes; coefficient term is
        # -(v0/2) tr(Sigma) + (1/2) log|Sigma| at Sigma = I/v0, mu = mu0;
        # scale term collapses to -alpha0 log(omega0)
        p, v0, a0, w0 = 3, 0.1, 11.0, 10.0
        prior = PriorSpec(coef_mean=np.zeros(p), coef_precision=v0,
                          scale_shape=a0, scale_rate=w0)
        stack = stack_of(empty_dataset(p))
        mu, cov = np.zeros((1, p)), np.eye(p)[None] / v0
        alpha, omega = np.array([a0]), np.array([w0])
        linear = linear_form(stack, mu, slopes(np.empty((1, 0))))
        expected = (-0.5 * v0 * (p / v0) + 0.5 * math.log(1.0 / v0 ** p)
                    - a0 * math.log(w0))
        got, _ = _elbo(stack, prior, mu, cov, alpha, omega, moments_at(alpha, omega), linear)
        assert got[0] == pytest.approx(expected, rel=1e-12)

    def test_full_fixture_against_term_oracle(self):
        sc = SimulationScenario(n=50, censor_bound=17.0, n_replicates=1, seed=9)
        data = generate_dataset(sc, 0)
        state = fit(data, WEAK_PRIOR)
        stack = stack_of(data)
        mu, cov = state.coef_mean[None], state.coef_cov[None]
        alpha, omega = np.array([state.scale_shape]), np.array([state.scale_rate])
        moments = moments_at(alpha, omega)
        phi = slopes(plugin(stack, mu, moments))
        got = _elbo(stack, WEAK_PRIOR, mu, cov, alpha, omega, moments,
                    linear_form(stack, mu, phi))[0][0]
        # frozen from the first verified run
        assert got == pytest.approx(-153.7551343526367, abs=1e-9)
        # independent term-by-term recomputation (mpmath digamma, fsum)
        a, w = state.scale_shape, state.scale_rate
        e_inv = a / w
        e_log_b = float(mpmath.log(w) - mpmath.digamma(a))
        c = data.event - (1 + data.event) * phi[0]
        lik = -data.r * e_log_b + e_inv * math.fsum(
            c[i] * (data.log_time[i] - float(data.covariates[i] @ state.coef_mean))
            for i in range(data.n))
        dmu = state.coef_mean - WEAK_PRIOR.coef_mean
        coef_term = (-0.5 * 0.1 * (np.trace(state.coef_cov) + dmu @ dmu)
                     + 0.5 * math.log(np.linalg.det(state.coef_cov)))
        scale_term = (a - 11.0) * e_log_b + (w - 10.0) * e_inv - a * math.log(w)
        assert got == pytest.approx(lik + coef_term + scale_term, abs=1e-8)

    def test_omega_update_maximizes_elbo_in_omega(self, rng):
        # given fixed coefficients, mu and Sigma, the rate update is the
        # exact maximizer of the bound over omega
        sc = SimulationScenario(n=40, censor_bound=0.0, n_replicates=1, seed=5)
        data = generate_dataset(sc, 0)
        state = fit(data, WEAK_PRIOR)
        stack = stack_of(data)
        mu, cov = state.coef_mean[None], state.coef_cov[None]
        alpha = np.array([state.scale_shape])
        phi = slopes(plugin(stack, mu, moments_at(alpha, [state.scale_rate])))
        linear = linear_form(stack, mu, phi)
        omega_star = _update_omega(WEAK_PRIOR, linear)

        def bound(omega):
            return _elbo(stack, WEAK_PRIOR, mu, cov, alpha, omega,
                         moments_at(alpha, omega), linear)[0][0]

        best = bound(omega_star)
        for factor in (0.8, 0.95, 1.05, 1.3):
            assert bound(omega_star * factor) <= best + 1e-10


class TestFit:
    def test_recovers_truth_at_moderate_n(self):
        sc = SimulationScenario(n=300, censor_bound=0.0, n_replicates=1, seed=8)
        data = generate_dataset(sc, 0)
        state = fit(data, WEAK_PRIOR)
        assert state.converged
        assert state.iterations <= 100
        assert np.all(np.abs(state.coef_mean - sc.true_coefficients) < 1.0)
        assert abs(state.scale_mean - 0.8) < 0.15

    def test_empty_dataset_returns_prior_center(self):
        state = fit(empty_dataset(3), WEAK_PRIOR)
        assert state.converged
        assert np.allclose(state.coef_mean, WEAK_PRIOR.coef_mean)
        assert state.scale_shape == WEAK_PRIOR.scale_shape
        assert state.scale_rate == pytest.approx(WEAK_PRIOR.scale_rate)

    def test_bitwise_deterministic(self):
        sc = SimulationScenario(n=120, censor_bound=48.0, n_replicates=1, seed=4)
        data = generate_dataset(sc, 0)
        a = fit(data, WEAK_PRIOR)
        b = fit(data, WEAK_PRIOR)
        assert a.elbo_trace == b.elbo_trace
        assert a.coef_mean.tobytes() == b.coef_mean.tobytes()
        assert a.scale_rate == b.scale_rate
        assert a.segment_trace == b.segment_trace

    def test_shape_constant_across_iterations(self):
        sc = SimulationScenario(n=80, censor_bound=17.0, n_replicates=1, seed=2)
        data = generate_dataset(sc, 0)
        state = fit(data, WEAK_PRIOR)
        assert state.scale_shape == WEAK_PRIOR.scale_shape + data.r
        assert len(state.omega_trace) == state.iterations
        assert len(state.sigma_trace) == state.iterations

    def test_every_sigma_is_spd(self):
        sc = SimulationScenario(n=60, censor_bound=0.0, n_replicates=1, seed=6)
        data = generate_dataset(sc, 0)
        state = fit(data, WEAK_PRIOR)
        for sigma in state.sigma_trace:
            assert np.array_equal(sigma, sigma.T)
            assert np.min(np.linalg.eigvalsh(sigma)) > 0

    def test_cycle_detection_terminates_oscillation(self):
        # this seed settles into a two-state segment flip-flop whose ELBO gap
        # stays above the tolerance; the recurrence check must stop the loop
        sc = SimulationScenario(n=300, censor_bound=0.0, n_replicates=1, seed=3)
        data = generate_dataset(sc, 0)
        state = fit(data, WEAK_PRIOR)
        assert state.converged
        assert state.stop_reason == "cycle"
        assert state.iterations < 100
        assert abs(state.elbo_trace[-1] - state.elbo_trace[-2]) > 0.01

    def test_iteration_cap_flags_not_converged(self):
        sc = SimulationScenario(n=300, censor_bound=0.0, n_replicates=1, seed=8)
        data = generate_dataset(sc, 0)
        state = fit(data, WEAK_PRIOR, FitConfig(elbo_tolerance=1e-9,
                                                max_iterations=3))
        assert not state.converged
        assert state.stop_reason == "cap"
        assert state.iterations == 3

    def test_first_elbo_near_zero_does_not_stop_the_fit(self):
        # the first ELBO here is 9.0e-4, within the default tolerance of 0;
        # the first iteration has no previous ELBO to be within tolerance of
        data = SurvivalDataset(time=np.array([1.0, 2.0, 0.5, 3.0]),
                               event=np.array([1.0, 1.0, 0.0, 1.0]),
                               covariates=np.column_stack([np.ones(4), [0.1, -0.3, 0.5, 0.2]]))
        prior = PriorSpec(coef_mean=np.zeros(2), coef_precision=0.01,
                          scale_shape=0.2, scale_rate=2.859375)
        state = fit(data, prior)
        assert abs(state.elbo_trace[0]) <= FitConfig().elbo_tolerance
        assert (state.iterations, state.stop_reason) == (6, "tolerance")
        assert state.coef_mean == pytest.approx([0.611, 0.235], abs=5e-4)
        # where a tight tolerance settles
        tight = fit(data, prior, FitConfig(elbo_tolerance=1e-9))
        assert state.coef_mean == pytest.approx(tight.coef_mean, abs=5e-4)

    def test_stop_reason_names_the_rule_that_fired(self):
        config = FitConfig(max_iterations=8)
        reasons = set()
        for seed in range(3):
            for u in (0.0, 48.0, 17.0):
                sc = SimulationScenario(n=60, censor_bound=u, n_replicates=1, seed=seed)
                data = generate_dataset(sc, 0)
                state = fit(data, WEAK_PRIOR, config)
                reasons.add(state.stop_reason)
                assert state.converged == (state.stop_reason != "cap")
                gap = abs(state.elbo_trace[-1] - (state.elbo_trace[-2]
                                                  if state.iterations > 1 else math.inf))
                assert (gap <= config.elbo_tolerance) == (state.stop_reason == "tolerance")
                if state.stop_reason == "cap":
                    assert state.iterations == config.max_iterations
        assert reasons == {"tolerance", "cycle", "cap"}

    def test_converged_is_read_from_the_stop_reason(self):
        for reason, converged in (("tolerance", True), ("cycle", True), ("cap", False), (None, False)):
            state = VariationalState(np.zeros(1), np.eye(1), 2.0, 1.0, stop_reason=reason)
            assert state.converged is converged
        with pytest.raises(TypeError):  # no field that could contradict stop_reason
            VariationalState(np.zeros(1), np.eye(1), 2.0, 1.0, converged=True)

    def test_strong_prior_fixture(self):
        sc = SimulationScenario(n=30, censor_bound=0.0, n_replicates=1, seed=11)
        data = generate_dataset(sc, 0)
        state = fit(data, STRONG_PRIOR)
        assert state.converged
        assert state.scale_shape == 11.0 + data.r

    def test_rhdnase_convergence(self):
        from llaft.cli import ingest_csv
        from llaft.datasets import rhdnase_path
        data = ingest_csv(rhdnase_path())
        state = fit(data, RHDNASE_PRIOR)
        assert state.converged
        assert state.iterations < 100
        assert state.coef_mean[1] == pytest.approx(0.416, abs=0.02)
        assert state.scale_mean == pytest.approx(0.908, abs=0.02)

    def test_failure_names_iteration(self):
        data = make_dataset([-0.5] * 10, [0] * 10, [[0.0]] * 10)
        prior = PriorSpec(coef_mean=np.zeros(2), coef_precision=1e9,
                          scale_shape=2.0, scale_rate=1.0)
        with pytest.raises(NumericalError, match="iteration 1"):
            fit(data, prior)


def assert_same_state(a, b):
    assert np.array_equal(a.coef_mean, b.coef_mean)
    assert np.array_equal(a.coef_cov, b.coef_cov)
    assert a.scale_shape == b.scale_shape and a.scale_rate == b.scale_rate
    assert a.elbo_trace == b.elbo_trace
    assert a.omega_trace == b.omega_trace
    assert len(a.sigma_trace) == len(b.sigma_trace)
    assert all(np.array_equal(x, y) for x, y in zip(a.sigma_trace, b.sigma_trace))
    assert a.segment_trace == b.segment_trace
    assert (a.iterations, a.converged, a.stop_reason) == (
        b.iterations, b.converged, b.stop_reason)


# (id, dataset, prior precision, error after "variational update failed at
# iteration ") for each check of `_iterate` that a fit can fail. In NEAR the
# covariate is the intercept but for one ulp, so that with a tiny prior
# precision the covariance bracket is singular to rounding. In the
# non-finite case both residuals lie where the quadratic surrogate is flat
# (zeta = 0), so the bracket is the subnormal precision alone, whose inverse
# overflows; the two observations' terms of the mu-update's linear form
# cancel to 0, and inf times 0 would warn there if the failed covariance did
# not go on as NaN.
NEAR = [[1.0], [1.0], [1.0 + 2.0 ** -52]]
FAILING_FITS = [
    ("no-cholesky-factor", make_dataset([0.1, -0.2, 0.3], [1, 0, 1], NEAR), 1e-16,
     "1: covariance update is not positive definite: Matrix is not positive definite"),
    ("singular", make_dataset([0.1, -0.2, 0.3], [1, 1, 1], NEAR), 1e-16,
     "2: covariance update has no inverse: Singular matrix"),
    ("non-finite-covariance", make_dataset([60.0, -60.0], [0, 1], [[0.5], [0.5]]), 5e-324,
     "1: non-finite covariance update"),
    ("nonpositive-omega", make_dataset([-0.5] * 10, [0] * 10, [[0.0]] * 10), 1e9,
     "1: scale rate update produced omega=-0.526 <= 0"),
    ("nonpositive-determinant", make_dataset([1.0, -1.0, 0.5], [1, 0, 1], NEAR), 1e-16,
     "1: covariance has non-positive determinant"),
]


class TestFitBatch:
    def test_each_entry_equals_its_own_fit(self):
        datasets = [generate_dataset(SimulationScenario(n=300, censor_bound=u,
                                                        n_replicates=10, seed=21), i)
                    for u in (0.0, 48.0, 17.0) for i in range(10)]
        batch = fit_batch(DatasetStack.of(datasets), WEAK_PRIOR)
        assert len(batch) == 30
        for data, state in zip(datasets, batch):
            assert_same_state(state, fit(data, WEAK_PRIOR))
        # the replicates leave the batch at different iterations and by
        # more than one rule
        assert len({s.iterations for s in batch}) > 1
        assert {s.stop_reason for s in batch} >= {"tolerance", "cycle"}

    def test_cap_applies_per_replicate(self):
        sc = SimulationScenario(n=60, censor_bound=17.0, n_replicates=6, seed=2)
        datasets = [generate_dataset(sc, i) for i in range(6)]
        config = FitConfig(max_iterations=4)
        batch = fit_batch(DatasetStack.of(datasets), WEAK_PRIOR, config)
        for data, state in zip(datasets, batch):
            assert_same_state(state, fit(data, WEAK_PRIOR, config))

    # at one iteration every case but "singular", which fails at iteration 2,
    # fails at the cap, where the good ones stop
    @pytest.mark.parametrize("max_iterations", [1, 2, 100])
    @pytest.mark.parametrize("case", FAILING_FITS, ids=[c[0] for c in FAILING_FITS])
    def test_failing_dataset_fails_only_its_entry(self, case, max_iterations):
        # each check a fit can fail, with the failing dataset between good ones
        _, bad, precision, message = case
        config = FitConfig(max_iterations=max_iterations)
        prior = PriorSpec(coef_mean=np.zeros(2), coef_precision=precision,
                          scale_shape=2.0, scale_rate=1.0)
        rng = np.random.default_rng(3)
        good = [make_dataset(rng.normal(0.0, 0.3, bad.n), np.ones(bad.n),
                             rng.normal(size=(bad.n, 1))) for _ in range(3)]
        batch = fit_batch(DatasetStack.of([good[0], bad, good[1], good[2]]), prior, config)
        if int(message.split(":")[0]) > max_iterations:  # the cap comes first
            assert_same_state(batch[1], fit(bad, prior, config))
        else:
            assert isinstance(batch[1], NumericalError)
            assert str(batch[1]) == "variational update failed at iteration " + message
            with pytest.raises(NumericalError) as alone:
                fit(bad, prior, config)
            assert str(alone.value) == str(batch[1])
        for data, state in zip(good, [batch[0], batch[2], batch[3]]):
            assert isinstance(state, VariationalState)
            assert_same_state(state, fit(data, prior, config))

    def test_iterate_flags_a_non_finite_elbo_alone(self):
        # no fit reaches this check without an overflow first, so a NaN
        # psi(alpha) of replicate 1 makes its ELBO NaN; the others' outputs
        # are those of their own iterations
        prior = PriorSpec(coef_mean=np.zeros(2), coef_precision=0.1,
                          scale_shape=2.0, scale_rate=1.0)
        rng = np.random.default_rng(4)
        stack = DatasetStack.of([make_dataset(rng.normal(0.0, 0.3, 10), np.ones(10),
                                              rng.normal(size=(10, 1))) for _ in range(3)])
        mu, alpha0, omega0 = initialize(stack, prior)
        moments = _moments(alpha0, omega0, _digammas(alpha0))
        alpha = prior.scale_shape + stack.r
        psi_alpha = _digammas(alpha)
        psi_alpha[1] = np.nan
        terms, resid = _block_terms(stack, prior), stack.residuals(mu)

        def iterate(rows):
            return _iterate(stack.take(rows), prior, terms,
                            tuple(x[rows] for x in moments), resid[rows], alpha[rows],
                            psi_alpha[rows])

        (mu, sigma, omega), _, _, value, keys, failures = iterate(np.arange(3))
        assert failures.tolist() == [0, 6, 0]
        assert _FAILURES[6] == "non-finite ELBO"
        for j in (0, 2):
            (mu1, sigma1, omega1), _, _, value1, keys1, failures1 = iterate(np.array([j]))
            assert failures1 is None
            assert np.array_equal(mu1[0], mu[j]) and np.array_equal(sigma1[0], sigma[j])
            assert omega1[0] == omega[j] and value1[0] == value[j]
            assert np.array_equal(keys1[0], keys[j])

    def test_mismatched_datasets_raise(self):
        # a batch is a stack, and datasets of different (n, p) do not stack
        a = generate_dataset(SimulationScenario(n=30, n_replicates=1, seed=1), 0)
        b = generate_dataset(SimulationScenario(n=31, n_replicates=1, seed=1), 0)
        c = make_dataset([0.1, 0.2, 0.3], [1, 1, 0], [[1.0], [2.0], [3.0]])
        with pytest.raises(ValueError, match="disagree"):
            DatasetStack.of([a, b])
        with pytest.raises(ValueError):
            DatasetStack.of([a, c])
        with pytest.raises(ValueError):
            DatasetStack.of([])


class TestFitConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FitConfig(elbo_tolerance=0.0)
        with pytest.raises(ValueError):
            FitConfig(max_iterations=0)
        for value in (2.5, 100.0, "100", None):
            with pytest.raises(ValueError, match="max_iterations must be an integer"):
                FitConfig(max_iterations=value)
        assert FitConfig(max_iterations=np.int64(3)).max_iterations == 3

    def test_defaults(self):
        cfg = FitConfig()
        assert cfg.elbo_tolerance == 0.01
        assert cfg.max_iterations == 100


@pytest.fixture(scope="module", params=[0.0, 17.0, 48.0], ids=lambda u: f"u{u:g}")
def paper_cell_block(request):
    """40 replicates of a paper cell, n = 300, seed 7, as one stack."""
    sc = SimulationScenario(n=300, censor_bound=request.param, n_replicates=40, seed=7)
    return _generate_block(sc, range(40))[0]


def translated(stack, c):
    """The stack with every log time moved by c (the times scaled by e^c)."""
    return DatasetStack(stack.log_time + c, stack.event, stack.covariates, stack.r)


@pytest.mark.parametrize("c", [1.0, -2.5])
class TestTranslationEquivariance:
    """The translation half of ROADMAP item 13's oracle: y -> y + c with the
    prior mean moved by c e1 moves the intercept by c and nothing else. The
    scaling half fails today (the cycle test and the MLE's gradient stop are
    absolute), so it is not asserted; item 13 records its numbers."""

    def test_vb_moves_only_its_intercept(self, paper_cell_block, c):
        shift = c * np.eye(paper_cell_block.p)[0]
        prior = replace(WEAK_PRIOR, coef_mean=WEAK_PRIOR.coef_mean + shift)
        for a, b in zip(fit_batch(paper_cell_block, WEAK_PRIOR),
                        fit_batch(translated(paper_cell_block, c), prior)):
            np.testing.assert_allclose(b.coef_mean, a.coef_mean + shift, rtol=1e-10, atol=0)
            np.testing.assert_allclose(b.scale_rate, a.scale_rate, rtol=1e-10, atol=0)
            np.testing.assert_allclose(b.coef_cov, a.coef_cov, rtol=0,
                                       atol=1e-10 * np.abs(a.coef_cov).max())
            assert (b.iterations, b.stop_reason) == (a.iterations, a.stop_reason)

    def test_mle_moves_only_its_intercept(self, paper_cell_block, c):
        shift = c * np.eye(paper_cell_block.p)[0]
        for a, b in zip(fit_mle_batch(paper_cell_block),
                        fit_mle_batch(translated(paper_cell_block, c))):
            np.testing.assert_allclose(b.coefficients, a.coefficients + shift, rtol=1e-10, atol=0)
            np.testing.assert_allclose(b.scale, a.scale, rtol=1e-10, atol=0)
            assert b.iterations == a.iterations
