import math

import mpmath
import numpy as np
import pytest

from conftest import make_dataset
from llaft.exceptions import DataError
from llaft.model import (DatasetStack, ModelParams, PriorSpec, SurvivalDataset, _softplus,
                         log_likelihood, log_posterior)
from llaft.numerics import InverseGammaParams, inverse_gamma_log_pdf
from llaft.simulate import SimulationScenario, _generate_block, generate_dataset

mpmath.mp.dps = 50


def loglik_oracle(data, beta, b):
    """Direct 50-digit summation from the logistic density and survival
    function definitions, independent of the package's softplus route."""
    total = -mpmath.mpf(data.r) * mpmath.log(b)
    for i in range(data.n):
        z = (mpmath.mpf(float(data.log_time[i]))
             - mpmath.fsum(mpmath.mpf(float(x)) * mpmath.mpf(float(c))
                           for x, c in zip(data.covariates[i], beta))) / mpmath.mpf(b)
        f0 = mpmath.e ** z / (1 + mpmath.e ** z) ** 2
        s0 = 1 / (1 + mpmath.e ** z)
        if data.event[i] == 1.0:
            total += mpmath.log(f0)
        else:
            total += mpmath.log(s0)
    return float(total)


class TestSurvivalDataset:
    def test_basic_properties(self, five_obs):
        assert five_obs.n == 5
        assert five_obs.p == 2
        assert five_obs.r == 3
        assert np.allclose(np.exp(five_obs.log_time), five_obs.time)

    def test_rejects_missing_intercept(self):
        with pytest.raises(DataError):
            SurvivalDataset(time=np.ones(2), event=np.zeros(2),
                            covariates=np.array([[2.0, 1.0], [1.0, 1.0]]))

    def test_rejects_nonpositive_time(self):
        with pytest.raises(DataError):
            SurvivalDataset(time=np.array([1.0, 0.0]), event=np.zeros(2),
                            covariates=np.ones((2, 2)))

    def test_rejects_nonbinary_event(self):
        with pytest.raises(DataError):
            SurvivalDataset(time=np.ones(2), event=np.array([0.5, 1.0]),
                            covariates=np.ones((2, 2)))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DataError):
            SurvivalDataset(time=np.ones(3), event=np.zeros(2),
                            covariates=np.ones((2, 2)))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_nonfinite_covariates(self, bad):
        X = np.ones((3, 2))
        X[1, 1] = bad
        with pytest.raises(DataError, match="finite"):
            SurvivalDataset(time=np.ones(3), event=np.ones(3), covariates=X)

    def test_intercept_only_allowed(self):
        data = SurvivalDataset(time=np.ones(3), event=np.ones(3),
                               covariates=np.ones((3, 1)))
        assert data.p == 1

    def test_arrays_are_immutable(self, five_obs):
        with pytest.raises(ValueError):
            five_obs.time[0] = 2.0


class TestDatasetStack:
    SCENARIO = SimulationScenario(n=40, censor_bound=17.0, seed=5)

    def stack_and_replicates(self, source):
        """A stack built by `source` and the dataset of each of its rows."""
        datasets = [generate_dataset(self.SCENARIO, i) for i in range(5)]
        if source == "of":
            return DatasetStack.of(datasets), datasets
        if source == "take_mask":
            mask = np.array([True, False, True, True, False])
            return (DatasetStack.of(datasets).take(mask),
                    [d for d, keep in zip(datasets, mask) if keep])
        if source == "take_index":
            index = np.array([4, 1, 1, 0])
            return DatasetStack.of(datasets).take(index), [datasets[i] for i in index]
        indices = [3, 0, 7]
        return (_generate_block(self.SCENARIO, indices)[0],
                [generate_dataset(self.SCENARIO, i) for i in indices])

    @pytest.mark.parametrize("source", ["of", "take_mask", "take_index", "generate_block"])
    def test_rows_are_each_replicate_alone(self, source):
        # the batch kernels drop and keep rows of a stack, so 1 + delta,
        # y - X beta and the start of a row must be its replicate's own, bit
        # for bit
        stack, datasets = self.stack_and_replicates(source)
        beta = np.random.default_rng(4).normal(size=(len(stack), stack.p))
        residuals = stack.residuals(beta)
        assert stack.event1.shape == residuals.shape == (len(datasets), stack.n)
        assert stack.start.shape == (len(datasets), stack.p + 1)
        for j, data in enumerate(datasets):
            alone = DatasetStack.of([data])
            assert np.array_equal(alone.event1[0], 1.0 + data.event)
            assert stack.event1[j].tobytes() == alone.event1[0].tobytes()
            assert residuals[j].tobytes() == alone.residuals(beta[j:j + 1])[0].tobytes()
            assert stack.start[j].tobytes() == alone.start[0].tobytes()

    def test_start_is_least_squares_and_the_logistic_scale_of_its_residuals(self):
        data = generate_dataset(self.SCENARIO, 2)
        start = DatasetStack.of([data]).start[0]
        beta = np.linalg.lstsq(data.covariates, data.log_time, rcond=None)[0]
        sd = np.std(data.log_time - data.covariates @ beta)
        assert np.allclose(start[:-1], beta, rtol=1e-12, atol=0.0)
        assert start[-1] == pytest.approx(math.log(sd * math.sqrt(3.0) / math.pi), rel=1e-12)
        # residuals of an exact fit give the floor of the scale, 1e-3
        exact = make_dataset([0.5, 1.0, 1.5], [1, 1, 0], [[0.0], [1.0], [2.0]])
        assert DatasetStack.of([exact]).start[0, -1] == math.log(1e-3)

    def test_start_is_computed_once_and_read_only(self):
        stack, _ = self.stack_and_replicates("of")
        start = stack.start
        assert stack.start is start
        assert not start.flags.writeable
        with pytest.raises(ValueError):
            start[0, 0] = 0.0


class TestSoftplus:
    def test_within_two_ulp_of_logaddexp(self):
        z = np.concatenate([np.linspace(-800.0, 800.0, 400_001),
                            np.linspace(709.0, 800.0, 10_001)])
        exact = np.logaddexp(0.0, z)
        got = _softplus(z)
        ulps = np.abs(got - exact) / np.spacing(np.abs(exact))
        assert ulps.max() <= 2.0

    def test_overflow_entries_take_logaddexp(self):
        z = np.array([0.5, 709.5, 710.0, 1e300, -3.0])
        assert np.array_equal(_softplus(z), np.logaddexp(0.0, z))

    def test_special_values(self):
        with np.errstate(all="raise"):
            got = _softplus(np.array([-np.inf, np.inf, np.nan, 0.0]))
        assert got[0] == 0.0
        assert got[1] == np.inf
        assert np.isnan(got[2])
        assert got[3] == math.log(2.0)

    def test_empty_input(self):
        assert _softplus(np.empty(0)).shape == (0,)


class TestLogLikelihood:
    def test_event_at_zero_residual(self):
        # z = 0, b = 1: the contribution is log f0(0) = -2 log 2
        data = make_dataset([0.7], [1], [[0.5]])
        params = ModelParams(coefficients=np.array([0.2, 1.0]), scale=1.0)
        assert log_likelihood(data, params) == pytest.approx(-2.0 * math.log(2.0))

    def test_censored_at_zero_residual(self):
        data = make_dataset([0.7], [0], [[0.5]])
        params = ModelParams(coefficients=np.array([0.2, 1.0]), scale=1.0)
        assert log_likelihood(data, params) == pytest.approx(-math.log(2.0))

    def test_five_observation_fixture_against_oracle(self, five_obs):
        params = ModelParams(coefficients=np.array([0.4, -0.7]), scale=0.9)
        got = log_likelihood(five_obs, params)
        assert got == pytest.approx(loglik_oracle(five_obs, [0.4, -0.7], 0.9),
                                    abs=1e-12)

    def test_permutation_invariance(self, five_obs, rng):
        params = ModelParams(coefficients=np.array([0.1, 0.3]), scale=1.2)
        perm = rng.permutation(five_obs.n)
        shuffled = SurvivalDataset(time=five_obs.time[perm],
                                   event=five_obs.event[perm],
                                   covariates=five_obs.covariates[perm])
        assert log_likelihood(shuffled, params) == pytest.approx(
            log_likelihood(five_obs, params), abs=1e-12)

    def test_event_term_is_logistic_log_density(self, rng):
        # per-event contribution equals log f0(z) - log b
        for _ in range(1000):
            y = rng.normal(0.0, 2.0)
            beta = rng.normal(0.0, 1.0, size=2)
            b = rng.uniform(0.2, 3.0)
            data = make_dataset([y], [1], [[1.5]])
            z = (y - beta[0] - 1.5 * beta[1]) / b
            f0 = math.exp(z) / (1.0 + math.exp(z)) ** 2
            expected = math.log(f0) - math.log(b)
            got = log_likelihood(data, ModelParams(coefficients=beta, scale=b))
            assert got == pytest.approx(expected, rel=1e-12)

    def test_overflow_safe_for_extreme_residuals(self):
        data = make_dataset([300.0, -300.0], [1, 0], [[0.0], [0.0]])
        params = ModelParams(coefficients=np.array([0.0, 0.0]), scale=0.5)
        value = log_likelihood(data, params)
        assert math.isfinite(value)

    def test_empty_dataset_rejected(self):
        data = SurvivalDataset(time=np.empty(0), event=np.empty(0),
                               covariates=np.empty((0, 2)))
        with pytest.raises(DataError):
            log_likelihood(data, ModelParams(coefficients=np.zeros(2), scale=1.0))


class TestLogPosterior:
    PRIOR = PriorSpec(coef_mean=np.array([0.3, -0.2]), coef_precision=0.5,
                      scale_shape=1.0, scale_rate=1.0)

    def test_centered_coefficient_prior_term(self, five_obs):
        # at beta = mu0 the quadratic vanishes, leaving -(p/2) log(2 pi / v0)
        params = ModelParams(coefficients=self.PRIOR.coef_mean, scale=1.0)
        got = log_posterior(five_obs, params, self.PRIOR)
        prior_beta = got - log_likelihood(five_obs, params) \
            - inverse_gamma_log_pdf(InverseGammaParams(1.0, 1.0), 1.0)
        assert prior_beta == pytest.approx(-1.0 * math.log(2.0 * math.pi / 0.5),
                                           abs=1e-12)

    def test_unit_inverse_gamma_density_at_one(self):
        assert inverse_gamma_log_pdf(InverseGammaParams(1.0, 1.0), 1.0) == \
            pytest.approx(-1.0, abs=1e-14)

    def test_term_by_term_oracle(self, five_obs):
        beta = np.array([0.1, 0.5])
        b = 1.3
        params = ModelParams(coefficients=beta, scale=b)
        diff = beta - self.PRIOR.coef_mean
        expected = (loglik_oracle(five_obs, beta.tolist(), b)
                    - math.log(2.0 * math.pi / 0.5)
                    - 0.25 * float(diff @ diff)
                    + float(mpmath.log(1) - mpmath.log(b) * 2 - 1 / mpmath.mpf(b)))
        assert log_posterior(five_obs, params, self.PRIOR) == pytest.approx(
            expected, abs=1e-12)

    def test_prior_dimension_must_match_data(self):
        # a one-entry mean would broadcast against three coefficients
        data = make_dataset([0.2, -0.4, 1.3], [1, 0, 1], [[0.5, 1.0], [1.2, 0.0], [-0.3, 1.0]])
        prior = PriorSpec(coef_mean=np.zeros(1), coef_precision=0.5,
                          scale_shape=1.0, scale_rate=1.0)
        with pytest.raises(ValueError, match="prior mean dimension"):
            log_posterior(data, ModelParams(coefficients=np.zeros(3), scale=1.0), prior)


class TestPriorSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            PriorSpec(coef_mean=np.zeros(2), coef_precision=0.0,
                      scale_shape=1.0, scale_rate=1.0)
        with pytest.raises(ValueError):
            PriorSpec(coef_mean=np.zeros(2), coef_precision=1.0,
                      scale_shape=-1.0, scale_rate=1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["coef_mean", "coef_precision", "scale_shape",
                                       "scale_rate"])
    def test_nonfinite_field_is_named(self, field, bad):
        fields = dict(coef_mean=np.zeros(2), coef_precision=1.0, scale_shape=1.0,
                      scale_rate=1.0)
        fields[field] = np.array([0.0, bad]) if field == "coef_mean" else bad
        with pytest.raises(ValueError, match=field):
            PriorSpec(**fields)

    def test_scale_params(self):
        prior = PriorSpec(coef_mean=np.zeros(2), coef_precision=1.0,
                          scale_shape=11.0, scale_rate=10.0)
        assert prior.scale_params == InverseGammaParams(11.0, 10.0)


class TestModelParams:
    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            ModelParams(coefficients=np.zeros(2), scale=0.0)
