import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate, optimize, stats

from llaft.exceptions import NumericalError
from llaft.numerics import (InverseGammaParams, _lgamma, _per_item, _stream_keys, digamma,
                            inverse_gamma_cdf, inverse_gamma_log_pdf, inverse_gamma_moments,
                            inverse_gamma_quantile, normal_quantile, regularized_gamma_p,
                            uniform_stream)
from llaft.simulate import stream_seed

mpmath.mp.dps = 40

EULER_MASCHERONI = 0.5772156649015329


class TestDigamma:
    def test_at_one_is_negative_euler_mascheroni(self):
        assert digamma(1.0) == pytest.approx(-EULER_MASCHERONI, abs=1e-10)

    def test_recurrence(self, rng):
        # psi(x+1) - psi(x) = 1/x
        for x in rng.uniform(0.1, 100.0, size=1000):
            assert digamma(x + 1.0) - digamma(x) == pytest.approx(1.0 / x, abs=1e-10)

    def test_asymptotic_leading_terms(self):
        # psi(500) ~ log(500) - 1/1000 - 1/(12 * 500^2) - ...
        series = mpmath.log(500) - mpmath.mpf(1) / 1000
        k = mpmath.mpf(1)
        x2 = mpmath.mpf(500) ** 2
        for n in range(1, 51):
            series -= mpmath.bernoulli(2 * n) / (2 * n * x2 ** n)
        assert digamma(500.0) == pytest.approx(float(series), abs=1e-10)

    @pytest.mark.parametrize("x", [1e-6, 1e-3, 0.5, 1.0, 2.5, 6.0, 11.3, 137.0,
                                   1e4, 1e6])
    def test_against_high_precision(self, x):
        assert digamma(x) == pytest.approx(float(mpmath.digamma(x)), abs=1e-8)

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5])
    def test_domain_error(self, x):
        with pytest.raises(ValueError):
            digamma(x)


class TestLogGamma:
    """`_lgamma`, the standard library's log-gamma element by element."""

    def test_integers_and_half(self):
        assert _lgamma(1.0) == pytest.approx(0.0, abs=1e-14)
        assert _lgamma(5.0) == pytest.approx(math.log(24.0), abs=1e-13)
        assert _lgamma(0.5) == pytest.approx(0.5 * math.log(math.pi), abs=1e-13)

    @pytest.mark.parametrize("x", [1e-6, 0.02, 0.7, 1.5, 9.99, 10.0, 42.0, 1e3])
    def test_against_high_precision_absolute(self, x):
        assert _lgamma(x) == pytest.approx(float(mpmath.loggamma(x)), abs=1e-10)

    @pytest.mark.parametrize("x", [1e5, 1e6])
    def test_against_high_precision_large(self, x):
        # |log Gamma(1e6)| ~ 1.3e7, so a 1e-10 absolute target is below one
        # ulp of the result; near machine-relative accuracy is the attainable
        # contract at this magnitude.
        ref = float(mpmath.loggamma(x))
        assert _lgamma(x) == pytest.approx(ref, rel=1e-13)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            _lgamma(0.0)

    def test_keeps_the_array_shape(self):
        x = np.array([[0.5, 1.0], [5.0, 1e3]])
        got = _lgamma(x)
        assert got.shape == x.shape
        assert got.tolist() == [[math.lgamma(v) for v in row] for row in x.tolist()]


class TestRegularizedGamma:
    def test_against_scipy(self, rng):
        from scipy.special import gammainc
        for _ in range(200):
            a = rng.uniform(0.5, 800.0)
            z = rng.uniform(0.0, 3.0 * a)
            assert regularized_gamma_p(a, z) == pytest.approx(
                float(gammainc(a, z)), abs=1e-12)

    def test_edges(self):
        assert regularized_gamma_p(3.0, 0.0) == 0.0
        assert regularized_gamma_p(1.0, 700.0) == pytest.approx(1.0, abs=1e-12)


class TestInverseGammaParams:
    @pytest.mark.parametrize("shape,scale", [(0.0, 1.0), (1.0, 0.0), (-2.0, 3.0),
                                             (np.array([2.0, 0.0]), 1.0),
                                             (2.0, np.array([1.0, np.nan]))])
    def test_invalid(self, shape, scale):
        with pytest.raises(ValueError):
            InverseGammaParams(shape, scale)


class TestInverseGammaMoments:
    def test_closed_forms(self):
        mean_inv, mean_inv_sq, _ = inverse_gamma_moments(InverseGammaParams(2.0, 4.0))
        assert mean_inv == pytest.approx(0.5)
        assert mean_inv_sq == pytest.approx(0.375)  # (2 + 4) / 16

    def test_mean_log_at_unit_params(self):
        # E log b = log(1) - psi(1) = Euler-Mascheroni; cross-checked below by
        # Monte Carlo over 1e7 draws.
        _, _, mean_log = inverse_gamma_moments(InverseGammaParams(1.0, 1.0))
        assert mean_log == pytest.approx(EULER_MASCHERONI, abs=1e-10)
        draws = 1.0 / np.random.default_rng(7).gamma(1.0, 1.0, size=10_000_000)
        log_draws = np.log(draws)
        mc_se = log_draws.std(ddof=1) / math.sqrt(log_draws.size)
        assert abs(log_draws.mean() - mean_log) < 3.0 * mc_se

    def test_monte_carlo_agreement(self):
        # 20 random (shape, scale) pairs, 1e6 draws each, all three moments
        # within 3 Monte Carlo standard errors.
        rng = np.random.default_rng(321)
        for _ in range(20):
            a = rng.uniform(1.0, 600.0)
            w = rng.uniform(0.5, 600.0)
            mean_inv, mean_inv_sq, mean_log = inverse_gamma_moments(
                InverseGammaParams(a, w))
            inv_draws = rng.gamma(a, 1.0 / w, size=1_000_000)
            for sample, expected in [(inv_draws, mean_inv),
                                     (inv_draws ** 2, mean_inv_sq),
                                     (-np.log(inv_draws), mean_log)]:
                se = sample.std(ddof=1) / math.sqrt(sample.size)
                assert abs(sample.mean() - expected) < 3.0 * se, (a, w)


class TestInverseGammaCdf:
    def test_unit_shape_closed_form(self):
        # Inverse-Gamma(1, w) has CDF exp(-w/x)
        params = InverseGammaParams(1.0, 1.0)
        for x in (0.25, 1.0, 3.0, 40.0):
            assert inverse_gamma_cdf(params, x) == pytest.approx(
                math.exp(-1.0 / x), abs=1e-12)

    def test_total_mass(self):
        assert inverse_gamma_cdf(InverseGammaParams(3.0, 2.0), 1e9) == pytest.approx(
            1.0, abs=1e-10)

    def test_against_quadrature(self):
        params = InverseGammaParams(3.0, 2.0)
        pdf = lambda t: math.exp(inverse_gamma_log_pdf(params, t))
        val, err = integrate.quad(pdf, 0.0, 0.8, epsabs=1e-12, limit=200)
        assert err < 5e-9  # scipy's estimate is conservative
        assert inverse_gamma_cdf(params, 0.8) == pytest.approx(val, abs=1e-9)

    def test_monotone_and_bounded(self):
        params = InverseGammaParams(5.0, 3.0)
        xs = np.geomspace(1e-3, 1e3, 400)
        vals = [inverse_gamma_cdf(params, float(x)) for x in xs]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[0] < 1e-12 and vals[-1] > 1.0 - 1e-9

    @pytest.mark.parametrize("shape", [3e4, 1e5, 1e6])
    def test_large_shape_near_mean_against_mpmath(self, shape):
        # at and above the mean z = scale/x sits just below the shape, where
        # the power series needs ~8 sqrt(shape) terms; below the mean the
        # continued fraction takes over
        params = InverseGammaParams(shape, 1.3 * shape)
        mean = params.scale / (shape - 1.0)
        for sds in (-3.0, -1.0, 0.0, 1.0, 3.0):
            x = mean * (1.0 + sds / math.sqrt(shape))
            want = float(mpmath.gammainc(shape, params.scale / x, mpmath.inf,
                                         regularized=True))
            assert inverse_gamma_cdf(params, x) == pytest.approx(want, abs=1e-9), sds

    def test_domain_error(self):
        with pytest.raises(ValueError):
            inverse_gamma_cdf(InverseGammaParams(1.0, 1.0), 0.0)


class TestInverseGammaQuantile:
    def test_unit_shape_inversion(self):
        x = inverse_gamma_quantile(InverseGammaParams(1.0, 1.0), math.exp(-1.0))
        assert x == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("q", [0.025, 0.5, 0.975])
    def test_cdf_of_quantile_round_trip(self, q):
        params = InverseGammaParams(12.0, 10.0)
        x = inverse_gamma_quantile(params, q)
        assert inverse_gamma_cdf(params, x) == pytest.approx(q, abs=1e-8)

    def test_quantile_of_cdf_round_trip(self):
        params = InverseGammaParams(4.0, 6.0)
        for x in (0.5, 1.5, 3.0, 8.0):
            back = inverse_gamma_quantile(params, inverse_gamma_cdf(params, x))
            assert inverse_gamma_cdf(params, back) == pytest.approx(
                inverse_gamma_cdf(params, x), abs=1e-8)
            assert back == pytest.approx(x, rel=1e-5)

    def test_large_shape_interval_against_scipy(self):
        # Derived with an independent quadrature-backed CDF (scipy.invgamma):
        # the 2.5%/97.5% points of Inverse-Gamma(501, 500).
        params = InverseGammaParams(501.0, 500.0)
        lo = inverse_gamma_quantile(params, 0.025)
        hi = inverse_gamma_quantile(params, 0.975)
        ref = stats.invgamma(501.0, scale=500.0).ppf([0.025, 0.975])
        assert lo == pytest.approx(ref[0], rel=1e-6)
        assert hi == pytest.approx(ref[1], rel=1e-6)

    @given(st.floats(1.0, 500.0), st.floats(0.5, 500.0), st.floats(0.01, 0.99))
    def test_round_trip_property(self, a, w, q):
        params = InverseGammaParams(a, w)
        assert inverse_gamma_cdf(params, inverse_gamma_quantile(params, q)) == \
            pytest.approx(q, abs=1e-8)

    @pytest.mark.parametrize("shape", [0.05, 0.2, 0.5, 0.9])
    @pytest.mark.parametrize("q", [1e-10, 1.0 - 1e-10])
    def test_far_tail_round_trip_small_shape(self, shape, q):
        # far tails below shape 1, where the Wilson-Hilferty start is poor and
        # Newton leans on its bracket: checked against a 40-digit CDF
        params = InverseGammaParams(shape, 1.3)
        x = inverse_gamma_quantile(params, q)
        assert inverse_gamma_cdf(params, x) == pytest.approx(q, abs=1e-8)
        lower = mpmath.gammainc(shape, 1.3 / mpmath.mpf(x), mpmath.inf, regularized=True)
        assert float(lower) == pytest.approx(q, rel=1e-6)
        assert float(1 - lower) == pytest.approx(1.0 - q, rel=1e-4)

    @pytest.mark.parametrize("shape", [0.5, 3.0, 742.0])
    @pytest.mark.parametrize("q", [1e-300, 1e-30])
    def test_round_trip_below_double_epsilon(self, shape, q):
        # 1 - q rounds to 1 here, so the start must not take the normal
        # quantile at 1 - q
        params = InverseGammaParams(shape, 1.3)
        x = inverse_gamma_quantile(params, q)
        lower = mpmath.gammainc(shape, 1.3 / mpmath.mpf(x), mpmath.inf, regularized=True)
        assert float(lower) == pytest.approx(q, rel=1e-6)

    def test_overflowing_quantile_raises(self):
        # the 1 - 1e-6 quantile at shape 0.01 is far above the largest double
        with pytest.raises(NumericalError):
            inverse_gamma_quantile(InverseGammaParams(0.01, 1.3), 1.0 - 1e-6)

    @pytest.mark.parametrize("q", [0.0, 1.0, -0.1, 1.7])
    def test_domain_error(self, q):
        with pytest.raises(ValueError):
            inverse_gamma_quantile(InverseGammaParams(2.0, 2.0), q)


class TestNormal:
    def test_quantile_against_erf_oracle(self):
        # invert scipy's erfc-based CDF by root finding as an independent oracle
        for q in (0.025, 0.1, 0.5, 0.9, 0.975, 0.999):
            oracle = optimize.brentq(lambda x: stats.norm.cdf(x) - q, -10, 10,
                                     xtol=1e-13)
            assert normal_quantile(q) == pytest.approx(oracle, abs=1e-9)

    def test_against_scipy(self):
        qs = np.linspace(1e-9, 1 - 1e-9, 501)
        got = normal_quantile(qs)
        assert np.allclose(got, stats.norm.ppf(qs), atol=1e-12, rtol=0)

    def test_two_sided_point(self):
        assert normal_quantile(0.975) == pytest.approx(1.959963985, abs=1e-9)

    def test_scalar_and_array(self):
        assert isinstance(normal_quantile(0.3), float)
        out = normal_quantile(np.array([0.3, 0.7]))
        assert out.shape == (2,)
        assert out[0] == pytest.approx(-out[1])

    def test_domain_error(self):
        with pytest.raises(ValueError):
            normal_quantile(0.0)
        with pytest.raises(ValueError):
            normal_quantile(np.array([0.5, 1.0]))

    def test_float_branch_is_bit_identical_to_array_branch(self):
        # 1.2e5 probabilities from 1e-300 to 1 - 1e-16, both tails and the
        # center, through the float branch one at a time and the array
        # branch all at once
        rng = np.random.default_rng(17)
        q = np.concatenate([
            10.0 ** rng.uniform(-300.0, np.log10(0.075), 40_000),
            rng.uniform(0.0, 1.0, 40_000),
            1.0 - 10.0 ** rng.uniform(-16.0, np.log10(0.075), 40_000),
            [1e-300, 0.075, 0.5, 0.925, 1.0 - 1e-16]])
        q = q[(q > 0.0) & (q < 1.0)]
        assert len(q) >= 100_000
        scalar = np.array([normal_quantile(float(v)) for v in q])
        assert np.array_equal(scalar, normal_quantile(q))


class TestPerItem:
    def test_a_failing_item_comes_out_nan_alone(self):
        # the singular matrix makes the stacked call raise; the other items
        # get what they get by themselves, and the mask marks the one
        M = np.stack([np.eye(2) * 2.0, np.ones((2, 2)), [[4.0, 1.0], [1.0, 3.0]]])
        rhs = np.arange(6.0).reshape(3, 2, 1)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(M, rhs)
        for routine, stacks in ((np.linalg.solve, (M, rhs)), (np.linalg.inv, (M,)),
                                (np.linalg.cholesky, (M,))):
            out, failed = _per_item(routine, *stacks)
            assert out.shape == stacks[-1].shape
            assert failed.tolist() == [False, True, False]
            assert np.isnan(out[1]).all()
            for j in (0, 2):
                assert np.array_equal(out[j], routine(*(x[j] for x in stacks)))

    def test_a_stack_that_succeeds_runs_once(self):
        M = np.stack([np.eye(2) * 2.0, [[4.0, 1.0], [1.0, 3.0]]])
        out, failed = _per_item(np.linalg.inv, M)
        assert np.array_equal(out, np.linalg.inv(M))
        assert not failed.any()


_MASK, _GOLDEN = (1 << 64) - 1, 0x9E3779B97F4A7C15


def _splitmix(z):
    # the SplitMix64 finalizer in Python ints, written out independently of
    # the package's uint64 arrays
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _splitmix_key(seed, replicate, role):
    k = _splitmix(((seed & _MASK) * _GOLDEN + _GOLDEN) & _MASK)
    k = _splitmix((k + replicate * _GOLDEN) & _MASK)
    return _splitmix((k + role * _GOLDEN) & _MASK)


class TestStreamKeys:
    def test_against_python_ints_on_random_triples(self):
        draw = random.Random(30)
        triples = [(s, r, role) for s in (0, _MASK, 1 << 64, -1)
                   for r in (0, 10 ** 6, -1) for role in range(8)]
        while len(triples) < 2_500:
            seed = draw.choice([draw.randrange(1 << 64), draw.randrange(1 << 64, 1 << 90),
                                -draw.randrange(1, 1 << 70)])
            replicate = draw.choice([draw.randrange(10 ** 6 + 1), -draw.randrange(1, 10 ** 6)])
            triples.append((seed, replicate, draw.randrange(8)))
        for seed, replicate, role in triples:
            keys = _stream_keys(seed, [replicate], role)
            assert keys.dtype == np.uint64 and keys.shape == (1,)
            assert int(keys[0]) == _splitmix_key(seed, replicate, role)

    @pytest.mark.parametrize("replicates", [range(50), [7, -3, 1 << 70, 0, 10 ** 6, 7]])
    def test_a_block_equals_its_keys_one_at_a_time(self, replicates):
        for seed, role in ((1, 0), (-5, 4), (1 << 66, 7)):
            block = _stream_keys(seed, replicates, role).tolist()
            assert block == [int(_stream_keys(seed, [r], role)[0]) for r in replicates]
            assert block == [_splitmix_key(seed, r, role) for r in replicates]

    def test_stream_values_mix_the_key_and_the_counter(self):
        # value i keeps the top 53 bits of the mixed key + (i + 1) golden,
        # here on a stream that a negative replicate names
        key = _splitmix_key(3, -1, 2)
        expected = [((_splitmix(key + (i + 1) * _GOLDEN) >> 11) + 0.5) * 2.0 ** -53
                    for i in range(5, 9)]
        assert uniform_stream(3, -1, 2, 4, start=5).tolist() == expected

    @pytest.mark.parametrize("seed, replicate, role", [(7, 0, 4), (-2, 1 << 65, 3)])
    def test_stream_seed_is_the_key_as_an_int(self, seed, replicate, role):
        derived = stream_seed(seed, replicate, role)
        assert type(derived) is int and derived == _splitmix_key(seed, replicate, role)
