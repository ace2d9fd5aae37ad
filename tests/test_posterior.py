import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

import llaft.numerics
import llaft.posterior
from llaft.cavi import VariationalState
from llaft.exceptions import NumericalError
from llaft.numerics import (InverseGammaParams, inverse_gamma_cdf, inverse_gamma_log_pdf,
                            inverse_gamma_quantile)
from llaft.posterior import (ParameterSummary, acceleration_factor, hdi_from_draws,
                             inverse_gamma_hdi, summarize_coefficients,
                             summarize_scale)


HDI_SHAPES = [0.5, 1.0, 1.5, 2.0, 3.0, 11.0, 200.0, 250.0, 310.0, 742.0, 1e4]
HDI_LEVELS = [0.5, 0.9, 0.95, 0.99]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_hdi(params, level, tol=1e-8):
    """Shortest interval by golden-section search over the lower-tail mass t
    in [0, 1 - level]; interval length is unimodal in t for a unimodal
    density. The library's HDI used this search before it solved the
    first-order conditions directly."""
    def length(t):
        return (inverse_gamma_quantile(params, t + level)
                - inverse_gamma_quantile(params, t))

    a, b = 1e-12, (1.0 - level) - 1e-12
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = length(c), length(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = length(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = length(d)
    t = 0.5 * (a + b)
    return (inverse_gamma_quantile(params, t),
            inverse_gamma_quantile(params, t + level))


def _mp_root(f, lo, hi, rel):
    # root of f on [lo, hi], where f changes sign once, by the Illinois
    # variant of regula falsi: the bracket always holds the root
    f_lo, f_hi = f(lo), f(hi)
    side = 0
    for _ in range(500):
        mid = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        f_mid = f(mid)
        if f_mid == 0:
            return mid
        if (f_mid < 0) == (f_lo < 0):
            lo, f_lo = mid, f_mid
            if side == -1:
                f_hi /= 2
            side = -1
        else:
            hi, f_hi = mid, f_mid
            if side == 1:
                f_lo /= 2
            side = 1
        if hi - lo <= rel * hi:
            return (lo + hi) / 2
    raise AssertionError("oracle root search did not converge")


def mpmath_hdi(shape, scale, level, digits=30):
    """The HDI's two first-order conditions solved at `digits` digits by
    nested bracketed 1-D solves: for each l below the mode, u(l) is the point
    above the mode with the same density; F(u(l)) - F(l) falls from 1 to 0
    as l rises to the mode, and equals `level` at the HDI."""
    with mpmath.workdps(digits):
        a, w, level = mpmath.mpf(shape), mpmath.mpf(scale), mpmath.mpf(level)
        rel = mpmath.mpf(10) ** (5 - digits)
        mode = w / (a + 1)

        def log_pdf(x):
            return -(a + 1) * mpmath.log(x) - w / x

        def cdf(x):
            return mpmath.gammainc(a, w / x, mpmath.inf, regularized=True)

        def partner(l):
            target = log_pdf(l)
            hi = 2 * mode
            while log_pdf(hi) > target:
                hi *= 2
            return _mp_root(lambda u: log_pdf(u) - target, mode, hi, rel)

        def excess(l):
            return cdf(partner(l)) - cdf(l) - level

        lo = mode / 2
        while excess(lo) < 0:
            lo /= 2
        low = _mp_root(excess, lo, mode, rel)
        return float(low), float(partner(low))


def state_from(mu, cov, shape, rate):
    return VariationalState(coef_mean=np.asarray(mu, float),
                            coef_cov=np.asarray(cov, float),
                            scale_shape=shape, scale_rate=rate)


class TestSummarizeCoefficients:
    def test_standard_normal_interval(self):
        state = state_from([0.0], [[1.0]], 3.0, 2.0)
        s, = summarize_coefficients(state, 0.95)
        assert s.interval_low == pytest.approx(-1.959963985, abs=1e-8)
        assert s.interval_high == pytest.approx(1.959963985, abs=1e-8)
        assert s.interval_kind == "ETI"

    def test_degenerate_variance_collapses(self):
        state = state_from([2.5], [[1e-24]], 3.0, 2.0)
        s, = summarize_coefficients(state)
        assert s.interval_high - s.interval_low < 1e-10
        assert s.mean == pytest.approx(2.5)

    @given(st.floats(-3, 3), st.floats(0.01, 5.0), st.floats(0.5, 0.999))
    def test_eti_mass_is_level(self, mu, sd, level):
        state = state_from([mu], [[sd * sd]], 3.0, 2.0)
        s, = summarize_coefficients(state, level)
        mass = (stats.norm.cdf((s.interval_high - mu) / sd)
                - stats.norm.cdf((s.interval_low - mu) / sd))
        assert mass == pytest.approx(level, abs=1e-8)

    def test_names(self):
        state = state_from([1.0, 2.0], np.eye(2), 3.0, 2.0)
        out = summarize_coefficients(state, names=["intercept", "slope"])
        assert [s.name for s in out] == ["intercept", "slope"]

    def test_bad_level(self):
        state = state_from([0.0], [[1.0]], 3.0, 2.0)
        with pytest.raises(ValueError):
            summarize_coefficients(state, 1.0)


class TestInverseGammaHdi:
    def test_mass_equals_level(self):
        params = InverseGammaParams(7.0, 4.0)
        lo, hi = inverse_gamma_hdi(params, 0.95)
        mass = inverse_gamma_cdf(params, hi) - inverse_gamma_cdf(params, lo)
        assert mass == pytest.approx(0.95, abs=1e-6)

    def test_matches_grid_search_oracle(self):
        # brute force over the lower-tail mass with step 1e-5
        params = InverseGammaParams(3.0, 2.0)
        dist = stats.invgamma(3.0, scale=2.0)
        ts = np.arange(1e-5, 0.05, 1e-5)
        lengths = dist.ppf(ts + 0.95) - dist.ppf(ts)
        t_best = ts[np.argmin(lengths)]
        lo, hi = inverse_gamma_hdi(params, 0.95)
        assert lo == pytest.approx(dist.ppf(t_best), abs=2e-4)
        assert hi == pytest.approx(dist.ppf(t_best + 0.95), abs=2e-4)

    def test_shorter_than_eti(self):
        params = InverseGammaParams(3.0, 2.0)
        lo, hi = inverse_gamma_hdi(params, 0.95)
        dist = stats.invgamma(3.0, scale=2.0)
        eti = dist.ppf([0.025, 0.975])
        assert hi - lo <= eti[1] - eti[0]

    @pytest.mark.parametrize("shape", HDI_SHAPES)
    def test_matches_mpmath_first_order_conditions(self, shape):
        scale = 0.9 * shape
        for level in HDI_LEVELS:
            lo, hi = inverse_gamma_hdi(InverseGammaParams(shape, scale), level)
            ref_lo, ref_hi = mpmath_hdi(shape, scale, level)
            assert lo == pytest.approx(ref_lo, rel=1e-9), level
            assert hi == pytest.approx(ref_hi, rel=1e-9), level

    @pytest.mark.parametrize("shape, level", [(0.5, 0.999), (0.3, 0.9999), (0.1, 0.999)])
    def test_high_level_heavy_tail_matches_mpmath(self, shape, level):
        # small shape and high level: the upper end sits far in a heavy tail,
        # where the mass's rounding sets the last Newton steps
        scale = 0.9 * shape
        lo, hi = inverse_gamma_hdi(InverseGammaParams(shape, scale), level)
        ref_lo, ref_hi = mpmath_hdi(shape, scale, level)
        assert lo == pytest.approx(ref_lo, rel=1e-9)
        assert hi == pytest.approx(ref_hi, rel=1e-9)

    @pytest.mark.parametrize("shape", HDI_SHAPES)
    def test_no_longer_than_golden_section(self, shape):
        params = InverseGammaParams(shape, 0.9 * shape)
        for level in HDI_LEVELS:
            lo, hi = inverse_gamma_hdi(params, level)
            g_lo, g_hi = golden_section_hdi(params, level)
            assert hi - lo <= (g_hi - g_lo) + 1e-6 * (hi - lo), level
            mass = inverse_gamma_cdf(params, hi) - inverse_gamma_cdf(params, lo)
            assert mass == pytest.approx(level, abs=1e-10), level

    @pytest.mark.parametrize("shape", [250.0, 742.0])
    def test_makes_no_cdf_call(self, shape, monkeypatch):
        # the mass comes from quadrature: no CDF, quantile or incomplete gamma
        def forbidden(*args):
            raise AssertionError("the HDI called the CDF machinery")

        for name in ("inverse_gamma_cdf", "inverse_gamma_quantile",
                     "_gamma_p_series", "_gamma_q_contfrac"):
            monkeypatch.setattr(llaft.numerics, name, forbidden)
        lo, hi = inverse_gamma_hdi(InverseGammaParams(shape, 0.9 * shape), 0.95)
        assert 0.0 < lo < hi

    def test_symmetric_limit_matches_eti(self):
        # huge shape: the distribution is nearly symmetric, HDI ~ ETI
        params = InverseGammaParams(1e4, 1e4)
        lo, hi = inverse_gamma_hdi(params, 0.95)
        dist = stats.invgamma(1e4, scale=1e4)
        eti = dist.ppf([0.025, 0.975])
        assert lo == pytest.approx(eti[0], rel=1e-3)
        assert hi == pytest.approx(eti[1], rel=1e-3)


def _reference_table():
    rows = np.loadtxt(Path(__file__).parent / "data" / "inverse_gamma_hdi_reference.txt")
    return {level: rows[rows[:, 2] == level] for level in np.unique(rows[:, 2])}


class TestBatchedHdi:
    def test_matches_the_cdf_solver_table(self):
        # One call per level over every shape and rate of the table. An
        # endpoint x moves by d/(x f(x)) of itself when the mass moves by d,
        # and both solvers round the mass at ~1e-16: at shape 0.5 and level
        # 0.999 the upper end has x f(x) ~ 5e-4, so a mass error of 1e-15
        # moves it by 2e-12 without either solver being wrong.
        for level, rows in _reference_table().items():
            shape, rate, ref = rows[:, 0], rows[:, 1], rows[:, 3:]
            got = np.column_stack(inverse_gamma_hdi(InverseGammaParams(shape, rate), level))
            x_f = np.exp([[inverse_gamma_log_pdf(InverseGammaParams(a, w), x) + math.log(x)
                           for x in pair] for a, w, pair in zip(shape, rate, ref)])
            rel = np.where(shape <= 1e4, 1e-12, 1e-9)[:, None]  # levels <= 0.999
            tol = rel + 1e-15 / x_f
            assert (np.abs(got / ref - 1.0) <= tol).all(), level

    def test_cdf_puts_level_mass_between_the_ends(self):
        # above shape 1e3 the CDF itself is good to ~1e-10 only
        for level, rows in _reference_table().items():
            rows = rows[rows[:, 0] <= 1e3]
            lows, highs = inverse_gamma_hdi(InverseGammaParams(rows[:, 0], rows[:, 1]), level)
            for a, w, lo, hi in zip(rows[:, 0], rows[:, 1], lows, highs):
                params = InverseGammaParams(a, w)
                mass = inverse_gamma_cdf(params, hi) - inverse_gamma_cdf(params, lo)
                assert mass == pytest.approx(level, abs=1e-12), (a, w)

    def test_each_element_equals_its_batch_of_one(self):
        shape = np.geomspace(0.3, 3e4, 23)
        rate = np.linspace(0.01, 50.0, 23)
        for level in (0.5, 0.95, 0.999):
            lows, highs = inverse_gamma_hdi(InverseGammaParams(shape, rate), level)
            for a, w, lo, hi in zip(shape.tolist(), rate.tolist(), lows, highs):
                assert inverse_gamma_hdi(InverseGammaParams(a, w), level) == (lo, hi)

    def test_array_in_array_out(self):
        lows, highs = inverse_gamma_hdi(InverseGammaParams(np.array([3.0, 250.0]), 2.0))
        assert lows.shape == highs.shape == (2,)
        lo, hi = inverse_gamma_hdi(InverseGammaParams(3.0, 2.0))
        assert isinstance(lo, float) and isinstance(hi, float)

    def test_legendre_rule_matches_numpy(self):
        from numpy.polynomial.legendre import leggauss
        nodes, weights = llaft.posterior._legendre_rule()
        ref_nodes, ref_weights = leggauss(len(nodes))
        assert np.allclose(nodes, ref_nodes, rtol=0, atol=1e-15)
        assert np.allclose(weights, ref_weights, rtol=1e-11, atol=0)
        assert nodes.tolist() == [-x for x in nodes[::-1].tolist()]


class TestSummarizeScale:
    def test_moments(self):
        state = state_from([0.0], [[1.0]], 12.0, 22.0)
        s = summarize_scale(state)
        assert s.mean == pytest.approx(2.0)
        assert s.sd == pytest.approx(22.0 / (11.0 * math.sqrt(10.0)))
        assert s.interval_kind == "HDI"

    def test_sd_flagged_nan_for_small_shape(self):
        state = state_from([0.0], [[1.0]], 1.5, 1.0)
        assert math.isnan(summarize_scale(state).sd)

    def test_large_shape_matches_mpmath(self):
        # a VB posterior from ~1e5 events: the CDF's power series near the
        # mean runs past a thousand terms
        s = summarize_scale(state_from([0.0], [[1.0]], 1e5, 1.3e5))
        ref_lo, ref_hi = mpmath_hdi(1e5, 1.3e5, 0.95)
        assert s.mean == pytest.approx(1.3e5 / (1e5 - 1.0))
        assert s.interval_low == pytest.approx(ref_lo, rel=1e-9)
        assert s.interval_high == pytest.approx(ref_hi, rel=1e-9)

    def test_sequence_gives_one_entry_per_state(self):
        states = [state_from([0.0], [[1.0]], a, w)
                  for a, w in [(12.0, 22.0), (0.8, 1.0), (250.0, 190.0), (1.5, 1.0)]]
        out = summarize_scale(states)
        assert len(out) == 4
        assert isinstance(out[1], NumericalError)
        for state, summary in zip(states[::2] + states[3:], out[::2] + out[3:]):
            assert repr(summary) == repr(summarize_scale(state))  # NaN SD at shape 1.5
        assert summarize_scale([]) == []
        failed_fit = NumericalError("variational update failed at iteration 2")
        assert summarize_scale([failed_fit, states[0]])[0] is failed_fit

    def test_bad_level_raises_for_a_sequence(self):
        with pytest.raises(ValueError):
            summarize_scale([state_from([0.0], [[1.0]], 12.0, 22.0)], 1.0)


class TestAccelerationFactor:
    def test_published_style_transform(self):
        s = ParameterSummary(name="beta1", mean=0.416, sd=0.141,
                             interval_low=0.139, interval_high=0.692,
                             interval_kind="ETI")
        af = acceleration_factor(s)
        assert af.mean == pytest.approx(1.516, abs=5e-4)
        assert af.interval_low == pytest.approx(1.149, abs=5e-4)
        assert af.interval_high == pytest.approx(1.998, abs=5e-4)
        assert af.name == "exp(beta1)"

    def test_zero_maps_to_one(self):
        s = ParameterSummary(name="x", mean=0.0, sd=0.1,
                             interval_low=-0.2, interval_high=0.2,
                             interval_kind="ETI")
        assert acceleration_factor(s).mean == pytest.approx(1.0)

    def test_percent_effect(self):
        s = ParameterSummary(name="beta2", mean=0.021, sd=0.003,
                             interval_low=0.016, interval_high=0.027,
                             interval_kind="ETI")
        af = acceleration_factor(s)
        assert af.mean == pytest.approx(1.021, abs=5e-4)
        assert af.interval_low == pytest.approx(1.016, abs=5e-4)
        assert af.interval_high == pytest.approx(1.027, abs=5e-4)

    @given(st.floats(-2, 2), st.floats(0.01, 1.0))
    def test_preserves_ordering_and_containment(self, mu, half):
        inner = ParameterSummary("a", mu, 0.1, mu - half, mu + half, "ETI")
        outer = ParameterSummary("a", mu, 0.1, mu - 2 * half, mu + 2 * half, "ETI")
        fi, fo = acceleration_factor(inner), acceleration_factor(outer)
        assert fi.interval_low < fi.interval_high
        assert fo.interval_low <= fi.interval_low
        assert fi.interval_high <= fo.interval_high


class TestHdiFromDraws:
    def test_matches_eti_for_symmetric_sample(self, rng):
        draws = rng.normal(size=200_000)
        lo, hi = hdi_from_draws(draws, 0.95)
        assert lo == pytest.approx(-1.96, abs=0.05)
        assert hi == pytest.approx(1.96, abs=0.05)

    def test_short_sample_rejected(self):
        with pytest.raises(ValueError):
            hdi_from_draws(np.array([1.0]), 0.95)
