import itertools
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import llaft.cli
import llaft.piecewise
from llaft.piecewise import (LINEAR_KNOTS, QUADRATIC_KNOTS, _grid, _HingeLS,
                             fit_linear_breakpoints, segment_coefficients, softplus,
                             softplus_linear, softplus_quadratic, table_sse)


class TestSoftplusLinear:
    @pytest.mark.parametrize("x,expected", [
        (-6.0, 0.0),
        (0.0, 0.6405),
        (10.0, 10.0),
        # boundary points belong to the left piece (intervals are
        # left-open/right-closed)
        (-5.0, 0.0),
        (-1.701, 0.1938 + 0.0426 * -1.701),
        (1.702, 0.6405 + 0.6950 * 1.702),
        (5.0, 0.1939 + 0.9574 * 5.0),
    ])
    def test_values(self, x, expected):
        assert softplus_linear(x) == pytest.approx(expected, abs=1e-12)

    def test_vectorized(self):
        x = np.array([-6.0, 0.0, 10.0])
        assert np.allclose(softplus_linear(x), [0.0, 0.6405, 10.0])


class TestSoftplusQuadratic:
    @pytest.mark.parametrize("x,expected", [
        (0.0, 0.6962),
        (-6.0, 0.0),
        # printed-row arithmetic: 0.3894 + 0.8303*3 + 0.0190*9
        (3.0, 3.0513),
        (-5.0, 0.0),
        (-1.7, 0.3893 + 0.1696 * -1.7 + 0.0189 * 1.7 ** 2),
        (1.7, 0.6962 + 0.5 * 1.7 + 0.1138 * 1.7 ** 2),
        (5.0, 0.3894 + 0.8303 * 5.0 + 0.0190 * 25.0),
        (5.5, 5.5),
    ])
    def test_values(self, x, expected):
        assert softplus_quadratic(x) == pytest.approx(expected, abs=1e-12)


class TestSegmentCoefficients:
    @pytest.mark.parametrize("z,phi,rho,zeta", [
        (-2.0, 0.0426, 0.1696, 0.0189),
        (1.0, 0.6950, 0.5000, 0.1138),
        (6.0, 1.0, 1.0, 0.0),
        (-7.0, 0.0, 0.0, 0.0),
        (-5.0, 0.0, 0.0, 0.0),       # boundaries close on the left piece
        (5.0, 0.9574, 0.8303, 0.0190),
        (0.0, 0.3052, 0.5000, 0.1138),
    ])
    def test_lookup(self, z, phi, rho, zeta):
        c = segment_coefficients(np.array([z]))
        assert (c.phi[0], c.rho[0], c.zeta[0]) == (phi, rho, zeta)

    @given(st.floats(-8.0, 8.0), st.floats(1e-6, 1.0))
    def test_piecewise_constant_within_segment(self, z, frac):
        # nudging z toward the interior of its segment leaves coefficients fixed
        all_knots = np.unique(np.concatenate([LINEAR_KNOTS, QUADRATIC_KNOTS,
                                              [-20.0, 20.0]]))
        k = np.searchsorted(all_knots, z, side="left")
        lo = all_knots[k - 1] if k > 0 else -20.0
        z2 = lo + (z - lo) * frac  # stays in (lo, z]
        a = segment_coefficients(np.array([z]))
        b = segment_coefficients(np.array([z2]))
        assert a.phi[0] == b.phi[0]
        assert a.rho[0] == b.rho[0]
        assert a.zeta[0] == b.zeta[0]


class TestApproximationQuality:
    GRID = np.linspace(-8.0, 8.0, 100_001)

    def test_linear_max_error(self):
        err = np.max(np.abs(softplus_linear(self.GRID) - softplus(self.GRID)))
        assert err <= 0.12
        assert err == pytest.approx(0.05265, abs=5e-4)  # frozen observed bound

    def test_quadratic_max_error(self):
        err = np.max(np.abs(softplus_quadratic(self.GRID) - softplus(self.GRID)))
        assert err <= 0.03
        assert err == pytest.approx(0.01218, abs=5e-4)  # frozen observed bound

    def test_monotone_up_to_table_artifacts(self):
        # The printed tables are not exactly nondecreasing: there are small
        # downward jumps at segment boundaries (linear at -5; quadratic at
        # +1.7 and +5) and the quadratic's (-5, -1.7] piece dips slightly
        # before its vertex at -4.49. All decreases stay below 0.02 per jump.
        for fn in (softplus_linear, softplus_quadratic):
            vals = fn(self.GRID)
            diffs = np.diff(vals)
            assert diffs.min() >= -0.02
            running_max = np.maximum.accumulate(vals)
            assert np.max(running_max - vals) <= 0.021

        # the linear table is nondecreasing strictly inside every segment
        diffs = np.diff(softplus_linear(self.GRID))
        interior = np.ones(len(diffs), bool)
        for a in LINEAR_KNOTS:
            interior &= ~((self.GRID[:-1] <= a) & (self.GRID[1:] > a))
        assert diffs[interior].min() >= 0.0

    def test_exact_asymptotes_outside_core(self):
        left = np.linspace(-9.0, -5.0, 101)
        right = np.linspace(5.0 + 1e-9, 9.0, 101)
        for fn in (softplus_linear, softplus_quadratic):
            assert np.all(fn(left) == 0.0)
            assert np.all(fn(right) == right)


class TestTableSse:
    def test_published_windows_and_runtime(self):
        start = time.perf_counter()
        lin, quad = table_sse(10_000)
        elapsed = time.perf_counter() - start
        assert 3.30 <= lin <= 3.40
        assert 0.11 <= quad <= 0.13
        assert elapsed < 1.0


# Knots (in 0.05-lattice units) and SSE of the 10 000-point search, frozen
# from the search as first released; the k = 4, 5 knots depend on the
# exhaustive pass on the 0.25 lattice and the descent's tie-breaking.
FROZEN_KNOT_FITS = {
    0: ([], 3187.67336285254),
    1: ([0], 68.30546692345524),
    2: ([-22, 21], 11.325373792315077),
    3: ([-34, 0, 34], 3.3523000710338238),
    4: ([-40, -10, 15, 44], 1.3632948854210554),
    5: ([-48, -21, 0, 21, 48], 0.6332880833069794),
}

# (grid size, knot count, lattice step): knots in lattice units and SSE,
# frozen from the screen that solved one linear system per head; the
# Gram-Schmidt screen must return the same fits bit for bit.
FROZEN_SMALL_GRID_FITS = {
    (1000, 1, 0.25): ([0], 6.838586071083228),
    (1000, 2, 0.25): ([-5, 4], 1.1778394816165019),
    (1000, 3, 0.25): ([-7, 0, 7], 0.33890626183256245),
    (1000, 4, 0.25): ([-9, -3, 2, 8], 0.13674910574172827),
    (1000, 5, 0.25): ([-9, -4, 0, 4, 9], 0.06984871846907481),
    (400, 4, 0.05): ([-44, -15, 10, 40], 0.054636570967886655),
    (400, 5, 0.05): ([-48, -21, 0, 21, 48], 0.025373191760309055),
}


def _dense_sse(x, y, knots):
    """Independent oracle: explicit hinge design matrix + lstsq."""
    A = np.column_stack([np.ones_like(x), x] + [np.maximum(x - a, 0) for a in knots])
    return float(np.linalg.lstsq(A, y, rcond=None)[1][0])


@pytest.fixture(scope="module")
def knot_fits():
    return {k: fit_linear_breakpoints(10_000, k) for k in range(6)}


class TestBreakpointSearch:
    def test_three_knots_recover_published_table(self, knot_fits):
        res = knot_fits[3]
        assert res.sse <= 3.40
        assert 3.30 <= res.sse <= 3.40
        assert np.all(np.abs(res.breakpoints - np.array([-1.701, 0.0, 1.702])) <= 0.1)
        assert res.r_squared >= 0.9998

    def test_single_line_is_worse(self, knot_fits):
        assert knot_fits[0].sse > knot_fits[3].sse

    def test_sse_strictly_decreasing_in_knots(self, knot_fits):
        sses = [knot_fits[k].sse for k in range(1, 6)]
        assert all(b < a for a, b in zip(sses, sses[1:]))

    def test_breakpoints_sorted_and_interior(self, knot_fits):
        for k in range(1, 6):
            bp = knot_fits[k].breakpoints
            assert np.all(np.diff(bp) > 0)
            assert np.all((bp > -5.0) & (bp < 5.0))

    @pytest.mark.parametrize("k", range(6))
    def test_knots_frozen(self, knot_fits, k):
        units, sse = FROZEN_KNOT_FITS[k]
        assert np.array_equal(knot_fits[k].breakpoints, np.array(units, float) * 0.05)
        assert knot_fits[k].sse == pytest.approx(sse, rel=1e-9)

    @pytest.mark.parametrize("grid_size,k,step", list(FROZEN_SMALL_GRID_FITS))
    def test_small_grid_knots_frozen(self, grid_size, k, step):
        units, sse = FROZEN_SMALL_GRID_FITS[grid_size, k, step]
        fit = fit_linear_breakpoints(grid_size, k, step)
        assert np.array_equal(fit.breakpoints, np.array(units, float) * step)
        assert fit.sse == pytest.approx(sse, rel=1e-9)

    def test_segmented_fit_matches_dense_lstsq(self):
        x = np.linspace(-5.0, 5.0, 800)
        y = np.logaddexp(0.0, x)
        cand = np.arange(-4.5, 4.51, 0.5)
        sse, knots = _HingeLS(x, y).best(cand, 2)
        assert sse == pytest.approx(_dense_sse(x, y, knots), rel=1e-9)
        # and no other candidate pair does better
        best = min(_dense_sse(x, y, (cand[i], cand[j]))
                   for i in range(len(cand)) for j in range(i + 1, len(cand)))
        assert sse == pytest.approx(best, rel=1e-9)

    @pytest.mark.parametrize("k", range(6))
    def test_batched_scores_match_dense_lstsq(self, rng, k):
        x = np.linspace(-5.0, 5.0, 800)
        y = np.logaddexp(0.0, x)
        knots = np.sort(rng.uniform(-4.5, 4.5, size=(7, k)), axis=1)
        got = _HingeLS(x, y).sse(knots)
        want = [_dense_sse(x, y, row) for row in knots]
        assert got == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_scan_matches_exhaustive_sse(self, k):
        # best() screens in closed form and rescores a shortlist with sse();
        # it must return what scoring every tuple with sse() returns, bit for
        # bit, including the first of exactly tied tuples
        x = np.linspace(-5.0, 5.0, 400)
        rng = np.random.default_rng(k)
        for problem in range(12):
            n_cand = int(rng.integers(12, 21))
            if problem < 8:
                # softplus(x) - x/2 is even: mirror-image tuples tie
                y = softplus(x)
                half = rng.choice(np.arange(1, 100), n_cand // 2, replace=False)
                cand = np.sort(np.concatenate([-half, half])) * 0.05
            else:
                y = (np.cumsum(rng.normal(size=len(x))) if problem < 10
                     else rng.normal(size=len(x)))
                cand = np.sort(rng.choice(np.arange(-99, 100), n_cand, replace=False)) * 0.05
            ls = _HingeLS(x, y)
            combos = np.array(list(itertools.combinations(range(len(cand)), k)))
            sse = ls.sse(cand[combos])
            first = int(np.argmin(sse))
            got_sse, got = ls.best(cand, k)
            assert got_sse == sse[first], problem
            assert np.array_equal(got, cand[combos[first]]), problem

    @pytest.mark.parametrize("grid_size", [400, 10_000])
    def test_mirror_tie_returns_first_tuple(self, grid_size):
        # (-1.1, 1.05) and (-1.05, 1.1) tie exactly in sse(); on the
        # 400-point grid the closed-form screen alone ranks the second first
        x, y = _grid(grid_size)
        ls = _HingeLS(x, y)
        first, mirror = np.array([[-22, 21], [-21, 22]]) * 0.05
        assert ls.sse(first[None])[0] == ls.sse(mirror[None])[0]
        sse, knots = ls.best(np.arange(-99, 100) * 0.05, 2)
        assert np.array_equal(knots, first)
        assert sse == ls.sse(first[None])[0]

    def test_coarse_grid_skips_collinear_knot_pairs(self):
        # 5 grid points under a 0.25 lattice: most knot pairs have no grid
        # point between them, so their hinge columns are collinear
        fit = fit_linear_breakpoints(5, 2, 0.25)
        assert 0.0 <= fit.sse < 1e-6

    def test_three_knot_scan_memory(self):
        # the screen's arrays are bounded, so peak memory stays flat
        x, y = _grid(10_000)
        ls = _HingeLS(x, y)
        tracemalloc.start()
        try:
            ls.best(np.arange(-99, 100) * 0.05, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_knot_search_calls_no_other_search(self, monkeypatch):
        searched = []

        def counting_search(grid_size, k, *step):
            searched.append(k)
            return fit_linear_breakpoints(grid_size, k, *step)

        monkeypatch.setattr(llaft.piecewise, "fit_linear_breakpoints", counting_search)
        fit_linear_breakpoints(1000, 5, 0.25)
        assert searched == []

        monkeypatch.setattr(llaft.cli, "fit_linear_breakpoints", counting_search)
        assert llaft.cli.main(["approx-check"]) == 0
        assert searched == [1, 2, 3, 4, 5]

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            fit_linear_breakpoints(1000, 6)

    @pytest.mark.parametrize("grid_size,k", [(5, 5), (2, 4), (6, 5)])
    def test_grid_with_fewer_points_than_coefficients_is_rejected(self, grid_size, k):
        # a k-knot spline has k + 2 coefficients; (5, 5) returned SSE -159.8
        # and (2, 4) raised TypeError before the check
        with pytest.raises(ValueError, match="coefficients"):
            fit_linear_breakpoints(grid_size, k, 0.25)

    @pytest.mark.parametrize("grid_size,k", [(6, 4), (10, 4), (10, 5)] + [
        (g, k) for g in (7, 8, 9, 12) for k in (3, 4, 5)])
    def test_coarse_grid_never_takes_a_singular_tuple(self, grid_size, k):
        # the first three returned SSEs of -3.81, -11 and -43 when
        # near-singular normal equations were scored, and (7, 5) returned
        # -7.6e-7 before sse() clamped at 0; these grids hold heads with no
        # grid point between two of their knots
        fit = fit_linear_breakpoints(grid_size, k, 0.25)
        assert np.all(np.diff(fit.breakpoints) > 0)
        assert fit.sse >= -1e-9
        x, y = _grid(grid_size)
        A = np.column_stack([np.ones_like(x), x]
                            + [np.maximum(x - a, 0) for a in fit.breakpoints])
        coef = np.linalg.lstsq(A, y, rcond=None)[0]
        assert np.linalg.matrix_rank(A) == k + 2
        assert fit.sse == pytest.approx(float(np.sum((A @ coef - y) ** 2)), abs=1e-9)

    def test_numerically_singular_tuple_scores_inf(self):
        # on 5 grid points, knots 3.75 and 4.0 have no point between them,
        # and only the point at 5 above both: their hinge columns are parallel
        x, y = _grid(5)
        ls = _HingeLS(x, y)
        got = ls.sse(np.array([[-2.0, 1.0, 3.75, 4.0], [-2.0, 1.0, 3.0, 4.0],
                               [-1.0, 1.0, 2.0, 3.0]]))
        assert np.all(np.isinf(got))
        assert np.isfinite(ls.sse(np.array([[-1.0, 1.0]])))
