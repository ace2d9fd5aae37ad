import itertools
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import llaft.cli
import llaft.piecewise
from llaft.piecewise import (LINEAR_KNOTS, LINEAR_SLOPES, QUADRATIC_KNOTS, QUADRATIC_LINEAR,
                             QUADRATIC_QUADRATIC, _BOUND_MARGIN, _LATTICE, _LINEAR_TABLE,
                             _QUADRATIC_TABLE, _grid, _HingeLS, _linear_segment, _max_error,
                             _quadratic_segment, _verifier, fit_linear_breakpoints, softplus,
                             softplus_linear, softplus_quadratic, table_max_error, table_sse)

# A knot lattice as coarse as the coarse grids below, symmetric about 0
COARSE_LATTICE = np.arange(-19, 20) * 0.25


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


def segment_coefficients(z):
    """(phi, rho, zeta) at a one-element array z, looked up the way the CAVI
    updates look them up."""
    kl, kq = _linear_segment(z)[0], _quadratic_segment(z)[0]
    return LINEAR_SLOPES[kl], QUADRATIC_LINEAR[kq], QUADRATIC_QUADRATIC[kq]


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
        assert segment_coefficients(np.array([z])) == (phi, rho, zeta)

    @pytest.mark.parametrize("knots", [LINEAR_KNOTS, QUADRATIC_KNOTS])
    def test_knot_count_is_searchsorted(self, knots):
        # each knot, its neighbours on either side, the infinities and NaN
        x = np.concatenate([knots, np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf),
                            [-np.inf, np.inf, np.nan, -0.0, 0.0, -1e300, 1e300]])
        expected = np.searchsorted(knots, x, side="left")
        got = llaft.piecewise._segment(knots, x[None])
        assert got.dtype == expected.dtype
        assert np.array_equal(got.ravel(), expected)
        for v, k in zip(x, expected):
            assert llaft.piecewise._segment(knots, np.asarray(v)) == k

    @given(st.floats(-8.0, 8.0), st.floats(1e-6, 1.0))
    def test_piecewise_constant_within_segment(self, z, frac):
        # nudging z toward the interior of its segment leaves coefficients fixed
        all_knots = np.unique(np.concatenate([LINEAR_KNOTS, QUADRATIC_KNOTS,
                                              [-20.0, 20.0]]))
        k = np.searchsorted(all_knots, z, side="left")
        lo = all_knots[k - 1] if k > 0 else -20.0
        z2 = lo + (z - lo) * frac  # stays in (lo, z]
        assert segment_coefficients(np.array([z])) == segment_coefficients(np.array([z2]))


def _shifted(table, slope_shift, intercept_shift):
    knots, intercepts, linear, quadratic = table
    return knots, intercepts + intercept_shift, linear + slope_shift, quadratic


def _interpolating(knots, nodes):
    """The table through softplus at `nodes`, fractions of its width from the
    left end, in each piece between two knots (linear for two nodes,
    quadratic for three), with the asymptotes 0 and x outside: its error
    vanishes at the nodes and peaks between them."""
    pieces = []
    for a, b in zip(knots[:-1], knots[1:]):
        x = a + (b - a) * np.array(nodes)
        pieces.append(np.polyfit(x, softplus(x), len(nodes) - 1)[::-1])
    c, lin, *quad = np.array(pieces).T
    quad = quad[0] if quad else np.zeros(len(pieces))
    return (knots, np.r_[0.0, c, 0.0], np.r_[0.0, lin, 1.0], np.r_[0.0, quad, 0.0])


_ALTERNATE = 0.01 * (-1.0) ** np.arange(6)
# (knots, intercepts, linear, quadratic) tables whose max|err| on the audit
# grid must equal a scan of every grid point
OTHER_TABLES = [
    # the published tables with slopes and intercepts shifted by +-0.01
    *(_shifted(t, ds, dc) for t in (_LINEAR_TABLE, _QUADRATIC_TABLE)
      for ds, dc in itertools.product((-0.01, 0.01), repeat=2)),
    _shifted(_LINEAR_TABLE, _ALTERNATE, -_ALTERNATE),
    _shifted(_QUADRATIC_TABLE, _ALTERNATE[:5], _ALTERNATE[:5]),
    # the max at a stationary point: logit(phi) of a linear piece, and a root
    # of g on a quadratic piece with 8 zeta < 1, where g has two critical
    # points and two or three roots; knots on the grid's ends
    _interpolating([-8.0, -3.0, -1.0, 1.0, 3.0, 8.0], (0, 1)),
    _interpolating([-8.0, -6.0, 0.5, 2.0, 8.0], (0, 1)),
    _interpolating([-8.0, -5.0, -2.5, 3.5, 8.0], (0, 0.5, 1)),
    _interpolating([-8.0, -3.0, 3.0, 8.0], (0, 0.25, 1)),
    # 8 zeta >= 1 and zeta < 0, where g is monotone
    ([-3, 3], [0, 0.69, 0], [0, 0.5, 1], [0, 0.2, 0]),
    ([-3, 3], [0, 0.69, 0], [0, 0.5, 1], [0, -0.05, 0]),
    # interior linear pieces of slope 0 and 1
    ([-5, -1, 1, 5], [0, 0.2, 0.7, 0.1, 0], [0, 0, 0.5, 1, 1], [0] * 5),
    # knots on and beyond the grid's ends
    ([-9, -8, 0, 8, 8.5], [0.1, 0.2, 0.7, 0.6, 0.5, 0.4],
     [0.2, 0.3, 0.4, 0.6, 0.7, 0.8], [0, 0.01, 0.02, 0.01, 0, 0]),
]


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

    def test_max_error_equals_the_full_scan(self):
        exact = softplus(self.GRID)
        scan = (float(np.max(np.abs(softplus_linear(self.GRID) - exact))),
                float(np.max(np.abs(softplus_quadratic(self.GRID) - exact))))
        assert table_max_error() == scan  # bit for bit

    @pytest.mark.parametrize("table", OTHER_TABLES)
    def test_max_error_of_other_tables_equals_the_full_scan(self, table):
        knots, intercepts, linear, quadratic = (np.array(a, float) for a in table)
        k = np.searchsorted(knots, self.GRID, side="left")
        values = intercepts[k] + (linear[k] + quadratic[k] * self.GRID) * self.GRID
        scan = float(np.max(np.abs(values - softplus(self.GRID))))
        assert _max_error(knots, intercepts, linear, quadratic) == scan  # bit for bit

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
        lin, quad = table_sse()
        elapsed = time.perf_counter() - start
        assert 3.30 <= lin <= 3.40
        assert 0.11 <= quad <= 0.13
        assert elapsed < 1.0


# Knots (in 0.05-lattice units) and SSE of the 10 000-point search, frozen
# from the search as first released.
FROZEN_KNOT_FITS = {
    0: ([], 3187.67336285254),
    1: ([0], 68.30546692345524),
    2: ([-22, 21], 11.325373792315077),
    3: ([-34, 0, 34], 3.3523000710338238),
}


def _dense_sse(x, y, knots):
    """Independent oracle: explicit hinge design matrix + lstsq."""
    A = np.column_stack([np.ones_like(x), x] + [np.maximum(x - a, 0) for a in knots])
    return float(np.linalg.lstsq(A, y, rcond=None)[1][0])


def _problems(seed):
    """(x, y, cand, modes) of the 12 problems on a 400-point grid that the
    scan is checked on, with the modes to scan each in: 8 of softplus with
    candidates symmetric about 0, then 2 random walks and 2 white noises."""
    x = np.linspace(-5.0, 5.0, 400)
    rng = np.random.default_rng(seed)
    for problem in range(12):
        n_cand = int(rng.integers(12, 21))
        if problem < 8:
            # softplus(x) - x/2 is even: mirror-image tuples tie
            half = rng.choice(np.arange(1, 100), n_cand // 2, replace=False)
            yield x, softplus(x), np.sort(np.concatenate([-half, half])) * 0.05, (False, True)
        else:
            y = (np.cumsum(rng.normal(size=len(x))) if problem < 10
                 else rng.normal(size=len(x)))
            cand = np.sort(rng.choice(np.arange(-99, 100), n_cand, replace=False)) * 0.05
            yield x, y, cand, (False,)


def _assert_bound_holds(ls, cand, k, mirror):
    """lo[s, h] + hi[s, t] is at most the exact SSE of each tuple split at s
    (its middle knot for k = 3, its first for k = 2) in every row that the
    scan can visit, up to the margin that the scan allows for rounding."""
    n = len(cand)
    rows = (n + 1) // 2 if mirror else n - 1
    lo, hi = ls._split_sse(cand, k, rows)
    for s in range(1 if k == 3 else 0, rows):
        heads = np.arange(s) if k == 3 else np.array([0])  # k = 2 reads lo[s, 0]
        h, t = np.meshgrid(heads, np.arange(s + 1, n), indexing="ij")
        tuples = np.column_stack([h.ravel(), np.full(h.size, s), t.ravel()])[:, 3 - k:]
        bound = lo[s, h.ravel()] + hi[s, t.ravel()]
        sse = ls.sse(cand[tuples])
        assert np.all(bound <= sse + _BOUND_MARGIN * ls.syy), (n, k, mirror, s)


@pytest.fixture(scope="module")
def knot_fits():
    return {k: fit_linear_breakpoints(k) for k in range(4)}


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
        sses = [knot_fits[k].sse for k in range(1, 4)]
        assert all(b < a for a, b in zip(sses, sses[1:]))

    def test_breakpoints_sorted_and_interior(self, knot_fits):
        for k in range(1, 4):
            bp = knot_fits[k].breakpoints
            assert np.all(np.diff(bp) > 0)
            assert np.all((bp > -5.0) & (bp < 5.0))

    @pytest.mark.parametrize("k", range(4))
    def test_knots_frozen(self, knot_fits, k):
        units, sse = FROZEN_KNOT_FITS[k]
        assert np.array_equal(knot_fits[k].breakpoints, np.array(units, float) * 0.05)
        assert knot_fits[k].sse == pytest.approx(sse, rel=1e-9)

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

    @pytest.mark.parametrize("k", [2, 3])
    def test_scan_matches_exhaustive_sse(self, k):
        # best() scores with sse() only the tuples that its bound leaves; it
        # must return what scoring every tuple with sse() returns, bit for
        # bit, including the first of exactly tied tuples. The coarse grids
        # hold singular tuples (+inf) and many that interpolate (0)
        coarse = [(*_grid(g), COARSE_LATTICE, (False, True)) for g in range(5, 13)]
        for problem, (x, y, cand, modes) in enumerate([*_problems(k), *coarse]):
            ls = _HingeLS(x, y)
            combos = np.array(list(itertools.combinations(range(len(cand)), k)))
            sse = ls.sse(cand[combos])
            first = int(np.argmin(sse))
            # the symmetric problems once more scanning one tuple of each
            # mirror pair
            for mirror in modes:
                got_sse, got = ls.best(cand, k, mirror=mirror)
                assert got_sse == sse[first], (problem, mirror)
                assert np.array_equal(got, cand[combos[first]]), (problem, mirror)

    @pytest.mark.parametrize("k,mirror,units", [
        # the first head and the last middle knot scanned without mirror
        (3, False, [0, 19, 20]),
        # the last middle knot scanned in mirror mode: the centre, its own
        # mirror image
        (3, True, [7, 10, 13]),
        # the last pair of the two-knot scan
        (2, False, [19, 20]),
    ])
    def test_scan_reaches_the_screens_edges(self, k, mirror, units):
        # y is a line plus hinges at the given candidates plus small noise, so
        # the exhaustive optimum sits at the edge of what the mode scans
        x = _grid(400)[0]
        cand = np.arange(-10, 11) * 0.4
        noise = np.random.default_rng(7).normal(size=len(x)) * 1e-3
        if mirror:
            # |x - a| is a line plus 2 (x - a)_+, and y less a line is even
            y = np.abs(x + 1.2) + 2.0 * np.abs(x) + np.abs(x - 1.2) + noise + noise[::-1]
        else:
            y = 0.3 * x + noise + sum(w * np.maximum(x - cand[u], 0.0)
                                      for w, u in zip([1.0, -2.0, 3.0][3 - k:], units))
        ls = _HingeLS(x, y)
        combos = np.array(list(itertools.combinations(range(len(cand)), k)))
        sse = ls.sse(cand[combos])
        first = int(np.argmin(sse))
        assert combos[first].tolist() == units
        got_sse, got = ls.best(cand, k, mirror=mirror)
        assert got_sse == sse[first]
        assert np.array_equal(got, cand[units])

    @pytest.mark.parametrize("k", [2, 3])
    def test_split_bound_holds(self, k):
        # the problems of test_scan_matches_exhaustive_sse[k] and the coarse
        # grids, every row of which the scan without mirror mode can visit,
        # and the verifier's grid in the mirror mode that the search runs
        for x, y, cand, _ in _problems(k):
            _assert_bound_holds(_HingeLS(x, y), cand, k, False)
        for grid_size in range(5, 13):
            _assert_bound_holds(_HingeLS(*_grid(grid_size)), COARSE_LATTICE, k, False)
        _assert_bound_holds(_verifier()[2], _LATTICE, k, True)

    @pytest.mark.parametrize("k", [2, 3])
    def test_split_bound_leaves_few_tuples_on_the_verifier_grid(self, monkeypatch, k):
        # the scan visits a row only while its least bound is within the
        # margin of the lowest exact score, and scores each tuple it picks
        # in one sse() call with its mirror image, no tuple twice. Three
        # knots score one tuple, its own mirror, in the row at knot 0, where
        # the bound equals the optimum but for rounding; two knots score
        # three, mirrors included, in two rows. The winner is one of them,
        # with the score the scan gave it
        scored = []
        sse = _HingeLS.sse

        def recording(self, knots):
            got = sse(self, knots)
            scored.extend(zip(map(tuple, knots.tolist()), got.tolist()))
            return got

        monkeypatch.setattr(_HingeLS, "sse", recording)
        fit = fit_linear_breakpoints(k)
        tuples = [t for t, _ in scored]
        assert len(set(tuples)) == len(tuples)  # no tuple passed twice
        rows, distinct = {2: ([-1.1, -1.05], 3), 3: ([0.0], 1)}[k]
        assert len(tuples) == distinct
        assert sorted({t[k - 2] for t in tuples}) == rows
        assert (tuple(fit.breakpoints.tolist()), fit.sse) in scored
        if k == 3:
            # the bound of the winner (-1.7, 0, 1.7), lattice indices 65, 99, 133
            ls = _verifier()[2]
            lo, hi = ls._split_sse(_LATTICE, 3, (len(_LATTICE) + 1) // 2)
            assert lo[99, 65] + hi[99, 133] == pytest.approx(fit.sse, rel=1e-9)

    @pytest.mark.parametrize("k", [2, 3])
    def test_mirror_scan_scores_each_tuple_once_with_its_mirror(self, monkeypatch, k):
        # the symmetric problems of test_scan_matches_exhaustive_sse[k] and
        # the coarse grids, whose singular tuples make the scan pick many
        # tuples: a tuple is scored once, whether it is its own mirror or a
        # mirror already scored, and the mirror of every scored tuple is
        # scored
        scored = []
        sse = _HingeLS.sse

        def recording(self, knots):
            scored.extend(map(tuple, knots.tolist()))
            return sse(self, knots)

        monkeypatch.setattr(_HingeLS, "sse", recording)
        symmetric = [(x, y, cand) for x, y, cand, modes in _problems(k) if True in modes]
        coarse = [(*_grid(g), COARSE_LATTICE) for g in range(5, 13)]
        for problem, (x, y, cand) in enumerate(symmetric + coarse):
            scored.clear()
            _HingeLS(x, y).best(cand, k, mirror=True)
            assert len(set(scored)) == len(scored), problem
            assert set(scored) == {tuple(-a for a in t[::-1]) for t in scored}, problem

    def test_mirror_mode_needs_symmetric_candidates(self):
        x, y = _grid(400)
        ls = _HingeLS(x, y)
        for cand in (np.array([-1.0, 0.0, 0.5, 1.0]), np.arange(-9, 11) * 0.3):
            with pytest.raises(ValueError, match="symmetric"):
                ls.best(cand, 3, mirror=True)

    @pytest.mark.parametrize("mirror", [False, True])
    def test_every_tuple_singular_gives_no_knots(self, mirror):
        # no grid point lies between any two of these knots; knots below the
        # grid are collinear with [1, x], and knots above it are zero on it.
        # The first set once returned knots with SSE inf, a different tuple
        # in each mode, and the second an empty shortlist in mirror mode
        x, y = _grid(8)
        ls = _HingeLS(x, y)
        for cand in (np.array([-0.1, -0.05, 0.0, 0.05, 0.1]), np.array([-7.0, -6.0, 6.0, 7.0])):
            assert ls.best(cand, 3, mirror=mirror) == (np.inf, None)

    @pytest.mark.parametrize("grid_size", [400, 10_000])
    def test_mirror_tie_returns_first_tuple(self, grid_size):
        # (-1.1, 1.05) and (-1.05, 1.1) tie exactly in sse(); best() must
        # return the first whichever of them its scan scores first
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
        sse, _ = _HingeLS(*_grid(5)).best(COARSE_LATTICE, 2, mirror=True)
        assert 0.0 <= sse < 1e-6

    @pytest.mark.parametrize("k", [2, 3])
    def test_three_knot_scan_memory(self, k):
        # the scan holds (split knots x candidates) bound arrays and one row's
        # bounds at a time, so peak memory stays flat
        x, y = _grid(10_000)
        ls = _HingeLS(x, y)
        tracemalloc.start()
        try:
            ls.best(np.arange(-99, 100) * 0.05, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_knot_search_calls_no_other_search(self, monkeypatch):
        calls = []

        def counting_search(*args, **kwargs):
            calls.append((args, kwargs))
            return fit_linear_breakpoints(*args, **kwargs)

        monkeypatch.setattr(llaft.piecewise, "fit_linear_breakpoints", counting_search)
        fit_linear_breakpoints(3)
        assert calls == []

        # by keyword: perfbench names each knot count's span from it
        monkeypatch.setattr(llaft.cli, "fit_linear_breakpoints", counting_search)
        assert llaft.cli.main(["approx-check"]) == 0
        assert calls == [((), {"n_breakpoints": k}) for k in range(1, 4)]

    def test_invalid_count(self):
        # the paper's table has three knots; the search takes 0 to 3
        for k in (-1, 4, 5, 6):
            with pytest.raises(ValueError, match="between 0 and 3"):
                fit_linear_breakpoints(k)

    @pytest.mark.parametrize("grid_size,k", [(g, 3) for g in (7, 8, 9, 12)])
    def test_coarse_grid_never_takes_a_singular_tuple(self, grid_size, k):
        # these grids hold knot tuples with no grid point between two of
        # their knots, whose near-singular normal equations once scored
        # negative
        x, y = _grid(grid_size)
        sse, knots = _HingeLS(x, y).best(COARSE_LATTICE, k, mirror=True)
        assert np.all(np.diff(knots) > 0)
        assert sse >= -1e-9
        A = np.column_stack([np.ones_like(x), x] + [np.maximum(x - a, 0) for a in knots])
        coef = np.linalg.lstsq(A, y, rcond=None)[0]
        assert np.linalg.matrix_rank(A) == k + 2
        assert sse == pytest.approx(float(np.sum((A @ coef - y) ** 2)), abs=1e-9)

    def test_numerically_singular_tuple_scores_inf(self):
        # on 5 grid points, knots 3.75 and 4.0 have no point between them,
        # and only the point at 5 above both: their hinge columns are parallel
        x, y = _grid(5)
        ls = _HingeLS(x, y)
        got = ls.sse(np.array([[-2.0, 1.0, 3.75, 4.0], [-2.0, 1.0, 3.0, 4.0],
                               [-1.0, 1.0, 2.0, 3.0]]))
        assert np.all(np.isinf(got))
        assert np.isfinite(ls.sse(np.array([[-1.0, 1.0]])))

    def test_singular_tuple_leaves_the_stack_one_solve(self, monkeypatch):
        # a hinge at 6 is zero on the grid, so that tuple's normal equations
        # are exactly singular and a stack holding it would raise in solve;
        # it is left out of the stack, which is solved in one call
        x, y = _grid(400)
        ls = _HingeLS(x, y)
        knots = np.array([[-1.0, 1.0], [-1.0, 6.0], [0.5, 2.0]])
        alone = [ls.sse(row[None])[0] for row in knots]
        calls = []
        solve = np.linalg.solve

        def counting(*args):
            calls.append(len(args[0]))
            return solve(*args)

        monkeypatch.setattr(np.linalg, "solve", counting)
        got = ls.sse(knots)
        assert calls == [2]
        assert np.isinf(got[1])
        assert got.tolist() == alone  # bit for bit
