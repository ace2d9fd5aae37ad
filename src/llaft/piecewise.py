"""Piecewise surrogates of the softplus function log(1 + e^x).

Two fixed lookup tables drive the conjugate variational updates: a six-piece
linear table (slopes phi) and a five-piece quadratic table (linear rho,
quadratic zeta). Outside [-5, 5] both coincide with the exact asymptotes 0
and x. Segment intervals are left-open/right-closed, e.g. -5 < x <= -1.701.
`table_max_error` gives each table's max|err| over the 100 001-point grid
np.linspace(-8, 8, 100_001), located from the knots and the error's
stationary points instead of by evaluating the whole grid.

The module also carries an independent verifier: a segmented least-squares
search that re-derives the linear table's knots and error from scratch on a
10 000-point grid, with knots on a 0.05 lattice. It returns what an exact
scan of every knot tuple returns, ties included, but scores exactly only the
tuples that a lower bound cannot rule out: a tuple's SSE is at least the
sum of the best fits on either side of one of its knots, each a fit with at
most one knot. On the verifier's grid the three-knot search scores one
tuple. softplus(x) - x/2 is even and the lattice is symmetric about 0, so a
knot tuple and its mirror image fit equally well, and the search scans one
tuple of each such pair.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .numerics import _per_item

__all__ = [
    "LINEAR_KNOTS",
    "LINEAR_INTERCEPTS",
    "LINEAR_SLOPES",
    "QUADRATIC_KNOTS",
    "QUADRATIC_INTERCEPTS",
    "QUADRATIC_LINEAR",
    "QUADRATIC_QUADRATIC",
    "BreakpointFit",
    "softplus",
    "softplus_linear",
    "softplus_quadratic",
    "table_sse",
    "table_max_error",
    "fit_linear_breakpoints",
]

# Six linear pieces on (-inf, -5], (-5, -1.701], (-1.701, 0], (0, 1.702],
# (1.702, 5], (5, inf).
LINEAR_KNOTS = np.array([-5.0, -1.701, 0.0, 1.702, 5.0])
LINEAR_INTERCEPTS = np.array([0.0, 0.1938, 0.6405, 0.6405, 0.1939, 0.0])
LINEAR_SLOPES = np.array([0.0, 0.0426, 0.3052, 0.6950, 0.9574, 1.0])

# Five quadratic pieces on (-inf, -5], (-5, -1.7], (-1.7, 1.7], (1.7, 5], (5, inf).
QUADRATIC_KNOTS = np.array([-5.0, -1.7, 1.7, 5.0])
QUADRATIC_INTERCEPTS = np.array([0.0, 0.3893, 0.6962, 0.3894, 0.0])
QUADRATIC_LINEAR = np.array([0.0, 0.1696, 0.5000, 0.8303, 1.0])
QUADRATIC_QUADRATIC = np.array([0.0, 0.0189, 0.1138, 0.0190, 0.0])

# The verifier's grid over [-5, 5] and its knot lattice in (-5, 5), both
# symmetric about 0.
_GRID_SIZE = 10_000
_LATTICE = np.arange(-99, 100) * 0.05

# The knot scan skips a tuple whose split bound exceeds the lowest exact score
# by more than this multiple of syy, the rounding margin of bound and score.
_BOUND_MARGIN = 1e-9

# The max-error audit's grid np.linspace(-8, 8, _AUDIT_SIZE): point i is
# i * _AUDIT_STEP - 8, bit for bit (the last comes out as exactly 8, the
# value linspace sets).
_AUDIT_SIZE = 100_001
_AUDIT_STEP = 16.0 / (_AUDIT_SIZE - 1)
# Grid points scored on each side of a candidate point. Its rounded index is
# within one of the grid points on either side of it, so 3 leaves a margin.
_AUDIT_REACH = 3

# The tables as the (knots, intercepts, linear, quadratic) arrays of
# `_max_error`: piece k is intercepts[k] + (linear[k] + quadratic[k] x) x.
_LINEAR_TABLE = (LINEAR_KNOTS, LINEAR_INTERCEPTS, LINEAR_SLOPES, np.zeros(6))
_QUADRATIC_TABLE = (QUADRATIC_KNOTS, QUADRATIC_INTERCEPTS, QUADRATIC_LINEAR,
                    QUADRATIC_QUADRATIC)

for _knots in (*_LINEAR_TABLE, *_QUADRATIC_TABLE, _LATTICE):
    _knots.setflags(write=False)


@dataclass(frozen=True)
class BreakpointFit:
    breakpoints: np.ndarray
    sse: float
    r_squared: float


def softplus(x):
    """Exact log(1 + e^x), overflow-safe."""
    return np.logaddexp(0.0, x)


def _segment(knots, x):
    # left-open/right-closed intervals: index k means knots[k-1] < x <= knots[k].
    # k counts the knots that x is not <=, which is np.searchsorted(knots, x,
    # side="left") for every x, NaN (the last segment) included, and faster:
    # 12 against 17 us on a (10, 300) block, 27 against 227 us on (50, 300)
    k = len(knots) - (x <= knots[0]).view(np.int8)
    for t in knots[1:]:
        k -= (x <= t).view(np.int8)
    return k.astype(np.intp)


def _linear_segment(x):
    return _segment(LINEAR_KNOTS, x)


def _quadratic_segment(x):
    return _segment(QUADRATIC_KNOTS, x)


def softplus_linear(x):
    """Six-piece linear surrogate of softplus; a float gives a float, an
    array gives an array."""
    x = np.asarray(x, dtype=float)
    k = _linear_segment(x)
    out = LINEAR_INTERCEPTS[k] + LINEAR_SLOPES[k] * x
    return float(out) if out.ndim == 0 else out


def softplus_quadratic(x):
    """Five-piece quadratic surrogate of softplus; a float gives a float, an
    array gives an array."""
    x = np.asarray(x, dtype=float)
    k = _quadratic_segment(x)
    out = QUADRATIC_INTERCEPTS[k] + (QUADRATIC_LINEAR[k] + QUADRATIC_QUADRATIC[k] * x) * x
    return float(out) if out.ndim == 0 else out


def _grid(grid_size: int):
    x = np.linspace(-5.0, 5.0, grid_size)
    return x, softplus(x)


@functools.cache
def _verifier():
    """The verifier's grid, softplus on it and their `_HingeLS`, built on
    first use: they depend only on module constants. Read-only, as every
    caller shares them."""
    x, y = _grid(_GRID_SIZE)
    ls = _HingeLS(x, y)
    for a in (x, y, ls._suffix):
        a.setflags(write=False)
    return x, y, ls


def table_sse() -> tuple[float, float]:
    """(linear, quadratic) sums of squared error of the published tables on
    the verifier's 10 000-point grid over [-5, 5]."""
    x, y, _ = _verifier()
    lin = float(np.sum((softplus_linear(x) - y) ** 2))
    quad = float(np.sum((softplus_quadratic(x) - y) ** 2))
    return lin, quad


def table_max_error() -> tuple[float, float]:
    """(linear, quadratic) max|err| of the published tables over the grid
    np.linspace(-8, 8, 100_001), equal to a scan of every grid point."""
    return _max_error(*_LINEAR_TABLE), _max_error(*_QUADRATIC_TABLE)


def _max_error(knots, intercepts, linear, quadratic) -> float:
    """max|P(x) - softplus(x)| over the audit grid, for the table P that is
    intercepts[k] + (linear[k] + quadratic[k] x) x on knots[k-1] < x <= knots[k].

    On a piece the error's derivative is g(x) = linear + 2 quadratic x - sigma(x),
    so between the roots of g the error is monotone, and on each run of grid
    points between two such roots, knots or grid ends its largest magnitude
    sits at the run's ends. g' = 2 quadratic - sigma (1 - sigma) vanishes only
    where sigma = (1 +- sqrt(1 - 8 quadratic)) / 2, which needs
    0 < 8 quadratic < 1, so each piece splits into at most three intervals
    on which g is monotone, with at most one root each, found by bisection. A
    linear piece's g is monotone: its one root, for a slope 0 < phi < 1, is
    logit(phi), and the outer pieces (slope 0 or 1) have none. Only the grid
    points within _AUDIT_REACH indices of these points are scored, with the
    arithmetic of a scan of the whole grid.
    """
    points = []
    bounds = [-math.inf, *knots, math.inf]
    for k in range(len(knots) + 1):
        # the piece's interval within [-8, 8]
        lo, hi = max(float(bounds[k]), -8.0), min(float(bounds[k + 1]), 8.0)
        if lo >= hi:
            continue
        lin, quad = float(linear[k]), float(quadratic[k])

        def g(x):
            return lin + 2.0 * quad * x - 1.0 / (1.0 + math.exp(-x))

        cuts = [lo, hi]
        if 0.0 < 8.0 * quad < 1.0:
            # sigma (1 - sigma) = 2 quad at sigma = p and 1 - p, with p in
            # a form that keeps its digits when quad is small
            p = 4.0 * quad / (1.0 + math.sqrt(1.0 - 8.0 * quad))
            t = math.log((1.0 - p) / p)
            cuts += [c for c in (-t, t) if lo < c < hi]
        cuts.sort()
        points += cuts
        for a, b in zip(cuts[:-1], cuts[1:]):
            above = g(a) > 0.0
            if above == (g(b) > 0.0):
                continue  # no sign change, so no root inside (a, b)
            while b - a > _AUDIT_STEP:
                m = 0.5 * (a + b)
                if (g(m) > 0.0) == above:
                    a = m
                else:
                    b = m
            points.append(a)
    near = np.rint((np.array(points) + 8.0) / _AUDIT_STEP).astype(np.intp)
    i = np.unique(np.clip(near[:, None] + np.arange(-_AUDIT_REACH, _AUDIT_REACH + 1),
                          0, _AUDIT_SIZE - 1))
    x = i * _AUDIT_STEP - 8.0
    k = _segment(knots, x)
    table = intercepts[k] + (linear[k] + quadratic[k] * x) * x
    return float(np.max(np.abs(table - softplus(x))))


class _HingeLS:
    """Least-squares SSE of y ~ 1 + x + sum_j (x - a_j)_+ for knot tuples.

    All grid sums enter through suffix sums (of 1, x, x^2, y, xy, y^2 over
    grid points strictly above each knot), built once, so scoring a knot tuple
    never touches the grid again. `sse`, the one scorer, scores a batch of
    tuples exactly, one (k+2)x(k+2) solve per tuple.

    `best` returns what scoring every k-tuple of a candidate set with `sse`
    returns, for k of at most 3, the first of exactly tied tuples included.
    For k >= 2 it scores only the tuples that a lower bound leaves. Each
    tuple is split at one of its knots s, its middle knot for k = 3 and its
    first for k = 2. On the grid points x <= c_s the hinges at s and after
    it are zero, and on the points x > c_s the hinges at s and before it are
    lines. So on the left of c_s a tuple h < s < t is a fit of
    [1, x, (x - c_h)+] (of [1, x] alone for k = 2), and on its right one of
    [1, x, (x - c_t)+]. Its SSE is therefore at least lo[s, h] + hi[s, t],
    the least SSEs of those fits on each side (`_split_sse`). On the left,
    (x - c_h)+ is the line x - c_h plus (c_h - x)+, which covers x <= c_h
    only, so both sides score their knots from 1-D prefix or suffix sums and
    one 2x2 projection of [1, x] per side. A side whose [1, x] or hinge fails
    `_nonsingular`'s rule bounds nothing and counts 0.

    The rows of tuples that share a split knot run in increasing order of
    their least bound, two passes per row: while no tuple has scored below
    +inf, `sse` scores the row's least-bound tuple; then each tuple whose
    bound is at most the lowest exact score so far plus _BOUND_MARGIN * syy
    (the whole row while that is +inf). The scan stops at the first row
    whose least bound exceeds that or is +inf (a row without tuples). The
    scan keeps each exact score it makes, and the first lexicographic
    minimizer of those scores wins, so no tuple is scored twice. A tuple
    left out has a bound above the final lowest score
    plus the margin, and the margin covers the rounding of bound and score
    (both round in proportion to syy; on the grids of the tests the bound
    rounds above the exact SSE by at most ~2e-15 * syy), so its exact SSE
    exceeds the lowest: it can neither win nor tie. On the verifier's grid
    the bound of (-1.7, 0, 1.7) at split 0 equals the optimum (by the mirror
    symmetry the best fits of the two sides meet at 0, so together they are
    a three-knot fit), every other row's least bound lies 0.014 or more
    above it, and three knots score that one tuple; two knots score three
    tuples, mirrors included, in two rows.

    In mirror mode the caller states that y less a line is even on a grid
    symmetric about 0, and the candidates must satisfy cand == -cand[::-1]
    exactly. Then a tuple of candidate indices t_1 < ... < t_k and its
    mirror image (n-1-t_k, ..., n-1-t_1) tie, and only the rows whose split
    knot has an index of at most (n - 1) // 2 are scanned: a tuple whose
    split index is above it has a mirror whose split index is below it. The
    mirror of each picked tuple is scored in the same `sse` call, unless it
    is the tuple itself, like (-1.7, 0, 1.7), or was scored already, and a
    picked tuple scored already as another's mirror is not scored again. A
    tuple and its mirror differ in exact score by rounding alone, which the
    margin also covers, so the winner of a scan of every tuple or its
    mirror is scored, and then both are.
    """

    def __init__(self, x, y):
        self.n = float(len(x))
        self.x = x
        self.sx = float(x.sum())
        self.sxx = float((x * x).sum())
        self.sy = float(y.sum())
        self.sxy = float((x * y).sum())
        self.syy = float((y * y).sum())
        terms = np.stack([np.ones_like(x), x, x * x, y, x * y, y * y])
        self._suffix = np.concatenate(
            [np.cumsum(terms[:, ::-1], axis=1)[:, ::-1], np.zeros((6, 1))], axis=1)

    def _normal_equations(self, knots):
        """Gram matrices M and right-hand sides r of [1, x, hinges] for each
        row of a (T, k) array of increasing knot tuples."""
        T, k = knots.shape
        above = np.searchsorted(self.x, knots, side="right")
        s0, s1, s2, t0, t1 = self._suffix[:5, above]
        d = k + 2
        M = np.empty((T, d, d))
        rhs = np.empty((T, d))
        M[:, 0, 0] = self.n
        M[:, 0, 1] = M[:, 1, 0] = self.sx
        M[:, 1, 1] = self.sxx
        rhs[:, 0] = self.sy
        rhs[:, 1] = self.sxy
        M[:, 0, 2:] = M[:, 2:, 0] = s1 - knots * s0
        M[:, 1, 2:] = M[:, 2:, 1] = s2 - knots * s1
        rhs[:, 2:] = t1 - knots * t0
        # inner products of two hinges use the suffix at the larger knot
        p0, p1, p2 = self._suffix[:3, np.maximum(above[:, :, None], above[:, None, :])]
        a, b = knots[:, :, None], knots[:, None, :]
        M[:, 2:, 2:] = p2 - (a + b) * p1 + a * b * p0
        return M, rhs

    def sse(self, knots) -> np.ndarray:
        """SSE for each row of a (T, k) array of increasing knot tuples; a
        tuple whose normal equations are numerically singular scores +inf."""
        M, rhs = self._normal_equations(np.asarray(knots, float))
        # only the tuples that pass are solved, so that a singular one does
        # not send the whole stack through `_per_item` one tuple at a time
        ok = _nonsingular(M)
        solution, _ = _per_item(np.linalg.solve, M[ok], rhs[ok, :, None])
        fit = self.syy - np.einsum("ij,ij->i", solution[..., 0], rhs[ok])
        sse = np.full(len(M), np.inf)
        # an interpolating tuple's SSE is 0 but can round below it
        sse[ok] = np.where(np.isnan(fit), np.inf, np.maximum(fit, 0.0))
        return sse

    def best(self, cand, k, *, mirror=False) -> tuple[float, np.ndarray]:
        """(sse, knots) of the best k-knot fit over every increasing k-tuple of
        the increasing candidates `cand`: the first minimizer in
        lexicographic order; k is at most 3. `mirror` states that y less a
        line is even on a grid symmetric about 0, so that mirror-image tuples
        tie; it needs cand == -cand[::-1] exactly, and for two or three knots
        scans one tuple of each pair. Each tuple is scored once, and the
        scores the scan made pick the winner. (inf, None) when every tuple is
        singular."""
        if mirror and not np.array_equal(cand, -cand[::-1]):
            raise ValueError("mirror mode needs candidates symmetric about 0")
        if k <= 1:
            tuples = list(itertools.combinations(range(len(cand)), k))
            tuples = np.array(tuples, dtype=np.intp).reshape(len(tuples), k)
            sse = self.sse(cand[tuples])
        else:
            tuples, sse = self._scan(cand, k, mirror)
        if len(tuples):
            # the least score, and of tied ones the first tuple
            t = np.lexsort((*tuples.T[::-1], sse))[0]
            if sse[t] < np.inf:
                return float(sse[t]), cand[tuples[t]]
        return np.inf, None  # no tuple, or every tuple singular

    def _scan(self, cand, k, mirror) -> tuple[np.ndarray, np.ndarray]:
        """(tuples, sse): the (T, k) candidate indices, k = 2 or 3, of the
        tuples that the split bound leaves, each with its exact `sse`. With
        `mirror`, only the rows whose split knot has an index of at most
        (n - 1) // 2 are scanned, and each picked tuple's mirror image is
        scored in the same `sse` call. No tuple is scored twice: neither a
        self-mirror nor one already scored as another tuple's mirror."""
        n = len(cand)
        rows = (n + 1) // 2 if mirror else max(n - 1, 0)
        lo, hi = self._split_sse(cand, k, rows)
        heads = np.tri(rows, rows, -1, dtype=bool) if k == 3 else True  # h < s
        least = (lo.min(axis=1, initial=np.inf, where=heads)
                 + hi.min(axis=1, initial=np.inf, where=~np.tri(rows, n, dtype=bool)))  # t > s
        margin = _BOUND_MARGIN * self.syy
        lowest, scored = np.inf, {}  # the sse of each tuple scored, by its candidate indices
        for s in np.argsort(least, kind="stable"):
            if least[s] == np.inf or least[s] > lowest + margin:
                break  # no tuple is left, or none left can reach the lowest score
            # a head (k = 3) by tail array of the row's bounds, flattened
            bound = (lo[s, :s if k == 3 else 1, None] + hi[s, s + 1:]).ravel()
            # the least bound first while no score is finite, then each bound
            # within the margin of the lowest score (all while that is +inf);
            # without that first pick k = 3 scores 9,801 tuples (25 ms), not 1
            for least_only in (True, False) if lowest == np.inf else (False,):
                pick = (np.argmin(bound, keepdims=True) if least_only
                        else np.flatnonzero(bound <= lowest + margin))
                h, t = np.divmod(pick, n - 1 - s)
                tuples = np.column_stack([h, np.full_like(h, s), s + 1 + t])[:, 3 - k:]
                if mirror:
                    tuples = np.concatenate([tuples, n - 1 - tuples[:, ::-1]])
                # each tuple once: a self-mirror, or one scored already as a mirror
                new = [u for u in dict.fromkeys(map(tuple, tuples.tolist())) if u not in scored]
                if new:
                    sse = self.sse(cand[np.array(new)])
                    scored.update(zip(new, sse.tolist()))
                    lowest = min(lowest, float(sse.min()))
        return (np.array(list(scored), np.intp).reshape(len(scored), k),
                np.fromiter(scored.values(), float, len(scored)))

    @np.errstate(divide="ignore", invalid="ignore")
    def _split_sse(self, cand, k, rows) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi) for each split knot s < rows, so that lo[s, h] + hi[s, t]
        <= the SSE of every tuple of candidate indices split at s: hi[s, t]
        is the least SSE of [1, x, (x - cand[t])+] on the grid points
        x > cand[s], read at t > s, and lo[s, h] that of [1, x, (x - cand[h])+]
        on x <= cand[s], read at h < s, for k = 3; for k = 2, lo[s, 0] is that
        of [1, x] alone. A side that gives no bound, NaN or below 0, is 0."""
        at = self._suffix[:, np.searchsorted(self.x, cand, side="right")]
        right = at[:, :rows]  # the grid points x > cand[s], a column per split
        left = self._suffix[:, :1] - right  # and x <= cand[s]
        # right of a split below c the hinge (x - c)+ is nonzero on x > c
        # alone: the suffix sums at c. Left of a split above c it is the line
        # x - c, which [1, x] absorbs, plus (c - x)+ = -(x - c) on x <= c
        # alone: the prefix sums at c, with a sign that squares away
        knots = rows if k == 3 else 0  # for k = 2 the left side is [1, x] alone
        base, lo = _one_knot_sse(left, left[:, :knots], cand[:knots])
        hi = _one_knot_sse(right, at, cand)[1]
        return np.fmax(lo if k == 3 else base, 0.0), np.fmax(hi, 0.0)


def _one_knot_sse(side, hinge, c) -> tuple[np.ndarray, np.ndarray]:
    """(base, sse) over one side of each split, from the side's sums of 1, x,
    x^2, y, xy, y^2 (a column per split) and those of the points that the
    hinge (x - c)+ or (c - x)+ covers (a column per knot c): the (splits, 1)
    SSE of y ~ 1 + x and the (splits, knots) least SSE of y ~ 1 + x + hinge.
    NaN where the side's [1, x] or the hinge's pivot given [1, x] fails
    `_nonsingular`'s rule."""
    m, sx, sxx, sy, sxy, syy = side[:, :, None]
    xbar, ybar = sx / m, sy / m
    sxxc = sxx - sx * xbar  # the side's centred sums
    sxyc = np.where(sxxc > 1e-12 * sxx, sxy - sx * ybar, np.nan)  # NaN if [1, x] fails
    beta = sxyc / sxxc
    base = syy - sy * ybar - sxyc * beta  # the side's SSE of [1, x]
    h0, h1, h2, k0, k1, _ = hinge
    a1, ax, ay = h1 - c * h0, h2 - c * h1, k1 - c * k0  # <a, 1>, <a, x>, <a, y>
    aa = ax - c * a1  # <a, a>
    # in place: with a fresh array per operation, knot_audit ran 12% slower
    d = np.multiply(xbar, a1)
    np.subtract(ax, d, out=d)  # <a, x - xbar>
    pivot = np.multiply(1.0 / m, a1 * a1)
    np.subtract(aa, pivot, out=pivot)
    tmp = np.square(d)
    tmp /= sxxc
    pivot -= tmp  # <a, a> given [1, x]
    np.multiply(beta, d, out=tmp)
    np.multiply(ybar, a1, out=d)
    np.subtract(ay, d, out=d)
    d -= tmp  # <a, y> given [1, x]
    np.copyto(pivot, np.nan, where=pivot <= 1e-12 * aa)
    d *= d
    d /= pivot
    return base, np.subtract(base, d, out=d)


def _nonsingular(M) -> np.ndarray:
    """Per Gram matrix of a (T, d, d) stack: whether every Cholesky pivot,
    the part of a column's squared norm that the columns before it leave
    unexplained, exceeds 1e-12 of that squared norm. `_one_knot_sse` applies
    it to [1, x] and to the hinge given [1, x]; a NaN pivot (no factor)
    fails it."""
    L, _ = _per_item(np.linalg.cholesky, M)
    pivots = np.diagonal(L, axis1=1, axis2=2) ** 2
    return (pivots > 1e-12 * np.diagonal(M, axis1=1, axis2=2)).all(axis=1)


def fit_linear_breakpoints(n_breakpoints: int = 3) -> BreakpointFit:
    """Best continuous linear spline fit of softplus on [-5, 5] by knot search.

    The fit is by least squares on a 10 000-point grid, with 0 to 3 knots (the
    paper's linear table has 3) on the 0.05 lattice -4.95, -4.9, ..., 4.95.
    It returns the first best tuple in lexicographic order, as a scan of every
    increasing tuple would (`_HingeLS.best`).
    """
    if not 0 <= n_breakpoints <= 3:
        raise ValueError("n_breakpoints must be between 0 and 3")
    ls = _verifier()[2]
    ss_tot = ls.syy - ls.sy ** 2 / ls.n  # the total sum of squares about the mean
    # y is softplus on a grid symmetric about 0, softplus(x) - x/2 is even and
    # the lattice is symmetric: a tuple and its mirror tie
    sse, knots = ls.best(_LATTICE, n_breakpoints, mirror=True)
    return BreakpointFit(knots, sse, 1.0 - sse / ss_tot)
