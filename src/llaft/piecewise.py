"""Piecewise surrogates of the softplus function log(1 + e^x).

Two fixed lookup tables drive the conjugate variational updates: a six-piece
linear table (slopes phi) and a five-piece quadratic table (linear rho,
quadratic zeta). Outside [-5, 5] both coincide with the exact asymptotes 0
and x. Segment intervals are left-open/right-closed, e.g. -5 < x <= -1.701.
`table_max_error` gives each table's max|err| over the 100 001-point grid
np.linspace(-8, 8, 100_001), located from the knots and the error's
stationary points instead of by evaluating the whole grid.

The module also carries an independent verifier: a brute-force segmented
least-squares search that re-derives the linear table's knots and error from
scratch on a 10 000-point grid, with knots on a 0.05 lattice. It screens
knot tuples in closed form, from arrays built once per first knot and read
one rectangle per middle knot, then rescores the near-best tuples exactly,
so it returns what a scan of every tuple returns, ties included. A lower
bound on the SSE of every tuple through a middle knot, the best one-knot
fits on either side of it, orders the rectangles and ends the scan once no
rectangle left can reach the best score; on the verifier's grid one of 99
is scored. softplus(x) - x/2 is even and the lattice is symmetric about 0,
so a knot tuple and its mirror image fit equally well, and the screen scores
one tuple of each such pair.
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

# The three-knot screen skips a middle knot whose split bound exceeds the
# window by more than this multiple of syy, the rounding margin of the bound
# and of the closed-form scores.
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
    # side="left") for every x, NaN (the last segment) included
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
    k = np.searchsorted(knots, x, side="left")
    table = intercepts[k] + (linear[k] + quadratic[k] * x) * x
    return float(np.max(np.abs(table - softplus(x))))


class _HingeLS:
    """Least-squares SSE of y ~ 1 + x + sum_j (x - a_j)_+ for knot tuples.

    All grid sums enter through suffix sums (of 1, x, x^2, y, xy, y^2 over
    grid points strictly above each knot), built once, so scoring a knot tuple
    never touches the grid again. `sse` scores a batch of tuples exactly, one
    (k+2)x(k+2) solve per tuple.

    `best` scans every k-tuple of a candidate set, for k of at most 3. For
    k >= 2 it screens instead of solving per tuple. Once per call it projects
    [1, x] out of the Gram matrix of all candidate hinges (S0) and out of
    their right-hand side (g0). One Gram-Schmidt step per head h, a tuple's
    first knot, then takes its hinge out of each later hinge t; with
    q_ht = S0_ht / sqrt(S0_hh), it fills arrays with a row per head or middle
    knot and a column per candidate, in place of S0: the normaliser
    D = (S0_tt - q_ht^2)^-1/2, QN = q D, U = (g0_t - q_ht g0_h / sqrt(S0_hh)) D
    and REST = SSE([1, x, h, t]). A head whose pivot S0_hh is at or below
    1e-12 of its hinge's squared norm, the rule of `_nonsingular`, is NaN
    throughout, as is a hinge t whose pivot given [1, x, h] fails the same
    rule. Two knots score the upper triangle of REST. Three knots h < i < j
    score one rectangle per middle knot i, heads 0..i-1 by tails i+1..n-1,
    from slices of those arrays: with c = S0_ij D_hi D_hj - QN_hi QN_hj,
    where row i gives S0_ij = sqrt(S0_ii) QN_ij / D_ij,

        SSE = REST_hj - (U_hi - c U_hj)^2 / (1 - c^2),

    and pairs with 1 - c^2 <= 1e-12, numerically collinear given the head,
    are skipped. Near the optimum the closed form agrees with `sse` to a few
    1e-11 (less on ill-conditioned tuples far from it). That is enough to
    reorder exact ties: softplus(x) - x/2 is even, so mirror-image tuples
    tie, and on a 400-point grid the closed form ranks (-1.05, 1.1) before
    (-1.1, 1.05). So the screen only shortlists: every tuple within
    1e-9 * SSE + 1e-13 * syy of the screen's minimum is rescored with `sse`,
    and the first lexicographic minimizer of those exact scores wins, as in
    a scan that scores every tuple with `sse`. (Both scores round off in
    proportion to syy.) On a grid as coarse as the lattice, where knot pairs
    can be collinear, the result can differ from such a scan.

    Most rectangles are never scored. On the grid points x <= c_i the hinges
    at i and j are zero, and on the points x > c_i the hinges at h and i are
    lines. So on the left of c_i a tuple with middle knot i is a fit of
    [1, x, (x - c_h)+], and on its right one of [1, x, (x - c_j)+]. Its SSE
    is therefore at least B_i = L_i + R_i, where L_i is the least SSE of a
    one-knot fit over the points x <= c_i with its knot at any h < i, and
    R_i that over the points x > c_i with its knot at any t > i. On the left,
    (x - c_h)+ is the line x - c_h plus (c_h - x)+, which covers x <= c_h
    only, so both sides score their knots from 1-D prefix or suffix sums and
    one 2x2 projection of [1, x] per side (`_split_bound`). A side whose
    [1, x], or any of whose hinges, fails `_nonsingular`'s rule gives 0:
    the least over the other hinges could exceed the truth. The rectangles
    run in increasing B_i, and the scan stops at the first B_i that exceeds
    the window of the lowest score by more than _BOUND_MARGIN * syy. Every
    tuple of a skipped rectangle has an exact SSE above the window, and its
    closed-form score is that SSE but for rounding, which the margin covers,
    so it could not have entered the window. A tuple that enters the window
    of a scan of every rectangle enters it here too, as skipping rectangles
    can only raise the lowest score. Against exhaustive exact scores, B_i
    rounds above the least SSE of its rectangle by at most ~2e-15 * syy on
    the grids of the tests, so the margin is wide. On the verifier's grid B_i
    at knot 0 equals the optimum (by the mirror symmetry the best fits of
    the two sides meet at 0, so together they are a three-knot fit), every
    other B_i lies 0.014 or more above it, and one rectangle of 99 is
    scored.

    In mirror mode the caller states that y less a line is even on a grid
    symmetric about 0, and the candidates must satisfy cand == -cand[::-1]
    exactly. Then a tuple of candidate indices t_1 < ... < t_k and its
    mirror image (n-1-t_k, ..., n-1-t_1) tie, and the screen scores one of
    each pair: the tuples whose first (k = 2) or middle (k = 3) knot has an
    index of at most (n - 1) // 2, the last row it builds. (A pair whose
    first index is above it has a mirror whose first index is below it.)
    The mirror of each shortlisted tuple is added back before the
    rescoring. The tie rule survives because only exact scores pick the
    winner: a tuple and its mirror differ in closed form by rounding alone,
    so a tuple that could win has itself or its mirror in the window, and
    both reach `sse`.
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
        s0, s1, s2, t0, t1 = self._suffix[:5, np.searchsorted(self.x, knots, side="right")]
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
        later = np.maximum.outer(np.arange(k), np.arange(k))
        a, b = knots[:, :, None], knots[:, None, :]
        M[:, 2:, 2:] = s2[:, later] - (a + b) * s1[:, later] + a * b * s0[:, later]
        return M, rhs

    def sse(self, knots) -> np.ndarray:
        """SSE for each row of a (T, k) array of increasing knot tuples; a
        tuple whose normal equations are numerically singular scores +inf."""
        M, rhs = self._normal_equations(np.asarray(knots, float))
        solution, _ = _per_item(np.linalg.solve, M, rhs[..., None])
        sse = self.syy - np.einsum("ij,ij->i", solution[..., 0], rhs)
        # an interpolating tuple's SSE is 0 but can round below it
        return np.where(np.isnan(sse) | ~_nonsingular(M), np.inf, np.maximum(sse, 0.0))

    def best(self, cand, k, *, mirror=False) -> tuple[float, np.ndarray]:
        """(sse, knots) of the best k-knot fit over every increasing k-tuple of
        the increasing candidates `cand`: the first minimizer in
        lexicographic order; k is at most 3. `mirror` states that y less a
        line is even on a grid symmetric about 0, so that mirror-image tuples
        tie; it needs cand == -cand[::-1] exactly, and for two or three knots
        screens one tuple of each pair. (inf, None) when every tuple is singular."""
        if mirror and not np.array_equal(cand, -cand[::-1]):
            raise ValueError("mirror mode needs candidates symmetric about 0")
        if k <= 1:
            tuples = list(itertools.combinations(range(len(cand)), k))
            tuples = np.array(tuples, dtype=np.intp).reshape(len(tuples), k)
        else:
            tuples = self._screen(cand, k, mirror)
            if mirror:
                tuples = np.concatenate([tuples, len(cand) - 1 - tuples[:, ::-1]])
            # lexicographic order, each tuple once: a tuple and its mirror can
            # both have been screened
            tuples = tuples[np.lexsort(tuples.T[::-1])]
            repeat = np.zeros(len(tuples), bool)
            repeat[1:] = (tuples[1:] == tuples[:-1]).all(axis=1)
            tuples = tuples[~repeat]
        if len(tuples):
            sse = self.sse(cand[tuples])
            t = int(np.argmin(sse))
            if sse[t] < np.inf:
                return float(sse[t]), cand[tuples[t]]
        return np.inf, None  # no tuple, or every tuple singular

    # the screen marks skipped heads, tails and pairs with NaN, silently
    @np.errstate(divide="ignore", invalid="ignore")
    def _screen(self, cand, k, mirror=False) -> np.ndarray:
        """(T, k) candidate indices, k = 2 or 3, of every tuple whose
        closed-form score lies within the window of the lowest score, plus a
        few that were that close to the lowest score seen when their
        rectangle was screened. With `mirror`, only the tuples whose first
        (k = 2) or middle (k = 3) knot has an index of at most (n - 1) // 2
        are screened."""
        n = len(cand)
        # the heads (a tuple's first knot) and for k = 3 the middle knots,
        # which mirror mode takes up to index (n - 1) // 2
        rows = (n + 1) // 2 if mirror else max(n - 1, 0)
        if k == 3:
            # before the per-head arrays, so that its temporaries are gone
            bound = self._split_bound(cand, rows)
        s0, s1, s2, t0, t1 = self._suffix[:5, np.searchsorted(self.x, cand, side="right")]
        # <h_a, h_b> uses the suffix sums at the larger knot, right for a <= b
        Q = s2 - np.add.outer(cand[:rows], cand) * s1 + np.multiply.outer(cand[:rows], cand) * s0
        norm = s2 - (cand + cand) * s1 + cand * cand * s0  # <h_t, h_t>
        # project [1, x] out of every hinge once: S0 = hh - V' B^-1 V
        V = np.stack([s1 - cand * s0, s2 - cand * s1])
        rB = np.array([self.sy, self.sxy])
        W = np.linalg.solve([[self.n, self.sx], [self.sx, self.sxx]], np.c_[V, rB])
        Q -= V[:, :rows].T @ W[:, :n]  # the rows of S0
        pivot = norm - np.einsum("ij,ij->j", V, W[:, :n])  # diag(S0)
        g0 = t1 - cand * t0 - V.T @ W[:, n]
        base0 = self.syy - rB @ W[:, n]

        # the per-head arrays, (rows, n) and read at t > h only, each built
        # in place; by _nonsingular's rule a failing head is NaN throughout
        root = np.sqrt(np.where(pivot > 1e-12 * norm, pivot, np.nan)[:rows])
        Q /= root[:, None]  # q
        gq = g0[:rows] / root
        D = pivot - Q * Q  # t's pivot given [1, x, h], NaN where it fails
        np.copyto(D, np.nan, where=D <= 1e-12 * norm)
        np.divide(1.0, np.sqrt(D, out=D), out=D)
        U = Q * gq[:, None]
        np.subtract(g0, U, out=U)
        U *= D
        QN = np.multiply(Q, D, out=Q)
        REST = U * U if k == 3 else np.square(U, out=U)  # k = 2 reads REST alone
        np.subtract((base0 - gq * gq)[:, None], REST, out=REST)

        def cutoff(low):
            return low + 1e-9 * abs(low) + 1e-13 * self.syy

        if k == 2:
            # the pairs are the upper triangle of REST
            np.copyto(REST, np.nan, where=np.tri(rows, n, dtype=bool))
            return np.argwhere(REST <= cutoff(float(np.fmin.reduce(REST, None, initial=np.nan))))

        lowest, shortlist = np.inf, []
        # one rectangle per middle knot i, heads 0..i-1 by tails i+1..n-1, in
        # increasing order of their bound (those without one first), until
        # the bound leaves the window by more than its rounding margin
        order = np.argsort(bound[1:], kind="stable") + 1
        for i in order:
            if bound[i] > cutoff(lowest) + _BOUND_MARGIN * self.syy:
                break
            h, t = slice(0, i), slice(i + 1, n)
            # c: the cosine of hinges i and t given [1, x, h], from S0_it
            c = np.divide(QN[i, t], D[i, t]) * root[i] * D[h, i, None]
            c *= D[h, t]
            c -= QN[h, i, None] * QN[h, t]
            score = U[h, i, None] - c * U[h, t]
            score *= score
            np.subtract(1.0, c * c, out=c)
            np.copyto(c, np.nan, where=c <= 1e-12)  # collinear given the head
            score /= c
            np.subtract(REST[h, t], score, out=score)

            low = float(np.fmin.reduce(score, axis=None))
            lowest = min(lowest, low)  # a NaN low leaves it
            if low <= cutoff(lowest) < np.inf:
                a, b = np.nonzero(score <= cutoff(lowest))
                shortlist.append(np.column_stack([a, np.full(len(a), i), i + 1 + b]))
        return np.concatenate(shortlist) if shortlist else np.empty((0, 3), np.intp)

    @np.errstate(divide="ignore", invalid="ignore")
    def _split_bound(self, cand, rows) -> np.ndarray:
        """B_i <= the SSE of every tuple h < i < j of candidate indices, for
        each middle knot i < rows (row 0 holds none and is not used):
        B_i = L_i + R_i, the least one-knot SSE on each side of the split at
        cand[i], where a side that gives no bound counts 0."""
        at = self._suffix[:, np.searchsorted(self.x, cand, side="right")]
        right = at[:, :rows]  # the grid points x > cand[i], a column per split
        left = self._suffix[:, :1] - right  # and x <= cand[i]
        # right of a split below c the hinge (x - c)+ is nonzero on x > c
        # alone: the suffix sums at c. Left of a split above c it is the line
        # x - c, which [1, x] absorbs, plus (c - x)+ = -(x - c) on x <= c
        # alone: the prefix sums at c, with a sign that squares away
        L = _one_knot_sse(left, left, cand[:rows]).min(
            axis=1, initial=np.inf, where=np.tri(rows, rows, -1, dtype=bool))  # h < i
        R = _one_knot_sse(right, at, cand).min(
            axis=1, initial=np.inf, where=~np.tri(rows, len(cand), dtype=bool))  # t > i
        # a side with a failing pivot is NaN and gives 0, as does one that
        # rounds below 0
        return np.fmax(L, 0.0) + np.fmax(R, 0.0)


def _one_knot_sse(side, hinge, c) -> np.ndarray:
    """(splits, knots) least SSE of y ~ 1 + x + hinge over one side of each
    split, from the side's sums of 1, x, x^2, y, xy, y^2 (a column per
    split) and those of the points that the hinge (x - c)+ or (c - x)+
    covers (a column per knot c). NaN where the side's [1, x] or the
    hinge's pivot given [1, x] fails `_nonsingular`'s rule."""
    m, sx, sxx, sy, sxy, syy = side[:, :, None]
    xbar, ybar = sx / m, sy / m
    sxxc = sxx - sx * xbar  # the side's centred sums
    sxyc = np.where(sxxc > 1e-12 * sxx, sxy - sx * ybar, np.nan)  # NaN if [1, x] fails
    beta = sxyc / sxxc
    base = syy - sy * ybar - sxyc * beta  # the side's SSE of [1, x]
    h0, h1, h2, k0, k1, _ = hinge
    a1, ax, ay = h1 - c * h0, h2 - c * h1, k1 - c * k0  # <a, 1>, <a, x>, <a, y>
    aa = ax - c * a1  # <a, a>
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
    return np.subtract(base, d, out=d)


def _nonsingular(M) -> np.ndarray:
    """Per Gram matrix of a (T, d, d) stack: whether every Cholesky pivot,
    the part of a column's squared norm that the columns before it leave
    unexplained, exceeds 1e-12 of that squared norm. The screen applies it
    to each head and to each later knot given the head; a NaN pivot (no
    factor) fails it."""
    L, _ = _per_item(np.linalg.cholesky, M)
    pivots = np.diagonal(L, axis1=1, axis2=2) ** 2
    return (pivots > 1e-12 * np.diagonal(M, axis1=1, axis2=2)).all(axis=1)


def fit_linear_breakpoints(n_breakpoints: int = 3) -> BreakpointFit:
    """Best continuous linear spline fit of softplus on [-5, 5] by knot search.

    The fit is by least squares on a 10 000-point grid, with 0 to 3 knots (the
    paper's linear table has 3) on the 0.05 lattice -4.95, -4.9, ..., 4.95.
    The search is exhaustive over all increasing tuples.
    """
    if not 0 <= n_breakpoints <= 3:
        raise ValueError("n_breakpoints must be between 0 and 3")
    _, y, ls = _verifier()
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    # y is softplus on a grid symmetric about 0, softplus(x) - x/2 is even and
    # the lattice is symmetric: a tuple and its mirror tie
    sse, knots = ls.best(_LATTICE, n_breakpoints, mirror=True)
    return BreakpointFit(knots, sse, 1.0 - sse / ss_tot)
