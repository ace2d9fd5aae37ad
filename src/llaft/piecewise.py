"""Piecewise surrogates of the softplus function log(1 + e^x).

Two fixed lookup tables drive the conjugate variational updates: a six-piece
linear table (slopes phi) and a five-piece quadratic table (linear rho,
quadratic zeta). Outside [-5, 5] both coincide with the exact asymptotes 0
and x. Segment intervals are left-open/right-closed, e.g. -5 < x <= -1.701.

The module also carries an independent verifier: a brute-force segmented
least-squares search that re-derives the linear table's knots and error from
scratch on a dense grid.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LINEAR_KNOTS",
    "LINEAR_INTERCEPTS",
    "LINEAR_SLOPES",
    "QUADRATIC_KNOTS",
    "QUADRATIC_INTERCEPTS",
    "QUADRATIC_LINEAR",
    "QUADRATIC_QUADRATIC",
    "PiecewiseCoefficients",
    "BreakpointFit",
    "softplus",
    "softplus_linear",
    "softplus_quadratic",
    "segment_coefficients",
    "table_sse",
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

# Elements per (heads, rows, columns) block and per (heads, tail) array of
# the knot scan's screen (64 KB of doubles), which bounds its memory. 2**12
# to 2**14 screened equally fast; from 2**15 on the k = 3 scan slowed.
_SCREEN_ELEMENTS = 2 ** 13

for _knots in (LINEAR_KNOTS, LINEAR_INTERCEPTS, LINEAR_SLOPES, QUADRATIC_KNOTS,
               QUADRATIC_INTERCEPTS, QUADRATIC_LINEAR, QUADRATIC_QUADRATIC):
    _knots.setflags(write=False)


@dataclass(frozen=True)
class PiecewiseCoefficients:
    """Per-observation surrogate coefficients at a vector of standardized
    residuals: linear slope phi and quadratic pair (rho, zeta)."""

    phi: np.ndarray
    rho: np.ndarray
    zeta: np.ndarray


@dataclass(frozen=True)
class BreakpointFit:
    breakpoints: np.ndarray
    sse: float
    r_squared: float


def softplus(x):
    """Exact log(1 + e^x), overflow-safe."""
    return np.logaddexp(0.0, x)


def _linear_segment(x):
    # left-open/right-closed intervals: index k means knots[k-1] < x <= knots[k]
    return np.searchsorted(LINEAR_KNOTS, x, side="left")


def _quadratic_segment(x):
    return np.searchsorted(QUADRATIC_KNOTS, x, side="left")


def softplus_linear(x):
    """Six-piece linear surrogate of softplus; scalar in, scalar out."""
    x = np.asarray(x, dtype=float)
    k = _linear_segment(x)
    out = LINEAR_INTERCEPTS[k] + LINEAR_SLOPES[k] * x
    return float(out) if out.ndim == 0 else out


def softplus_quadratic(x):
    """Five-piece quadratic surrogate of softplus."""
    x = np.asarray(x, dtype=float)
    k = _quadratic_segment(x)
    out = QUADRATIC_INTERCEPTS[k] + (QUADRATIC_LINEAR[k] + QUADRATIC_QUADRATIC[k] * x) * x
    return float(out) if out.ndim == 0 else out


def segment_coefficients(z_hat) -> PiecewiseCoefficients:
    """Surrogate coefficients for the segments containing each z_hat value."""
    z_hat = np.atleast_1d(np.asarray(z_hat, dtype=float))
    kl = _linear_segment(z_hat)
    kq = _quadratic_segment(z_hat)
    return PiecewiseCoefficients(
        phi=LINEAR_SLOPES[kl],
        rho=QUADRATIC_LINEAR[kq],
        zeta=QUADRATIC_QUADRATIC[kq],
    )


def _grid(grid_size: int):
    x = np.linspace(-5.0, 5.0, grid_size)
    return x, softplus(x)


def table_sse(grid_size: int = 10_000) -> tuple[float, float]:
    """(linear, quadratic) sums of squared error of the published tables on an
    equispaced grid over [-5, 5]."""
    x, y = _grid(grid_size)
    lin = float(np.sum((softplus_linear(x) - y) ** 2))
    quad = float(np.sum((softplus_quadratic(x) - y) ** 2))
    return lin, quad


class _HingeLS:
    """Least-squares SSE of y ~ 1 + x + sum_j (x - a_j)_+ for knot tuples.

    All grid sums enter through suffix sums (of 1, x, x^2, y, xy over grid
    points strictly above each knot), built once, so scoring a knot tuple
    never touches the grid again. `sse` scores a batch of tuples exactly, one
    (k+2)x(k+2) solve per tuple.

    `best` scans every k-tuple of a candidate set. For k >= 2 it screens
    instead of solving per tuple. Once per call it projects [1, x] out of the
    Gram matrix of all candidate hinges (S0) and out of their right-hand side
    (g0). Each tuple is a head (its first k - 2 knots) plus a tail pair
    i < j. Heads that end at the same knot are orthogonalised together by
    Gram-Schmidt in S0, which leaves the projected Gram matrix S and
    right-hand side g of the tail hinges given [1, x, head]; a head with a
    pivot at or below 1e-12 of its hinge's squared norm is skipped, the rule
    of `_nonsingular`. With d = diag(S)^-1/2, c_ij = S_ij d_i d_j, u = g d
    and B = [1, x, head], every pair on the upper triangle scores

        SSE = syy - r_B' M_BB^-1 r_B - u_j^2 - (u_i - c_ij u_j)^2 / (1 - c_ij^2),

    and pairs with 1 - c_ij^2 <= 1e-12, numerically collinear given the head,
    are skipped. Near the optimum the closed form agrees with `sse` to a
    few 1e-11 (less on ill-conditioned tuples far from it). That is enough
    to reorder exact ties: softplus(x) - x/2 is even, so mirror-image tuples
    tie, and on a 400-point grid the closed form ranks (-1.05, 1.1) before
    (-1.1, 1.05). So the screen only shortlists: every tuple within
    1e-9 * SSE + 1e-13 * syy of the screen's minimum is rescored with `sse`,
    and the first lexicographic minimizer of those exact scores wins, as in
    a scan that scores every tuple with `sse`. (Both scores round off in
    proportion to syy, which on a grid as coarse as the lattice can be 1e8
    times the SSE.) Only such grids have collinear pairs; there the result
    can differ from such a scan.
    """

    def __init__(self, x, y):
        self.n = float(len(x))
        self.x = x
        self.sx = float(x.sum())
        self.sxx = float((x * x).sum())
        self.sy = float(y.sum())
        self.sxy = float((x * y).sum())
        self.syy = float((y * y).sum())
        terms = np.stack([np.ones_like(x), x, x * x, y, x * y])
        self._suffix = np.concatenate(
            [np.cumsum(terms[:, ::-1], axis=1)[:, ::-1], np.zeros((5, 1))], axis=1)

    def _normal_equations(self, knots):
        """Gram matrices M and right-hand sides r of [1, x, hinges] for each
        row of a (T, k) array of increasing knot tuples."""
        T, k = knots.shape
        s0, s1, s2, t0, t1 = self._suffix[:, np.searchsorted(self.x, knots, side="right")]
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
        sse = self.syy - np.einsum("ij,ij->i", _solve(M, rhs[..., None])[..., 0], rhs)
        # an interpolating tuple's SSE is 0 but can round below it
        return np.where(np.isnan(sse) | ~_nonsingular(M), np.inf, np.maximum(sse, 0.0))

    def best(self, cand, k) -> tuple[float, np.ndarray]:
        """(sse, knots) of the best k-knot fit over every increasing k-tuple of
        `cand`: the first minimizer in lexicographic order."""
        if k <= 1:
            tuples = list(itertools.combinations(range(len(cand)), k))
            tuples = np.array(tuples, dtype=np.intp).reshape(len(tuples), k)
        else:
            tuples = self._screen(cand, k)
            tuples = tuples[np.lexsort(tuples.T[::-1])]
        if not len(tuples):  # no tuple, or every tuple singular
            return np.inf, None
        sse = self.sse(cand[tuples])
        t = int(np.argmin(sse))
        return float(sse[t]), cand[tuples[t]]

    # the screen marks skipped heads, tail knots and pairs with NaN, silently
    @np.errstate(divide="ignore", invalid="ignore")
    def _screen(self, cand, k) -> np.ndarray:
        """(rows, k) candidate indices of every tuple whose closed-form score
        lies within the window of the lowest score, plus a few that were that
        close to the lowest score seen when their block was screened."""
        n, p = len(cand), k - 2
        s0, s1, s2, t0, t1 = self._suffix[:, np.searchsorted(self.x, cand, side="right")]
        # <h_a, h_b> uses the suffix sums at the larger knot: right for a <= b
        hh = s2 - np.add.outer(cand, cand) * s1 + np.multiply.outer(cand, cand) * s0
        hh = np.triu(hh) + np.triu(hh, 1).T
        # project [1, x] out of every hinge once: S0 = hh - U' B^-1 U
        U = np.stack([s1 - cand * s0, s2 - cand * s1])
        rB = np.array([self.sy, self.sxy])
        W = np.linalg.solve([[self.n, self.sx], [self.sx, self.sxx]], np.c_[U, rB])
        S0 = hh - U.T @ W[:, :n]
        g0 = t1 - cand * t0 - U.T @ W[:, n]
        base0 = self.syy - rB @ W[:, n]

        def heads_by_last_knot():
            # heads that end at the same knot share the candidate tail knots
            if k == 2:
                yield -1, np.empty((1, 0), np.intp)
                return
            for last in range(k - 3, n - 2):
                yield last, np.array([h + (last,) for h in
                                      itertools.combinations(range(last), k - 3)],
                                     dtype=np.intp).reshape(-1, k - 2)

        below = np.tri(n, n, -1, dtype=bool)
        lowest, shortlist = np.inf, []
        for last, heads in heads_by_last_knot():
            m = n - 1 - last
            St = S0[last + 1:, last + 1:]
            per_batch = max(1, _SCREEN_ELEMENTS // m)
            for h0 in range(0, len(heads), per_batch):
                head_idx = heads[h0:h0 + per_batch]
                H = len(head_idx)
                # Gram-Schmidt of each head's hinges in S0, kept on the
                # columns of its own knots and of the tail knots
                cols = np.concatenate(
                    [head_idx, np.broadcast_to(np.arange(last + 1, n), (H, m))], axis=1)
                Q, g, base = S0[head_idx.T[:, :, None], cols], g0[cols], np.full(H, base0)
                for l in range(p):
                    for q in range(l):
                        Q[l] -= Q[q][:, l, None] * Q[q]
                    pivot = Q[l][:, l].copy()
                    # a head that fails _nonsingular's pivot rule scores NaN
                    base[~(pivot > 1e-12 * np.diagonal(hh)[head_idx[:, l]])] = np.nan
                    Q[l] /= np.sqrt(pivot)[:, None]
                    gq = g[:, l] / np.sqrt(pivot)
                    g -= gq[:, None] * Q[l]
                    base -= gq * gq
                # the tail hinges normalised given the head
                Qt = Q[:, :, p:]
                d = 1.0 / np.sqrt(np.diagonal(St) - (Qt * Qt).sum(axis=0))
                Qn = (Qt * d).transpose(1, 0, 2)
                u = g[:, p:] * d
                rest = base[:, None] - u * u
                i0 = 0
                while i0 < m - 1:
                    # rows i0..i1 against columns i0+1..m: the upper triangle
                    i1 = min(m - 1, i0 + max(1, _SCREEN_ELEMENTS // (H * (m - 1 - i0))))
                    ri, cj, sq = slice(i0, i1), slice(i0 + 1, m), i1 - i0
                    c = St[ri, cj] * d[:, ri, None]
                    c *= d[:, None, cj]
                    if p:
                        c -= np.matmul(Qn[:, :, ri].transpose(0, 2, 1), Qn[:, :, cj])
                    score = u[:, ri, None] - c * u[:, None, cj]
                    score *= score
                    np.subtract(1.0, c * c, out=c)
                    # collinear pairs, and pairs j <= i in the square at the
                    # block's start, score NaN: no minimum or cutoff takes them
                    np.copyto(c, np.nan, where=c <= 1e-12)
                    np.copyto(c[:, :, :sq], np.nan, where=below[:sq, :sq])
                    score /= c
                    np.subtract(rest[:, None, cj], score, out=score)

                    block_low = float(np.fmin.reduce(score, axis=None))
                    lowest = min(lowest, block_low)  # a NaN block_low leaves it
                    cutoff = lowest + 1e-9 * abs(lowest) + 1e-13 * self.syy
                    if block_low <= cutoff < np.inf:
                        h, i, j = np.nonzero(score <= cutoff)
                        shortlist.append(np.column_stack(
                            [head_idx[h], last + 1 + i0 + i, last + 2 + i0 + j]))
                    i0 = i1
        return np.concatenate(shortlist) if shortlist else np.empty((0, k), np.intp)


def _nonsingular(M) -> np.ndarray:
    """Per Gram matrix of a (T, d, d) stack: whether every Cholesky pivot,
    the part of a column's squared norm that the columns before it leave
    unexplained, exceeds 1e-12 of that squared norm. The screen applies the
    same test to the pivots of its heads."""
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        if len(M) == 1:
            return np.zeros(1, bool)
        return np.concatenate([_nonsingular(Mi[None]) for Mi in M])
    pivots = np.diagonal(L, axis1=1, axis2=2) ** 2
    return (pivots > 1e-12 * np.diagonal(M, axis1=1, axis2=2)).all(axis=1)


def _solve(M, rhs):
    """Batched np.linalg.solve; a singular system gets a NaN solution."""
    try:
        return np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError:
        if len(M) == 1:
            return np.full(rhs.shape, np.nan)
        return np.concatenate([_solve(Mi[None], ri[None]) for Mi, ri in zip(M, rhs)])


def fit_linear_breakpoints(grid_size: int = 10_000, n_breakpoints: int = 3,
                           lattice_step: float = 0.05) -> BreakpointFit:
    """Best continuous linear spline fit of softplus on [-5, 5] by knot search.

    Knots live on a lattice with the given step. Up to three knots the search
    is exhaustive over all increasing tuples. For four or five knots an
    exhaustive pass on a 0.25 lattice seeds coordinate-descent refinement on
    the fine lattice, which keeps the search tractable. Each call runs one
    search and starts no other. A grid with fewer points than the spline has
    coefficients (knots + 2) raises ValueError.
    """
    if not 0 <= n_breakpoints <= 5:
        raise ValueError("n_breakpoints must be between 0 and 5")
    if grid_size < n_breakpoints + 2:
        # every knot tuple's normal equations would be singular
        raise ValueError(
            f"a {n_breakpoints}-knot spline has {n_breakpoints + 2} coefficients, "
            f"more than the {grid_size} grid points")
    x, y = _grid(grid_size)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    ls = _HingeLS(x, y)

    def lattice(step):
        k = np.round(np.arange(-5.0 + step, 5.0 - step / 2, step) / step) * step
        return k + 0.0  # normalize -0.0

    fine = lattice(lattice_step)

    if n_breakpoints <= 3:
        sse, knots = ls.best(fine, n_breakpoints)
        return BreakpointFit(knots, sse, 1.0 - sse / ss_tot)

    best_sse, best = ls.best(lattice(0.25), n_breakpoints)

    # coordinate descent on the fine lattice until no knot moves; candidates
    # are taken in lattice order, each only if it beats the best so far
    for _ in range(20):
        moved = False
        for i in range(n_breakpoints):
            lo = best[i - 1] if i > 0 else -5.0
            hi = best[i + 1] if i + 1 < n_breakpoints else 5.0
            options = fine[(fine > lo + lattice_step / 2) & (fine < hi - lattice_step / 2)]
            trials = np.repeat(best[None], len(options), axis=0)
            trials[:, i] = options
            for trial, s in zip(trials, ls.sse(trials)):
                if s < best_sse - 1e-12:
                    best_sse, best = float(s), trial
                    moved = True
        if not moved:
            break

    return BreakpointFit(best, best_sse, 1.0 - best_sse / ss_tot)
