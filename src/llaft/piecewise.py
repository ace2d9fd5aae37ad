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

# Elements per (heads, rows, m) array of the knot scan's screen (64 KB of
# doubles), which bounds its memory. Blocks of 2**14 ran ~8% faster, but a
# process that ran `approx-check` 100 times peaked ~1 MB higher in RSS.
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
    instead of solving per tuple: each tuple is a head (its first k - 2 knots)
    plus a tail pair. Per head it projects [1, x, hinges of the head] out of
    the candidate tail hinges once (the Schur complement S of the head's
    Gram matrix, and the projected right-hand side g) and scores every tail
    pair i < j in closed form,

        SSE = syy - r_B' M_BB^-1 r_B
                  - (a_j g_i^2 - 2 S_ij g_i g_j + a_i g_j^2) / (a_i a_j - S_ij^2)

    with a = diag S. Near the optimum the closed form agrees with `sse` to a
    few 1e-11 (less on ill-conditioned tuples far from it). That is enough
    to reorder exact ties: softplus(x) - x/2 is even, so mirror-image tuples
    tie, and on a 400-point grid the closed form ranks (-1.05, 1.1) before
    (-1.1, 1.05). So the screen only shortlists: every tuple within
    1e-9 * SSE of the screen's minimum is rescored with `sse`, and the first
    lexicographic minimizer of those exact scores wins, as in a scan that
    scores every tuple with `sse`. The screen skips tail pairs that are
    numerically collinear given the head, which only a grid as coarse as the
    candidate lattice produces; there the result can differ from such a scan.
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
        return np.where(np.isnan(sse) | ~_nonsingular(M), np.inf, sse)

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

    def _screen(self, cand, k) -> np.ndarray:
        """(rows, k) candidate indices of every tuple whose closed-form score
        lies within 1e-9 * SSE of the lowest score, plus a few that were that
        close to the lowest score seen when their block was screened."""
        n = len(cand)
        s0, s1, s2, t0, t1 = self._suffix[:, np.searchsorted(self.x, cand, side="right")]

        def hinge_products(a, t):
            # <h_a, h_c> for knots a <= c = cand[t], broadcast over a and t
            c = cand[t]
            return s2[t] - (a + c) * s1[t] + a * c * s0[t]

        # <h_a, h_b>: right on and above the diagonal, which is all the screen reads
        hh = hinge_products(cand[:, None], slice(None))

        def heads_by_last_knot():
            # heads that end at the same knot share the candidate tail knots
            if k == 2:
                yield -1, np.empty((1, 0), np.intp)
                return
            for last in range(k - 3, n - 2):
                yield last, np.array([h + (last,) for h in
                                      itertools.combinations(range(last), k - 3)],
                                     dtype=np.intp).reshape(-1, k - 2)

        lowest, shortlist = np.inf, []
        for last, heads in heads_by_last_knot():
            tail = slice(last + 1, n)
            c = cand[tail]
            m = len(c)
            per_batch = max(1, _SCREEN_ELEMENTS // (m * m))
            for h0 in range(0, len(heads), per_batch):
                head_idx = heads[h0:h0 + per_batch]
                head = cand[head_idx]
                H = len(head)
                M, r = self._normal_equations(head)
                U = np.empty((H, k, m))  # [1, x, head hinges]' tail hinges
                U[:, 0] = s1[tail] - c * s0[tail]
                U[:, 1] = s2[tail] - c * s1[tail]
                U[:, 2:] = hinge_products(head[:, :, None], tail)
                W = _solve(M, np.concatenate([U, r[:, :, None]], axis=2))
                # S = M_TT - U' M_BB^-1 U and g = r_T - U' M_BB^-1 r_B
                diag = np.diagonal(hh)[tail] - np.einsum("hdi,hdi->hi", U, W[:, :, :m])
                g = t1[tail] - c * t0[tail] - np.einsum("hdi,hd->hi", U, W[:, :, m])
                base = self.syy - np.einsum("hd,hd->h", r, W[:, :, m])
                # blocks of first tail knots keep each (H, rows, m) array small
                per_block = max(1, _SCREEN_ELEMENTS // (H * m))
                for i0 in range(0, m - 1, per_block):
                    i1 = min(i0 + per_block, m - 1)
                    rows = slice(i0, i1)
                    S = (hh[last + 1 + i0:last + 1 + i1, tail]
                         - np.matmul(U[:, :, rows].transpose(0, 2, 1), W[:, :, :m]))
                    ai, aj = diag[:, rows, None], diag[:, None, :]
                    gi, gj = g[:, rows, None], g[:, None, :]
                    den = ai * aj - S * S
                    with np.errstate(divide="ignore", invalid="ignore"):
                        score = base[:, None, None] - (
                            (aj * gi * gi - 2.0 * S * gi * gj + ai * gj * gj) / den)
                    # pairs i < j whose projected 2x2 block is numerically
                    # nonsingular (on grids as coarse as the lattice, two
                    # knots with no grid point between them are collinear)
                    keep = (den > 1e-12 * ai * aj) & np.isfinite(score)
                    keep &= np.arange(m) > np.arange(i0, i1)[:, None]
                    score = np.where(keep, score, np.inf)

                    block_low = float(score.min())
                    lowest = min(lowest, block_low)
                    cutoff = lowest + 1e-9 * abs(lowest)
                    if block_low <= cutoff < np.inf:
                        h, i, j = np.nonzero(score <= cutoff)
                        shortlist.append(np.column_stack(
                            [head_idx[h], last + 1 + i0 + i, last + 1 + j]))
        return np.concatenate(shortlist) if shortlist else np.empty((0, k), np.intp)


def _nonsingular(M) -> np.ndarray:
    """Per Gram matrix of a (T, d, d) stack: whether every Cholesky pivot,
    the part of a column's squared norm that the columns before it leave
    unexplained, exceeds 1e-12 of that squared norm. This is the relative
    test the screen applies to its 2x2 tail blocks."""
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
