"""Sliding-window surrogate fitting.

A window of the latest m perturbed points and their values feeds
linear or quadratic least-squares fits.  Three linear formulations are
supported:

* ``intercept_centered`` - rows are differences against the newest
  point, with an intercept column.
* ``intercept_raw`` - rows are the raw points with an intercept
  column.  Shares its linear coefficient with the centered form on
  full-rank windows.
* ``difference_no_intercept`` - rows are differences against the
  newest point excluding it, no intercept.

Fit routing: a full window with capacity >= d + 1 is solved from a
reference-centered moment cache (``cached_moments``): the re-centered
normal equations, which stay well conditioned however far the window
drifts from the origin.  One Cholesky factorization of that Gram,
bordered by its right-hand side, both checks it and solves it.  The
window keeps the bordered system and its factor in two buffers reused
from fit to fit, and the factor is written in LAPACK's column-major
layout, so the buffer holds its transpose in row-major order.  The
quadratic design is likewise assembled in a buffer the window keeps.
A Gram that fails the factorization or whose relative pivots reveal
numerical rank deficiency, and every other window, falls back to a
minimum-norm pseudoinverse solve; rank deficiency never raises out of
``fit_linear``/``fit_quadratic``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.linalg import _umath_linalg

from .core import NotEnoughSamplesError, SingularUpdateError

REGRESSION_MODES = ("intercept_centered", "intercept_raw", "difference_no_intercept")

# Consistency gate for the row-space shortcut; failures fall back to
# lstsq.  The W-term tracks the attainable backward error of the inner
# solve, the y-term rejects genuinely inconsistent systems.
_SOLVE_RTOL = 1e-6
_SOLVE_BACKWARD_TOL = 1e-9
# Denominators below this magnitude make a rank-1 inverse update singular.
_SWAP_SINGULAR_TOL = 1e-12
# The moment sums are rebuilt around the newest point once the terms
# that cancel in re-centering them outweigh the re-centered Gram's
# trace by this factor; the shipped ridge config peaks near 15.
_RECENTER_LIMIT = 100.0
# Diagonal block size of the blocked triangular solve.
_SUBSTITUTION_BLOCK = 64
# A relative pivot L_ii^2 / G_ii is the squared sine of the angle between
# column i and the columns before it.  Below this the Gram is numerically
# rank deficient and the factorization's solution is not the minimum-norm
# one.  Measured minima: above 2e-7 on healthy runs, below 2e-12 on
# windows with duplicated points.
_RELATIVE_PIVOT_TOL = 3e-10
# numpy's lower-triangular Cholesky gufunc, the one np.linalg.cholesky
# wraps.  Unlike that function it writes into a given output buffer.  A
# failed factorization fills the output with NaN and sets numpy's invalid
# flag instead of raising.
_cholesky_lo = _umath_linalg.cholesky_lo


@dataclass
class SurrogateFit:
    """Fitted surrogate coefficients.

    ``g`` is the linear coefficient (the gradient estimate), ``h`` the
    diagonal quadratic coefficient (quadratic fits only), ``c`` the
    intercept (absent in difference mode).  ``solver_path`` records
    which route produced the result.
    """

    g: np.ndarray
    h: Optional[np.ndarray]
    c: Optional[float]
    residual_norm: float
    solver_path: str


class _MomentCache:
    """Window sums centered at a reference point near the data.

    Centering keeps every quantity at the window-spread scale, so the
    re-centered Gram assembled from these sums stays accurate no matter
    how far the trajectory sits from the origin or how small the
    spread gets, as long as the window stays near the reference.
    ``mass`` sums the squared norms of every point difference that
    entered or left ``m_mat``: the scale its rounding error follows.
    """

    __slots__ = (
        "c_ref", "f_ref", "m_mat", "s_vec", "p_vec", "f_sum", "mass", "updates"
    )

    def __init__(self, c_ref, f_ref, m_mat, s_vec, p_vec, f_sum):
        self.c_ref = c_ref
        self.f_ref = f_ref
        self.m_mat = m_mat
        self.s_vec = s_vec
        self.p_vec = p_vec
        self.f_sum = f_sum
        self.mass = float(np.trace(m_mat))
        self.updates = 0


class EvaluationWindow:
    """Ring buffer of the latest ``capacity`` (point, value) pairs.

    Insertion past capacity drops the oldest pair and keeps the
    centered moment sums in sync (the second moments take one in-place
    rank-2 update per insertion).  The sums are rebuilt from scratch
    every ``max(d, 64)`` updates to bound floating-point drift.

    The window also keeps its fits' buffers, so a fit allocates no large
    temporaries: the linear fit's two (k+1)x(k+1) buffers, the bordered
    normal matrix and its Cholesky factor, which LAPACK writes
    column-major so the buffer holds the upper factor L^T row-major; and
    the quadratic fit's (m, 2d+1) design.  Each is allocated on first
    use and reused while its shape stays the same; no fit returns a view
    of them.
    """

    def __init__(self, capacity: int, dim: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.capacity = int(capacity)
        self.dim = int(dim)
        self._pts = np.zeros((capacity, dim))
        self._vals = np.zeros(capacity)
        self._start = 0
        self._count = 0
        self._rebuild_every = max(dim, 64)
        self._mom: Optional[_MomentCache] = None
        self._system: Optional[np.ndarray] = None
        self._upper: Optional[np.ndarray] = None
        self._design: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return self._count

    @property
    def is_full(self) -> bool:
        return self._count == self.capacity

    def push(self, point: np.ndarray, value: float):
        """Insert a pair; returns the dropped (point, value) or None."""
        point = np.asarray(point, dtype=np.float64)
        if point.shape != (self.dim,):
            raise ValueError(f"expected point of shape ({self.dim},), got {point.shape}")
        value = float(value)
        if self._count < self.capacity:
            self._pts[self._count] = point
            self._vals[self._count] = value
            self._count += 1
            return None
        idx = self._start
        dropped = (self._pts[idx].copy(), float(self._vals[idx]))
        self._update_caches(dropped[0], dropped[1], point, value)
        self._pts[idx] = point
        self._vals[idx] = value
        self._start = (idx + 1) % self.capacity
        return dropped

    # -- ordered access ------------------------------------------------

    def _ordered(self, arr):
        if self._start == 0:
            return arr[: self._count].copy()
        return np.concatenate([arr[self._start :], arr[: self._start]])

    def points(self, newest_first: bool = False) -> np.ndarray:
        out = self._ordered(self._pts)
        return out[::-1].copy() if newest_first else out

    def values(self, newest_first: bool = False) -> np.ndarray:
        out = self._ordered(self._vals)
        return out[::-1].copy() if newest_first else out

    def newest_point(self) -> np.ndarray:
        idx = (self._start + self._count - 1) % self.capacity
        return self._pts[idx]

    def newest_value(self) -> float:
        idx = (self._start + self._count - 1) % self.capacity
        return float(self._vals[idx])

    def oldest_point(self) -> np.ndarray:
        return self._pts[self._start]

    def spread(self) -> float:
        """Largest distance from any stored point to the newest one."""
        diffs = self._pts[: self._count] - self.newest_point()
        np.square(diffs, out=diffs)
        return float(np.sqrt(np.max(diffs.sum(axis=1))))

    # -- caches ----------------------------------------------------------

    def _update_caches(self, drop_pt, drop_val, add_pt, add_val):
        mom = self._mom
        if mom is not None:
            if mom.updates + 1 >= self._rebuild_every:
                self._mom = None  # rebuilt with a fresh reference next fit
            else:
                da = add_pt - mom.c_ref
                dd = drop_pt - mom.c_ref
                va = add_val - mom.f_ref
                vd = drop_val - mom.f_ref
                mom.m_mat += np.stack((da, -dd), 1) @ np.stack((da, dd))
                mom.s_vec += da - dd
                mom.p_vec += da * va - dd * vd
                mom.f_sum += va - vd
                mom.mass += float(da @ da + dd @ dd)
                mom.updates += 1

    def inverse_cache(self):
        """Always None: no fit route keeps a Gram-inverse cache.

        Kept so tools that look the method up by name on the class,
        such as span tracers, still resolve it.
        """
        return None

    def moment_cache(self) -> Optional[_MomentCache]:
        """Centered window sums, built lazily on a full window.

        The sums are rebuilt around the newest point when the window
        has drifted or shrunk so far from the reference that
        re-centering them would lose more than ``_RECENTER_LIMIT``
        times the rounding of a fresh build.
        """
        if not self.is_full:
            return None
        mom = self._mom
        if mom is not None:
            u_vec = self.newest_point() - mom.c_ref
            uu = float(u_vec @ u_vec)
            m = self.capacity
            trace = float(np.trace(mom.m_mat)) - 2.0 * float(u_vec @ mom.s_vec) + m * uu
            if mom.mass + m * uu > _RECENTER_LIMIT * trace:
                self._mom = None
        if self._mom is None:
            c_ref = self.newest_point().copy()
            f_ref = self.newest_value()
            deltas = self._pts - c_ref
            offsets = self._vals - f_ref
            self._mom = _MomentCache(
                c_ref,
                f_ref,
                deltas.T @ deltas,
                deltas.sum(axis=0),
                deltas.T @ offsets,
                float(offsets.sum()),
            )
        return self._mom


# -- system assembly -----------------------------------------------------


def _require_samples(window: EvaluationWindow):
    if len(window) < 2:
        raise NotEnoughSamplesError(
            f"window holds {len(window)} pair(s); need at least 2 to fit"
        )


def assemble_linear_system(window: EvaluationWindow, mode: str):
    """Build (X, y) for the selected linear formulation.

    Row order: oldest first for ``intercept_centered``, newest first
    for the other two modes.  The order never affects the solution.
    """
    _require_samples(window)
    if mode == "intercept_centered":
        pts = window.points()
        vals = window.values()
        deltas = pts - pts[-1]
        x_mat = np.hstack([deltas, np.ones((len(pts), 1))])
        y_vec = vals - vals[-1]
    elif mode == "intercept_raw":
        pts = window.points(newest_first=True)
        x_mat = np.hstack([pts, np.ones((len(pts), 1))])
        y_vec = window.values(newest_first=True)
    elif mode == "difference_no_intercept":
        pts = window.points(newest_first=True)
        vals = window.values(newest_first=True)
        x_mat = pts[1:] - pts[0]
        y_vec = vals[1:] - vals[0]
    else:
        raise ValueError(f"unknown regression mode {mode!r}")
    return x_mat, y_vec


def _quadratic_design(window: EvaluationWindow):
    """The quadratic (X, y), X written into the window's design buffer."""
    m, d = len(window), window.dim
    x_mat = window._design
    if x_mat is None or x_mat.shape[0] != m:
        x_mat = window._design = np.empty((m, 2 * d + 1))
    deltas, half_squares = x_mat[:, :d], x_mat[:, d : 2 * d]
    # Oldest row first: the ring buffer from its start, then its wrapped head.
    start = window._start
    newest = window.newest_point()
    np.subtract(window._pts[start:m], newest, out=deltas[: m - start])
    np.subtract(window._pts[:start], newest, out=deltas[m - start :])
    np.multiply(deltas, 0.5, out=half_squares)
    half_squares *= deltas
    x_mat[:, 2 * d] = 1.0
    vals = window.values()
    return x_mat, vals - vals[-1]


def assemble_quadratic_system(window: EvaluationWindow):
    """Build the (m, 2d+1) design with rows (dx, 0.5*dx*dx, 1)."""
    _require_samples(window)
    x_mat, y_vec = _quadratic_design(window)
    return x_mat.copy(), y_vec


# -- solvers ---------------------------------------------------------------


def solve_least_squares(x_mat: np.ndarray, y_vec: np.ndarray):
    """Minimum-norm least-squares solve; returns (coeffs, residual_norm).

    Underdetermined systems with full row rank are solved through the
    row space (X^T (X X^T)^-1 y), which is the min-norm solution at a
    fraction of the SVD cost; anything questionable falls back to
    numpy's lstsq.
    """
    x_mat = np.asarray(x_mat, dtype=np.float64)
    y_vec = np.asarray(y_vec, dtype=np.float64)
    if x_mat.ndim != 2 or y_vec.shape != (x_mat.shape[0],):
        raise ValueError("shape mismatch between design matrix and targets")
    if not (np.all(np.isfinite(x_mat)) and np.all(np.isfinite(y_vec))):
        raise ValueError("non-finite entries in least-squares system")
    rows, cols = x_mat.shape
    if rows < cols:
        w_mat = x_mat @ x_mat.T
        try:
            dual = np.linalg.solve(w_mat, y_vec)
        except np.linalg.LinAlgError:
            dual = None
        if dual is not None and np.all(np.isfinite(dual)):
            coeffs = x_mat.T @ dual
            resid = x_mat @ coeffs - y_vec
            resid_norm = float(np.linalg.norm(resid))
            gate = _SOLVE_RTOL * float(np.linalg.norm(y_vec)) + (
                _SOLVE_BACKWARD_TOL
                * float(np.linalg.norm(w_mat))
                * float(np.linalg.norm(dual))
            )
            if np.isfinite(coeffs @ coeffs) and resid_norm <= gate:
                return coeffs, resid_norm
    coeffs, _, _, _ = np.linalg.lstsq(x_mat, y_vec, rcond=None)
    resid_norm = float(np.linalg.norm(x_mat @ coeffs - y_vec))
    return coeffs, resid_norm


def rank1_swap_inverse(a_inv: np.ndarray, drop_row: np.ndarray, add_row: np.ndarray):
    """Update a Gram inverse for one dropped and one added row.

    Applies the rank-1 inverse-update formula twice: first removing
    ``drop_row drop_row^T`` from the underlying Gram matrix, then
    adding ``add_row add_row^T``.  Raises SingularUpdateError when a
    denominator falls below the singularity tolerance, in which case
    the caller should re-solve from scratch.
    """
    a_inv = np.ascontiguousarray(a_inv, dtype=np.float64)
    drop_row = np.ascontiguousarray(drop_row, dtype=np.float64)
    add_row = np.ascontiguousarray(add_row, dtype=np.float64)
    n = a_inv.shape[0]
    if a_inv.shape != (n, n) or drop_row.shape != (n,) or add_row.shape != (n,):
        raise ValueError("inverse and rows have inconsistent shapes")
    # a_inv is symmetric (Gram inverses are), which both steps preserve.
    av = a_inv @ drop_row
    den1 = 1.0 - drop_row @ av
    if abs(den1) < _SWAP_SINGULAR_TOL:
        raise SingularUpdateError("dropping the row makes the Gram matrix singular")
    b_inv = a_inv + np.outer(av, av) / den1
    bw = b_inv @ add_row
    den2 = 1.0 + add_row @ bw
    if abs(den2) < _SWAP_SINGULAR_TOL:
        raise SingularUpdateError("adding the row makes the update singular")
    return b_inv - np.outer(bw, bw) / den2


def estimate_condition_number(gram: np.ndarray, steps: int = 20) -> float:
    """Power-iteration estimate of cond(G) for symmetric PSD G.

    No fit calls it.  It stays a module function so tools that look it
    up by name, such as span tracers, still resolve it.
    """
    n = gram.shape[0]
    v = np.full(n, 1.0 / np.sqrt(n))
    lam_max = 0.0
    for _ in range(steps):
        w = gram @ v
        lam_max = float(v @ w)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return np.inf
        v = w / norm
    v = np.full(n, 1.0 / np.sqrt(n))
    nu = 0.0
    for _ in range(steps):
        w = lam_max * v - gram @ v  # power step on (lam_max I - G)
        nu = float(v @ w)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            break
        v = w / norm
    lam_min = lam_max - nu
    if lam_min <= 0:
        return np.inf
    return lam_max / lam_min


# -- fits ------------------------------------------------------------------


def _back_substitute(upper: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``upper @ x = rhs`` for upper-triangular ``upper`` in O(n^2).

    numpy has no triangular solve, so the system is cut into diagonal
    blocks of ``_SUBSTITUTION_BLOCK`` solved bottom-up: one GEMV folds
    the solved tail into each block's right-hand side, and
    ``np.linalg.solve`` finishes the small triangular block (its
    partial pivoting never swaps rows of a nonsingular triangle).
    """
    n = rhs.shape[0]
    x = np.empty(n)
    block = _SUBSTITUTION_BLOCK
    for start in range((n - 1) // block * block, -1, -block):
        stop = min(start + block, n)
        part = rhs[start:stop] - upper[start:stop, stop:] @ x[stop:]
        x[start:stop] = np.linalg.solve(upper[start:stop, start:stop], part)
    return x


def _fit_linear_cached_moments(window: EvaluationWindow, mode: str):
    """Solve the normal equations from the moment cache.

    Returns the fit, or None when the cache is unavailable, the
    factorization fails, or a relative pivot falls below
    ``_RELATIVE_PIVOT_TOL``.
    """
    mom = window.moment_cache()
    if mom is None:
        return None
    m = window.capacity
    d = window.dim
    k = d if mode == "difference_no_intercept" else d + 1
    x_new = window.newest_point()
    f_new = window.newest_value()
    u_vec = x_new - mom.c_ref
    phi = f_new - mom.f_ref
    offsets = window._vals - f_new
    # The normal matrix bordered by its right-hand side b, with a corner
    # above b^T G^-1 b = |P y|^2 <= |y|^2: its Cholesky factor is
    # [[L, 0], [z^T, *]] with L z = b, so one factorization both checks
    # G and leaves only L^T x = z to solve.
    system, upper = window._system, window._upper
    if system is None or system.shape[0] != k + 1:
        system = window._system = np.empty((k + 1, k + 1))
        upper = window._upper = np.empty_like(system)
    gram = system[:d, :d]
    # Re-center the sums at the newest point:
    # M - u s^T - s u^T + m u u^T = M + u w^T + w u^T, w = (m/2) u - s.
    # The newest point's own difference row is identically zero, so
    # full-window sums equal the sums over the m-1 older points.
    w_vec = 0.5 * m * u_vec - mom.s_vec
    np.matmul(np.stack((u_vec, w_vec), 1), np.stack((w_vec, u_vec)), out=gram)
    gram += mom.m_mat
    rhs = system[k, :k]
    rhs[:d] = mom.p_vec - u_vec * mom.f_sum - mom.s_vec * phi + m * (u_vec * phi)
    if mode != "difference_no_intercept":
        system[d, :d] = system[:d, d] = mom.s_vec - m * u_vec
        system[d, d] = m
        rhs[d] = mom.f_sum - m * phi
    system[:k, k] = rhs  # symmetric, whichever triangle cholesky reads
    system[k, k] = 2.0 * float(offsets @ offsets) + 1.0
    # Column-major L is row-major L^T: the substitution reads row blocks.
    with np.errstate(invalid="ignore"):
        _cholesky_lo(system, out=upper.T)
    if np.isnan(upper[k, k]):
        return None  # not positive definite
    pivots = np.diagonal(upper)[:k] ** 2 / np.diagonal(system)[:k]
    if pivots.min() < _RELATIVE_PIVOT_TOL:
        return None
    sol = _back_substitute(upper[:k, :k], upper[:k, k])
    if not np.all(np.isfinite(sol)):
        return None
    if mode == "difference_no_intercept":
        g, c, c_delta = sol, None, 0.0
    else:
        g, c_delta = sol[:-1], float(sol[-1])
        if mode == "intercept_centered":
            c = c_delta
        else:
            c = c_delta - float(g @ x_new) + f_new
    # Differences, not raw points: a window far from the origin keeps its digits.
    resid = (window._pts - x_new) @ g + c_delta - offsets
    resid_norm = float(np.linalg.norm(resid))
    return SurrogateFit(g, None, c, resid_norm, "cached_moments")


def fit_linear(window: EvaluationWindow, mode: str = "intercept_centered") -> SurrogateFit:
    """Fit the linear surrogate on the current window.

    A full window with capacity >= d + 1 is solved from the moment
    cache when its bordered Gram passes a Cholesky factorization with
    no relative pivot below ``_RELATIVE_PIVOT_TOL``; otherwise the
    assembled system is solved by minimum-norm pseudoinverse.  Rank
    deficiency therefore degrades the solver path, never raises.
    """
    _require_samples(window)
    if mode not in REGRESSION_MODES:
        raise ValueError(f"unknown regression mode {mode!r}")
    d = window.dim
    # Intercept modes need m >= d + 1 rows for a nonsingular Gram;
    # difference mode drops the newest row and needs m - 1 >= d.
    if window.is_full and window.capacity >= d + 1:
        fit = _fit_linear_cached_moments(window, mode)
        if fit is not None:
            return fit
    x_mat, y_vec = assemble_linear_system(window, mode)
    coeffs, resid_norm = solve_least_squares(x_mat, y_vec)
    if mode == "difference_no_intercept":
        g, c = coeffs, None
    else:
        g, c = coeffs[:d], float(coeffs[d])
    return SurrogateFit(np.asarray(g), None, c, resid_norm, "pseudoinverse")


def fit_quadratic(window: EvaluationWindow) -> SurrogateFit:
    """Fit the quadratic surrogate (diagonal curvature) on the window."""
    _require_samples(window)
    d = window.dim
    x_mat, y_vec = _quadratic_design(window)
    coeffs, resid_norm = solve_least_squares(x_mat, y_vec)
    return SurrogateFit(
        coeffs[:d].copy(),
        coeffs[d : 2 * d].copy(),
        float(coeffs[2 * d]),
        resid_norm,
        "pseudoinverse",
    )
