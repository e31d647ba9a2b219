"""Sliding-window surrogate fitting.

A window of the latest m perturbed points and their values feeds
linear or quadratic least-squares fits.  Every design is centered at
the newest point: its rows are the older points minus the newest,
oldest first, followed for a quadratic fit by their half squares.  Two
linear formulations are supported:

* ``intercept_centered`` - those rows, then the newest point's own row
  (0, ..., 0, 1) with target 0, and an intercept column.
* ``difference_no_intercept`` - those rows alone, no intercept.

The quadratic fit has the intercept.  A window the surrogate
interpolates (m <= w + 1, w the d or 2d columns besides the intercept)
has intercept exactly 0, so its fit leaves out the newest row and the
ones column; there both linear formulations solve the same system.

Fit routing: a full window with capacity >= d + 1 is solved from a
moment cache (``cached_moments``): the window's sums centered at its
newest point, which are the normal equations themselves and stay well
conditioned however far the window sits from the origin.  Each push
folds the dropped point, the added one and the move of the center into
one symmetric rank-3 update of the second moments, written in place
into the top-left block of a bordered-system buffer the window keeps,
so a fit only writes the O(d) border (its right-hand side and, for the
intercept mode, the intercept row).  One Cholesky factorization of
that bordered system both checks the Gram and solves it, and one back
substitution finishes the fit, which reads no window point.  The system
buffer is column-major, so the factorization's copy of it into
LAPACK's layout runs down contiguous columns, and the update writes
contiguous column blocks.  The factor lands in a second window-kept
buffer in LAPACK's column-major layout, so that buffer holds its
transpose in row-major order.  A Gram that
fails the factorization or whose relative pivots reveal numerical rank
deficiency, and every other window, falls back to a minimum-norm
pseudoinverse solve; rank deficiency never raises out of
``fit_linear``/``fit_quadratic``.

Every fit the moment cache does not serve builds its design and its
row-space Gram X X^T as new arrays; window-kept buffers for them
measured no faster.  At d of about 100 a cached fit costs little more
than its LAPACK and BLAS calls, so the per-call wrappers count.  Where
numpy's wheel has loaded its bundled OpenBLAS (see ``_openblas``), the
cached fit calls it through ``ctypes`` on window buffers: ``dpotrf``
factors a copy of the bordered system in place in the factor buffer,
and ``dtrsv`` solves each 64-row diagonal block of the back
substitution in place in a window-kept solution vector.  Both give the
bits numpy's gufuncs give, since numpy's ``np.linalg.cholesky`` runs
the same ``dpotrf``, and its LU solve of a nonsingular triangle is that
triangle's ``dtrsv``.  Elsewhere numpy's LAPACK gufuncs serve it
(``cholesky_lo`` and ``solve1``, the kernels behind
``np.linalg.cholesky`` and ``np.linalg.solve``), called directly;
``solve1`` also serves every row-space solve.  In a hot loop at one
BLAS thread (2-core x86-64, numpy 2.4.6, OpenBLAS 0.3.31) the direct
calls took the back substitution from 46 to 13 us at n = 101 and from
614 to 264 us at n = 901, and the factorization from 44 to 38 us at
n = 102 and from 11.3 to 9.7 ms at n = 902, where the gufunc also
mallocs and fills its own column-major copy.  Norms are taken as
``math.sqrt(v @ v)``, which is what ``np.linalg.norm`` computes on 1-D
and C-contiguous inputs.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.linalg import _umath_linalg

from . import _openblas
from .core import NotEnoughSamplesError, SingularUpdateError, _all_finite

REGRESSION_MODES = ("intercept_centered", "difference_no_intercept")

# Consistency gate for the row-space shortcut: a solution whose residual
# exceeds this fraction of |y| falls back to lstsq.  A singular X X^T
# leaves a dual far too large to pass it.
_SOLVE_RTOL = 1e-6
# Denominators below this magnitude make a rank-1 inverse update singular.
_SWAP_SINGULAR_TOL = 1e-12
# The moment sums are rebuilt from the window once the terms their
# updates added and cancelled outweigh the Gram's trace by this factor.
_RECENTER_LIMIT = 100.0
# Elements of the row-block scratch (256 KB) through which the moment
# update passes, so a push allocates no d x d temporary.
_BLOCK_ELEMENTS = 32768
# Diagonal block size of the blocked triangular solve.  One GEMV folds
# the solved tail into each block's right-hand side, and each block is
# then solved on its own: by dtrsv, or by solve1, whose LU leaves a
# nonsingular triangle unchanged and whose one-column solve is then that
# same dtrsv, so both routes give the same bits.  The block size fixes
# the rounding: an unblocked dtrsv, or 32-row blocks, round differently
# (with 32, one zero-perturbation l_reszo trial of the grid test stops
# diverging), and 64 keeps every output bit.  32-row solve1 blocks took
# 37 against 44 us at n = 101; dtrsv on 64-row blocks takes 13.
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
# numpy's LU solve gufunc for one right-hand side, the one
# np.linalg.solve wraps.  A singular matrix fills the output with NaN and
# sets numpy's invalid flag instead of raising LinAlgError.
_solve1 = _umath_linalg.solve1
# numpy's loaded OpenBLAS, which serves the cached fit in place; None
# where numpy has none, and then the two gufuncs above serve it.
_lapack = _openblas.LIBRARY


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
    solver_path: str


class _MomentCache:
    """Window sums centered at the window's newest pair (c, f_c).

    ``m_mat``, ``s_vec``, ``p_vec`` and ``f_sum`` are the sums over the
    window of (x - c)(x - c)^T, x - c, (x - c)(f - f_c) and f - f_c:
    the Gram and right-hand sides of the centered normal equations,
    with no re-centering left for a fit to do.
    Centering keeps every quantity at the window-spread scale however
    far the trajectory sits from the origin.  ``m_mat`` is a view of the
    top-left block of the window's bordered-system buffer.  ``mass``
    sums the trace of the build and the size of every term a push added
    to or cancelled from ``m_mat``: the scale its rounding error follows.
    """

    __slots__ = ("m_mat", "s_vec", "p_vec", "f_sum", "mass")

    def __init__(self, m_mat, s_vec, p_vec, f_sum):
        self.m_mat = m_mat
        self.s_vec = s_vec
        self.p_vec = p_vec
        self.f_sum = f_sum
        self.mass = float(m_mat.trace())


class EvaluationWindow:
    """Ring buffer of the latest ``capacity`` (point, value) pairs.

    Insertion past capacity drops the oldest pair and keeps the moment
    sums, centered at the newest point, in sync: the second moments take
    one in-place symmetric rank-3 update per insertion that drops the
    oldest point, adds the new one and moves the center to it.  Its
    rounding error follows the size of the terms the updates added and
    cancelled, so once those outweigh the Gram's trace by more than
    ``_RECENTER_LIMIT`` the push drops the sums, and the next fit
    rebuilds them from the window.

    The window also keeps the cached linear fit's buffers, so neither a
    push nor that fit allocates a d x d temporary: the (d+2)x(d+2)
    bordered normal matrix, column-major as LAPACK reads it, whose
    top-left d x d block holds the second moments; the rank-3 update's
    (3, d) and (3, d+2) operands, which each push fills in place, both
    allocated with the first moment sums, and its row-block scratch (one
    block whenever d * (d + 2) elements fit ``_BLOCK_ELEMENTS``),
    allocated at the first update; and the (k+1)x(k+1) Cholesky factor,
    which LAPACK writes column-major so the buffer holds the upper factor
    L^T row-major, with the substitution's solution vector and, on the
    direct OpenBLAS route, its block scratch (``_FitKernels``), reused
    while k stays the same.
    No fit returns a view of them.  The fits the moment cache does not
    serve keep nothing: their design and X X^T are new arrays.
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
        self._mom: Optional[_MomentCache] = None
        self._system: Optional[np.ndarray] = None
        self._operands: Optional[tuple] = None
        self._kernels: Optional[_FitKernels] = None
        self._scratch: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return self._count

    @property
    def is_full(self) -> bool:
        return self._count == self.capacity

    def push(self, point: np.ndarray, value: float) -> None:
        """Insert a pair, replacing the oldest on a full window.  A pair
        with a non-finite entry, which would poison every later fit,
        raises ValueError."""
        point = np.asarray(point, dtype=np.float64)
        if point.shape != (self.dim,):
            raise ValueError(f"expected point of shape ({self.dim},), got {point.shape}")
        value = float(value)
        if not (math.isfinite(value) and _all_finite(point)):
            raise ValueError(f"non-finite pair: value {value!r} at point {point!r}")
        if self._count < self.capacity:
            self._pts[self._count] = point
            self._vals[self._count] = value
            self._count += 1
            return
        idx = self._start
        # The caches read the dropped slot before it is overwritten.
        self._update_caches(self._pts[idx], float(self._vals[idx]), point, value)
        self._pts[idx] = point
        self._vals[idx] = value
        self._start = (idx + 1) % self.capacity

    # -- ordered access ------------------------------------------------

    def _ordered(self, arr):
        if self._start == 0:
            return arr[: self._count].copy()
        return np.concatenate([arr[self._start :], arr[: self._start]])

    def points(self) -> np.ndarray:
        """The stored points, oldest first, as a new array."""
        return self._ordered(self._pts)

    def values(self) -> np.ndarray:
        """The stored values, oldest first, as a new array."""
        return self._ordered(self._vals)

    def newest_point(self) -> np.ndarray:
        idx = (self._start + self._count - 1) % self.capacity
        return self._pts[idx]

    def newest_value(self) -> float:
        idx = (self._start + self._count - 1) % self.capacity
        return float(self._vals[idx])

    def oldest_point(self) -> np.ndarray:
        return self._pts[self._start]

    def spread(self) -> float:
        """Largest distance from any stored point to the newest one.

        Nothing in reszo calls it.  Kept so tools that look the method up
        by name on the class, such as span tracers, still resolve it.
        """
        diffs = self._pts[: self._count] - self.newest_point()
        np.square(diffs, out=diffs)
        return float(np.sqrt(np.max(diffs.sum(axis=1))))

    # -- caches ----------------------------------------------------------

    def _update_caches(self, drop_pt, drop_val, add_pt, add_val):
        mom = self._mom
        if mom is None:
            return
        m, d = self.capacity, self.dim
        # Window buffers: rows (w, u, -dd) of left_t, (u, w, dd) of right.
        left_t, right = self._operands
        w_vec, u_vec, neg_dd = left_t
        dd = right[2, :d]
        # The push has not yet overwritten a slot: the newest pair is
        # still the sums' center.
        c_ref, f_ref = self.newest_point(), self.newest_value()
        np.subtract(add_pt, c_ref, out=u_vec)
        np.subtract(drop_pt, c_ref, out=dd)
        phi = add_val - f_ref
        vd = drop_val - f_ref
        # Drop dd, add u, then move the center by u with the updated
        # s' = s - dd + u:  M - dd dd^T + u u^T - u s'^T - s' u^T + m u u^T
        # = M + u w^T + w u^T - dd dd^T.
        np.multiply(u_vec, 0.5 * (m - 1), out=w_vec)
        w_vec -= mom.s_vec
        w_vec += dd
        np.negative(dd, out=neg_dd)
        right[0, :d], right[1, :d] = u_vec, w_vec
        # The system is column-major: its transpose's full-width row blocks
        # are its contiguous column blocks.  Row j of a block holds column j,
        # entry i being w_j u_i + u_j w_i - dd_j dd_i: term for term the
        # products, in the same order, of the row-major update
        # u_i w_j + w_i u_j - dd_i dd_j.  The border rows get +0.0.
        # The row-block scratch is allocated here, at the first update.
        # Allocated with the system, before the build's (m, d) temporaries,
        # it raised the peak RSS of a d=900, m=910 run by one d x d block
        # (78.5 against 72.0 MB): the same arrays, placed otherwise by the
        # allocator.
        if self._scratch is None:
            rows = min(max(_BLOCK_ELEMENTS // (d + 2), 1), d)
            self._scratch = np.empty((rows, d + 2))
        left, columns, rows = left_t.T, self._system.T, len(self._scratch)
        for start in range(0, d, rows):
            block = self._scratch[: min(rows, d - start)]
            np.matmul(left[start : start + rows], right, out=block)
            columns[start : start + len(block)] += block
        # The same drop, add and move for the first moments.
        mom.p_vec += (dd - mom.s_vec) * phi - dd * vd
        mom.p_vec += u_vec * (vd - mom.f_sum + (m - 1) * phi)
        mom.s_vec -= dd + (m - 1) * u_vec
        mom.f_sum -= vd + (m - 1) * phi
        mom.mass += float(dd @ dd) + 2.0 * math.sqrt(float(u_vec @ u_vec) * float(w_vec @ w_vec))
        if mom.mass > _RECENTER_LIMIT * float(mom.m_mat.trace()):
            self._mom = None  # rebuilt from the window at the next fit

    def inverse_cache(self):
        """Always None: no fit route keeps a Gram-inverse cache.

        Kept so tools that look the method up by name on the class,
        such as span tracers, still resolve it.
        """
        return None

    def moment_cache(self) -> Optional[_MomentCache]:
        """Window sums centered at the newest point, built from the window
        on a full window that has none: at the first fit, and at the fit
        after a push whose updates outweighed the Gram (see
        ``EvaluationWindow``), as they do once the window shrinks far
        below the scale it spanned.
        """
        if not self.is_full:
            return None
        mom = self._mom
        if mom is None:
            d = self.dim
            if self._system is None:
                # Column-major, as LAPACK reads it: the factorization's
                # copy-in then runs down contiguous columns.
                self._system = np.empty((d + 2, d + 2), order="F")
                self._operands = (np.empty((3, d)), np.zeros((3, d + 2)))
            deltas = self._pts - self.newest_point()
            offsets = self._vals - self.newest_value()
            m_mat = self._system[:d, :d]
            np.matmul(deltas.T, deltas, out=m_mat)
            mom = self._mom = _MomentCache(
                m_mat,
                deltas.sum(axis=0),
                deltas.T @ offsets,
                float(offsets.sum()),
            )
        return mom


# -- system assembly -----------------------------------------------------


def _require_samples(window: EvaluationWindow):
    if len(window) < 2:
        raise NotEnoughSamplesError(
            f"window holds {len(window)} pair(s); need at least 2 to fit"
        )


def _intercept(mode: str) -> bool:
    """Whether the linear formulation ``mode`` has an intercept."""
    if mode not in REGRESSION_MODES:
        raise ValueError(f"unknown regression mode {mode!r}; expected one of {REGRESSION_MODES}")
    return mode == "intercept_centered"


def _design(window: EvaluationWindow, quadratic: bool, intercept: bool):
    """The centered (X, y), both new arrays.

    Rows are the older points minus the newest, oldest first, followed
    by their half squares when ``quadratic`` is set.  ``intercept`` adds
    the newest row, (0, ..., 0, 1) with target 0, and the ones column;
    without it the newest point's own zero difference, the last row, is
    left out.
    """
    rows = len(window) if intercept else len(window) - 1
    deltas = window.points()[:rows] - window.newest_point()
    half_squares = [0.5 * deltas * deltas] if quadratic else []
    ones = [np.ones((rows, 1))] if intercept else []
    vals = window.values()
    return np.hstack([deltas, *half_squares, *ones]), (vals - vals[-1])[:rows]


def assemble_linear_system(window: EvaluationWindow, mode: str):
    """Build (X, y) for the selected linear formulation.

    Rows are oldest first, the newest point's own row (0, ..., 0, 1)
    last in ``intercept_centered``.  The order never affects the
    solution.
    """
    _require_samples(window)
    return _design(window, False, _intercept(mode))


def assemble_quadratic_system(window: EvaluationWindow):
    """Build the (m, 2d+1) design with rows (dx, 0.5*dx*dx, 1)."""
    _require_samples(window)
    return _design(window, True, True)


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
    if not (_all_finite(x_mat) and _all_finite(y_vec)):
        raise ValueError("non-finite entries in least-squares system")
    if x_mat.shape[0] < x_mat.shape[1]:
        # A singular X X^T leaves NaN in the dual, which falls through.
        with np.errstate(invalid="ignore"):
            dual = _solve1(x_mat @ x_mat.T, y_vec)
        if np.isfinite(dual).all():
            coeffs = x_mat.T @ dual
            resid = x_mat @ coeffs - y_vec
            resid_norm = math.sqrt(resid @ resid)
            gate = _SOLVE_RTOL * math.sqrt(y_vec @ y_vec)
            if math.isfinite(coeffs @ coeffs) and resid_norm <= gate:
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


class _FitKernels:
    """The cached fit's Cholesky factorization and blocked triangular
    solve on one factor buffer: in place through ``lib``, numpy's loaded
    OpenBLAS, or, where ``lib`` is None, through the ``cholesky_lo`` and
    ``solve1`` gufuncs.

    ``upper`` is the window's (n, n) row-major factor buffer, whose
    transpose is the column-major array ``dpotrf`` factors.  ``dtrsv``
    solves each diagonal block, copied into a column-major scratch, in
    the kept solution vector of n entries.  Data pointers are read once,
    here (a ``.ctypes.data`` costs about 1 us), and the ILP64 integers
    are passed by reference from one kept array: the order, the block
    order, the block's leading dimension, the unit stride and ``info``.
    """

    __slots__ = ("upper", "lib", "_sol", "_block", "_ints", "_ptrs")

    def __init__(self, upper: np.ndarray, lib):
        n = upper.shape[0]
        self.upper, self.lib = upper, lib
        self._sol = np.empty(n)
        if lib is not None:
            block = _SUBSTITUTION_BLOCK
            self._block = np.empty((block, block), order="F")
            self._ints = (ctypes.c_int64 * 5)(n, 0, block, 1, 0)
            self._ptrs = (
                upper.ctypes.data,
                self._block.ctypes.data,
                self._sol.ctypes.data,
                ctypes.addressof(self._ints),
            )

    def factorize(self, system: np.ndarray) -> bool:
        """Factor ``system`` (n, n) into ``upper``; False, with ``upper``
        filled with NaN, when it is not positive definite.  On the
        OpenBLAS route ``upper``'s strict lower triangle keeps a copy of
        the system, which nothing reads; the gufunc zeroes it."""
        upper, lib = self.upper, self.lib
        if lib is None:
            with np.errstate(invalid="ignore"):
                _cholesky_lo(system, out=upper.T)
            return not math.isnan(upper[-1, -1])
        upper_ptr, _, _, ptr = self._ptrs
        np.copyto(upper.T, system)
        self._ints[4] = 0
        lib.dpotrf(lib.L, ptr, upper_ptr, ptr, ptr + 32, 1)
        if self._ints[4]:
            upper.fill(np.nan)  # as numpy's gufunc leaves a failed factor
            return False
        return True

    def substitute(self, upper: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve ``upper @ x = rhs`` for upper-triangular ``upper`` of at
        most n rows, bottom-up by ``_SUBSTITUTION_BLOCK``-row diagonal
        blocks in the solution vector; ``x`` is a new array.  A zero on the
        diagonal gives inf or NaN where ``np.linalg.solve`` would raise."""
        n = rhs.shape[0]
        block, lib = _SUBSTITUTION_BLOCK, self.lib
        sol = self._sol[:n]
        np.copyto(sol, rhs)
        stop = n
        for start in range((n - 1) // block * block, -1, -block):
            if stop < n:
                sol[start:stop] -= upper[start:stop, stop:] @ sol[stop:]
            if lib is None:
                _solve1(upper[start:stop, start:stop], sol[start:stop], out=sol[start:stop])
            else:
                _, block_ptr, sol_ptr, ptr = self._ptrs
                np.copyto(self._block[: stop - start, : stop - start], upper[start:stop, start:stop])
                self._ints[1] = stop - start
                lib.dtrsv(
                    lib.U, lib.N, lib.N, ptr + 8, block_ptr, ptr + 16,
                    sol_ptr + 8 * start, ptr + 24, 1, 1, 1,
                )
            stop = start
        return sol.copy()


def _back_substitute(upper: np.ndarray, rhs: np.ndarray, kernels=None) -> np.ndarray:
    """``kernels.substitute(upper, rhs)``, with new kernels when None."""
    return (kernels or _FitKernels(upper, _lapack)).substitute(upper, rhs)


def _fit_linear_cached_moments(window: EvaluationWindow, intercept: bool):
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
    k = d + 1 if intercept else d
    # The sums are centered at the newest pair, whose own difference row
    # is identically zero: full-window sums equal those over the m - 1
    # older points, and the Gram block is already in place.  The fit
    # reads no window point.
    offsets = window._vals - window.newest_value()
    # The normal matrix bordered by its right-hand side b, with a corner
    # above b^T G^-1 b = |P y|^2 <= |y|^2: its Cholesky factor is
    # [[L, 0], [z^T, *]] with L z = b, so one factorization both checks
    # G and leaves only L^T x = z to solve.
    system = window._system[: k + 1, : k + 1]
    kernels = window._kernels
    if kernels is None or kernels.upper.shape[0] != k + 1 or kernels.lib is not _lapack:
        kernels = window._kernels = _FitKernels(np.empty((k + 1, k + 1)), _lapack)
    upper = kernels.upper
    rhs = system[k, :k]
    rhs[:d] = mom.p_vec
    if intercept:
        system[d, :d] = system[:d, d] = mom.s_vec
        system[d, d] = m
        rhs[d] = mom.f_sum
    system[:k, k] = rhs  # symmetric, whichever triangle cholesky reads
    system[k, k] = 2.0 * float(offsets @ offsets) + 1.0
    # Column-major L is row-major L^T: the substitution reads row blocks.
    if not kernels.factorize(system):
        return None  # not positive definite
    pivots = upper.diagonal()[:k] ** 2
    pivots /= system.diagonal()[:k]
    if pivots.min() < _RELATIVE_PIVOT_TOL:
        return None
    sol = _back_substitute(upper[:k, :k], upper[:k, k], kernels)
    if not _all_finite(sol):
        return None
    g, c = (sol[:d], float(sol[d])) if intercept else (sol, None)
    return SurrogateFit(g, None, c, "cached_moments")


def _fit_design(window: EvaluationWindow, quadratic: bool, intercept: bool) -> SurrogateFit:
    """Minimum-norm fit of the centered design.

    The newest row is (0, ..., 0, 1) with target 0, so a window of
    m <= w + 1 points (w = d, or 2d for ``quadratic``), which the
    surrogate interpolates, has intercept exactly 0.  Its fit solves the
    reduced (m - 1, w) system without that row and the ones column,
    whose minimum-norm solution is the full system's, and returns
    c = 0.0.  Larger windows are least-squares fits on the full design.
    """
    d = window.dim
    width = 2 * d if quadratic else d
    full = intercept and len(window) > width + 1
    # The coefficients are a fresh array, so g and h are views of it.
    coeffs, _ = solve_least_squares(*_design(window, quadratic, full))
    c = float(coeffs[width]) if full else (0.0 if intercept else None)
    h = coeffs[d:width] if quadratic else None
    return SurrogateFit(coeffs[:d], h, c, "pseudoinverse")


def numeric_environment() -> dict:
    """The numbers' numeric environment: numpy's version, the LAPACK its
    build record names, the OpenBLAS thread count (None where numpy has
    not loaded OpenBLAS) and the kernels serving the cached linear fit,
    ``"lapack"`` (direct calls) or ``"gufunc"`` (numpy's gufuncs)."""
    library = _openblas.LIBRARY
    return {
        "numpy": np.__version__,
        "lapack": _openblas.lapack_name(),
        "blas_threads": None if library is None else library.threads(),
        "fit_kernels": "gufunc" if _lapack is None else "lapack",
    }


def fit_linear(window: EvaluationWindow, mode: str = "intercept_centered") -> SurrogateFit:
    """Fit the linear surrogate on the current window.

    A full window with capacity >= d + 1 is solved from the moment
    cache when its bordered Gram passes a Cholesky factorization with
    no relative pivot below ``_RELATIVE_PIVOT_TOL``.  Every other window
    is solved by minimum-norm pseudoinverse on the centered design,
    which at m <= d + 1 leaves out the intercept, so both modes return
    the same ``g`` there (c = 0.0 or None).  Rank deficiency therefore
    degrades the solver path, never raises.
    """
    _require_samples(window)
    intercept = _intercept(mode)
    # The intercept mode needs m >= d + 1 rows for a nonsingular Gram;
    # difference mode drops the newest row and needs m - 1 >= d.
    if window.is_full and window.capacity >= window.dim + 1:
        fit = _fit_linear_cached_moments(window, intercept)
        if fit is not None:
            return fit
    return _fit_design(window, False, intercept)


def fit_quadratic(window: EvaluationWindow) -> SurrogateFit:
    """Fit the quadratic surrogate (diagonal curvature) on the window.

    The minimum-norm fit of the centered design with intercept, reduced
    on windows of m <= 2d + 1 points (see ``_fit_design``): dropping the
    newest row and the ones column takes cond(X) from about 4e7 to 1e5
    on m = 110, d = 100 ridge windows.
    """
    _require_samples(window)
    return _fit_design(window, True, True)
