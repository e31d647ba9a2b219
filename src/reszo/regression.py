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

Every fit the moment cache does not serve assembles its design, and its
row-space solve writes X X^T, into buffers the window keeps.  At d of
about 100 a fit costs little more than its LAPACK and BLAS calls, so
the per-call wrappers count: both routes call numpy's LAPACK gufuncs
(``cholesky_lo``, ``solve1``, the kernels behind ``np.linalg.cholesky``
and ``np.linalg.solve``, whose bits they give) directly, and take norms
as ``math.sqrt(v @ v)``, which is what ``np.linalg.norm`` computes on
1-D and C-contiguous inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.linalg import _umath_linalg

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
# update and the quadratic design's half squares pass, so neither
# allocates a d x d or m x d temporary.
_BLOCK_ELEMENTS = 32768
# Diagonal block size of the blocked triangular solve.  Each block is an
# LU solve of O(block^3), so 32-row blocks are faster (37 against 44 us
# at n = 101, 463 against 572 us at n = 901, one BLAS thread), but they
# round differently: one zero-perturbation l_reszo trial of the grid
# test then stops diverging.  64 keeps every output bit.
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
    """Window sums centered at the newest pair ``(c_ref, f_ref)``.

    ``m_mat``, ``s_vec``, ``p_vec`` and ``f_sum`` are the sums over the
    window of (x - c)(x - c)^T, x - c, (x - c)(f - f_ref) and f - f_ref
    with c = ``c_ref``: the Gram and right-hand sides of the centered
    normal equations, with no re-centering left for a fit to do.
    Centering keeps every quantity at the window-spread scale however
    far the trajectory sits from the origin.  ``m_mat`` is a view of the
    top-left block of the window's bordered-system buffer.  ``mass``
    sums the trace of the build and the size of every term a push added
    to or cancelled from ``m_mat``: the scale its rounding error follows.
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
        self.mass = float(m_mat.trace())
        self.updates = 0


class EvaluationWindow:
    """Ring buffer of the latest ``capacity`` (point, value) pairs.

    Insertion past capacity drops the oldest pair and keeps the moment
    sums, centered at the newest point, in sync: the second moments take
    one in-place symmetric rank-3 update per insertion that drops the
    oldest point, adds the new one and moves the center to it.  The sums
    are rebuilt from scratch every ``max(d, 64)`` updates, and when the
    terms the updates cancelled outweigh the Gram, to bound
    floating-point drift.

    The window also keeps its fits' buffers, so neither a push nor a fit
    allocates a d x d, m x d or m x m temporary: the (d+2)x(d+2)
    bordered normal matrix, column-major as LAPACK reads it, whose
    top-left d x d block holds the second moments; the rank-3 update's
    (3, d) and (3, d+2) operands, which each push fills in place; the
    linear fit's (k+1)x(k+1) Cholesky factor, which LAPACK writes
    column-major so the buffer holds the upper factor L^T row-major; a
    row-block scratch (one block whenever m * (d + 2) fits it); and, for
    the fits the moment cache does not serve, the design ((m - 1, w) when
    m <= w + 1, else (m, w + 1), w being d or 2d), the contiguous (m, d)
    differences it is copied from, and the row-space Gram X X^T.
    Each is allocated on first use and reused while its shape stays the
    same; no fit returns a view of them.  The LU solve's own copy of
    X X^T is allocated inside numpy's gufunc.
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
        self._operands: Optional[tuple] = None
        self._upper: Optional[np.ndarray] = None
        self._scratch: Optional[np.ndarray] = None
        self._design: Optional[np.ndarray] = None
        self._deltas: Optional[np.ndarray] = None
        self._gram: Optional[np.ndarray] = None

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
        """Largest distance from any stored point to the newest one."""
        diffs = self._pts[: self._count] - self.newest_point()
        np.square(diffs, out=diffs)
        return float(np.sqrt(np.max(diffs.sum(axis=1))))

    # -- caches ----------------------------------------------------------

    def _row_blocks(self, n_rows: int, width: int):
        """Yield ``(start, stop, block)`` over ``n_rows`` rows in blocks
        of at most ``_BLOCK_ELEMENTS`` elements, ``block`` being a
        (stop - start, width) view of the window's row-block scratch."""
        if self._scratch is None:
            size = min(_BLOCK_ELEMENTS, self.capacity * (self.dim + 2))
            self._scratch = np.empty(max(size, self.dim + 2))
        rows = self._scratch.size // width
        for start in range(0, n_rows, rows):
            stop = min(start + rows, n_rows)
            yield start, stop, self._scratch[: (stop - start) * width].reshape(-1, width)

    def _update_caches(self, drop_pt, drop_val, add_pt, add_val):
        mom = self._mom
        if mom is None:
            return
        if mom.updates + 1 >= self._rebuild_every:
            self._mom = None  # rebuilt from the window at the next fit
            return
        m, d = self.capacity, self.dim
        # Window buffers: rows (w, u, -dd) of left_t, (u, w, dd) of right.
        left_t, right = self._operands
        w_vec, u_vec, neg_dd = left_t
        dd = right[2, :d]
        np.subtract(add_pt, mom.c_ref, out=u_vec)
        np.subtract(drop_pt, mom.c_ref, out=dd)
        phi = add_val - mom.f_ref
        vd = drop_val - mom.f_ref
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
        left, columns = left_t.T, self._system.T
        for start, stop, block in self._row_blocks(d, d + 2):
            np.matmul(left[start:stop], right, out=block)
            columns[start:stop] += block
        # The same drop, add and move for the first moments.
        mom.p_vec += (dd - mom.s_vec) * phi - dd * vd
        mom.p_vec += u_vec * (vd - mom.f_sum + (m - 1) * phi)
        mom.s_vec -= dd + (m - 1) * u_vec
        mom.f_sum -= vd + (m - 1) * phi
        mom.mass += float(dd @ dd) + 2.0 * math.sqrt(float(u_vec @ u_vec) * float(w_vec @ w_vec))
        mom.c_ref[:] = add_pt
        mom.f_ref = add_val
        mom.updates += 1

    def inverse_cache(self):
        """Always None: no fit route keeps a Gram-inverse cache.

        Kept so tools that look the method up by name on the class,
        such as span tracers, still resolve it.
        """
        return None

    def moment_cache(self) -> Optional[_MomentCache]:
        """Window sums centered at the newest point, built lazily on a
        full window.

        The sums are rebuilt from the window when the terms the updates
        added and cancelled outweigh the Gram's trace by more than
        ``_RECENTER_LIMIT``, as they do once the window shrinks far
        below the scale it spanned.
        """
        if not self.is_full:
            return None
        mom = self._mom
        if mom is not None and mom.mass > _RECENTER_LIMIT * float(mom.m_mat.trace()):
            mom = self._mom = None
        if mom is None:
            d = self.dim
            if self._system is None:
                # Column-major, as LAPACK reads it: the factorization's
                # copy-in then runs down contiguous columns.
                self._system = np.empty((d + 2, d + 2), order="F")
                self._operands = (np.empty((3, d)), np.zeros((3, d + 2)))
            c_ref = self.newest_point().copy()
            f_ref = self.newest_value()
            deltas = self._pts - c_ref
            offsets = self._vals - f_ref
            m_mat = self._system[:d, :d]
            np.matmul(deltas.T, deltas, out=m_mat)
            mom = self._mom = _MomentCache(
                c_ref,
                f_ref,
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
    """The centered (X, y), X written into the window's design buffer.

    Rows are the older points minus the newest, oldest first, followed
    by their half squares when ``quadratic`` is set.  ``intercept`` adds
    the newest row, (0, ..., 0, 1) with target 0, and the ones column.
    """
    m, d = len(window), window.dim
    width = 2 * d if quadratic else d
    rows, cols = (m, width + 1) if intercept else (m - 1, width)
    x_mat = window._design
    if x_mat is None or x_mat.shape != (rows, cols):
        x_mat = window._design = np.empty((rows, cols))
    deltas = window._deltas
    if deltas is None or deltas.shape[0] != m:
        deltas = window._deltas = np.empty((m, d))
    # Oldest row first: the ring buffer from its start, then its wrapped head.
    start = window._start
    newest = window.newest_point()
    np.subtract(window._pts[start:m], newest, out=deltas[: m - start])
    np.subtract(window._pts[:start], newest, out=deltas[m - start :])
    # The arithmetic runs on contiguous arrays, and only copies write the
    # design's column blocks: a ufunc on those strided views loops row by
    # row, and one that reads and writes blocks of the same buffer copies
    # its input first.  The newest point's own zero difference is the
    # last row, which a design without intercept leaves out.
    x_mat[:, :d] = deltas[:rows]
    if quadratic:
        half_squares = x_mat[:, d:width]
        for start, stop, block in window._row_blocks(rows, d):
            np.multiply(deltas[start:stop], 0.5, out=block)
            block *= deltas[start:stop]
            half_squares[start:stop] = block
    if intercept:
        x_mat[:, width] = 1.0
    vals = window.values()
    return x_mat, (vals - vals[-1])[:rows]


def assemble_linear_system(window: EvaluationWindow, mode: str):
    """Build (X, y) for the selected linear formulation.

    Rows are oldest first, the newest point's own row (0, ..., 0, 1)
    last in ``intercept_centered``.  The order never affects the
    solution.
    """
    _require_samples(window)
    x_mat, y_vec = _design(window, False, _intercept(mode))
    return x_mat.copy(), y_vec


def assemble_quadratic_system(window: EvaluationWindow):
    """Build the (m, 2d+1) design with rows (dx, 0.5*dx*dx, 1)."""
    _require_samples(window)
    x_mat, y_vec = _design(window, True, True)
    return x_mat.copy(), y_vec


# -- solvers ---------------------------------------------------------------


def solve_least_squares(
    x_mat: np.ndarray, y_vec: np.ndarray, gram_out: Optional[np.ndarray] = None
):
    """Minimum-norm least-squares solve; returns (coeffs, residual_norm).

    Underdetermined systems with full row rank are solved through the
    row space (X^T (X X^T)^-1 y), which is the min-norm solution at a
    fraction of the SVD cost; anything questionable falls back to
    numpy's lstsq.  ``gram_out``, an (m, m) float64 C-contiguous array,
    receives X X^T in place of a new array; it changes no result.
    """
    x_mat = np.asarray(x_mat, dtype=np.float64)
    y_vec = np.asarray(y_vec, dtype=np.float64)
    if x_mat.ndim != 2 or y_vec.shape != (x_mat.shape[0],):
        raise ValueError("shape mismatch between design matrix and targets")
    if not (_all_finite(x_mat) and _all_finite(y_vec)):
        raise ValueError("non-finite entries in least-squares system")
    rows, cols = x_mat.shape
    if rows < cols:
        w_mat = np.matmul(x_mat, x_mat.T, out=gram_out)
        # A singular X X^T leaves NaN in the dual, which falls through.
        with np.errstate(invalid="ignore"):
            dual = _solve1(w_mat, y_vec)
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


def _back_substitute(upper: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``upper @ x = rhs`` for upper-triangular ``upper`` in O(n^2).

    numpy has no triangular solve, so the system is cut into diagonal
    blocks of ``_SUBSTITUTION_BLOCK`` rows solved bottom-up: one
    GEMV folds the solved tail into each block's right-hand side, and
    the ``solve1`` gufunc, called directly, finishes the small
    triangular block in place (its partial pivoting never swaps rows of
    a nonsingular triangle).  A zero on the diagonal gives NaN, with
    numpy's invalid warning, where ``np.linalg.solve`` would raise.
    """
    n = rhs.shape[0]
    x = np.empty(n)
    block = _SUBSTITUTION_BLOCK
    start = (n - 1) // block * block
    # The bottom block has no solved tail to fold in.
    _solve1(upper[start:, start:], rhs[start:], out=x[start:])
    for start in range(start - block, -1, -block):
        stop = start + block
        part = rhs[start:stop] - upper[start:stop, stop:] @ x[stop:]
        _solve1(upper[start:stop, start:stop], part, out=x[start:stop])
    return x


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
    offsets = window._vals - mom.f_ref
    # The normal matrix bordered by its right-hand side b, with a corner
    # above b^T G^-1 b = |P y|^2 <= |y|^2: its Cholesky factor is
    # [[L, 0], [z^T, *]] with L z = b, so one factorization both checks
    # G and leaves only L^T x = z to solve.
    system = window._system[: k + 1, : k + 1]
    upper = window._upper
    if upper is None or upper.shape[0] != k + 1:
        upper = window._upper = np.empty((k + 1, k + 1))
    rhs = system[k, :k]
    rhs[:d] = mom.p_vec
    if intercept:
        system[d, :d] = system[:d, d] = mom.s_vec
        system[d, d] = m
        rhs[d] = mom.f_sum
    system[:k, k] = rhs  # symmetric, whichever triangle cholesky reads
    system[k, k] = 2.0 * float(offsets @ offsets) + 1.0
    # Column-major L is row-major L^T: the substitution reads row blocks.
    with np.errstate(invalid="ignore"):
        _cholesky_lo(system, out=upper.T)
    if math.isnan(upper[k, k]):
        return None  # not positive definite
    pivots = upper.diagonal()[:k] ** 2
    pivots /= system.diagonal()[:k]
    if pivots.min() < _RELATIVE_PIVOT_TOL:
        return None
    sol = _back_substitute(upper[:k, :k], upper[:k, k])
    if not _all_finite(sol):
        return None
    g, c = (sol[:d], float(sol[d])) if intercept else (sol, None)
    return SurrogateFit(g, None, c, "cached_moments")


def _fit_design(window: EvaluationWindow, quadratic: bool, intercept: bool) -> SurrogateFit:
    """Minimum-norm fit of the centered design, in the window's buffers.

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
    x_mat, y_vec = _design(window, quadratic, full)
    rows, gram = x_mat.shape[0], None
    if rows < x_mat.shape[1]:  # underdetermined: the row-space route needs X X^T
        gram = window._gram
        if gram is None or gram.shape[0] != rows:
            gram = window._gram = np.empty((rows, rows))
    # The coefficients are a fresh array, so g and h are views of it.
    coeffs, _ = solve_least_squares(x_mat, y_vec, gram)
    c = float(coeffs[width]) if full else (0.0 if intercept else None)
    h = coeffs[d:width] if quadratic else None
    return SurrogateFit(coeffs[:d], h, c, "pseudoinverse")


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
