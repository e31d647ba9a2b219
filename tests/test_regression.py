import contextlib
import ctypes
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reszo import (
    EvaluationWindow,
    NotEnoughSamplesError,
    SingularUpdateError,
    assemble_linear_system,
    assemble_quadratic_system,
    fit_linear,
    fit_quadratic,
    make_rng,
    rank1_swap_inverse,
    solve_least_squares,
)
from reszo import _openblas, regression
from reszo.regression import REGRESSION_MODES, _back_substitute, estimate_condition_number

NO_OPENBLAS = "numpy has not loaded a bundled ILP64 OpenBLAS, so only the gufunc route exists"


@contextlib.contextmanager
def cached_route(name):
    """Serve cached linear fits through numpy's gufuncs (``"gufunc"``) or
    through direct calls into numpy's OpenBLAS (``"lapack"``); the latter
    skips the test where numpy has not loaded one."""
    if name == "lapack" and _openblas.LIBRARY is None:
        pytest.skip(NO_OPENBLAS)
    with mock.patch.object(regression, "_lapack", None if name == "gufunc" else _openblas.LIBRARY):
        yield


def window_from(points, values, capacity=None, dim=None):
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[0] == 1 and np.ndim(points) == 2 and points.shape[1] != 1:
        points = points.T
    dim = dim or points.shape[1]
    win = EvaluationWindow(capacity or len(values), dim)
    for p, v in zip(points, values):
        win.push(np.atleast_1d(p), v)
    return win


def svd_pinv_solve(x_mat, y_vec):
    """Normal-equations solve with an explicit SVD pseudoinverse."""
    gram = x_mat.T @ x_mat
    u, s, vt = np.linalg.svd(gram)
    cutoff = max(gram.shape) * np.finfo(float).eps * (s[0] if s.size else 0.0)
    s_inv = np.where(s > cutoff, 1.0 / np.where(s > cutoff, s, 1.0), 0.0)
    return vt.T @ (s_inv * (u.T @ (x_mat.T @ y_vec)))


def fit_coeffs(fit):
    """A fit's coefficients in the column order of its assembled system."""
    if fit.h is not None:
        return np.concatenate([fit.g, fit.h, [fit.c]])
    return fit.g if fit.c is None else np.append(fit.g, fit.c)


def residual_norm(fit, x_mat, y_vec):
    """|X beta - y| for the fit's coefficients beta on its assembled system."""
    return float(np.linalg.norm(x_mat @ fit_coeffs(fit) - y_vec))


def reference_fit(win, mode):
    """(g, c, residual_norm) from the pseudoinverse solve of the assembled system."""
    coeffs, resid_norm = solve_least_squares(*assemble_linear_system(win, mode))
    if mode == "difference_no_intercept":
        return coeffs, None, resid_norm
    return coeffs[:-1], float(coeffs[-1]), resid_norm


class TestWindow:
    def test_capacity_drops_oldest(self):
        win = EvaluationWindow(3, 1)
        for k in range(5):
            win.push(np.array([float(k)]), float(k))
        np.testing.assert_array_equal(win.points().ravel(), [2.0, 3.0, 4.0])
        np.testing.assert_array_equal(win.values(), [2.0, 3.0, 4.0])
        assert win.newest_value() == 4.0
        assert win.oldest_point()[0] == 2.0

    def test_dimension_checked(self):
        win = EvaluationWindow(2, 2)
        with pytest.raises(ValueError):
            win.push(np.zeros(3), 0.0)

    def test_push_rejects_non_finite_pair(self):
        # A NaN or infinite point entry or value would poison the moment
        # sums; the push names the pair and leaves the window as it was.
        d, m = 3, 6
        win = full_window(d, m, 30)
        before = {mode: fit_linear(win, mode) for mode in REGRESSION_MODES}
        points, values = win.points(), win.values()
        bad_pairs = [
            (np.array([0.1, np.nan, 0.2]), 1.0),
            (np.array([0.1, -np.inf, 0.2]), 1.0),
            (np.ones(d), float("nan")),
            (np.ones(d), float("inf")),
        ]
        for point, value in bad_pairs:
            with pytest.raises(ValueError, match="non-finite pair"):
                win.push(point, value)
        np.testing.assert_array_equal(win.points(), points)
        np.testing.assert_array_equal(win.values(), values)
        for mode, fit in before.items():
            again = fit_linear(win, mode)
            assert again.solver_path == "cached_moments"
            assert np.array_equal(again.g.view(np.uint64), fit.g.view(np.uint64))

    def test_spread(self):
        win = window_from([[0.0], [3.0], [1.0]], [0, 0, 0])
        assert win.spread() == pytest.approx(2.0)


class TestAssembly:
    def setup_method(self):
        self.win = window_from([[0.0], [1.0], [2.0]], [0.0, 1.0, 2.0])

    def test_intercept_centered_rows(self):
        x_mat, y_vec = assemble_linear_system(self.win, "intercept_centered")
        np.testing.assert_array_equal(x_mat, [[-2.0, 1.0], [-1.0, 1.0], [0.0, 1.0]])
        np.testing.assert_array_equal(y_vec, [-2.0, -1.0, 0.0])

    def test_difference_rows(self):
        x_mat, y_vec = assemble_linear_system(self.win, "difference_no_intercept")
        np.testing.assert_array_equal(x_mat, [[-2.0], [-1.0]])
        np.testing.assert_array_equal(y_vec, [-2.0, -1.0])

    def test_underfilled_window_rejected(self):
        win = EvaluationWindow(4, 1)
        win.push(np.zeros(1), 0.0)
        with pytest.raises(NotEnoughSamplesError):
            assemble_linear_system(win, "intercept_centered")
        with pytest.raises(NotEnoughSamplesError):
            assemble_quadratic_system(win)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            assemble_linear_system(self.win, "nonsense")

    def test_quadratic_row_d1(self):
        x_mat, y_vec = assemble_quadratic_system(self.win)
        np.testing.assert_array_equal(x_mat[0], [-2.0, 2.0, 1.0])

    def test_quadratic_row_d2(self):
        win = window_from([[1.0, -1.0], [0.0, 0.0]], [0.0, 0.0])
        x_mat, _ = assemble_quadratic_system(win)
        np.testing.assert_array_equal(x_mat[0], [1.0, -1.0, 0.5, 0.5, 1.0])

    def test_quadratic_design_matches_plain_formula(self):
        # Partial windows and a full window at every offset of its ring
        # start give the plain formula's matrix bit for bit, in an array
        # of the caller's own.  Scales down to 1e-160 put half squares in
        # the subnormal range, where 0.5 * dx * dx and 0.5 * (dx * dx) can
        # differ.
        d, m = 5, 7
        rng = make_rng(36)
        offsets = set()
        win = EvaluationWindow(m, d)
        for i in range(2 * m + 3):
            p = rng.standard_normal(d) * 10.0 ** rng.integers(-160, 3)
            win.push(p, float(np.sin(p).sum()))
            if len(win) < 2:
                continue
            offsets.add(win._start)
            pts, vals = win.points(), win.values()
            deltas = pts - pts[-1]
            ref = np.hstack([deltas, 0.5 * deltas * deltas, np.ones((len(pts), 1))])
            x_mat, y_vec = assemble_quadratic_system(win)
            assert np.array_equal(x_mat.view(np.uint64), ref.view(np.uint64)), i
            np.testing.assert_array_equal(y_vec, vals - vals[-1])
            assert not np.shares_memory(x_mat, win._pts)
            linear = {
                "intercept_centered": (
                    np.hstack([deltas, np.ones((len(pts), 1))]), vals - vals[-1]
                ),
                "difference_no_intercept": (deltas[:-1], (vals - vals[-1])[:-1]),
            }
            for mode in REGRESSION_MODES:
                x_mat, y_vec = assemble_linear_system(win, mode)
                x_ref, y_ref = linear[mode]
                assert np.array_equal(x_mat.view(np.uint64), x_ref.view(np.uint64)), i
                np.testing.assert_array_equal(y_vec, y_ref)
                assert not np.shares_memory(x_mat, win._pts)
        assert offsets == set(range(m))

    def test_quadratic_recovers_parabola(self):
        xs = np.array([-1.0, 0.5, 1.5, 2.0])
        win = window_from(xs.reshape(-1, 1), xs**2)
        fit = fit_quadratic(win)
        newest = xs[-1]
        assert fit.g[0] == pytest.approx(2.0 * newest, abs=1e-8)
        assert fit.h[0] == pytest.approx(2.0, abs=1e-8)
        assert residual_norm(fit, *assemble_quadratic_system(win)) <= 1e-8


class TestSolveLeastSquares:
    def test_identity(self):
        coeffs, resid = solve_least_squares(np.eye(2), np.array([3.0, 4.0]))
        np.testing.assert_allclose(coeffs, [3.0, 4.0])
        assert resid == 0.0

    def test_rank_deficient_min_norm(self):
        coeffs, resid = solve_least_squares(
            np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([1.0, 1.0])
        )
        np.testing.assert_allclose(coeffs, [1.0, 0.0], atol=1e-12)
        assert resid <= 1e-12

    def test_overdetermined_matches_svd_oracle(self):
        rng = make_rng(3)
        x_mat = rng.standard_normal((8, 5))
        y_vec = rng.standard_normal(8)
        coeffs, _ = solve_least_squares(x_mat, y_vec)
        oracle = svd_pinv_solve(x_mat, y_vec)
        assert np.max(np.abs(coeffs - oracle)) <= 1e-8

    def test_underdetermined_matches_pinv(self):
        rng = make_rng(4)
        x_mat = rng.standard_normal((5, 9))
        y_vec = rng.standard_normal(5)
        coeffs, resid = solve_least_squares(x_mat, y_vec)
        oracle = np.linalg.pinv(x_mat) @ y_vec
        assert np.max(np.abs(coeffs - oracle)) <= 1e-8
        assert resid <= 1e-9

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            solve_least_squares(np.array([[np.inf, 0.0]]), np.array([1.0]))

    def test_deterministic(self):
        rng = make_rng(5)
        x_mat = rng.standard_normal((6, 6))
        y_vec = rng.standard_normal(6)
        a = solve_least_squares(x_mat, y_vec)
        b = solve_least_squares(x_mat.copy(), y_vec.copy())
        assert np.array_equal(a[0], b[0]) and a[1] == b[1]


class TestRank1Swap:
    def _gram_inverse(self, rows):
        return np.linalg.inv(rows.T @ rows)

    def test_drop_then_readd_is_identity(self):
        rng = make_rng(21)
        rows = rng.standard_normal((12, 6))
        a_inv = self._gram_inverse(rows)
        out = rank1_swap_inverse(a_inv, rows[3], rows[3])
        assert np.max(np.abs(out - a_inv)) <= 1e-10

    def test_fifty_random_swaps_track_direct_inverse(self):
        rng = make_rng(22)
        d = 8
        rows = list(rng.standard_normal((12, d)))
        a_inv = self._gram_inverse(np.array(rows))
        for _ in range(50):
            new_row = rng.standard_normal(d)
            a_inv = rank1_swap_inverse(a_inv, rows[0], new_row)
            rows = rows[1:] + [new_row]
            direct = self._gram_inverse(np.array(rows))
            assert np.max(np.abs(a_inv - direct)) <= 1e-6

    def test_singular_drop_raises_not_nan(self):
        rng = make_rng(23)
        rows = rng.standard_normal((4, 4))  # exactly determined Gram
        a_inv = self._gram_inverse(rows)
        with pytest.raises(SingularUpdateError):
            rank1_swap_inverse(a_inv, rows[0], rng.standard_normal(4))


def affine_window(a, b, points):
    values = [float(a @ p + b) for p in points]
    return window_from(points, values, dim=len(a))


class TestFitLinear:
    def test_affine_exact(self):
        rng = make_rng(31)
        d = 4
        a = rng.standard_normal(d)
        pts = rng.standard_normal((d + 2, d))
        win = affine_window(a, 1.5, pts)
        for mode in REGRESSION_MODES:
            g, _, resid_norm = reference_fit(win, mode)
            assert np.max(np.abs(g - a)) <= 1e-8
            assert resid_norm <= 1e-8
        # The centered intercept is the surrogate's value at the newest
        # point minus its observed value: 0 on an affine function.
        _, c, _ = reference_fit(win, "intercept_centered")
        assert c == pytest.approx(0.0, abs=1e-8)

    def test_underdetermined_min_norm_gradient(self):
        # Points differ along (1, 0) only; the unexplored coordinate
        # gets a zero coefficient.
        p0 = np.array([0.3, 0.7])
        p1 = p0 + np.array([0.5, 0.0])
        f = lambda p: p[0] + p[1]
        win = window_from([p0, p1], [f(p0), f(p1)], dim=2)
        g, _, _ = reference_fit(win, "intercept_centered")
        np.testing.assert_allclose(g, [1.0, 0.0], atol=1e-8)

    def test_fast_path_matches_pseudoinverse(self):
        rng = make_rng(33)
        d, m = 5, 12
        win = EvaluationWindow(m, d)
        f = lambda p: float(np.sin(p).sum() + p @ p)
        for _ in range(m + 6):
            p = rng.standard_normal(d)
            win.push(p, f(p))
        for mode in REGRESSION_MODES:
            fast = fit_linear(win, mode)
            g, c, resid_norm = reference_fit(win, mode)
            assert fast.solver_path == "cached_moments"
            assert np.max(np.abs(fast.g - g)) <= 1e-6
            if fast.c is not None:
                assert fast.c == pytest.approx(c, abs=1e-6)
            resid = residual_norm(fast, *assemble_linear_system(win, mode))
            assert resid == pytest.approx(resid_norm, abs=1e-8)

    def test_rank_deficiency_falls_back_silently(self):
        # All points identical: every Gram is singular.
        win = window_from(np.zeros((4, 2)), np.zeros(4), dim=2)
        fit = fit_linear(win, "intercept_centered")
        assert fit.solver_path == "pseudoinverse"
        np.testing.assert_allclose(fit.g, np.zeros(2), atol=1e-12)

    def test_shift_invariance(self):
        rng = make_rng(34)
        d = 3
        pts = rng.standard_normal((7, d))
        vals = rng.standard_normal(7)
        for mode in REGRESSION_MODES:
            g, c, _ = reference_fit(window_from(pts, vals, dim=d), mode)
            g_shift, c_shift, _ = reference_fit(window_from(pts, vals + 100.0, dim=d), mode)
            assert np.max(np.abs(g - g_shift)) <= 1e-9
            if c is not None:
                assert c_shift == pytest.approx(c, abs=1e-9)

    def test_residual_norm_matches_assembled_system(self):
        rng = make_rng(35)
        d, m = 4, 9
        win = EvaluationWindow(m, d)
        f = lambda p: float(np.cos(p).sum())
        for _ in range(m + 3):
            p = rng.standard_normal(d)
            win.push(p, f(p))
        for mode in REGRESSION_MODES:
            fit = fit_linear(win, mode)
            _, _, ref_resid = reference_fit(win, mode)
            direct = residual_norm(fit, *assemble_linear_system(win, mode))
            assert direct == pytest.approx(ref_resid, abs=1e-8)


def adversarial_stream(rng, d, n, phase_len=40):
    """Points in phases of ``phase_len`` pushes: near the origin, a tight
    cluster at |x| = 1e4 with spread 1e-3, the same cluster with every
    point pushed twice, then back near the origin."""
    far = np.full(d, 1e4 / np.sqrt(d))
    pushed = 0
    while pushed < n:
        phase = (pushed // phase_len) % 4
        if phase in (0, 3):
            p = rng.standard_normal(d)
        else:
            p = far + 1e-3 * rng.standard_normal(d)
        for _ in range(2 if phase == 2 else 1):
            yield p.copy()
            pushed += 1


def lstsq_with_bound(x_mat, y_vec, factor=1e3):
    """lstsq reference and the normal-equations error bound
    factor * eps * kappa^2 * (|coeffs| + |y| / sigma_max), kappa = cond(X);
    the bound is inf where X is rank deficient."""
    ref, _, _, sv = np.linalg.lstsq(x_mat, y_vec, rcond=None)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        kappa = sv[0] / sv[-1]
        tol = factor * np.finfo(float).eps * kappa**2 * (
            np.linalg.norm(ref) + np.linalg.norm(y_vec) / sv[0]
        )
    return ref, tol, sv


def test_cached_route_matches_lstsq_on_adversarial_windows():
    # Every fit, whichever route serves it, must agree with lstsq on the
    # assembled system up to the normal-equations error bound.  The
    # factor allows for re-centering the moment sums and for dimension.
    # Windows of capacity < d + 1 take the pseudoinverse route; the rest
    # take the moment cache, which the mass rule rebuilds once the window
    # has shrunk into the tight cluster.  The quadratic design has 2d + 1
    # columns, so the same windows solve it through the row space
    # (capacity < 2d + 1) and through lstsq.
    routes = set()
    quad_underdetermined = set()
    cached, rebuilt = set(), set()
    for d, capacity in [(2, 3), (3, 6), (4, 4), (5, 12), (130, 140)]:
        rng = make_rng(60 + d)
        a = rng.standard_normal(d)
        win = EvaluationWindow(capacity, d)
        if capacity >= d + 1:
            cached.add((d, capacity))
        # Phases outlast the window, so some full windows lie in one phase,
        # and one cycle of the four phases takes every window into the
        # cluster and back.
        phase_len = max(40, capacity + 20)
        for p in adversarial_stream(rng, d, 4 * phase_len, phase_len):
            had_sums = win._mom is not None
            win.push(p, float(a @ p + 0.1 * np.sin(p).sum()))
            if had_sums and win._mom is None:
                rebuilt.add((d, capacity))  # the mass rule dropped the sums
            if len(win) < 2:
                continue
            for mode in REGRESSION_MODES:
                fit = fit_linear(win, mode)
                routes.add((mode, fit.solver_path))
                x_mat, y_vec = assemble_linear_system(win, mode)
                ref, tol, sv = lstsq_with_bound(x_mat, y_vec)
                if not np.isfinite(tol):
                    continue  # rank deficient: every bound is vacuous
                ref_resid = float(np.linalg.norm(x_mat @ ref - y_vec))
                if mode == "difference_no_intercept":
                    assert fit.c is None
                    ref_g = ref
                else:
                    ref_g = ref[:-1]
                    assert abs(fit.c - ref[-1]) <= tol, (d, capacity, mode)
                assert np.max(np.abs(fit.g - ref_g)) <= tol, (d, capacity, mode)
                assert abs(residual_norm(fit, x_mat, y_vec) - ref_resid) <= sv[0] * tol
            quad = fit_quadratic(win)
            x_mat, y_vec = assemble_quadratic_system(win)
            ref, tol, _ = lstsq_with_bound(x_mat, y_vec)
            if not np.isfinite(tol):
                continue
            quad_underdetermined.add(x_mat.shape[0] < x_mat.shape[1])
            assert np.max(np.abs(quad.g - ref[:d])) <= tol, (d, capacity, "quadratic g")
            assert np.max(np.abs(quad.h - ref[d : 2 * d])) <= tol, (d, capacity, "quadratic h")
            assert abs(quad.c - ref[2 * d]) <= tol, (d, capacity, "quadratic c")
    for mode in REGRESSION_MODES:
        assert {(mode, "cached_moments"), (mode, "pseudoinverse")} <= routes
    assert quad_underdetermined == {True, False}
    assert rebuilt == cached


@pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 63, 64, 65, 101, 129, 901, 902])
def test_back_substitute_matches_solve(n):
    # Sizes on both sides of the 64-row block boundaries, blocks of one to
    # 33 rows, and the bordered sizes of the d=100 and d=900 fits.  Both
    # routes agree with np.linalg.solve, and with each other bit for bit.
    rng = make_rng(80 + n)
    upper = np.triu(rng.standard_normal((n, n))) / np.sqrt(n)
    upper[np.diag_indices(n)] = 1.0 + rng.random(n)
    rhs = rng.standard_normal(n)
    ref = np.linalg.solve(upper, rhs)
    solved = {}
    for route in ("gufunc", "lapack"):
        with cached_route(route):
            x = solved[route] = _back_substitute(upper, rhs)
        assert np.max(np.abs(x - ref)) <= 1e-10 * (1.0 + np.max(np.abs(ref))), route
        assert np.array_equal(x.view(np.uint64), solved["gufunc"].view(np.uint64)), route


@pytest.mark.parametrize("shape", [(1,), (7,), (101,), (1000,), (3, 4), (110, 110), (33, 201)])
def test_dot_norm_matches_numpy_norm_bitwise(shape):
    # The fits, sampler and driver take norms as math.sqrt(v @ v), over
    # the flattened array for a matrix; np.linalg.norm computes the same
    # sqrt(x.dot(x)) on 1-D and C-contiguous inputs.
    rng = make_rng(45)
    for scale in (1e-200, 1e-3, 1.0, 1e150):
        v = rng.standard_normal(shape) * scale
        flat = v.reshape(-1)
        ours = math.sqrt(flat @ flat)
        assert np.float64(ours).view(np.uint64) == np.float64(np.linalg.norm(v)).view(np.uint64)


def full_window(d, m, seed):
    rng = make_rng(seed)
    win = EvaluationWindow(m, d)
    for _ in range(m + 5):
        p = rng.standard_normal(d)
        win.push(p, float(np.sin(p).sum()))
    return win


class CountingOpenBLAS:
    """Forwards to numpy's OpenBLAS, recording the order of every dpotrf
    and dtrsv call."""

    def __init__(self, factored, solved):
        lib = _openblas.LIBRARY
        self.L, self.U, self.N = lib.L, lib.U, lib.N
        self._lib, self._factored, self._solved = lib, factored, solved

    def dpotrf(self, uplo, n, *rest):
        self._factored.append(ctypes.c_int64.from_address(n).value)
        self._lib.dpotrf(uplo, n, *rest)

    def dtrsv(self, uplo, trans, diag, n, *rest):
        self._solved.append(ctypes.c_int64.from_address(n).value)
        self._lib.dtrsv(uplo, trans, diag, n, *rest)


def test_cached_fit_factorizes_once(monkeypatch):
    # One Cholesky factorization of the (k+1)-square bordered system per
    # fit, never through np.linalg.cholesky, and only diagonal blocks of
    # the triangular solve, together its k rows, reach a triangular
    # kernel: the cholesky_lo and solve1 gufuncs on one route, OpenBLAS's
    # dpotrf and dtrsv, with neither gufunc, on the other.
    d = 130
    win = full_window(d, 140, 81)
    cholesky_lo, solve1 = regression._cholesky_lo, regression._solve1
    factored, solved = [], []

    def counting_cholesky_lo(a, out):
        # The bordered system is column-major, so LAPACK's copy-in reads
        # contiguous columns: the whole buffer with an intercept, its
        # leading (d+1)-square block in difference mode.
        assert a.strides[0] == a.itemsize, a.strides
        factored.append(a.shape[0])
        return cholesky_lo(a, out=out)

    def sized_solve1(a, b, out=None):
        solved.append(a.shape[0])
        return solve1(a, b, out=out)

    def refused(*args, **kwargs):
        raise AssertionError("the cached fit called a kernel its route must not use")

    monkeypatch.setattr(np.linalg, "cholesky", refused)
    for route in ("gufunc", "lapack"):
        with contextlib.ExitStack() as stack:
            stack.enter_context(cached_route(route))
            if route == "gufunc":
                kernels = {"_cholesky_lo": counting_cholesky_lo, "_solve1": sized_solve1}
            else:
                kernels = {
                    "_lapack": CountingOpenBLAS(factored, solved),
                    "_cholesky_lo": refused,
                    "_solve1": refused,
                }
            for name, kernel in kernels.items():
                stack.enter_context(mock.patch.object(regression, name, kernel))
            for mode, k in (("intercept_centered", d + 1), ("difference_no_intercept", d)):
                factored.clear()
                solved.clear()
                fit = fit_linear(win, mode)
                assert fit.solver_path == "cached_moments"
                assert win._system.flags.f_contiguous
                assert factored == [k + 1], (route, mode)
                assert max(solved) <= regression._SUBSTITUTION_BLOCK, (route, mode)
                assert sum(solved) == k, (route, mode)


@pytest.mark.filterwarnings("error")
def test_cached_factor_matches_numpy_cholesky_bitwise():
    # Both routes keep np.linalg.cholesky's factor: the upper triangle of
    # the window's row-major buffer holds exactly the transposed factor of
    # the (k+1)x(k+1) block of the bordered system the fit factored.  The
    # gufunc route zeroes the strict lower triangle, which its solve1
    # reads.  The direct route leaves it unzeroed and never reads it: NaN
    # written there before the substitution leaves g and c bit-identical.
    d = 130
    win = full_window(d, 140, 84)
    substitute = regression._back_substitute

    def poisoned(upper, rhs, kernels=None):
        full = win._kernels.upper
        full[np.tril_indices(full.shape[0], -1)] = np.nan
        return substitute(upper, rhs, kernels)

    for route in ("gufunc", "lapack"):
        with cached_route(route):
            for mode, k in (("intercept_centered", d + 1), ("difference_no_intercept", d)):
                fit = fit_linear(win, mode)
                assert fit.solver_path == "cached_moments"
                ref = np.linalg.cholesky(win._system[: k + 1, : k + 1]).T
                assert win._kernels.upper.shape == ref.shape, (route, mode)
                upper_part = np.triu_indices(k + 1)
                assert np.array_equal(
                    win._kernels.upper[upper_part].view(np.uint64), ref[upper_part].view(np.uint64)
                ), (route, mode)
                if route == "gufunc":
                    assert not np.tril(win._kernels.upper, -1).any(), mode
                    continue
                with mock.patch.object(regression, "_back_substitute", poisoned):
                    again = fit_linear(win, mode)
                assert np.isnan(win._kernels.upper[k, 0])
                assert again.solver_path == "cached_moments"
                assert np.array_equal(again.g.view(np.uint64), fit.g.view(np.uint64)), mode
                assert (again.c is None) == (fit.c is None)
                if fit.c is not None:
                    assert np.float64(again.c).view(np.uint64) == np.float64(fit.c).view(np.uint64)


def test_openblas_lookup_follows_numpy_build_record(monkeypatch):
    # The library is used only where numpy's build record names its bundled
    # ILP64 OpenBLAS, never where it names another LAPACK or a 32-bit
    # integer build: the fits then keep to numpy's gufuncs.
    record = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
    if _openblas.LIBRARY is not None:
        assert record["name"] == "scipy-openblas"
        assert "USE64BITINT" in record["openblas configuration"]
        assert regression._lapack is _openblas.LIBRARY
        assert _openblas.LIBRARY.threads() >= 1
    others = ({"name": "openblas"}, {"name": "scipy-openblas", "openblas configuration": ""}, {})
    for other in others:
        monkeypatch.setattr(_openblas, "_lapack_record", lambda: other)
        assert _openblas._load() is None


def parity_windows(d):
    """Full adversarial windows at dimension d, keyed by name: a cluster
    far from the origin, a tiny spread, every point pushed twice, and the
    smallest capacity with a cached route, m = d + 1.  Each yields the
    window after its last push and after one more."""
    rng = make_rng(90 + d)
    a = rng.standard_normal(d)
    m = d + 10
    center = rng.standard_normal(d)
    streams = {
        "far_cluster": (m, 1e6 / np.sqrt(d) + rng.standard_normal((m + 6, d))),
        "tiny_spread": (m, center + 1e-7 * rng.standard_normal((m + 6, d))),
        "duplicates": (m, np.repeat(rng.standard_normal((m // 2 + 3, d)), 2, axis=0)),
        "m_eq_d_plus_1": (d + 1, rng.standard_normal((d + 7, d))),
    }
    for name, (capacity, points) in streams.items():
        win = EvaluationWindow(capacity, d)
        for i, p in enumerate(points):
            win.push(p, float(a @ p + 0.1 * np.sin(p).sum()))
            if i >= len(points) - 2:
                yield name, win


@pytest.mark.parametrize("d", [5, 100, 130, 900])
def test_cached_routes_agree_bitwise_on_adversarial_windows(d):
    # The direct OpenBLAS calls and numpy's gufuncs give the same fit, bit
    # for bit, in both modes, wherever the window sits: g, c and the solver
    # path, including windows whose factorization or pivot gate fails.
    paths = set()
    for name, win in parity_windows(d):
        for mode in REGRESSION_MODES:
            fits = {}
            for route in ("gufunc", "lapack"):
                with cached_route(route):
                    fits[route] = fit_linear(win, mode)
            ours, ref = fits["lapack"], fits["gufunc"]
            paths.add(ref.solver_path)
            assert ours.solver_path == ref.solver_path, (name, mode)
            assert np.array_equal(ours.g.view(np.uint64), ref.g.view(np.uint64)), (name, mode)
            assert (ours.c is None) == (ref.c is None), (name, mode)
            if ref.c is not None:
                assert np.float64(ours.c).view(np.uint64) == np.float64(ref.c).view(np.uint64)
    assert "cached_moments" in paths


@pytest.mark.filterwarnings("error")
def test_failed_factorization_takes_pseudoinverse_silently():
    # A window of one repeated point has a zero Gram: the factorization
    # fails, leaves NaN in the factor buffer and warns nothing.
    d, m = 4, 8
    p = make_rng(85).standard_normal(d)
    win = EvaluationWindow(m, d)
    for _ in range(m + 2):
        win.push(p, 1.5)
    for mode in REGRESSION_MODES:
        fit = fit_linear(win, mode)
        assert fit.solver_path == "pseudoinverse", mode
        assert np.all(np.isnan(win._kernels.upper)), mode
        assert np.all(np.isfinite(fit.g)), mode


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mode", REGRESSION_MODES + ("quadratic",))
def test_fits_do_not_alias_window_buffers(mode):
    # Fit, push, fit again: the first fit's coefficients are unchanged.
    d, m = 30, 40
    rng = make_rng(86)
    win = full_window(d, m, 86)
    if mode == "quadratic":
        fit, path = fit_quadratic, "pseudoinverse"
    else:
        fit, path = (lambda w: fit_linear(w, mode)), "cached_moments"
    first = fit(win)
    kept = [v.copy() for v in (first.g, first.h) if v is not None]
    p = rng.standard_normal(d)
    win.push(p, float(np.sin(p).sum()))
    second = fit(win)
    assert first.solver_path == second.solver_path == path
    for before, now in zip(kept, (first.g, first.h)):
        np.testing.assert_array_equal(now, before)
    assert not np.array_equal(second.g, kept[0])


def test_cached_fit_reads_no_window_point():
    # A cached fit is the bordered factorization and one substitution on
    # the moment sums: with every stored point overwritten by NaN it
    # returns the same g and c, bit for bit.
    win = full_window(40, 50, 85)
    before = {mode: fit_linear(win, mode) for mode in REGRESSION_MODES}
    win._pts[:] = np.nan
    for mode, fit in before.items():
        again = fit_linear(win, mode)
        assert fit.solver_path == again.solver_path == "cached_moments"
        assert np.array_equal(again.g.view(np.uint64), fit.g.view(np.uint64)), mode
        if fit.c is None:
            assert again.c is None
        else:
            assert np.float64(again.c).view(np.uint64) == np.float64(fit.c).view(np.uint64)


@pytest.mark.parametrize("slope", [True, False], ids=["linear", "constant"])
def test_exact_objectives_take_cached_route(slope):
    # y lies in the column space (or is zero), so b^T G^-1 b = |y|^2:
    # the bordered corner 2|y|^2 + 1 must still leave a positive pivot.
    d, m = 70, 80
    rng = make_rng(82)
    a = rng.standard_normal(d) if slope else np.zeros(d)
    win = EvaluationWindow(m, d)
    for _ in range(m + 20):
        p = rng.standard_normal(d)
        win.push(p, float(a @ p + 3.0))
    for mode in REGRESSION_MODES:
        fit = fit_linear(win, mode)
        assert fit.solver_path == "cached_moments", mode
        assert np.max(np.abs(fit.g - a)) <= 1e-10, mode


def sin_stream(seed, d, m):
    """A full window of m standard normal points in d dimensions valued by
    sum(sin(p)), and a function that pushes the stream's next point."""
    rng = make_rng(seed)
    win = EvaluationWindow(m, d)

    def push():
        p = rng.standard_normal(d)
        win.push(p, float(np.sin(p).sum()))

    for _ in range(m):
        push()
    return win, push


def test_moment_updates_match_fresh_build():
    # The last in-place update before the mass rule drops the sums still
    # agrees with sums built from scratch around the same reference.
    d, m = 70, 80
    win, push = sin_stream(83, d, m)
    mom = win.moment_cache()
    updates = 0
    while win._mom is mom and updates < 10 * m:
        push()
        updates += 1
    assert win._mom is None and updates > 10, updates
    # The same stream again, stopped one push short of the drop.
    win, push = sin_stream(83, d, m)
    mom = win.moment_cache()
    for _ in range(updates - 1):
        push()
    assert win._mom is mom
    deltas = win.points() - win.newest_point()
    offsets = win.values() - win.newest_value()
    scale = mom.mass
    np.testing.assert_allclose(mom.m_mat, deltas.T @ deltas, rtol=0, atol=1e-13 * scale)
    np.testing.assert_allclose(mom.s_vec, deltas.sum(axis=0), rtol=0, atol=1e-13 * scale)
    np.testing.assert_allclose(mom.p_vec, deltas.T @ offsets, rtol=0, atol=1e-13 * scale)
    assert mom.f_sum == pytest.approx(offsets.sum(), abs=1e-13 * scale)
    push()
    assert win._mom is None


@pytest.mark.parametrize("mode", REGRESSION_MODES)
def test_mass_rule_rebuilds_sums_of_a_shrinking_far_cluster(mode):
    # A window that walks out to a cluster far from the origin and then
    # contracts: each push adds and cancels terms at the scale the window
    # spanned, so the mass rule drops the sums, and the next fit rebuilds
    # them.  Every cached g agrees with the g of a freshly built cache.
    d, m = 6, 20
    rng = make_rng(89)
    a = rng.standard_normal(d)
    far = np.full(d, 1e3)
    win = EvaluationWindow(m, d)
    built, worst = [], 0.0
    for step in range(12 * m):
        spread = 10.0 ** (2 - step / m)  # from 1e2 down to 1e-10
        p = far * min(1.0, step / m) + spread * rng.standard_normal(d)
        win.push(p, float(a @ p + 0.5 * np.sin(p).sum()))
        if not win.is_full:
            continue
        fit = fit_linear(win, mode)
        if win._mom is not None and (not built or win._mom is not built[-1]):
            built.append(win._mom)
        if fit.solver_path != "cached_moments":
            continue
        fresh = window_from(win.points(), win.values())
        ref = fit_linear(fresh, mode)
        assert ref.solver_path == "cached_moments"
        worst = max(worst, float(np.linalg.norm(fit.g - ref.g) / np.linalg.norm(ref.g)))
    assert len(built) >= 3, len(built)
    assert worst <= 1e-8, worst


@pytest.mark.parametrize("mode", REGRESSION_MODES)
def test_steady_push_and_fit_allocate_no_square_temporaries(mode):
    # Once the window's buffers exist, a push and a cached fit on a full
    # d=300 window allocate well under one d x d array: the moment update
    # passes through the row-block scratch.
    d, m = 300, 310
    rng = make_rng(87)
    win = full_window(d, m, 87)
    for _ in range(2):
        p = rng.standard_normal(d)
        win.push(p, float(np.sin(p).sum()))
        assert fit_linear(win, mode).solver_path == "cached_moments"
    p = rng.standard_normal(d)
    value = float(np.sin(p).sum())
    tracemalloc.start()
    try:
        win.push(p, value)
        fit = fit_linear(win, mode)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fit.solver_path == "cached_moments"
    assert peak < d * d * 8 / 4, peak


def test_steady_fits_skip_numpy_linalg_wrappers(monkeypatch):
    # A steady cached linear fit and a healthy quadratic fit call LAPACK
    # without numpy.linalg's wrappers and take norms as sqrt(v @ v); the
    # quadratic fit's coefficients keep the bits of np.linalg.solve on
    # X X^T of the reduced design (no newest row, no ones column), and its
    # intercept is exactly 0.
    d, m = 100, 110
    rng = make_rng(88)
    win = full_window(d, m, 88)
    for mode in REGRESSION_MODES:
        fit_linear(win, mode)
    p = rng.standard_normal(d)
    win.push(p, float(np.sin(p).sum()))
    x_mat, y_vec = assemble_quadratic_system(win)
    x_red, y_red = np.ascontiguousarray(x_mat[:-1, :-1]), y_vec[:-1]
    ref = np.append(x_red.T @ np.linalg.solve(x_red @ x_red.T, y_red), 0.0)

    def refused(*args, **kwargs):
        raise AssertionError("numpy.linalg wrapper called on a steady fit")

    monkeypatch.setattr(np.linalg, "solve", refused)
    monkeypatch.setattr(np.linalg, "norm", refused)
    for mode in REGRESSION_MODES:
        assert fit_linear(win, mode).solver_path == "cached_moments"
    quad = fit_quadratic(win)
    coeffs = np.concatenate([quad.g, quad.h, [quad.c]])
    assert np.array_equal(coeffs.view(np.uint64), ref.view(np.uint64))


def test_quadratic_fit_matches_lstsq_on_recorded_ridge_window():
    # A window of m = 110 points at d = 100, recorded at the 1000th fit of
    # a q_reszo run at the desk-scale comparison's settings: cond(X) of its
    # full design is about 4e7, and a row-space solve of X X^T with the
    # newest row and the ones column loses about 2e-2 of g.  The reduced
    # system keeps g within 1e-6 of lstsq.
    import reszo
    import reszo.optimizers as opt

    spec = reszo.BenchmarkSpec("ridge", d=100, n_samples=1000, lam=0.1, seed=0)
    cfg = reszo.OptimizerConfig(
        method="q_reszo", eta=1.6e-5, delta=0.002, iterations=1110, seed=1000,
        window_m=110, warm_eta=2.5e-6, warm_delta=0.2,
    )
    captured = []
    orig = opt.fit_quadratic

    def capture(window):
        captured[:] = [(window.points(), window.values())]
        return orig(window)

    with mock.patch.object(opt, "fit_quadratic", capture):
        reszo.run_optimizer(reszo.make_objective(spec), cfg, reszo.initial_point(spec))
    win = window_from(*captured[-1], dim=spec.d)
    fit = fit_quadratic(win)
    x_mat, y_vec = assemble_quadratic_system(win)
    ref = np.linalg.lstsq(x_mat, y_vec, rcond=None)[0]
    assert np.linalg.cond(x_mat) > 1e7
    assert fit.c == 0.0
    assert np.linalg.norm(fit.g - ref[: spec.d]) <= 1e-6 * np.linalg.norm(ref[: spec.d])
    ref_h = ref[spec.d : 2 * spec.d]
    assert np.linalg.norm(fit.h - ref_h) <= 1e-6 * np.linalg.norm(ref_h)


_FAR = 1e4


_STREAMS = st.tuples(
    st.integers(1, 6),  # d
    st.integers(0, 14),  # capacity - 2, reduced below to at most d + 8
    st.integers(0, 24),  # row-block elements beyond one buffer row (d + 2 <= 8)
    st.lists(
        st.tuples(st.sampled_from(["near", "far", "twice", "repeat"]), st.integers(1, 30)),
        min_size=1,
        max_size=6,
    ),
    st.integers(0, 2**32 - 1),  # seed of the points' values
)


def generated_stream(d, phases, seed):
    """Points and values for phases of fresh points near the origin, of a
    cluster at |x| = 1e4 with spread 1e-3, of fresh points each pushed
    twice, and of the last point repeated."""
    rng = make_rng(seed)
    far = np.full(d, _FAR / np.sqrt(d))
    a = rng.standard_normal(d)
    pushes = []
    point = rng.standard_normal(d)
    for kind, length in phases:
        for _ in range(length):
            if kind == "near":
                point = rng.standard_normal(d)
            elif kind == "far":
                point = far + 1e-3 * rng.standard_normal(d)
            elif kind == "twice":
                point = rng.standard_normal(d)
                pushes.append(point)
            pushes.append(point)
    return pushes, [float(a @ p + 0.1 * np.sin(p).sum()) for p in pushes]


def check_against_lstsq(x_mat, y_vec, fit, label):
    """A fit against lstsq on its assembled system: within the
    normal-equations bound where that bound says something.  Where it is
    vacuous, on an overdetermined X:
    - a pseudoinverse fit on a numerically rank-deficient X (cond(X)
      about 1/eps or more) gives the minimum-norm solution;
    - every other fit, including a cached fit that passed the pivot gate
      on a rank-deficient X, is a least-squares solution with lstsq's
      residual, though not always the minimum-norm one.
    Underdetermined X with a vacuous bound are not checked: on a
    numerically singular X, such as a far cluster of tiny spread,
    lstsq's cutoff drops singular values that the row-space solve keeps,
    so the two answers can differ.  The cached fit's gap is an open
    defect (ROADMAP item 3)."""
    coeffs = fit_coeffs(fit)
    resid = residual_norm(fit, x_mat, y_vec)
    ref, tol, sv = lstsq_with_bound(x_mat, y_vec)
    ref_resid = float(np.linalg.norm(x_mat @ ref - y_vec))
    scale = 1.0 + float(np.linalg.norm(ref))
    if np.isfinite(tol) and tol < scale:
        assert np.max(np.abs(coeffs - ref)) <= tol, label
        assert abs(resid - ref_resid) <= sv[0] * tol, label
        return
    if x_mat.shape[0] < x_mat.shape[1]:
        return
    deficient = sv[-1] <= np.finfo(float).eps * max(x_mat.shape) * sv[0]
    if deficient and fit.solver_path == "pseudoinverse":
        assert np.max(np.abs(coeffs - ref)) <= 1e-6 * scale, label
    else:
        assert resid <= ref_resid + 1e-6 * (1.0 + float(np.linalg.norm(y_vec))), label


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_STREAMS)
def test_window_fits_match_lstsq_on_generated_streams(stream):
    # Every linear fit in every mode, and the quadratic fit, after every
    # push of a generated stream agrees with lstsq on the assembled
    # system; and the moment sums the window carries agree with sums
    # built from scratch around the same center.  Windows of capacity
    # both below and above d + 1 occur.
    d, capacity, extra, phases, seed = stream
    capacity = 2 + capacity % (d + 7)
    pushes, values = generated_stream(d, phases, seed)
    # Small row blocks, so the blocked moment update crosses block edges
    # at these sizes as it does at d in the hundreds.
    with mock.patch.object(regression, "_BLOCK_ELEMENTS", d + 2 + extra):
        win = EvaluationWindow(capacity, d)
        for step, (p, v) in enumerate(zip(pushes, values)):
            win.push(p, v)
            if len(win) < 2:
                continue
            for mode in REGRESSION_MODES:
                x_mat, y_vec = assemble_linear_system(win, mode)
                check_against_lstsq(x_mat, y_vec, fit_linear(win, mode), (step, mode))
            x_mat, y_vec = assemble_quadratic_system(win)
            check_against_lstsq(x_mat, y_vec, fit_quadratic(win), (step, "quadratic"))
    mom = win._mom
    if mom is not None:
        deltas = win.points() - win.newest_point()
        offsets = win.values() - win.newest_value()
        atol = 1e-13 * mom.mass
        np.testing.assert_allclose(mom.m_mat, deltas.T @ deltas, rtol=0, atol=atol)
        np.testing.assert_allclose(mom.s_vec, deltas.sum(axis=0), rtol=0, atol=atol)
        np.testing.assert_allclose(mom.p_vec, deltas.T @ offsets, rtol=0, atol=atol * _FAR)
        assert mom.f_sum == pytest.approx(offsets.sum(), abs=atol * _FAR)


def test_rank_deficient_full_window_gives_min_norm_gradient():
    # Two of every three pushes repeat the previous point: a full window
    # of 12 holds at most 4 distinct points in d = 5, so rank(X) < d.
    d, m = 5, 12
    rng = make_rng(70)
    a = rng.standard_normal(d)
    win = EvaluationWindow(m, d)
    for i in range(60):
        if i % 3 == 0:
            p = rng.standard_normal(d)
        win.push(p, float(a @ p + 0.1 * np.sin(p).sum()))
        if not win.is_full:
            continue
        for mode in REGRESSION_MODES:
            x_mat, y_vec = assemble_linear_system(win, mode)
            ref = np.linalg.lstsq(x_mat, y_vec, rcond=None)[0]
            ref_g = ref if mode == "difference_no_intercept" else ref[:-1]
            g = fit_linear(win, mode).g
            assert np.max(np.abs(g - ref_g)) <= 1e-6 * (1.0 + np.linalg.norm(ref_g)), mode


def test_interpolating_linear_fits_share_one_reduced_system():
    # At m <= d + 1 the centered intercept is exactly 0, so both modes
    # solve the one reduced system: the same g bit for bit, c = 0.0 and
    # None, and lstsq's solution of either assembled system.  Partial
    # windows and full windows of capacity below d + 1 both reach it.
    for d, capacity, pushes in [(2, 6, 3), (5, 4, 7), (20, 30, 21), (132, 6, 9)]:
        rng = make_rng(90 + d)
        win = EvaluationWindow(capacity, d)
        for _ in range(pushes):
            p = rng.standard_normal(d)
            win.push(p, float(np.sin(p).sum()))
        assert len(win) <= d + 1
        centered = fit_linear(win, "intercept_centered")
        difference = fit_linear(win, "difference_no_intercept")
        assert centered.solver_path == difference.solver_path == "pseudoinverse"
        assert np.array_equal(centered.g.view(np.uint64), difference.g.view(np.uint64)), d
        assert centered.c == 0.0 and difference.c is None
        for mode in REGRESSION_MODES:
            x_mat, y_vec = assemble_linear_system(win, mode)
            ref = np.linalg.lstsq(x_mat, y_vec, rcond=None)[0]
            scale = 1e-9 * (1.0 + np.linalg.norm(ref))
            assert np.max(np.abs(centered.g - ref[:d])) <= scale, (d, mode)
            if mode == "intercept_centered":
                assert abs(ref[d]) <= scale, d


def test_quadratic_fit_on_repeated_point_window_matches_lstsq():
    # A d=2 window whose middle point is pushed twice: the reduced design
    # has two equal rows, so X X^T is singular and its row-space dual is
    # meaningless.  The residual gate must send the fit to lstsq.  Point
    # scales span four decades.
    worst = 0.0
    for seed in range(200):
        r = make_rng(seed)
        p0, p1, p2 = (r.standard_normal(2) * 10.0 ** r.uniform(-2, 2) for _ in range(3))
        win = EvaluationWindow(4, 2)
        for p in (p0, p1, p1, p2):
            win.push(p, r.standard_normal())
        x_mat, y_vec = assemble_quadratic_system(win)
        ref = np.linalg.lstsq(x_mat, y_vec, rcond=None)[0]
        worst = max(worst, float(np.max(np.abs(fit_quadratic(win).g - ref[:2]))))
    assert worst <= 1e-6


class TestFitQuadratic:
    def test_cubic_free_parabola(self):
        xs = np.array([-0.5, 0.2, 0.9, 1.4])
        f = lambda x: 3.0 * x * x + x
        win = window_from(xs.reshape(-1, 1), [f(x) for x in xs])
        fit = fit_quadratic(win)
        assert fit.g[0] == pytest.approx(6.0 * xs[-1] + 1.0, abs=1e-7)
        assert fit.h[0] == pytest.approx(6.0, abs=1e-7)
        assert residual_norm(fit, *assemble_quadratic_system(win)) <= 1e-7

    def test_affine_gives_zero_curvature(self):
        rng = make_rng(41)
        d = 2
        a = rng.standard_normal(d)
        pts = rng.standard_normal((2 * d + 2, d))
        win = affine_window(a, -0.7, pts)
        fit = fit_quadratic(win)
        assert np.max(np.abs(fit.h)) <= 1e-7
        assert np.max(np.abs(fit.g - a)) <= 1e-7

    def test_constant_function_gives_zeros(self):
        rng = make_rng(42)
        pts = rng.standard_normal((4, 2))
        win = window_from(pts, np.full(4, 5.0), dim=2)
        fit = fit_quadratic(win)
        np.testing.assert_allclose(fit.g, 0.0, atol=1e-12)
        np.testing.assert_allclose(fit.h, 0.0, atol=1e-12)
        assert fit.c == pytest.approx(0.0, abs=1e-12)
        assert residual_norm(fit, *assemble_quadratic_system(win)) <= 1e-12


def test_condition_estimate_order_of_magnitude():
    rng = make_rng(51)
    n = 12
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = np.linspace(1.0, 100.0, n)
    gram = (q * eigs) @ q.T
    est = estimate_condition_number(gram)
    assert 50.0 <= est <= 200.0


def test_difference_fit_residual_within_taylor_bound():
    # Windows collected from an actual optimizer trajectory on a smooth
    # objective: the sup-norm of the difference-mode fit residual stays
    # within (L/2) * max_i |dx_i|^2.
    import reszo
    import reszo.optimizers as opt
    import reszo.regression as reg

    spec = reszo.BenchmarkSpec("ridge", d=20, n_samples=200, seed=3)
    obj = reszo.make_objective(spec)
    smoothness = obj.smoothness_L
    captured = []
    orig = reg.fit_linear

    def capture(window, mode="intercept_centered"):
        if window.is_full and len(captured) < 50:
            captured.append((window.points().copy(), window.values().copy()))
        return orig(window, mode)

    opt.fit_linear = capture
    try:
        cfg = reszo.OptimizerConfig(
            method="l_reszo", eta=2e-4, delta=0.01, iterations=120,
            window_m=30, warm_eta=2e-5, warm_delta=0.1, seed=5,
        )
        reszo.run_optimizer(obj, cfg, reszo.initial_point(spec))
    finally:
        opt.fit_linear = orig
    assert len(captured) == 50
    for pts, vals in captured:
        win = window_from(pts, vals, dim=pts.shape[1])
        g, _, _ = reference_fit(win, "difference_no_intercept")
        x_mat, y_vec = assemble_linear_system(win, "difference_no_intercept")
        residual = x_mat @ g - y_vec
        bound = 0.5 * smoothness * max(float(row @ row) for row in x_mat)
        assert np.max(np.abs(residual)) <= bound
