import numpy as np
import pytest

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
from reszo import regression
from reszo.regression import REGRESSION_MODES, _back_substitute, estimate_condition_number


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

    def test_push_returns_dropped_pair(self):
        win = EvaluationWindow(2, 1)
        assert win.push(np.array([0.0]), 0.0) is None
        assert win.push(np.array([1.0]), 1.0) is None
        dropped = win.push(np.array([2.0]), 2.0)
        assert dropped[0][0] == 0.0 and dropped[1] == 0.0

    def test_dimension_checked(self):
        win = EvaluationWindow(2, 2)
        with pytest.raises(ValueError):
            win.push(np.zeros(3), 0.0)

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
        np.testing.assert_array_equal(x_mat, [[-1.0], [-2.0]])
        np.testing.assert_array_equal(y_vec, [-1.0, -2.0])

    def test_intercept_raw_rows(self):
        x_mat, y_vec = assemble_linear_system(self.win, "intercept_raw")
        np.testing.assert_array_equal(x_mat, [[2.0, 1.0], [1.0, 1.0], [0.0, 1.0]])
        np.testing.assert_array_equal(y_vec, [2.0, 1.0, 0.0])

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
        # The design is written into the window's buffer in ring order;
        # partial, wrapped and unwrapped windows all give the plain
        # formula's matrix bit for bit, and callers get their own copy.
        d, m = 5, 7
        rng = make_rng(36)
        win = EvaluationWindow(m, d)
        for i in range(2 * m + 3):
            p = rng.standard_normal(d)
            win.push(p, float(np.sin(p).sum()))
            if len(win) < 2:
                continue
            pts, vals = win.points(), win.values()
            deltas = pts - pts[-1]
            ref = np.hstack([deltas, 0.5 * deltas * deltas, np.ones((len(pts), 1))])
            x_mat, y_vec = assemble_quadratic_system(win)
            assert np.array_equal(x_mat.view(np.uint64), ref.view(np.uint64)), i
            np.testing.assert_array_equal(y_vec, vals - vals[-1])
            assert not np.shares_memory(x_mat, win._design)

    def test_quadratic_recovers_parabola(self):
        xs = np.array([-1.0, 0.5, 1.5, 2.0])
        win = window_from(xs.reshape(-1, 1), xs**2)
        fit = fit_quadratic(win)
        newest = xs[-1]
        assert fit.g[0] == pytest.approx(2.0 * newest, abs=1e-8)
        assert fit.h[0] == pytest.approx(2.0, abs=1e-8)
        assert fit.residual_norm <= 1e-8


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
        for mode in ("intercept_centered", "intercept_raw", "difference_no_intercept"):
            g, _, resid_norm = reference_fit(win, mode)
            assert np.max(np.abs(g - a)) <= 1e-8
            assert resid_norm <= 1e-8
        _, c, _ = reference_fit(win, "intercept_raw")
        assert c == pytest.approx(1.5, abs=1e-8)

    def test_centered_and_raw_agree_on_g(self):
        rng = make_rng(32)
        d = 3
        pts = rng.standard_normal((8, d))
        vals = rng.standard_normal(8)
        win = window_from(pts, vals, dim=d)
        g_cen, _, _ = reference_fit(win, "intercept_centered")
        g_raw, _, _ = reference_fit(win, "intercept_raw")
        assert np.max(np.abs(g_cen - g_raw)) <= 1e-8

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
        for mode in ("intercept_centered", "intercept_raw", "difference_no_intercept"):
            fast = fit_linear(win, mode)
            g, c, resid_norm = reference_fit(win, mode)
            assert fast.solver_path == "cached_moments"
            assert np.max(np.abs(fast.g - g)) <= 1e-6
            if fast.c is not None:
                assert fast.c == pytest.approx(c, abs=1e-6)
            assert fast.residual_norm == pytest.approx(resid_norm, abs=1e-8)

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
        for mode in ("intercept_centered", "intercept_raw", "difference_no_intercept"):
            g, c, _ = reference_fit(window_from(pts, vals, dim=d), mode)
            g_shift, c_shift, _ = reference_fit(window_from(pts, vals + 100.0, dim=d), mode)
            assert np.max(np.abs(g - g_shift)) <= 1e-9
            if mode == "intercept_raw":
                assert c_shift == pytest.approx(c + 100.0, abs=1e-9)

    def test_residual_norm_matches_assembled_system(self):
        rng = make_rng(35)
        d, m = 4, 9
        win = EvaluationWindow(m, d)
        f = lambda p: float(np.cos(p).sum())
        for _ in range(m + 3):
            p = rng.standard_normal(d)
            win.push(p, f(p))
        for mode in ("intercept_centered", "intercept_raw", "difference_no_intercept"):
            fit = fit_linear(win, mode)
            x_mat, y_vec = assemble_linear_system(win, mode)
            coeffs = fit.g if fit.c is None else np.append(fit.g, fit.c)
            direct = float(np.linalg.norm(x_mat @ coeffs - y_vec))
            assert fit.residual_norm == pytest.approx(direct, abs=1e-8)


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
    with np.errstate(divide="ignore", over="ignore"):
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
    # take the moment cache, pushed past two periodic rebuilds.  The
    # quadratic design has 2d + 1 columns, so the same windows solve it
    # through the row space (capacity < 2d + 1) and through lstsq.
    routes = set()
    quad_underdetermined = set()
    for d, capacity in [(2, 3), (3, 6), (4, 4), (5, 12), (130, 140)]:
        rng = make_rng(60 + d)
        a = rng.standard_normal(d)
        win = EvaluationWindow(capacity, d)
        # Phases outlast the window, so some full windows lie in one phase.
        phase_len = max(40, capacity + 20)
        pushes = max(2 * max(d, 64) + 60, 4 * phase_len)
        for p in adversarial_stream(rng, d, pushes, phase_len):
            win.push(p, float(a @ p + 0.1 * np.sin(p).sum()))
            if len(win) < 2:
                continue
            for mode in ("intercept_centered", "intercept_raw", "difference_no_intercept"):
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
                assert abs(fit.residual_norm - ref_resid) <= sv[0] * tol
            quad = fit_quadratic(win)
            x_mat, y_vec = assemble_quadratic_system(win)
            ref, tol, _ = lstsq_with_bound(x_mat, y_vec)
            if not np.isfinite(tol):
                continue
            quad_underdetermined.add(x_mat.shape[0] < x_mat.shape[1])
            assert np.max(np.abs(quad.g - ref[:d])) <= tol, (d, capacity, "quadratic g")
            assert np.max(np.abs(quad.h - ref[d : 2 * d])) <= tol, (d, capacity, "quadratic h")
            assert abs(quad.c - ref[2 * d]) <= tol, (d, capacity, "quadratic c")
    for mode in ("intercept_centered", "intercept_raw", "difference_no_intercept"):
        assert {(mode, "cached_moments"), (mode, "pseudoinverse")} <= routes
    assert quad_underdetermined == {True, False}


@pytest.mark.parametrize("n", [1, 63, 64, 65, 129, 902])
def test_back_substitute_matches_solve(n):
    # Sizes on both sides of each 64-row block boundary.
    rng = make_rng(80 + n)
    upper = np.triu(rng.standard_normal((n, n))) / np.sqrt(n)
    upper[np.diag_indices(n)] = 1.0 + rng.random(n)
    rhs = rng.standard_normal(n)
    ref = np.linalg.solve(upper, rhs)
    x = _back_substitute(upper, rhs)
    assert np.max(np.abs(x - ref)) <= 1e-10 * (1.0 + np.max(np.abs(ref)))


def full_window(d, m, seed):
    rng = make_rng(seed)
    win = EvaluationWindow(m, d)
    for _ in range(m + 5):
        p = rng.standard_normal(d)
        win.push(p, float(np.sin(p).sum()))
    return win


def test_cached_fit_factorizes_once(monkeypatch):
    # One Cholesky factorization per fit, through the module's gufunc and
    # never through np.linalg.cholesky, and only diagonal blocks of the
    # triangular solve ever reach np.linalg.solve.
    win = full_window(130, 140, 81)
    cholesky_lo, solve = regression._cholesky_lo, np.linalg.solve
    factored, solved = [], []

    def counting_cholesky_lo(a, out):
        factored.append(a.shape)
        return cholesky_lo(a, out=out)

    def refused_cholesky(a):
        raise AssertionError("np.linalg.cholesky called on the cached route")

    def sized_solve(a, b):
        solved.append(a.shape[0])
        return solve(a, b)

    monkeypatch.setattr(regression, "_cholesky_lo", counting_cholesky_lo)
    monkeypatch.setattr(np.linalg, "cholesky", refused_cholesky)
    monkeypatch.setattr(np.linalg, "solve", sized_solve)
    for mode in ("intercept_centered", "intercept_raw", "difference_no_intercept"):
        factored.clear()
        solved.clear()
        fit = fit_linear(win, mode)
        assert fit.solver_path == "cached_moments"
        assert len(factored) == 1, mode
        assert solved and max(solved) <= 64, mode


@pytest.mark.filterwarnings("error")
def test_cached_factor_matches_numpy_cholesky_bitwise():
    # The private gufunc must keep np.linalg.cholesky's semantics: the
    # window's row-major buffer holds exactly the transposed factor.
    win = full_window(130, 140, 84)
    for mode in ("intercept_centered", "difference_no_intercept"):
        assert fit_linear(win, mode).solver_path == "cached_moments"
        ref = np.linalg.cholesky(win._system).T
        assert win._upper.shape == ref.shape, mode
        assert np.array_equal(win._upper.view(np.uint64), ref.view(np.uint64)), mode


@pytest.mark.filterwarnings("error")
def test_failed_factorization_takes_pseudoinverse_silently():
    # A window of one repeated point has a zero Gram: the factorization
    # fails, leaves NaN in the factor buffer and warns nothing.
    d, m = 4, 8
    p = make_rng(85).standard_normal(d)
    win = EvaluationWindow(m, d)
    for _ in range(m + 2):
        win.push(p, 1.5)
    for mode in ("intercept_centered", "intercept_raw", "difference_no_intercept"):
        fit = fit_linear(win, mode)
        assert fit.solver_path == "pseudoinverse", mode
        assert np.all(np.isnan(win._upper)), mode
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
    for mode in ("intercept_centered", "intercept_raw", "difference_no_intercept"):
        fit = fit_linear(win, mode)
        assert fit.solver_path == "cached_moments", mode
        assert np.max(np.abs(fit.g - a)) <= 1e-10, mode


def test_moment_updates_match_fresh_build():
    # The last in-place update before the periodic rebuild still agrees
    # with sums built from scratch around the same reference.
    d, m = 70, 80
    rng = make_rng(83)
    win = EvaluationWindow(m, d)
    for _ in range(m):
        p = rng.standard_normal(d)
        win.push(p, float(np.sin(p).sum()))
    mom = win.moment_cache()
    updates = max(d, 64) - 1
    for _ in range(updates):
        p = rng.standard_normal(d)
        win.push(p, float(np.sin(p).sum()))
    assert win._mom is mom and mom.updates == updates
    deltas = win.points() - mom.c_ref
    offsets = win.values() - mom.f_ref
    scale = mom.mass
    np.testing.assert_allclose(mom.m_mat, deltas.T @ deltas, rtol=0, atol=1e-13 * scale)
    np.testing.assert_allclose(mom.s_vec, deltas.sum(axis=0), rtol=0, atol=1e-13 * scale)
    np.testing.assert_allclose(mom.p_vec, deltas.T @ offsets, rtol=0, atol=1e-13 * scale)
    assert mom.f_sum == pytest.approx(offsets.sum(), abs=1e-13 * scale)


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
        for mode in ("intercept_centered", "intercept_raw", "difference_no_intercept"):
            x_mat, y_vec = assemble_linear_system(win, mode)
            ref = np.linalg.lstsq(x_mat, y_vec, rcond=None)[0]
            ref_g = ref if mode == "difference_no_intercept" else ref[:-1]
            g = fit_linear(win, mode).g
            assert np.max(np.abs(g - ref_g)) <= 1e-6 * (1.0 + np.linalg.norm(ref_g)), mode


class TestFitQuadratic:
    def test_cubic_free_parabola(self):
        xs = np.array([-0.5, 0.2, 0.9, 1.4])
        f = lambda x: 3.0 * x * x + x
        win = window_from(xs.reshape(-1, 1), [f(x) for x in xs])
        fit = fit_quadratic(win)
        assert fit.g[0] == pytest.approx(6.0 * xs[-1] + 1.0, abs=1e-7)
        assert fit.h[0] == pytest.approx(6.0, abs=1e-7)
        assert fit.residual_norm <= 1e-7

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
        assert fit.residual_norm <= 1e-12


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
