import gc
from dataclasses import replace

import numpy as np
import pytest

import reszo.benchmarks
from reszo import (
    BenchmarkSpec,
    ExperimentConfig,
    OptimizerConfig,
    finite_difference_gradient,
    initial_point,
    load_dataset,
    make_objective,
    make_rng,
    objective_from_dataset,
    run_experiment,
    save_dataset,
)
from reszo.benchmarks import (
    _PROBLEMS,
    _RIDGE_PANEL,
    PROBLEMS,
    _constants,
    _layer_width,
    _logistic_data,
    _nn_data,
    _ridge_constants,
    _ridge_data,
    _ridge_residual_value,
    pack_parameters,
    sigmoid,
    unpack_parameters,
)


def rel_grad_error(obj, x):
    analytic = obj.gradient(x)
    numeric = finite_difference_gradient(obj, x)
    return np.linalg.norm(analytic - numeric) / max(np.linalg.norm(analytic), 1e-30)


class TestSpecValidation:
    def test_unknown_problem(self):
        with pytest.raises(ValueError):
            BenchmarkSpec("quadratic", d=3)

    def test_rosenbrock_needs_two_dims(self):
        with pytest.raises(ValueError):
            BenchmarkSpec("rosenbrock", d=1)

    def test_nn_dimension_must_fit_layout(self):
        with pytest.raises(ValueError):
            BenchmarkSpec("neural_net", d=100)
        BenchmarkSpec("neural_net", d=132)  # n = 6

    def test_positive_sample_count(self):
        with pytest.raises(ValueError):
            BenchmarkSpec("ridge", d=3, n_samples=0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("name", ["d", "n_samples", "lam", "seed"])
    def test_non_finite_parameter_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            BenchmarkSpec("ridge", **{"d": 3, name: value})


class TestRidge:
    spec = BenchmarkSpec("ridge", d=8, n_samples=60, seed=5)

    def test_gradient_matches_finite_differences(self):
        obj = make_objective(self.spec)
        rng = make_rng(1)
        for _ in range(5):
            assert rel_grad_error(obj, rng.standard_normal(self.spec.d)) <= 1e-5

    def test_smoothness_constant_is_top_eigenvalue(self):
        obj = make_objective(self.spec)
        h_mat = _ridge_data(self.spec)["H"]
        exact = np.linalg.eigvalsh(h_mat.T @ h_mat)[-1] + self.spec.lam
        assert obj.smoothness_L == pytest.approx(exact, rel=1e-12)

    def test_smoothness_bounds_gradient_change_along_top_eigenvector(self):
        # The gradient changes by exactly (H^T H + lam) v along a unit top
        # eigenvector v, so any underestimate of L fails here.
        obj = make_objective(self.spec)
        h_mat = _ridge_data(self.spec)["H"]
        v = np.linalg.eigh(h_mat.T @ h_mat)[1][:, -1]
        x = np.zeros(self.spec.d)
        lhs = np.linalg.norm(obj.gradient(x + v) - obj.gradient(x))
        assert lhs <= obj.smoothness_L * (1 + 1e-12)

    @pytest.mark.parametrize("d, n", [(8, 60), (100, 1000)])
    def test_constants_match_shifted_gram_bitwise(self, d, n):
        # L, the factor, x* and f* from the Gram shifted in place equal, bit
        # for bit, those from the explicit gram + lam * I.
        lam = 0.1
        arrays = _ridge_data(BenchmarkSpec("ridge", d=d, n_samples=n, lam=lam, seed=5))
        h_mat, y_vec = arrays["H"], arrays["y"]
        gram = h_mat.T @ h_mat
        shifted = gram + lam * np.eye(d)
        x_star = np.linalg.solve(shifted, h_mat.T @ y_vec)
        expected = np.array(
            [np.linalg.eigvalsh(gram)[-1] + lam, _ridge_residual_value(h_mat, y_vec, lam, x_star)]
        )
        smoothness, factor, got_x_star, fstar = _ridge_constants(dict(arrays), lam)
        got = np.array([smoothness, fstar])
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
        assert np.array_equal(factor.view(np.uint64), np.linalg.cholesky(shifted).view(np.uint64))
        assert np.array_equal(got_x_star.view(np.uint64), x_star.view(np.uint64))

    @pytest.mark.parametrize("d, n", [(8, 60), (100, 1000), (300, 400)])
    def test_exact_gap_form_matches_residual_form(self, d, n):
        # From 1e-12 to 1e3 away from x*: the gap is never negative, and
        # value and gradient agree with the residual form H x - y.  Near x*
        # the residual form's own rounding (a few ulps of f, and of the
        # terms of H^T(Hx - y)) dominates, so the bounds carry that floor.
        spec = BenchmarkSpec("ridge", d=d, n_samples=n, seed=5)
        obj = make_objective(spec)
        arrays = _ridge_data(spec)
        h_mat, y_vec = arrays["H"], arrays["y"]
        fstar = obj.optimum_value
        x_star = np.linalg.solve(h_mat.T @ h_mat + spec.lam * np.eye(d), h_mat.T @ y_vec)
        rng = make_rng(21)
        eps = np.finfo(float).eps
        for dist in 10.0 ** np.arange(-12, 4):
            u = rng.standard_normal(d)
            x = x_star + dist * u / np.linalg.norm(u)
            value = obj.evaluate(x)
            assert value - fstar >= 0.0
            ref = _ridge_residual_value(h_mat, y_vec, spec.lam, x)
            assert abs((value - fstar) - (ref - fstar)) <= 1e-10 * abs(ref - fstar) + 16 * eps * ref
            ref_grad = h_mat.T @ (h_mat @ x - y_vec) + spec.lam * x
            terms = np.abs(h_mat).T @ (np.abs(h_mat) @ np.abs(x) + np.abs(y_vec))
            scale = np.linalg.norm(terms) + spec.lam * np.linalg.norm(x)
            assert np.linalg.norm(obj.gradient(x) - ref_grad) <= 1e-12 * scale

    @pytest.mark.parametrize("d", [8, 100, 128])
    def test_one_panel_query_is_one_gemv_bitwise(self, d):
        # Up to the panel width a query is the single GEMV on F: value
        # f* + 0.5 * v @ v and gradient F @ v with v = (x - x*) @ F.
        assert d <= _RIDGE_PANEL
        spec = BenchmarkSpec("ridge", d=d, n_samples=200, seed=5)
        obj = make_objective(spec)
        _, factor, x_star, fstar = _constants(spec)
        rng = make_rng(22)
        for _ in range(5):
            x = rng.standard_normal(d)
            v = (x - x_star) @ factor
            value = np.float64(fstar + 0.5 * float(v @ v))
            assert np.float64(obj.evaluate(x)).view(np.uint64) == value.view(np.uint64)
            assert np.array_equal(obj.gradient(x).view(np.uint64), (factor @ v).view(np.uint64))

    def test_initial_point_is_origin_with_positive_gap(self):
        obj = make_objective(self.spec)
        x0 = initial_point(self.spec)
        np.testing.assert_array_equal(x0, np.zeros(self.spec.d))
        assert obj.evaluate(x0) - obj.optimum_value > 0

    def test_smoothness_upper_bounds_gradient_lipschitz(self):
        obj = make_objective(self.spec)
        rng = make_rng(2)
        for _ in range(100):
            x, y = rng.standard_normal((2, self.spec.d))
            lhs = np.linalg.norm(obj.gradient(x) - obj.gradient(y))
            assert lhs <= obj.smoothness_L * np.linalg.norm(x - y) * (1 + 1e-12)


class TestLogistic:
    spec = BenchmarkSpec("logistic", d=6, n_samples=50, seed=8)

    def test_gradient_matches_finite_differences(self):
        obj = make_objective(self.spec)
        rng = make_rng(3)
        for _ in range(5):
            assert rel_grad_error(obj, rng.standard_normal(self.spec.d)) <= 1e-5

    def test_smoothness_constant_is_top_eigenvalue(self):
        obj = make_objective(self.spec)
        s_mat = _logistic_data(self.spec)["S"]
        exact = np.linalg.eigvalsh(s_mat.T @ s_mat)[-1] / 8.0 + self.spec.lam
        assert obj.smoothness_L == pytest.approx(exact, rel=1e-12)

    def test_smoothness_bounds_gradient_change_along_top_eigenvector(self):
        # At x = 0 the Hessian is S^T S / 8 + lam, its maximum.  A 1e-4 step
        # loses about 1e-9 (relative) of that curvature, so an L short by
        # 1e-8 or more fails here; rounding (about 2e-12) stays below the gap.
        obj = make_objective(self.spec)
        s_mat = _logistic_data(self.spec)["S"]
        v = np.linalg.eigh(s_mat.T @ s_mat)[1][:, -1]
        x, step = np.zeros(self.spec.d), 1e-4
        lhs = np.linalg.norm(obj.gradient(x + step * v) - obj.gradient(x))
        assert lhs <= obj.smoothness_L * step * (1 + 1e-12)

    def test_large_margin_evaluation_is_finite(self):
        obj = make_objective(self.spec)
        x = np.zeros(self.spec.d)
        x[0] = 100.0  # |s_i^T x| up to 100
        assert np.isfinite(obj.evaluate(x))
        assert np.isfinite(obj.evaluate(-x))

    def test_lower_bound_by_regularizer(self):
        obj = make_objective(self.spec)
        rng = make_rng(4)
        for _ in range(20):
            x = 5.0 * rng.standard_normal(self.spec.d)
            assert obj.evaluate(x) >= 0.5 * self.spec.lam * float(x @ x)

    def test_optimum_below_sampled_values(self):
        obj = make_objective(self.spec)
        fstar = obj.optimum_value
        rng = make_rng(5)
        for _ in range(20):
            assert obj.evaluate(0.5 * rng.standard_normal(self.spec.d)) >= fstar

    def test_smoothness_upper_bounds_gradient_lipschitz(self):
        obj = make_objective(self.spec)
        rng = make_rng(6)
        for _ in range(100):
            x, y = rng.standard_normal((2, self.spec.d))
            lhs = np.linalg.norm(obj.gradient(x) - obj.gradient(y))
            assert lhs <= obj.smoothness_L * np.linalg.norm(x - y) * (1 + 1e-12)


class TestRosenbrock:
    def test_zero_at_origin(self):
        for d in (2, 5, 200):
            obj = make_objective(BenchmarkSpec("rosenbrock", d=d))
            assert obj.evaluate(np.zeros(d)) == 0.0

    def test_hand_computed_value_d2(self):
        obj = make_objective(BenchmarkSpec("rosenbrock", d=2))
        assert obj.evaluate(np.array([0.5, 0.5])) == 56.5

    def test_gradient_matches_finite_differences(self):
        obj = make_objective(BenchmarkSpec("rosenbrock", d=7))
        rng = make_rng(7)
        for _ in range(5):
            x = rng.uniform(-1.0, 1.0, size=7)
            assert rel_grad_error(obj, x) <= 1e-5

    def test_initial_point(self):
        spec = BenchmarkSpec("rosenbrock", d=4)
        np.testing.assert_array_equal(initial_point(spec), np.full(4, 0.5))


class TestNeuralNet:
    spec = BenchmarkSpec("neural_net", d=132, n_samples=50, seed=12)

    def test_teacher_loss_is_exactly_zero(self):
        obj = make_objective(self.spec)
        x_star = _nn_data(self.spec)["x_star"]
        assert obj.evaluate(np.array(x_star)) == 0.0

    def test_nonnegative_everywhere(self):
        obj = make_objective(self.spec)
        rng = make_rng(9)
        for _ in range(10):
            assert obj.evaluate(rng.standard_normal(self.spec.d)) >= 0.0

    def test_pack_unpack_roundtrip_is_bit_exact(self):
        n = _layer_width(self.spec.d)
        x = make_rng(10).standard_normal(self.spec.d)
        assert np.array_equal(pack_parameters(*unpack_parameters(x, n)), x)

    def test_initial_point_near_teacher(self):
        x_star = _nn_data(self.spec)["x_star"]
        x0 = initial_point(self.spec, make_rng(3, stream=1))
        assert np.all(np.abs(x0 - x_star) <= 1.0)
        with pytest.raises(ValueError):
            initial_point(self.spec)  # rng required

    def test_finite_difference_diagnostics_supported(self):
        # Small width keeps the 2d oracle evaluations cheap.
        spec = BenchmarkSpec("neural_net", d=7, n_samples=20, seed=2)
        obj = make_objective(spec)
        assert obj.analytic_gradient is None
        g = finite_difference_gradient(obj, initial_point(spec, make_rng(1, stream=1)))
        assert g.shape == (7,) and np.all(np.isfinite(g))
        assert obj.query_count == 0  # oracle channel only


class TestDeterminismAndSharing:
    def test_identical_specs_share_identical_data(self):
        a = make_objective(BenchmarkSpec("ridge", d=5, n_samples=30, seed=3))
        b = make_objective(BenchmarkSpec("ridge", d=5, n_samples=30, seed=3))
        x = make_rng(11).standard_normal(5)
        assert a.evaluate(x) == b.evaluate(x)
        assert a.query_count == b.query_count == 1  # independent counters

    def test_different_seed_different_data(self):
        a = make_objective(BenchmarkSpec("ridge", d=5, n_samples=30, seed=3))
        b = make_objective(BenchmarkSpec("ridge", d=5, n_samples=30, seed=4))
        x = np.ones(5)
        assert a.evaluate(x) != b.evaluate(x)

    def test_dataset_arrays_are_read_only(self):
        for problem, (data, _, _) in _PROBLEMS.items():
            for arr in data(BenchmarkSpec(problem, d=7, n_samples=30, seed=3)).values():
                with pytest.raises(ValueError):
                    arr[0] = 1.0

    def test_derived_constants_are_built_once_per_dataset(self, monkeypatch):
        eigvalsh, cholesky = np.linalg.eigvalsh, np.linalg.cholesky
        solves, factorizations = [], []

        def counting_eigvalsh(a):
            solves.append(a.shape)
            return eigvalsh(a)

        def counting_cholesky(a):
            factorizations.append(a.shape)
            return cholesky(a)

        monkeypatch.setattr(reszo.benchmarks.np.linalg, "eigvalsh", counting_eigvalsh)
        monkeypatch.setattr(reszo.benchmarks.np.linalg, "cholesky", counting_cholesky)
        _constants.cache_clear()
        spec = BenchmarkSpec("ridge", d=4, n_samples=20, seed=17)
        exp = ExperimentConfig(
            benchmark=spec,
            optimizer=OptimizerConfig(
                method="l_reszo",
                eta=1e-4,
                delta=0.01,
                iterations=10,
                window_m=6,
                warm_eta=1e-5,
                warm_delta=0.05,
            ),
            trials=2,
        )
        objs = [make_objective(spec) for _ in range(3)]
        run_experiment(exp)
        run_experiment(exp)
        assert solves == factorizations == [(4, 4)]
        assert len({(o.smoothness_L, o.optimum_value) for o in objs}) == 1
        make_objective(replace(spec, lam=0.2))
        assert solves == factorizations == [(4, 4), (4, 4)]

    def test_ridge_keeps_no_data_matrix(self):
        # Neither an objective nor its cache entry holds an array with N
        # rows; the cache entry is one d x d factor plus d-vectors.
        spec = BenchmarkSpec("ridge", d=20, n_samples=5000, seed=9)
        obj = make_objective(spec)
        entry = _constants(spec)
        for root in (obj, entry):
            shapes = sorted(a.shape for a in _reachable_arrays(root))
            assert shapes == [(20,), (20, 20)]


def _reachable_arrays(root):
    """Every ndarray reachable from root, array bases included.

    Functions are followed through their closures only, not their module
    globals, so the walk stays on what an object itself keeps alive.
    """
    found, seen, stack = {}, set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            found[id(obj)] = obj
            stack.append(obj.base)
        elif callable(obj) and hasattr(obj, "__closure__"):
            stack.extend(cell.cell_contents for cell in obj.__closure__ or ())
        else:
            stack.extend(gc.get_referents(obj))
    return list(found.values())


class TestDumpLoad:
    # d=7 suits every problem: the neural net's width is 1.
    @pytest.mark.parametrize(
        "spec", [BenchmarkSpec(problem, d=7, n_samples=25, seed=3) for problem in PROBLEMS]
    )
    def test_roundtrip_reproduces_objective(self, spec, tmp_path):
        path = tmp_path / "data.npz"
        save_dataset(spec, path)
        loaded_spec, arrays = load_dataset(path)
        assert loaded_spec == spec
        before = {name: arr.copy() for name, arr in arrays.items()}
        original = make_objective(spec)
        rebuilt = objective_from_dataset(loaded_spec, arrays)
        # The caller's mapping keeps every array, unchanged.
        assert arrays.keys() == before.keys()
        for name, arr in arrays.items():
            assert np.array_equal(arr, before[name])
        rng = make_rng(13)
        for _ in range(5):
            x = rng.standard_normal(spec.d)
            assert original.evaluate(x) == rebuilt.evaluate(x)
            if original.analytic_gradient is not None:
                assert np.array_equal(original.gradient(x), rebuilt.gradient(x))
        # Constants rebuilt from the arrays equal the cached ones bit for bit.
        assert original.smoothness_L == rebuilt.smoothness_L
        assert original.optimum_value == rebuilt.optimum_value


def test_sigmoid_stable_at_extremes():
    z = np.array([-800.0, -50.0, 0.0, 50.0, 800.0])
    s = sigmoid(z)
    assert np.all(np.isfinite(s))
    assert s[0] == 0.0 and s[-1] == 1.0
    assert s[2] == 0.5
