from unittest import mock

import numpy as np
import pytest

import reszo.optimizers
from reszo import (
    BenchmarkSpec,
    BlackBoxObjective,
    DivergenceError,
    OptimizerConfig,
    adaptive_delta,
    make_objective,
    run_optimizer,
)


def quadratic_norm(d):
    return BlackBoxObjective(d, lambda x: float(x @ x))


def reszo_cfg(**kw):
    base = dict(
        method="l_reszo",
        eta=1e-3,
        delta=0.01,
        iterations=30,
        window_m=8,
        warm_eta=1e-4,
        warm_delta=0.05,
        seed=0,
    )
    base.update(kw)
    return OptimizerConfig(**base)


class TestConfigValidation:
    def test_unknown_method(self):
        with pytest.raises(ValueError):
            reszo_cfg(method="newton")

    def test_baseline_needs_positive_delta(self):
        with pytest.raises(ValueError):
            OptimizerConfig(method="szo", eta=1e-3, delta=0.0, iterations=5)

    def test_regression_allows_zero_delta(self):
        assert reszo_cfg(delta=0.0).delta == 0.0

    def test_window_and_iteration_coupling(self):
        with pytest.raises(ValueError):
            reszo_cfg(window_m=1)
        with pytest.raises(ValueError):
            reszo_cfg(iterations=8, window_m=8)

    def test_warm_parameters_required(self):
        with pytest.raises(ValueError):
            reszo_cfg(warm_eta=None)
        with pytest.raises(ValueError):
            reszo_cfg(warm_delta=None)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "name",
        ["eta", "delta", "iterations", "window_m", "warm_eta", "warm_delta", "delta_min", "seed"],
    )
    @pytest.mark.parametrize("method", ["tzo", "l_reszo"])
    def test_non_finite_parameter_rejected(self, method, name, value):
        # A bad argument, not a run that later diverges on a NaN point.
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            reszo_cfg(method=method, **{name: value})

    def test_bad_mode_and_direction(self):
        # Each error names the accepted values; intercept_raw is retired.
        for mode in ("cubic", "intercept_raw"):
            with pytest.raises(ValueError, match="intercept_centered.*difference_no_intercept"):
                reszo_cfg(regression_mode=mode)
        with pytest.raises(ValueError, match="gaussian.*sphere"):
            reszo_cfg(direction="rademacher")


class TestBaselines:
    def test_tzo_contracts_on_quadratic(self):
        cfg = OptimizerConfig(method="tzo", eta=0.1, delta=0.01, iterations=200, seed=3)
        obj = quadratic_norm(2)
        trace = run_optimizer(obj, cfg, np.array([1.0, 1.0]))
        final_f = obj.oracle_evaluate(trace.final_x)
        assert final_f <= 1e-6

    def test_szo_constant_random_walk_step(self):
        c, d, delta, eta = 2.5, 4, 0.5, 1e-3
        cfg = OptimizerConfig(method="szo", eta=eta, delta=delta, iterations=25, seed=1)
        obj = BlackBoxObjective(d, lambda x: c)
        trace = run_optimizer(obj, cfg, np.zeros(d))
        np.testing.assert_allclose(trace.grad_est_norms, (d / delta) * c, rtol=1e-9)

    def test_rszo_constant_stays_put(self):
        cfg = OptimizerConfig(method="rszo", eta=1e-2, delta=0.3, iterations=40, seed=5)
        obj = BlackBoxObjective(3, lambda x: 7.0)
        x0 = np.array([0.4, -0.2, 1.0])
        trace = run_optimizer(obj, cfg, x0)
        np.testing.assert_array_equal(trace.final_x, x0)
        np.testing.assert_array_equal(trace.grad_est_norms, np.zeros(40))


class TestQueryAccounting:
    """Cumulative counts: szo t+1, rszo/l/q t+2 (seeded), tzo 2t+2."""

    @pytest.mark.parametrize(
        "method,expected_total,per_record",
        [
            ("szo", 7, lambda t: t + 1),
            ("rszo", 8, lambda t: t + 2),
            ("tzo", 14, lambda t: 2 * t + 2),
        ],
    )
    def test_baseline_counts(self, method, expected_total, per_record):
        obj = make_objective(BenchmarkSpec("ridge", d=3, n_samples=12, seed=2))
        cfg = OptimizerConfig(method=method, eta=1e-5, delta=0.1, iterations=7, seed=0)
        trace = run_optimizer(obj, cfg, np.zeros(3))
        assert obj.query_count == expected_total
        np.testing.assert_array_equal(trace.queries, [per_record(t) for t in range(7)])

    @pytest.mark.parametrize("method", ["l_reszo", "q_reszo"])
    def test_regression_counts(self, method):
        obj = make_objective(BenchmarkSpec("ridge", d=3, n_samples=12, seed=2))
        cfg = reszo_cfg(method=method, window_m=5, iterations=12, eta=1e-5)
        trace = run_optimizer(obj, cfg, np.zeros(3))
        assert obj.query_count == cfg.iterations + 1
        np.testing.assert_array_equal(trace.queries, np.arange(12) + 2)

    def test_queries_strictly_increasing(self):
        obj = make_objective(BenchmarkSpec("ridge", d=3, n_samples=12, seed=2))
        trace = run_optimizer(obj, reszo_cfg(window_m=5, iterations=12), np.zeros(3))
        assert np.all(np.diff(trace.queries) > 0)
        assert len(trace) == 12


class TestDeterminism:
    @pytest.mark.parametrize("method", ["szo", "rszo", "tzo", "l_reszo", "q_reszo"])
    def test_bit_identical_traces(self, method):
        spec = BenchmarkSpec("ridge", d=4, n_samples=16, seed=9)
        if method in ("l_reszo", "q_reszo"):
            cfg = reszo_cfg(method=method, window_m=6, iterations=15, seed=42)
        else:
            cfg = OptimizerConfig(
                method=method, eta=1e-5, delta=0.05, iterations=15, seed=42
            )
        t1 = run_optimizer(make_objective(spec), cfg, np.zeros(4))
        t2 = run_optimizer(make_objective(spec), cfg, np.zeros(4))
        for attr in ("queries", "f_values", "grad_est_norms", "deltas", "final_x"):
            np.testing.assert_array_equal(getattr(t1, attr), getattr(t2, attr))


class TestLReszo:
    def test_affine_gradient_exact_after_warm_start(self):
        rng = np.random.default_rng(7)
        d = 3
        a = rng.standard_normal(d)
        obj = BlackBoxObjective(d, lambda x: float(a @ x) + 2.0)
        cfg = reszo_cfg(window_m=d + 2, iterations=d + 8, eta=1e-3, seed=11)
        trace = run_optimizer(obj, cfg, np.zeros(d))
        post = trace.grad_est_norms[cfg.window_m :]
        np.testing.assert_allclose(post, np.linalg.norm(a), rtol=1e-8)


class TestQReszo:
    def test_exact_gradient_descent_on_parabola(self):
        # With an exact quadratic fit the update direction equals the
        # true gradient at the iterate, 2 x_t.
        obj = BlackBoxObjective(1, lambda x: float(x[0] ** 2))
        cfg = reszo_cfg(
            method="q_reszo", window_m=4, iterations=10, eta=0.05, delta=0.05, seed=3
        )
        x0 = np.array([1.0])
        trace = run_optimizer(obj, cfg, x0)
        # Replay the warm phase to recover x_m, then check the exact
        # geometric decay of the regression phase.
        warm = run_optimizer(
            BlackBoxObjective(1, lambda x: float(x[0] ** 2)),
            reszo_cfg(
                method="q_reszo",
                window_m=4,
                iterations=5,
                eta=0.05,
                delta=0.05,
                seed=3,
            ),
            x0,
        )
        x_m1 = warm.final_x[0]  # iterate after one regression step
        expected = x_m1 * (1.0 - 2 * cfg.eta) ** (cfg.iterations - 5)
        assert trace.final_x[0] == pytest.approx(expected, rel=1e-6)

    def test_matches_l_reszo_on_affine(self):
        rng = np.random.default_rng(13)
        d = 2
        a = rng.standard_normal(d)
        fn = lambda x: float(a @ x) - 1.0
        common = dict(window_m=2 * d + 3, iterations=2 * d + 12, eta=1e-3, seed=21)
        tl = run_optimizer(
            BlackBoxObjective(d, fn), reszo_cfg(method="l_reszo", **common), np.zeros(d)
        )
        tq = run_optimizer(
            BlackBoxObjective(d, fn), reszo_cfg(method="q_reszo", **common), np.zeros(d)
        )
        np.testing.assert_allclose(tq.final_x, tl.final_x, atol=1e-6)


class TestAdaptiveDelta:
    def test_formula(self):
        assert adaptive_delta(1e-3, np.array([2.0, 0.0])) == pytest.approx(2e-3)

    def test_floor_engages(self):
        assert adaptive_delta(1e-3, np.zeros(3), delta_min=1e-8) == 1e-8

    def test_run_uses_scheme(self):
        obj = make_objective(BenchmarkSpec("ridge", d=4, n_samples=16, seed=1))
        cfg = reszo_cfg(
            window_m=6, iterations=14, eta=1e-4, adaptive_delta=True, seed=2
        )
        trace = run_optimizer(obj, cfg, np.zeros(4))
        m = cfg.window_m
        # delta_t = eta * |g_{t-1}| for every post-warm iteration.
        expected = cfg.eta * trace.grad_est_norms[m - 1 : -1]
        floor = cfg.effective_delta_min()
        np.testing.assert_allclose(
            trace.deltas[m:], np.maximum(expected, floor), rtol=1e-12
        )


class TestDivergence:
    def test_value_threshold_triggers(self):
        obj = BlackBoxObjective(2, lambda x: 1e13)
        cfg = OptimizerConfig(method="szo", eta=1e-3, delta=0.1, iterations=10, seed=0)
        with pytest.raises(DivergenceError) as err:
            run_optimizer(obj, cfg, np.zeros(2))
        trace = err.value.trace
        assert trace.diverged and trace.divergence_iteration == 0
        assert len(trace) == 1

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflow_triggers(self):
        obj = BlackBoxObjective(1, lambda x: float(np.exp(x[0])))
        cfg = OptimizerConfig(method="szo", eta=1e6, delta=0.5, iterations=50, seed=1)
        with pytest.raises(DivergenceError) as err:
            run_optimizer(obj, cfg, np.array([800.0]))
        assert err.value.trace.diverged

    def test_partial_trace_preserved(self):
        calls = {"n": 0}

        def spiky(x):
            calls["n"] += 1
            return 1e13 if calls["n"] > 5 else 1.0

        obj = BlackBoxObjective(2, spiky)
        cfg = OptimizerConfig(method="szo", eta=1e-3, delta=0.1, iterations=50, seed=2)
        with pytest.raises(DivergenceError) as err:
            run_optimizer(obj, cfg, np.zeros(2))
        assert len(err.value.trace) == 6


def failing_from_call(n_fail, d=4):
    """A ridge objective whose evaluations return NaN from call n_fail on."""
    ridge = make_objective(BenchmarkSpec("ridge", d=d, n_samples=16, seed=9))
    calls = {"n": 0}

    def value(x):
        calls["n"] += 1
        return float("nan") if calls["n"] >= n_fail else ridge.oracle_evaluate(x)

    return BlackBoxObjective(d, value)


@pytest.mark.parametrize("method", ["l_reszo", "q_reszo"])
def test_fit_phase_failure_records_the_iterate(method):
    # Seed evaluation, then 6 warm iterations: call 10 is iteration 8's
    # query, in the fit phase.  The diverged trace ends where the same run
    # stopped after 8 iterations does, not at the perturbed point.
    cfg = reszo_cfg(method=method, window_m=6, iterations=30, eta=1e-5)
    x0 = np.full(4, 0.3)
    with pytest.raises(DivergenceError) as err:
        run_optimizer(failing_from_call(10), cfg, x0)
    trace = err.value.trace
    assert trace.diverged and trace.divergence_iteration == 8 and len(trace) == 8
    stopped_cfg = reszo_cfg(method=method, window_m=6, iterations=8, eta=1e-5)
    stopped = run_optimizer(failing_from_call(10**9), stopped_cfg, x0)
    np.testing.assert_array_equal(trace.final_x, stopped.final_x)


@pytest.mark.parametrize("method", ["rszo", "l_reszo", "q_reszo"])
def test_seed_evaluation_failure_records_x0(method):
    if method == "rszo":
        cfg = OptimizerConfig(method="rszo", eta=1e-5, delta=0.05, iterations=10)
    else:
        cfg = reszo_cfg(method=method, window_m=6, iterations=30)
    x0 = np.full(4, 0.3)
    with pytest.raises(DivergenceError) as err:
        run_optimizer(failing_from_call(1), cfg, x0)
    trace = err.value.trace
    assert trace.diverged and trace.divergence_iteration == 0 and len(trace) == 0
    np.testing.assert_array_equal(trace.final_x, x0)


def test_gaussian_direction_mode_runs_and_differs():
    spec = BenchmarkSpec("ridge", d=4, n_samples=16, seed=9)
    base = dict(method="l_reszo", eta=1e-5, delta=0.05, iterations=15,
                window_m=6, warm_eta=1e-6, warm_delta=0.1, seed=42)
    sphere = run_optimizer(
        make_objective(spec), OptimizerConfig(direction="sphere", **base), np.zeros(4)
    )
    gaussian = run_optimizer(
        make_objective(spec), OptimizerConfig(direction="gaussian", **base), np.zeros(4)
    )
    assert np.all(np.isfinite(gaussian.f_values))
    assert not np.array_equal(sphere.f_values, gaussian.f_values)


class TestSingleDriver:
    """All five methods run through one loop; these pin what it must keep."""

    LAYER_NAMES = (
        "szo_estimate",
        "rszo_estimate",
        "tzo_estimate",
        "fit_linear",
        "fit_quadratic",
        "get_sampler",
    )

    @pytest.mark.parametrize("method", ["szo", "rszo", "tzo", "l_reszo", "q_reszo"])
    def test_layer_functions_looked_up_by_name_at_call_time(self, method):
        # Tracers patch these module-level names; a driver that bound
        # them at import time would bypass the patches.
        obj = make_objective(BenchmarkSpec("ridge", d=4, n_samples=16, seed=9))
        if method in ("l_reszo", "q_reszo"):
            cfg = reszo_cfg(method=method, window_m=6, iterations=15, eta=1e-5)
            n_estimator = cfg.window_m
        else:
            cfg = OptimizerConfig(method=method, eta=1e-5, delta=0.05, iterations=15)
            n_estimator = cfg.iterations
        estimator = "rszo" if method in ("l_reszo", "q_reszo") else method
        expected = dict.fromkeys(self.LAYER_NAMES, 0)
        expected[f"{estimator}_estimate"] = n_estimator
        if method == "l_reszo":
            expected["fit_linear"] = cfg.iterations - cfg.window_m
        if method == "q_reszo":
            expected["fit_quadratic"] = cfg.iterations - cfg.window_m
        expected["get_sampler"] = 1
        counters = {
            name: mock.Mock(wraps=getattr(reszo.optimizers, name)) for name in self.LAYER_NAMES
        }
        with mock.patch.multiple(reszo.optimizers, **counters):
            run_optimizer(obj, cfg, np.zeros(4))
        assert {name: c.call_count for name, c in counters.items()} == expected

    @pytest.mark.parametrize("method", ["l_reszo", "q_reszo"])
    @pytest.mark.parametrize("direction", ["sphere", "gaussian"])
    def test_warm_phase_is_rszo(self, method, direction):
        spec = BenchmarkSpec("ridge", d=4, n_samples=16, seed=9)
        cfg = reszo_cfg(method=method, window_m=7, iterations=15, direction=direction, seed=4)
        warm = OptimizerConfig(
            method="rszo",
            eta=cfg.warm_eta,
            delta=cfg.warm_delta,
            iterations=cfg.window_m,
            direction=direction,
            seed=cfg.seed,
        )
        x0 = np.full(4, 0.3)
        reg = run_optimizer(make_objective(spec), cfg, x0)
        base = run_optimizer(make_objective(spec), warm, x0)
        for attr in ("queries", "f_values", "grad_est_norms", "deltas", "solver_paths"):
            np.testing.assert_array_equal(getattr(reg, attr)[: cfg.window_m], getattr(base, attr))
