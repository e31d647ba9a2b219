from dataclasses import replace

import numpy as np
import pytest

import reszo.harness
from reszo import (
    BenchmarkSpec,
    BlackBoxObjective,
    DivergenceError,
    ExperimentConfig,
    OptimizerConfig,
    cd_ratio,
    cd_statistics,
    finite_difference_gradient,
    make_objective,
    make_rng,
    run_experiment,
    run_optimizer,
)
from reszo.diagnostics import DiagnosticsCollector


class TestFiniteDifferenceGradient:
    def test_linear_is_exact(self):
        a = np.array([1.5, -2.0, 0.25])
        f = lambda x: float(a @ x)
        g = finite_difference_gradient(f, np.zeros(3))
        assert np.max(np.abs(g - a)) <= 1e-12

    def test_quadratic_example(self):
        f = lambda x: float(x @ x)
        g = finite_difference_gradient(f, np.array([1.0, 2.0]), h=1e-5)
        np.testing.assert_allclose(g, [2.0, 4.0], atol=1e-8)

    def test_ridge_cross_check(self):
        obj = make_objective(BenchmarkSpec("ridge", d=6, n_samples=40, seed=4))
        rng = make_rng(2)
        for _ in range(10):
            x = rng.standard_normal(6)
            fd = finite_difference_gradient(obj, x)
            an = obj.gradient(x)
            assert np.linalg.norm(fd - an) <= 1e-5 * np.linalg.norm(an)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            finite_difference_gradient(lambda x: 0.0, np.zeros(2), h=0.0)


class TestCdRatio:
    def test_formula(self):
        val = cd_ratio(
            g_t=np.array([1.0, 0.0]),
            grad_at_xhat=np.zeros(2),
            smoothness=2.0,
            xhat_t=np.zeros(2),
            xhat_oldest=np.array([0.5, 0.0]),
        )
        assert val == pytest.approx(2.0)

    def test_zero_numerator(self):
        g = np.array([0.3, -0.1])
        assert cd_ratio(g, g, 1.0, np.zeros(2), np.ones(2)) == 0.0

    def test_zero_denominator_returns_none(self):
        x = np.ones(2)
        assert cd_ratio(np.ones(2), np.zeros(2), 1.0, x, x) is None

    def test_requires_positive_smoothness(self):
        with pytest.raises(ValueError):
            cd_ratio(np.ones(1), np.zeros(1), 0.0, np.zeros(1), np.ones(1))


def affine_objective(d, seed=0, smoothness=None):
    a = make_rng(seed).standard_normal(d)
    return BlackBoxObjective(
        d,
        lambda x: float(a @ x) + 0.5,
        analytic_gradient=lambda x: a.copy(),
        smoothness_L=smoothness,
    )


def reszo_cfg(**kw):
    base = dict(
        method="l_reszo",
        eta=1e-3,
        delta=0.01,
        iterations=20,
        window_m=6,
        warm_eta=1e-4,
        warm_delta=0.05,
        seed=1,
    )
    base.update(kw)
    return OptimizerConfig(**base)


class TestAttachDiagnostics:
    """A DiagnosticsCollector attached to a run_optimizer call."""

    def test_affine_bias_is_zero_post_warm(self):
        obj = affine_objective(4, smoothness=1.0)
        cfg = reszo_cfg(window_m=6, iterations=16)
        collector = DiagnosticsCollector(obj)
        trace = run_optimizer(obj, cfg, np.zeros(4), diagnostics=collector)
        records = collector.records
        assert len(records) == cfg.iterations - cfg.window_m
        for rec in records:
            assert rec.xi_norm <= 1e-9
        post = trace.xi_norms[cfg.window_m :]
        assert np.all(post <= 1e-9)
        assert np.all(np.isnan(trace.xi_norms[: cfg.window_m]))

    def test_oracle_channel_isolation(self):
        spec = BenchmarkSpec("ridge", d=4, n_samples=20, seed=6)
        cfg = reszo_cfg(window_m=6, iterations=18, eta=1e-5)
        plain_obj = make_objective(spec)
        plain = run_optimizer(plain_obj, cfg, np.zeros(4))
        diag_obj = make_objective(spec)
        diagnosed = run_optimizer(
            diag_obj, cfg, np.zeros(4), diagnostics=DiagnosticsCollector(diag_obj)
        )
        assert plain_obj.query_count == diag_obj.query_count
        for attr in ("queries", "f_values", "grad_est_norms", "deltas", "final_x"):
            np.testing.assert_array_equal(getattr(plain, attr), getattr(diagnosed, attr))

    def test_cd_present_for_linear_absent_for_quadratic(self):
        spec = BenchmarkSpec("ridge", d=4, n_samples=20, seed=6)
        cfg_l = reszo_cfg(window_m=6, iterations=18, eta=1e-5)
        obj_l = make_objective(spec)
        collector_l = DiagnosticsCollector(obj_l)
        trace_l = run_optimizer(obj_l, cfg_l, np.zeros(4), diagnostics=collector_l)
        recs_l = collector_l.records
        assert any(r.cd_ratio is not None for r in recs_l)
        assert np.any(np.isfinite(trace_l.cd_ratios))
        cfg_q = reszo_cfg(method="q_reszo", window_m=6, iterations=18, eta=1e-5)
        obj_q = make_objective(spec)
        collector_q = DiagnosticsCollector(obj_q)
        trace_q = run_optimizer(obj_q, cfg_q, np.zeros(4), diagnostics=collector_q)
        recs_q = collector_q.records
        assert all(r.cd_ratio is None for r in recs_q)
        assert not np.any(np.isfinite(trace_q.cd_ratios))
        assert np.any(np.isfinite(trace_q.xi_norms))

    def test_requires_regression_method(self):
        cfg = OptimizerConfig(method="szo", eta=1e-3, delta=0.1, iterations=5)
        obj = affine_objective(2)
        with pytest.raises(ValueError):
            run_optimizer(obj, cfg, np.zeros(2), diagnostics=DiagnosticsCollector(obj))

    def test_finite_difference_fallback_when_no_analytic_gradient(self):
        spec = BenchmarkSpec("neural_net", d=7, n_samples=10, seed=3)
        obj = make_objective(spec)
        cfg = reszo_cfg(window_m=4, iterations=8, eta=1e-4)
        x0 = make_rng(5, stream=1).uniform(-1, 1, 7)
        collector = DiagnosticsCollector(obj)
        run_optimizer(obj, cfg, x0, diagnostics=collector)
        records = collector.records
        assert obj.query_count == cfg.iterations + 1
        assert all(np.isfinite(r.xi_norm) for r in records)
        # No smoothness constant, so the ratio stays absent.
        assert all(r.cd_ratio is None for r in records)


def test_cd_statistics():
    stats = cd_statistics([1.0, 2.0, None, np.nan, 3.0])
    assert stats["count"] == 3
    assert stats["max"] == 3.0
    assert stats["mean"] == pytest.approx(2.0)
    empty = cd_statistics([None])
    assert empty["count"] == 0 and np.isnan(empty["max"])


@pytest.mark.parametrize("method, per_iteration", [("l_reszo", 2), ("q_reszo", 1)])
def test_diagnosed_run_gradient_calls(method, per_iteration):
    # Diagnostics pay one true gradient at the iterate per post-warm
    # iteration, plus one at the perturbed point when the linear run
    # tracks the C/D ratio; the warm phase computes none.
    spec = BenchmarkSpec("ridge", d=4, n_samples=20, seed=6)
    obj = make_objective(spec)
    calls = []
    gradient = obj.gradient

    def counted(x):
        calls.append(1)
        return gradient(x)

    obj.gradient = counted
    cfg = reszo_cfg(method=method, window_m=6, iterations=18, eta=1e-5)
    run_optimizer(obj, cfg, np.zeros(4), diagnostics=DiagnosticsCollector(obj))
    assert len(calls) == per_iteration * (cfg.iterations - cfg.window_m)
    assert obj.query_count == cfg.iterations + 1


@pytest.mark.parametrize(
    "problem, method, expect_cd",
    [
        ("ridge", "l_reszo", True),
        ("ridge", "q_reszo", False),
        # rosenbrock has an analytic gradient but no smoothness constant.
        ("rosenbrock", "l_reszo", False),
    ],
)
def test_experiment_trial_matches_direct_diagnosed_run(problem, method, expect_cd):
    # The driver alone decides whether a run tracks the cd ratio, so a
    # diagnosed experiment trial and a direct run agree bit for bit.
    spec = BenchmarkSpec(problem, d=4, n_samples=20, seed=6)
    cfg = reszo_cfg(method=method, window_m=6, iterations=18, eta=1e-5)
    exp = ExperimentConfig(spec, cfg, trials=2, base_seed=3, record_diagnostics=True)
    results, _ = run_experiment(exp)
    trial = results[1]
    obj = make_objective(spec)
    x0 = reszo.initial_point(spec, make_rng(trial.seed, stream=1))
    direct = run_optimizer(
        obj, replace(cfg, seed=trial.seed), x0, diagnostics=DiagnosticsCollector(obj)
    )
    for attr in ("xi_norms", "cd_ratios"):
        assert getattr(trial.trace, attr).tobytes() == getattr(direct, attr).tobytes()
    assert np.any(np.isfinite(direct.xi_norms))
    assert np.any(np.isfinite(direct.cd_ratios)) == expect_cd


def spiking_objective(d, spike_call):
    """(x - 1)^2 summed, except a runaway value on one call."""
    calls = [0]

    def value(x):
        calls[0] += 1
        return 1e13 if calls[0] == spike_call else float((x - 1.0) @ (x - 1.0))

    return BlackBoxObjective(
        d, value, analytic_gradient=lambda x: 2.0 * (x - 1.0), smoothness_L=2.0
    )


def assert_partial_diagnostics(trace, cfg, diverged_at):
    assert trace.diverged and trace.divergence_iteration == diverged_at
    assert len(trace.xi_norms) == len(trace.cd_ratios) == len(trace) == diverged_at + 1
    m = cfg.window_m
    assert np.all(np.isnan(trace.xi_norms[:m]))
    assert np.all(np.isfinite(trace.xi_norms[m:]))
    assert np.all(np.isfinite(trace.cd_ratios[m:]))


class TestDivergedDiagnosedRun:
    # The seed evaluation is call 1 and iteration t is call t + 2, so a
    # runaway value on call 12 diverges the run at post-warm iteration 10.
    CFG = reszo_cfg(window_m=6, iterations=20, eta=1e-2)

    def test_direct_call_keeps_diagnostics(self):
        obj = spiking_objective(4, spike_call=12)
        with pytest.raises(DivergenceError) as err:
            run_optimizer(obj, self.CFG, np.zeros(4), diagnostics=DiagnosticsCollector(obj))
        assert_partial_diagnostics(err.value.trace, self.CFG, diverged_at=10)

    def test_run_experiment_keeps_diagnostics(self, monkeypatch):
        # Trials share one objective, so only trial 0 sees the spike.
        obj = spiking_objective(4, spike_call=12)
        monkeypatch.setattr(reszo.harness, "make_objective", lambda spec: obj)
        exp = ExperimentConfig(
            BenchmarkSpec("ridge", d=4, n_samples=10),
            self.CFG,
            trials=2,
            record_diagnostics=True,
        )
        results, curve = run_experiment(exp)
        assert curve.diverged_count == 1 and not results[1].diverged
        assert_partial_diagnostics(results[0].trace, self.CFG, diverged_at=10)
