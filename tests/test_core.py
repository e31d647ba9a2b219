from dataclasses import fields, replace

import numpy as np
import pytest

from reszo import (
    BenchmarkSpec,
    BlackBoxObjective,
    DimensionMismatchError,
    EvaluationFailureError,
    EvaluationWindow,
    ExperimentConfig,
    OptimizerConfig,
    cd_ratio,
    finite_difference_gradient,
    make_objective,
    make_rng,
    rszo_estimate,
    szo_estimate,
    tzo_estimate,
)

_VALID_CONFIGS = (
    BenchmarkSpec("ridge", d=4, n_samples=20),
    OptimizerConfig(
        method="l_reszo", eta=1e-4, delta=0.01, iterations=20, window_m=6,
        warm_eta=1e-5, warm_delta=0.05,
    ),
    ExperimentConfig(
        benchmark=BenchmarkSpec("ridge", d=4, n_samples=20),
        optimizer=OptimizerConfig(method="tzo", eta=1e-4, delta=0.01, iterations=20),
        trials=2,
        stride=2,
    ),
)
_INT_FIELDS = [
    (config, f.name)
    for config in _VALID_CONFIGS
    for f in fields(config)
    if f.type in (int, "int")
]
each_int_field = pytest.mark.parametrize(
    "config, name", _INT_FIELDS, ids=[f"{type(c).__name__}.{n}" for c, n in _INT_FIELDS]
)


@pytest.mark.parametrize("value", [2.5, 3.0, True, "3"])
@each_int_field
def test_integer_field_rejects_a_non_integer(config, name, value):
    # A bad argument, not a TypeError deep inside the run.
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        replace(config, **{name: value})


@each_int_field
def test_integer_field_accepts_a_numpy_integer(config, name):
    value = np.int64(getattr(config, name))
    assert getattr(replace(config, **{name: value}), name) == value


_X, _U = np.zeros(2), np.array([0.6, 0.8])
# Each positive real parameter, as one call on a counted objective.
_RANGE_CHECKS = {
    "szo_delta": lambda obj, v: szo_estimate(obj, _X, _U, v),
    "rszo_delta": lambda obj, v: rszo_estimate(obj, _X, _U, v, 0.0),
    "tzo_delta": lambda obj, v: tzo_estimate(obj, _X, _U, v),
    "smoothness_L": lambda obj, v: BlackBoxObjective(2, obj._fn, smoothness_L=v),
    "cd_ratio_smoothness": lambda obj, v: cd_ratio(_U, _X, v, _X, _U),
    "finite_difference_step": lambda obj, v: finite_difference_gradient(obj, _U, h=v),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -1.0])
@pytest.mark.parametrize("check", sorted(_RANGE_CHECKS))
def test_positive_parameter_rejects_non_finite_or_non_positive(check, value):
    # A ValueError naming the parameter, raised before any query and
    # before a NaN or infinity reaches the objective.
    obj = BlackBoxObjective(2, lambda x: float(x @ x))
    with pytest.raises(ValueError, match=f"must be positive and finite, got {value}"):
        _RANGE_CHECKS[check](obj, value)
    assert obj.query_count == 0


def test_rosenbrock_origin_is_zero():
    obj = make_objective(BenchmarkSpec("rosenbrock", d=2))
    assert obj.evaluate(np.zeros(2)) == 0.0


def test_repeated_evaluation_is_deterministic_and_counted():
    obj = make_objective(BenchmarkSpec("ridge", d=4, n_samples=20, seed=7))
    x = np.array([0.1, -0.2, 0.3, 0.4])
    before = obj.query_count
    v1 = obj.evaluate(x)
    v2 = obj.evaluate(x)
    assert v1 == v2
    assert obj.query_count == before + 2


def test_ridge_value_at_closed_form_minimizer():
    spec = BenchmarkSpec("ridge", d=6, n_samples=40, seed=11)
    obj = make_objective(spec)
    # Independent normal-equations solve and value computation.
    from reszo.benchmarks import _ridge_data

    arrays = _ridge_data(spec)
    h_mat, y_vec = arrays["H"], arrays["y"]
    x_star = np.linalg.solve(
        h_mat.T @ h_mat + spec.lam * np.eye(spec.d), h_mat.T @ y_vec
    )
    expected = 0.5 * np.sum((y_vec - h_mat @ x_star) ** 2) + 0.5 * spec.lam * np.sum(
        x_star**2
    )
    got = obj.evaluate(x_star)
    assert abs(got - expected) <= 1e-10 * abs(expected)
    assert abs(obj.optimum_value - expected) <= 1e-9 * abs(expected)


def test_dimension_mismatch_raises():
    obj = BlackBoxObjective(3, lambda x: float(x @ x))
    with pytest.raises(DimensionMismatchError):
        obj.evaluate(np.zeros(4))


def test_non_finite_result_raises_and_carries_point():
    obj = BlackBoxObjective(2, lambda x: float("inf"))
    x = np.array([1.0, 2.0])
    with pytest.raises(EvaluationFailureError) as err:
        obj.evaluate(x)
    assert np.array_equal(err.value.x, x)


def test_non_finite_input_rejected():
    obj = BlackBoxObjective(2, lambda x: 0.0)
    with pytest.raises(EvaluationFailureError):
        obj.evaluate(np.array([np.nan, 0.0]))


@pytest.mark.filterwarnings("error")
def test_huge_finite_input_accepted_without_warning():
    # The finiteness check sums squares, which overflow on this point: it
    # must neither reject the point nor warn, and nor may a window push.
    obj = BlackBoxObjective(2, lambda x: 1.0)
    x = np.array([1e200, -1e200])
    assert obj.evaluate(x) == 1.0
    win = EvaluationWindow(2, 2)
    win.push(x, 1.0)
    assert len(win) == 1


def test_oracle_channel_not_counted():
    obj = BlackBoxObjective(1, lambda x: float(x[0]))
    obj.evaluate(np.ones(1))
    obj.oracle_evaluate(np.ones(1))
    assert obj.query_count == 1


class TestMakeRng:
    def test_same_seed_same_stream(self):
        a = make_rng(123).standard_normal(16)
        b = make_rng(123).standard_normal(16)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = make_rng(1).standard_normal(8)
        b = make_rng(2).standard_normal(8)
        assert not np.array_equal(a, b)

    def test_streams_are_distinct(self):
        a = make_rng(5, stream=0).standard_normal(8)
        b = make_rng(5, stream=1).standard_normal(8)
        assert not np.array_equal(a, b)

    def test_rejects_out_of_range_seed(self):
        with pytest.raises(ValueError):
            make_rng(-1)
        with pytest.raises(ValueError):
            make_rng(2**64)
