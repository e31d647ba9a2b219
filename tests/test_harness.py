import csv
import dataclasses
import io
import json
from pathlib import Path

import numpy as np
import pytest

import reszo
import reszo.harness
from reszo import (
    AggregateCurve,
    BenchmarkSpec,
    ExperimentConfig,
    ExperimentFailedError,
    OptimizerConfig,
    RunTrace,
    TrialResult,
    aggregate_trials,
    experiment_from_dict,
    experiment_to_dict,
    export_results,
    grid_search,
    load_curve_csv,
    make_objective,
    merge_curves,
    run_experiment,
)
from reszo.harness import (
    queries_to_reach,
    write_compare_csv,
    write_curve_csv,
    write_trials_csv,
)


def synthetic_trace(queries, f_values, diverged=False):
    queries = np.asarray(queries, dtype=np.int64)
    n = len(queries)
    return RunTrace(
        iterations=np.arange(n, dtype=np.int64),
        queries=queries,
        f_values=np.asarray(f_values, dtype=np.float64),
        grad_est_norms=np.zeros(n),
        deltas=np.zeros(n),
        solver_paths=np.zeros(n, dtype=np.int8),
        final_x=np.zeros(1),
        diverged=diverged,
        divergence_iteration=n - 1 if diverged else None,
    )


def small_experiment(**kw):
    base = dict(
        benchmark=BenchmarkSpec("ridge", d=4, n_samples=20, seed=3),
        optimizer=OptimizerConfig(
            method="l_reszo",
            eta=1e-4,
            delta=0.01,
            iterations=20,
            window_m=6,
            warm_eta=1e-5,
            warm_delta=0.05,
        ),
        trials=3,
        base_seed=50,
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestAggregateTrials:
    def test_hand_computed_percentiles(self):
        traces = [synthetic_trace([1], [v]) for v in (1.0, 2.0, 3.0, 4.0, 5.0)]
        curve = aggregate_trials(traces, confidence=0.8, optimum_value=0.0)
        assert curve.mean_gap[0] == pytest.approx(3.0)
        assert curve.ci_low[0] == pytest.approx(1.4)
        assert curve.ci_high[0] == pytest.approx(4.6)

    def test_single_trial_degenerate_band(self):
        curve = aggregate_trials(
            [synthetic_trace([1, 2, 3], [5.0, 4.0, 3.0])], 0.8, optimum_value=1.0
        )
        np.testing.assert_array_equal(curve.mean_gap, [4.0, 3.0, 2.0])
        np.testing.assert_array_equal(curve.ci_low, curve.mean_gap)
        np.testing.assert_array_equal(curve.ci_high, curve.mean_gap)

    def test_identical_traces_zero_width(self):
        traces = [synthetic_trace([1, 2], [3.0, 1.0]) for _ in range(6)]
        curve = aggregate_trials(traces, 0.8)
        np.testing.assert_array_equal(curve.ci_low, curve.ci_high)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        traces = [synthetic_trace([1, 2, 3], rng.uniform(1, 2, 3)) for _ in range(7)]
        a = aggregate_trials(traces, 0.8)
        b = aggregate_trials(traces[::-1], 0.8)
        np.testing.assert_array_equal(a.mean_gap, b.mean_gap)
        np.testing.assert_array_equal(a.ci_low, b.ci_low)
        np.testing.assert_array_equal(a.ci_high, b.ci_high)

    def test_forward_fill_alignment(self):
        t1 = synthetic_trace([1, 3], [10.0, 6.0])
        t2 = synthetic_trace([2, 4], [8.0, 2.0])
        curve = aggregate_trials([t1, t2], 0.8)
        np.testing.assert_array_equal(curve.queries, [1, 2, 3, 4])
        # t1 holds 10 at q=2; t2 is backfilled to 8 at q=1.
        np.testing.assert_allclose(curve.mean_gap, [9.0, 9.0, 7.0, 4.0])

    def test_diverged_trials_excluded_but_counted(self):
        good = synthetic_trace([1, 2], [5.0, 4.0])
        bad = synthetic_trace([1], [9.0], diverged=True)
        curve = aggregate_trials([good, bad], 0.8)
        np.testing.assert_array_equal(curve.mean_gap, [5.0, 4.0])
        assert curve.diverged_count == 1
        assert curve.n_trials == 2

    def test_all_diverged_rejected(self):
        with pytest.raises(ValueError):
            aggregate_trials([synthetic_trace([1], [1.0], diverged=True)], 0.8)

    def test_band_contains_mean(self):
        # Extreme skew: plain percentiles would exclude the mean.
        traces = [synthetic_trace([1], [v]) for v in [0.0] * 99 + [1e9]]
        curve = aggregate_trials(traces, 0.8)
        assert curve.ci_low[0] <= curve.mean_gap[0] <= curve.ci_high[0]


class TestRunExperiment:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("name", ["trials", "base_seed", "confidence", "stride"])
    def test_non_finite_parameter_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            small_experiment(**{name: value})

    def test_trials_are_seeded_independently(self):
        results, curve = run_experiment(small_experiment())
        assert [r.seed for r in results] == [50, 51, 52]
        assert len({tuple(r.trace.f_values[:3]) for r in results}) == 3
        assert curve.n_trials == 3 and curve.diverged_count == 0

    def test_deterministic_across_calls(self):
        _, a = run_experiment(small_experiment())
        _, b = run_experiment(small_experiment())
        np.testing.assert_array_equal(a.mean_gap, b.mean_gap)

    def test_one_objective_per_experiment(self, monkeypatch):
        calls = []

        def counting(spec):
            calls.append(spec)
            return make_objective(spec)

        monkeypatch.setattr(reszo.harness, "make_objective", counting)
        results, _ = run_experiment(small_experiment(trials=3))
        assert len(calls) == 1
        # Each trial counts only its own queries on the shared counter.
        single, _ = run_experiment(small_experiment(trials=1))
        for res in results:
            np.testing.assert_array_equal(res.trace.queries, single[0].trace.queries)

    def test_all_diverged_raises_experiment_failed(self):
        exp = small_experiment(
            optimizer=OptimizerConfig(
                method="szo", eta=1e9, delta=0.01, iterations=30
            ),
            trials=2,
        )
        with pytest.raises(ExperimentFailedError, match=r"\|f\| exceeded 1e\+12") as err:
            run_experiment(exp)
        assert "trial 0: run diverged at iteration" in str(err.value)
        assert "trial 1: run diverged at iteration" in str(err.value)

    def test_surviving_trials_unaffected_by_divergent_ones(self):
        # A diverging configuration for some seeds must not perturb the
        # per-trial values of the surviving seeds.
        exp = small_experiment(trials=2)
        solo = small_experiment(trials=1)
        full, _ = run_experiment(exp)
        single, _ = run_experiment(solo)
        np.testing.assert_array_equal(
            full[0].trace.f_values, single[0].trace.f_values
        )


class TestGridSearch:
    def test_single_cell_returned(self):
        best, table = grid_search(small_experiment(), [1e-4], [0.01], trials=2)
        assert best.eta == 1e-4 and best.delta == 0.01
        assert len(table) == 1
        assert np.isfinite(best.score)

    def test_divergent_cell_scored_infinite_and_not_selected(self):
        exp = small_experiment(
            optimizer=OptimizerConfig(
                method="szo", eta=1e-6, delta=0.05, iterations=40
            )
        )
        best, table = grid_search(exp, [1e-6, 1e9], [0.05], trials=2)
        scores = {cell.eta: cell.score for cell in table}
        assert scores[1e9] == float("inf")
        assert best.eta == 1e-6

    def test_tie_breaks_prefer_smaller_eta(self):
        exp = small_experiment(
            optimizer=OptimizerConfig(method="szo", eta=1e9, delta=0.05, iterations=10)
        )
        best, _ = grid_search(exp, [2e9, 1e9], [0.05, 0.06], trials=1)
        assert best.eta == 1e9 and best.delta == 0.05


def test_queries_to_reach():
    curve = AggregateCurve(
        queries=np.array([1, 2, 3]),
        mean_gap=np.array([9.0, 4.0, 2.0]),
        ci_low=np.zeros(3),
        ci_high=np.zeros(3),
    )
    assert queries_to_reach(curve, 4.0) == 2
    assert queries_to_reach(curve, 1.0) == float("inf")


class TestExport:
    def test_curve_roundtrip_bit_exact(self, tmp_path):
        results, curve = run_experiment(small_experiment())
        exp = small_experiment()
        paths = export_results(curve, results, tmp_path / "out", exp=exp)
        loaded = load_curve_csv(paths["curve"])
        np.testing.assert_array_equal(loaded.queries, curve.queries)
        np.testing.assert_array_equal(loaded.mean_gap, curve.mean_gap)
        np.testing.assert_array_equal(loaded.ci_low, curve.ci_low)
        np.testing.assert_array_equal(loaded.ci_high, curve.ci_high)

    def test_trials_csv_columns(self, tmp_path):
        results, curve = run_experiment(small_experiment())
        paths = export_results(curve, results, tmp_path / "out")
        header = (paths["trials"]).read_text().splitlines()[0]
        assert header == "trial,iteration,queries,f_value,grad_est_norm,delta_t"

    def test_trials_csv_gains_diagnostic_columns(self, tmp_path):
        results, curve = run_experiment(small_experiment(record_diagnostics=True))
        paths = export_results(curve, results, tmp_path / "out")
        header = (paths["trials"]).read_text().splitlines()[0]
        assert header.endswith("xi_norm,cd_ratio")

    def test_manifest_reproduces_curve_bit_exactly(self, tmp_path):
        exp = small_experiment()
        results, curve = run_experiment(exp)
        paths = export_results(curve, results, tmp_path / "out", exp=exp)
        manifest = json.loads(paths["manifest"].read_text())
        rebuilt = experiment_from_dict(manifest)
        _, again = run_experiment(rebuilt)
        np.testing.assert_array_equal(curve.mean_gap, again.mean_gap)
        np.testing.assert_array_equal(curve.queries, again.queries)

    @pytest.mark.parametrize("kernels", ["lapack", "gufunc"])
    def test_manifest_records_numeric_environment(self, tmp_path, monkeypatch, kernels):
        # The manifest says which numpy, LAPACK, OpenBLAS thread count and
        # fit kernels produced the numbers; a config read from it ignores
        # them, so a rerun from it gives the same curve either way.
        from reszo import _openblas, regression

        if kernels == "gufunc":
            monkeypatch.setattr(regression, "_lapack", None)
        elif regression._lapack is None:
            pytest.skip("numpy has not loaded a bundled ILP64 OpenBLAS")
        exp = small_experiment()
        results, curve = run_experiment(exp)
        paths = export_results(curve, results, tmp_path / "out", exp=exp)
        manifest = json.loads(paths["manifest"].read_text())
        numeric = manifest["numeric"]
        assert set(numeric) == {"numpy", "lapack", "blas_threads", "fit_kernels"}
        assert numeric["numpy"] == np.__version__
        build = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
        assert numeric["lapack"] == build["name"]
        assert numeric["fit_kernels"] == kernels
        if _openblas.LIBRARY is None:
            assert numeric["blas_threads"] is None
        else:
            assert isinstance(numeric["blas_threads"], int) and numeric["blas_threads"] >= 1
        assert experiment_from_dict(manifest) == exp
        _, again = run_experiment(experiment_from_dict(manifest))
        np.testing.assert_array_equal(curve.mean_gap, again.mean_gap)

    def test_stride_subsamples_rows(self, tmp_path):
        results, curve = run_experiment(small_experiment())
        export_results(curve, results, tmp_path / "a")
        export_results(curve, results, tmp_path / "b", small_experiment(stride=5))
        rows_a = (tmp_path / "a" / "curve.csv").read_text().splitlines()
        rows_b = (tmp_path / "b" / "curve.csv").read_text().splitlines()
        assert len(rows_b) - 1 == (len(rows_a) - 1 + 4) // 5
        # The stride and the version come from the experiment and the package.
        for retired in ({"stride": 5}, {"version": "t"}):
            with pytest.raises(TypeError):
                export_results(curve, results, tmp_path / "c", **retired)

    def test_manifest_version_is_the_package_version(self, tmp_path):
        tomllib = pytest.importorskip("tomllib")
        exp = small_experiment(trials=1)
        results, curve = run_experiment(exp)
        paths = export_results(curve, results, tmp_path / "out", exp)
        manifest = json.loads(paths["manifest"].read_text())
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        project = tomllib.loads(pyproject.read_text())["project"]
        assert manifest["version"] == reszo.__version__ == project["version"]


def _fmt_value(value) -> str:
    """The per-value formatter the column-wise CSV writers replace."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    value = float(value)
    if np.isnan(value):
        return ""
    return format(value, ".17g")


def _csv_bytes(rows) -> bytes:
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(rows)
    return buf.getvalue().encode()


@pytest.mark.parametrize("stride", [1, 3])
def test_csv_writers_match_per_value_formatting(tmp_path, stride):
    # Byte for byte against the value-by-value writers, on traces with
    # NaN and inf entries, NaN diagnostic columns, a trial without
    # diagnostics next to one with them, and values that need all 17 digits.
    rng = np.random.default_rng(7)
    n = 11
    diag = synthetic_trace(np.arange(1, n + 1), rng.standard_normal(n) * 1e5)
    diag.f_values[4] = np.nan
    diag.deltas[:] = rng.random(n) / 3.0
    diag.deltas[2] = np.inf
    diag.xi_norms = np.full(n, np.nan)
    diag.xi_norms[::4] = rng.random(3)
    diag.cd_ratios = np.full(n, np.nan)
    plain = synthetic_trace(np.arange(2, 2 * n + 2, 2), 1.0 / np.arange(1, n + 1))
    results = [TrialResult(0, 10, diag), TrialResult(1, 11, plain)]
    rows = [["trial", "iteration", "queries", "f_value", "grad_est_norm", "delta_t"]]
    rows[0] += ["xi_norm", "cd_ratio"]
    for res in results:
        tr = res.trace
        for i in range(0, len(tr), stride):
            row = [res.index, int(tr.iterations[i]), int(tr.queries[i])]
            row += [_fmt_value(v[i]) for v in (tr.f_values, tr.grad_est_norms, tr.deltas)]
            if tr.has_diagnostics:
                row += [_fmt_value(tr.xi_norms[i]), _fmt_value(tr.cd_ratios[i])]
            else:
                row += ["", ""]
            rows.append(row)
    write_trials_csv(results, tmp_path / "trials.csv", stride=stride)
    assert (tmp_path / "trials.csv").read_bytes() == _csv_bytes(rows)

    curves = [
        AggregateCurve(diag.queries, diag.f_values, diag.deltas, diag.xi_norms),
        AggregateCurve(plain.queries, plain.f_values, plain.deltas, plain.grad_est_norms),
    ]
    rows = [["queries", "mean_gap", "ci_low", "ci_high"]]
    c = curves[0]
    for i in range(0, len(c), stride):
        columns = (c.mean_gap, c.ci_low, c.ci_high)
        rows.append([int(c.queries[i])] + [_fmt_value(v[i]) for v in columns])
    write_curve_csv(c, tmp_path / "curve.csv", stride=stride)
    assert (tmp_path / "curve.csv").read_bytes() == _csv_bytes(rows)

    grid, merged = merge_curves(["a", "b"], curves)
    rows = [["queries"] + [f"{k}_{col}" for k in "ab" for col in ("mean", "ci_low", "ci_high")]]
    for i in range(0, len(grid), stride):
        rows.append([int(grid[i])] + [_fmt_value(v[i]) for k in "ab" for v in merged[k]])
    write_compare_csv(["a", "b"], curves, tmp_path / "cmp.csv", stride=stride)
    assert (tmp_path / "cmp.csv").read_bytes() == _csv_bytes(rows)


CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))

# Every field JSON carries is off its default (OptimizerConfig.seed,
# which manifests leave out, is not carried).
OFF_DEFAULTS = ExperimentConfig(
    benchmark=BenchmarkSpec("logistic", d=7, n_samples=33, lam=0.25, seed=4),
    optimizer=OptimizerConfig(
        method="q_reszo",
        eta=2e-3,
        delta=0.0,
        iterations=30,
        window_m=9,
        warm_eta=3e-4,
        warm_delta=0.06,
        adaptive_delta=True,
        delta_min=1e-9,
        regression_mode="difference_no_intercept",
        direction="gaussian",
    ),
    trials=4,
    base_seed=11,
    confidence=0.9,
    record_diagnostics=True,
    output_path="out/every_field",
    stride=3,
)


def test_experiment_dict_roundtrip():
    for obj in (OFF_DEFAULTS, OFF_DEFAULTS.benchmark, OFF_DEFAULTS.optimizer):
        for f in dataclasses.fields(obj):
            if f.default is not dataclasses.MISSING and f.name != "seed":
                assert getattr(obj, f.name) != f.default, f.name
    assert CONFIGS
    shipped = [experiment_from_dict(json.loads(path.read_text())) for path in CONFIGS]
    for exp in [OFF_DEFAULTS] + shipped:
        assert experiment_from_dict(experiment_to_dict(exp)) == exp
        assert experiment_from_dict(json.loads(json.dumps(experiment_to_dict(exp)))) == exp


def test_experiment_dict_keys():
    # A new dataclass field must be added here before it reaches manifests.
    data = experiment_to_dict(OFF_DEFAULTS)
    assert set(data) == {
        "benchmark", "optimizer", "trials", "base_seed", "confidence",
        "record_diagnostics", "output_path", "stride",
    }
    assert set(data["benchmark"]) == {"problem", "d", "N", "lambda", "seed"}
    assert set(data["optimizer"]) == {
        "method", "eta", "delta", "iterations", "window_m", "warm_eta", "warm_delta",
        "adaptive_delta", "delta_min", "regression_mode", "direction",
    }
    # The retired keys load and are ignored.
    data["workers"] = 4
    data["optimizer"]["seed"] = 5
    assert experiment_from_dict(data) == OFF_DEFAULTS


@pytest.mark.parametrize(
    "section, key",
    [
        (None, "benchmark"),
        (None, "optimizer"),
        ("benchmark", "problem"),
        ("benchmark", "d"),
        ("optimizer", "method"),
        ("optimizer", "eta"),
        ("optimizer", "delta"),
        ("optimizer", "iterations"),
    ],
)
def test_missing_required_key_is_rejected(section, key):
    data = experiment_to_dict(OFF_DEFAULTS)
    del (data if section is None else data[section])[key]
    with pytest.raises(ValueError, match=f"missing {section or 'config'} key: {key}"):
        experiment_from_dict(data)


@pytest.mark.parametrize(
    "value",
    [float("nan"), float("inf"), float("-inf"), 10**400],
    ids=["nan", "inf", "-inf", "10**400"],
)
@pytest.mark.parametrize(
    "section, key",
    [("benchmark", "lambda"), (None, "confidence")]
    + [("optimizer", k) for k in ("eta", "delta", "warm_eta", "warm_delta", "delta_min")],
)
def test_float_field_rejects_non_finite(section, key, value):
    data = experiment_to_dict(OFF_DEFAULTS)
    (data if section is None else data[section])[key] = value
    with pytest.raises(ValueError, match=f"{key} must be a finite number"):
        experiment_from_dict(data)


def test_merge_and_compare_csv(tmp_path):
    c1 = AggregateCurve(
        queries=np.array([1, 3]),
        mean_gap=np.array([4.0, 2.0]),
        ci_low=np.array([4.0, 2.0]),
        ci_high=np.array([4.0, 2.0]),
    )
    c2 = AggregateCurve(
        queries=np.array([2, 4]),
        mean_gap=np.array([5.0, 1.0]),
        ci_low=np.array([5.0, 1.0]),
        ci_high=np.array([5.0, 1.0]),
    )
    grid, merged = merge_curves(["a", "b"], [c1, c2])
    np.testing.assert_array_equal(grid, [1, 2, 3, 4])
    np.testing.assert_array_equal(merged["a"][0], [4.0, 4.0, 2.0, 2.0])
    np.testing.assert_array_equal(merged["b"][0], [5.0, 5.0, 5.0, 1.0])
    path = tmp_path / "cmp.csv"
    write_compare_csv(["a", "b"], [c1, c2], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "queries,a_mean,a_ci_low,a_ci_high,b_mean,b_ci_low,b_ci_high"
    assert len(lines) == 5


class TestGridSearchDeskScale:
    """Grid-search behavior on the flagship ridge configuration."""

    RIDGE = BenchmarkSpec("ridge", d=100, n_samples=1000, lam=0.1, seed=0)

    def test_zero_perturbation_cell_never_selected(self):
        opt = OptimizerConfig(
            method="l_reszo", eta=8e-6, delta=0.002, iterations=1200,
            window_m=110, warm_eta=2.5e-6, warm_delta=0.2,
        )
        exp = ExperimentConfig(benchmark=self.RIDGE, optimizer=opt, base_seed=500)
        best, table = grid_search(exp, [8e-6], [0.002, 0.0], trials=2)
        scores = {cell.delta: cell for cell in table}
        assert scores[0.0].score == float("inf")
        assert scores[0.0].diverged_trials == 2
        assert best.delta == 0.002 and np.isfinite(best.score)

    def test_bracketing_grid_stays_near_reference_cell(self):
        # A small grid around the reference two-point settings must not
        # select anything more than twice worse than that cell.
        opt = OptimizerConfig(method="tzo", eta=1.1e-5, delta=0.002, iterations=600)
        exp = ExperimentConfig(benchmark=self.RIDGE, optimizer=opt, base_seed=900)
        best, table = grid_search(exp, [5e-6, 1.1e-5], [0.002, 0.01], trials=3)
        reference = next(
            c for c in table if c.eta == 1.1e-5 and c.delta == 0.002
        )
        assert np.isfinite(reference.score)
        assert best.score <= 2.0 * reference.score
