"""Multi-trial experiment runner, aggregation and CSV export.

Trial k of an experiment runs with seed ``base_seed + k``; the Philox
streams behind distinct seeds are independent by construction, and the
benchmark dataset itself is keyed by the benchmark spec's own seed, so
all trials share one dataset.  Aggregation aligns trials on the union
of their cumulative-query grids (forward-filled) and reports the mean
plus distribution-free percentile confidence bands.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace
from itertools import repeat
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from .benchmarks import BenchmarkSpec, initial_point, make_objective
from .core import BlackBoxObjective, DivergenceError, ExperimentFailedError, make_rng
from .diagnostics import DiagnosticsCollector
from .optimizers import (
    REGRESSION_METHODS,
    OptimizerConfig,
    RunTrace,
    run_optimizer,
)


@dataclass
class ExperimentConfig:
    benchmark: BenchmarkSpec
    optimizer: OptimizerConfig
    trials: int = 1
    base_seed: int = 0
    confidence: float = 0.8
    record_diagnostics: bool = False
    output_path: Optional[str] = None
    stride: int = 1

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must lie in (0, 1)")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")


@dataclass
class TrialResult:
    index: int
    seed: int
    trace: RunTrace
    # The DivergenceError message of a diverged trial, None otherwise.
    divergence_reason: Optional[str] = None

    @property
    def diverged(self) -> bool:
        return self.trace.diverged


@dataclass
class AggregateCurve:
    """Mean and percentile band of the optimality gap over queries."""

    queries: np.ndarray
    mean_gap: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    diverged_count: int = 0
    n_trials: int = 0

    def __len__(self):
        return len(self.queries)


def _run_single_trial(exp: ExperimentConfig, obj: BlackBoxObjective, k: int) -> TrialResult:
    seed = exp.base_seed + k
    x0 = initial_point(exp.benchmark, make_rng(seed, stream=1))
    cfg = replace(exp.optimizer, seed=seed)
    collector = None
    if exp.record_diagnostics and cfg.method in REGRESSION_METHODS:
        collector = DiagnosticsCollector(obj, track_cd=(cfg.method == "l_reszo"))
    reason = None
    try:
        trace = run_optimizer(obj, cfg, x0, diagnostics=collector)
    except DivergenceError as exc:
        trace, reason = exc.trace, str(exc)
    return TrialResult(index=k, seed=seed, trace=trace, divergence_reason=reason)


def _hold_previous(queries: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Index of the last record at or before each grid point, holding
    the first record before it."""
    return np.clip(np.searchsorted(queries, grid, side="right") - 1, 0, len(queries) - 1)


def aggregate_trials(
    traces: Sequence[RunTrace], confidence: float, optimum_value: float = 0.0
) -> AggregateCurve:
    """Align traces on the union query grid and aggregate their gaps.

    Diverged traces are counted but excluded from the curves.  The
    confidence band uses empirical percentiles at (1 +- confidence)/2
    with linear interpolation between order statistics, widened if
    necessary so the band always contains the mean.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie in (0, 1)")
    live = [t for t in traces if not t.diverged and len(t) > 0]
    if not live:
        raise ValueError("need at least one non-diverged trace to aggregate")
    grid = np.unique(np.concatenate([t.queries for t in live]))
    gap_matrix = np.empty((len(live), len(grid)))
    for i, trace in enumerate(live):
        gap_matrix[i] = (trace.f_values - optimum_value)[_hold_previous(trace.queries, grid)]
    mean = gap_matrix.mean(axis=0)
    lo_pct = 100.0 * (1.0 - confidence) / 2.0
    hi_pct = 100.0 * (1.0 + confidence) / 2.0
    ci_low = np.percentile(gap_matrix, lo_pct, axis=0)
    ci_high = np.percentile(gap_matrix, hi_pct, axis=0)
    ci_low = np.minimum(ci_low, mean)
    ci_high = np.maximum(ci_high, mean)
    return AggregateCurve(
        queries=grid,
        mean_gap=mean,
        ci_low=ci_low,
        ci_high=ci_high,
        diverged_count=sum(1 for t in traces if t.diverged),
        n_trials=len(traces),
    )


def run_experiment(exp: ExperimentConfig):
    """Run all trials; returns (trial results, aggregate curve).

    Trials run one after another over one objective; each driver counts
    its queries from the counter's value at its start.  Raises
    ExperimentFailedError when every trial diverged.
    """
    obj = make_objective(exp.benchmark)
    results = [_run_single_trial(exp, obj, k) for k in range(exp.trials)]
    if all(r.diverged for r in results):
        detail = "; ".join(f"trial {r.index}: {r.divergence_reason}" for r in results)
        raise ExperimentFailedError(f"all {exp.trials} trial(s) diverged ({detail})")
    fstar = obj.optimum_value
    if fstar is None:
        fstar = 0.0
    curve = aggregate_trials([r.trace for r in results], exp.confidence, fstar)
    return results, curve


# -- grid search -------------------------------------------------------------


@dataclass
class GridCell:
    eta: float
    delta: float
    score: float
    queries_to_2x: float
    diverged_trials: int


def queries_to_reach(curve: AggregateCurve, target: float) -> float:
    """First query count at which the mean gap is <= target (inf if never)."""
    hits = np.nonzero(curve.mean_gap <= target)[0]
    if hits.size == 0:
        return float("inf")
    return float(curve.queries[hits[0]])


def grid_search(
    base: ExperimentConfig,
    eta_grid: Sequence[float],
    delta_grid: Sequence[float],
    trials: int = 10,
):
    """Score every (eta, delta) cell; returns (best cell, full table).

    Score is the mean final gap over the reduced trial count; any
    divergence disqualifies the cell (score +inf).  Ties break toward
    fewer queries to reach twice the final gap, then the smaller eta,
    then the smaller delta.
    """
    if not eta_grid or not delta_grid:
        raise ValueError("eta and delta grids must be non-empty")
    table: List[GridCell] = []
    best = None
    best_key = None
    for eta in eta_grid:
        for delta in delta_grid:
            exp = replace(
                base,
                optimizer=replace(base.optimizer, eta=eta, delta=delta),
                trials=trials,
            )
            try:
                results, curve = run_experiment(exp)
                diverged = sum(1 for r in results if r.diverged)
            except ExperimentFailedError:
                diverged = trials
                curve = None
            if curve is None or diverged > 0:
                cell = GridCell(eta, delta, float("inf"), float("inf"), diverged)
            else:
                score = float(curve.mean_gap[-1])
                cell = GridCell(
                    eta, delta, score, queries_to_reach(curve, 2.0 * score), diverged
                )
            table.append(cell)
            key = (cell.score, cell.queries_to_2x, cell.eta, cell.delta)
            if best_key is None or key < best_key:
                best, best_key = cell, key
    return best, table


# -- export -------------------------------------------------------------------


# Column values converted to Python scalars at once while a CSV is written.
_CSV_CHUNK = 128


def _scalars(values, stride: int, dtype):
    """Every ``stride``-th value as a Python scalar, converted a chunk at
    a time rather than value by value or all at once."""
    column = np.asarray(values, dtype=dtype)[::stride]
    for start in range(0, len(column), _CSV_CHUNK):
        yield from column[start : start + _CSV_CHUNK].tolist()


def _fmt_column(values, stride: int = 1):
    """17-significant-digit decimals, so a float64 round-trips exactly,
    and NaN as an empty field."""
    return ("" if v != v else format(v, ".17g") for v in _scalars(values, stride, np.float64))


def _int_column(values, stride: int = 1):
    return _scalars(values, stride, np.int64)


def write_curve_csv(curve: AggregateCurve, path, stride: int = 1) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["queries", "mean_gap", "ci_low", "ci_high"])
        writer.writerows(
            zip(
                _int_column(curve.queries, stride),
                _fmt_column(curve.mean_gap, stride),
                _fmt_column(curve.ci_low, stride),
                _fmt_column(curve.ci_high, stride),
            )
        )


def load_curve_csv(path) -> AggregateCurve:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[:4] != ["queries", "mean_gap", "ci_low", "ci_high"]:
            raise ValueError(f"unexpected curve header {header!r}")
        rows = [row for row in reader if row]
    queries = np.asarray([int(r[0]) for r in rows], dtype=np.int64)
    cols = [np.asarray([float(r[i]) for r in rows]) for i in (1, 2, 3)]
    return AggregateCurve(queries, cols[0], cols[1], cols[2])


def write_trials_csv(results: Sequence[TrialResult], path, stride: int = 1) -> None:
    has_diag = any(r.trace.has_diagnostics for r in results)
    header = ["trial", "iteration", "queries", "f_value", "grad_est_norm", "delta_t"]
    if has_diag:
        header += ["xi_norm", "cd_ratio"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for res in results:
            tr = res.trace
            columns = [
                repeat(res.index),
                _int_column(tr.iterations, stride),
                _int_column(tr.queries, stride),
                _fmt_column(tr.f_values, stride),
                _fmt_column(tr.grad_est_norms, stride),
                _fmt_column(tr.deltas, stride),
            ]
            if has_diag:
                if tr.has_diagnostics:
                    columns += [_fmt_column(v, stride) for v in (tr.xi_norms, tr.cd_ratios)]
                else:
                    columns += [repeat(""), repeat("")]
            writer.writerows(zip(*columns))


def experiment_to_dict(exp: ExperimentConfig) -> dict:
    bench = exp.benchmark
    opt = exp.optimizer
    return {
        "benchmark": {
            "problem": bench.problem,
            "d": bench.d,
            "N": bench.n_samples,
            "lambda": bench.lam,
            "seed": bench.seed,
        },
        "optimizer": {
            "method": opt.method,
            "eta": opt.eta,
            "delta": opt.delta,
            "iterations": opt.iterations,
            "window_m": opt.window_m,
            "warm_eta": opt.warm_eta,
            "warm_delta": opt.warm_delta,
            "adaptive_delta": opt.adaptive_delta,
            "delta_min": opt.delta_min,
            "regression_mode": opt.regression_mode,
            "direction": opt.direction,
        },
        "trials": exp.trials,
        "base_seed": exp.base_seed,
        "confidence": exp.confidence,
        "record_diagnostics": exp.record_diagnostics,
        "output_path": exp.output_path,
        "stride": exp.stride,
    }


def experiment_from_dict(data: dict) -> ExperimentConfig:
    if "config" in data and "benchmark" not in data:
        data = data["config"]  # accept a manifest as a config
    bench_d = data["benchmark"]
    opt_d = dict(data["optimizer"])
    bench = BenchmarkSpec(
        problem=bench_d["problem"],
        d=int(bench_d["d"]),
        n_samples=int(bench_d.get("N", 1000)),
        lam=float(bench_d.get("lambda", 0.1)),
        seed=int(bench_d.get("seed", 0)),
    )
    opt_d.pop("seed", None)  # per-trial seeds come from base_seed
    opt = OptimizerConfig(
        method=opt_d["method"],
        eta=float(opt_d["eta"]),
        delta=float(opt_d["delta"]),
        iterations=int(opt_d["iterations"]),
        window_m=int(opt_d.get("window_m", 0)),
        warm_eta=None if opt_d.get("warm_eta") is None else float(opt_d["warm_eta"]),
        warm_delta=None if opt_d.get("warm_delta") is None else float(opt_d["warm_delta"]),
        adaptive_delta=bool(opt_d.get("adaptive_delta", False)),
        delta_min=None if opt_d.get("delta_min") is None else float(opt_d["delta_min"]),
        regression_mode=opt_d.get("regression_mode", "intercept_centered"),
        direction=opt_d.get("direction", "sphere"),
    )
    return ExperimentConfig(
        benchmark=bench,
        optimizer=opt,
        trials=int(data.get("trials", 1)),
        base_seed=int(data.get("base_seed", 0)),
        confidence=float(data.get("confidence", 0.8)),
        record_diagnostics=bool(data.get("record_diagnostics", False)),
        output_path=data.get("output_path"),
        stride=int(data.get("stride", 1)),
    )


def write_manifest(exp: ExperimentConfig, path, version: str) -> None:
    payload = {"version": version, "config": experiment_to_dict(exp)}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def export_results(
    curve: AggregateCurve,
    results: Sequence[TrialResult],
    out_dir,
    exp: Optional[ExperimentConfig] = None,
    stride: int = 1,
    version: str = "0",
) -> dict:
    """Write curve.csv, trials.csv and manifest.json under out_dir."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        paths = {"curve": out / "curve.csv", "trials": out / "trials.csv"}
        write_curve_csv(curve, paths["curve"], stride=stride)
        write_trials_csv(results, paths["trials"], stride=stride)
        if exp is not None:
            paths["manifest"] = out / "manifest.json"
            write_manifest(exp, paths["manifest"], version)
    except OSError as exc:
        raise ExportError(f"failed to export results to {out}: {exc}") from exc
    return paths


class ExportError(RuntimeError):
    """Export failed; results remain available in memory."""


# -- multi-config comparison ---------------------------------------------------


def merge_curves(labels: Sequence[str], curves: Sequence[AggregateCurve]):
    """Align several aggregate curves on their union query grid.

    Each curve is forward-filled between its grid points and held at
    its first value before them.  Returns (grid, per-label dict of
    (mean, ci_low, ci_high)).
    """
    if len(labels) != len(curves) or not curves:
        raise ValueError("labels and curves must be equal-length and non-empty")
    grid = np.unique(np.concatenate([c.queries for c in curves]))
    merged = {}
    for label, curve in zip(labels, curves):
        idx = _hold_previous(curve.queries, grid)
        merged[label] = (
            curve.mean_gap[idx],
            curve.ci_low[idx],
            curve.ci_high[idx],
        )
    return grid, merged


def write_compare_csv(labels, curves, path, stride: int = 1) -> None:
    grid, merged = merge_curves(labels, curves)
    header = ["queries"]
    for label in labels:
        header += [f"{label}_mean", f"{label}_ci_low", f"{label}_ci_high"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        columns = [_int_column(grid, stride)]
        for label in labels:
            columns += [_fmt_column(values, stride) for values in merged[label]]
        writer.writerows(zip(*columns))
