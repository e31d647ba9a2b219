"""One iteration driver, ``run_optimizer``, for the five zeroth-order methods.

``szo``, ``rszo`` and ``tzo`` are the classic estimator-based updates.
``l_reszo`` and ``q_reszo`` are rszo for their first ``window_m``
iterations (the warm start that fills the evaluation window), then
switch to surrogate-regression gradient estimates, querying the
objective exactly once per iteration throughout (plus the single seed
evaluation that primes the residual feedback).  ``run_optimizer`` is
the only entry point: it dispatches on ``cfg.method``.  The driver
looks its estimators, fits and sampler up by module-level name at call
time, so patching those names reroutes every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    DIVERGENCE_THRESHOLD,
    BlackBoxObjective,
    DivergenceError,
    EvaluationFailureError,
    _require_finite_fields,
    make_rng,
)
from .estimators import rszo_estimate, szo_estimate, tzo_estimate
from .regression import (
    REGRESSION_MODES,
    EvaluationWindow,
    fit_linear,
    fit_quadratic,
)
from .sampling import get_sampler

METHODS = ("szo", "rszo", "tzo", "l_reszo", "q_reszo")
REGRESSION_METHODS = ("l_reszo", "q_reszo")

# Code 2 belonged to the retired rank-1 inverse route.  No file records
# solver paths; the code stays only because perfbench/worker.py indexes
# SOLVER_PATH_CODES["cached_rank1"], until that benchmark stops asking.
SOLVER_PATH_CODES = {"pseudoinverse": 1, "cached_rank1": 2, "cached_moments": 3}


@dataclass
class OptimizerConfig:
    """Full parameterization of one optimizer run.

    ``warm_eta``/``warm_delta`` drive the residual-feedback warm start
    of the regression methods and are required for those; baselines
    ignore them.  ``delta`` may be zero only for regression methods
    (the no-perturbation ablation).  When ``adaptive_delta`` is set the
    post-warm smoothing radius follows eta * |previous estimate| with
    floor ``delta_min`` (default 1e-12 times the initial radius scale).
    """

    method: str
    eta: float
    delta: float
    iterations: int
    window_m: int = 0
    warm_eta: Optional[float] = None
    warm_delta: Optional[float] = None
    adaptive_delta: bool = False
    delta_min: Optional[float] = None
    regression_mode: str = "intercept_centered"
    direction: str = "sphere"
    seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        _require_finite_fields(self)
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.delta < 0:
            raise ValueError("delta must be non-negative")
        if self.regression_mode not in REGRESSION_MODES:
            raise ValueError(
                f"unknown regression mode {self.regression_mode!r}; "
                f"expected one of {REGRESSION_MODES}"
            )
        get_sampler(self.direction)  # raises on a name the sampler table lacks
        if self.delta_min is not None and self.delta_min < 0:
            raise ValueError("delta_min must be non-negative")
        if self.method in REGRESSION_METHODS:
            if self.window_m < 2:
                raise ValueError("regression methods need window_m >= 2")
            if self.iterations <= self.window_m:
                raise ValueError("regression methods need iterations > window_m")
            if self.warm_eta is None or self.warm_eta <= 0:
                raise ValueError("regression methods need a positive warm_eta")
            if self.warm_delta is None or self.warm_delta <= 0:
                raise ValueError("regression methods need a positive warm_delta")
        else:
            if self.delta == 0:
                raise ValueError("baseline methods need delta > 0")

    def effective_delta_min(self) -> float:
        if self.delta_min is not None:
            return self.delta_min
        scale = self.delta if self.delta > 0 else (self.warm_delta or 1.0)
        return 1e-12 * scale


@dataclass
class RunTrace:
    """Per-iteration scalars for one optimizer run plus the final iterate.

    ``run_optimizer`` fills every column in place, one row per iteration,
    and keeps the rows the run reached.  The diagnostics columns
    (``xi_norms``, ``cd_ratios``) exist only when a collector observed
    the run; each post-warm row holds what its ``observe`` call returned,
    and entries are NaN where undefined (the warm rows, and a cd ratio
    the collector did not compute).
    """

    iterations: np.ndarray
    queries: np.ndarray
    f_values: np.ndarray
    grad_est_norms: np.ndarray
    deltas: np.ndarray
    solver_paths: np.ndarray
    final_x: np.ndarray
    diverged: bool = False
    divergence_iteration: Optional[int] = None
    xi_norms: Optional[np.ndarray] = None
    cd_ratios: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.iterations)

    @property
    def has_diagnostics(self) -> bool:
        return self.xi_norms is not None


# The dtype of each column run_optimizer fills, in RunTrace field order;
# ``iterations`` is the row index.  The columns are Python lists, which
# take a value faster than a numpy array does, converted once when the
# run ends.
_COLUMN_DTYPES = {
    "queries": np.int64,
    "f_values": np.float64,
    "grad_est_norms": np.float64,
    "deltas": np.float64,
    "solver_paths": np.int8,
    "xi_norms": np.float64,
    "cd_ratios": np.float64,
}


def adaptive_delta(eta: float, g_prev: np.ndarray, delta_min: float = 0.0) -> float:
    """Next smoothing radius: eta * |g_prev| floored at delta_min."""
    return max(eta * math.sqrt(g_prev @ g_prev), delta_min)


def _trace(columns, rows, x, divergence_iteration=None) -> RunTrace:
    """The RunTrace of the first ``rows`` rows of ``columns``."""
    return RunTrace(
        iterations=np.arange(rows, dtype=np.int64),
        final_x=np.array(x, dtype=np.float64),
        diverged=divergence_iteration is not None,
        divergence_iteration=divergence_iteration,
        **{name: np.asarray(col[:rows], _COLUMN_DTYPES[name]) for name, col in columns.items()},
    )


def _diverge(columns, rows, x, t, reason):
    trace = _trace(columns, rows, x, divergence_iteration=t)
    raise DivergenceError(f"run diverged at iteration {t}: {reason}", trace=trace)


def _guarded_evaluate(obj, xh, x, columns, t):
    """f(xh); a failure diverges the run with its first ``t`` rows and
    the iterate ``x`` as its final point, as an estimator-phase failure
    does."""
    try:
        return obj.evaluate(xh)
    except EvaluationFailureError as exc:
        _diverge(columns, t, x, t, str(exc))


def run_optimizer(
    obj: BlackBoxObjective,
    cfg: OptimizerConfig,
    x0: np.ndarray,
    diagnostics=None,
) -> RunTrace:
    """Run cfg.method from x0 and return its trace.

    Every method starts with an estimator phase: all iterations for the
    baselines, the first ``window_m`` (the rszo warm start, at
    ``warm_eta``/``warm_delta``) for the regression methods, which then
    take surrogate-fit steps.  Residual-feedback methods spend one
    seed evaluation before iteration 0.  ``diagnostics`` observes each
    surrogate-fit step, with the window's oldest perturbed point for
    l_reszo (its cd ratio) and None for q_reszo.  Raises
    DivergenceError on a failed evaluation or a runaway value, with the
    partial trace attached: the rows before a failed evaluation, or up
    to and including the runaway one, diagnostics columns included when
    observed.
    """
    method = cfg.method
    regression = method in REGRESSION_METHODS
    if diagnostics is not None and not regression:
        raise ValueError("diagnostics collectors require a regression method")
    d = obj.dimension
    rng = make_rng(cfg.seed)
    sampler = get_sampler(cfg.direction)
    x = np.array(x0, dtype=np.float64)
    if x.shape != (d,):
        raise ValueError(f"x0 must have shape ({d},)")
    q0 = obj.query_count
    if regression:
        n_estimator, eta_e, delta_e = cfg.window_m, cfg.warm_eta, cfg.warm_delta
        window = EvaluationWindow(cfg.window_m, d)
        delta_floor = cfg.effective_delta_min()
    else:
        n_estimator, eta_e, delta_e = cfg.iterations, cfg.eta, cfg.delta
        window = None
    columns = {name: [math.nan] * cfg.iterations for name in _COLUMN_DTYPES}
    queries, f_values, grad_norms, deltas, paths, xi_norms, cd_ratios = columns.values()
    if diagnostics is None:
        del columns["xi_norms"], columns["cd_ratios"]

    prev = None
    if method not in ("szo", "tzo"):
        # Seed evaluation priming the residual feedback; in a window it
        # ages out by the time the regression phase starts.
        u = sampler(rng, d)
        xh = x + delta_e * u
        prev = _guarded_evaluate(obj, xh, x, columns, 0)
        if window is not None:
            window.push(xh, prev)

    g_prev = None
    for t in range(cfg.iterations):
        u = sampler(rng, d)
        path = 0
        if t < n_estimator:
            delta_t, eta_t = delta_e, eta_e
            try:
                if method == "szo":
                    out = szo_estimate(obj, x, u, delta_t)
                elif method == "tzo":
                    out = tzo_estimate(obj, x, u, delta_t)
                else:
                    out = rszo_estimate(obj, x, u, delta_t, prev)
                    prev = out.last_value
            except EvaluationFailureError as exc:
                _diverge(columns, t, x, t, str(exc))
            estimate = out.gradient_estimate
            fv = out.last_value
            if window is not None:
                window.push(x + delta_t * u, fv)
        else:
            if cfg.adaptive_delta:
                delta_t = adaptive_delta(cfg.eta, g_prev, delta_floor)
            else:
                delta_t = cfg.delta
            xh = x + delta_t * u
            fv = _guarded_evaluate(obj, xh, x, columns, t)
            window.push(xh, fv)
            if method == "q_reszo":
                fit = fit_quadratic(window)
                # The surrogate's gradient at the iterate x, not at xh.
                estimate = fit.g - delta_t * fit.h * u
            else:
                fit = fit_linear(window, cfg.regression_mode)
                estimate = fit.g
            eta_t = cfg.eta
            path = SOLVER_PATH_CODES[fit.solver_path]
            if diagnostics is not None:
                oldest = window.oldest_point() if method == "l_reszo" else None
                record = diagnostics.observe(t, x, xh, estimate, oldest)
                xi_norms[t] = record.xi_norm
                if record.cd_ratio is not None:
                    cd_ratios[t] = record.cd_ratio
        queries[t] = obj.query_count - q0
        f_values[t] = fv
        grad_norms[t] = math.sqrt(estimate @ estimate)
        deltas[t] = delta_t
        paths[t] = path
        if abs(fv) > DIVERGENCE_THRESHOLD:
            _diverge(columns, t + 1, x, t, f"|f| exceeded {DIVERGENCE_THRESHOLD:g}")
        x = x - eta_t * estimate
        g_prev = estimate
    return _trace(columns, cfg.iterations, x)
