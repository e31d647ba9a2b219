"""Measurable counterparts of the method's theoretical quantities.

Everything here runs on the objective's uncounted oracle channel, so a
diagnosed run reports exactly the same query complexity as an
undiagnosed one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .core import BlackBoxObjective
from .optimizers import RunTrace


@dataclass
class DiagnosticsRecord:
    """Per-iteration diagnostics for a regression-method run.

    ``xi_norm`` is the distance between the gradient estimate and the
    true gradient at the iterate, ``grad_norm`` the true gradient's
    norm there; ``cd_ratio`` relates the estimate's error at the
    perturbed point to the window spread times L/2 and is None when
    undefined (no smoothness constant, zero spread, or a
    quadratic-surrogate run).
    """

    iteration: int
    xi_norm: float
    grad_norm: float
    cd_ratio: Optional[float]


def finite_difference_gradient(f, x: np.ndarray, h: Optional[float] = None) -> np.ndarray:
    """Central-difference gradient, one coordinate at a time.

    ``f`` may be a BlackBoxObjective (evaluated on the oracle channel)
    or any callable.  Default step is 1e-5 * (1 + |x|_inf).
    """
    x = np.asarray(x, dtype=np.float64)
    if h is None:
        h = 1e-5 * (1.0 + float(np.max(np.abs(x))))
    h = float(h)
    if h <= 0:
        raise ValueError("finite-difference step must be positive")
    evalf = f.oracle_evaluate if isinstance(f, BlackBoxObjective) else f
    grad = np.empty_like(x)
    probe = x.copy()
    for i in range(x.size):
        xi = x[i]
        probe[i] = xi + h
        fp = evalf(probe)
        probe[i] = xi - h
        fm = evalf(probe)
        probe[i] = xi
        grad[i] = (fp - fm) / (2.0 * h)
    if not np.all(np.isfinite(grad)):
        raise ValueError("non-finite finite-difference gradient")
    return grad


def cd_ratio(
    g_t: np.ndarray,
    grad_at_xhat: np.ndarray,
    smoothness: float,
    xhat_t: np.ndarray,
    xhat_oldest: np.ndarray,
) -> Optional[float]:
    """|g - grad f(xhat)| / ((L/2) |xhat_oldest - xhat|), or None.

    Returns None instead of fabricating a value when the denominator
    vanishes (oldest and newest perturbed points coincide).
    """
    if smoothness <= 0:
        raise ValueError("smoothness constant must be positive")
    denom = 0.5 * smoothness * float(np.linalg.norm(xhat_oldest - xhat_t))
    if denom == 0.0:
        return None
    return float(np.linalg.norm(g_t - grad_at_xhat)) / denom


class DiagnosticsCollector:
    """Observer that ``run_optimizer`` threads through a regression-method run.

    Computes the true gradient analytically when available and by
    central differences on the oracle channel otherwise.  The cd ratio
    is computed when the driver hands ``observe`` the window's oldest
    perturbed point (l_reszo runs) and the objective has a known
    smoothness constant.
    """

    def __init__(self, obj: BlackBoxObjective):
        self._obj = obj
        self.records: List[DiagnosticsRecord] = []

    def _gradient(self, x):
        if self._obj.analytic_gradient is not None:
            return self._obj.gradient(x)
        return finite_difference_gradient(self._obj, x)

    def observe_warm(self, t, x_t, estimate, warm_eta, eta):
        """Do nothing; warm-phase iterations are not observed.

        Kept so tools that look the method up by name on the class,
        such as span tracers, still resolve it.
        """

    def observe(self, t, x_t, xhat_t, estimate, xhat_oldest):
        grad_x = self._gradient(x_t)
        xi_norm = float(np.linalg.norm(estimate - grad_x))
        grad_norm = float(np.linalg.norm(grad_x))
        ratio = None
        smoothness = self._obj.smoothness_L
        if xhat_oldest is not None and smoothness is not None:
            grad_xhat = self._gradient(xhat_t)
            ratio = cd_ratio(estimate, grad_xhat, smoothness, xhat_t, xhat_oldest)
        self.records.append(DiagnosticsRecord(t, xi_norm, grad_norm, ratio))

    def attach_to_trace(self, trace: RunTrace):
        """Copy the collected series onto the trace, NaN where absent."""
        n = len(trace)
        xi = np.full(n, np.nan)
        cd = np.full(n, np.nan)
        base = int(trace.iterations[0]) if n else 0
        for rec in self.records:
            idx = rec.iteration - base
            if 0 <= idx < n:
                xi[idx] = rec.xi_norm
                cd[idx] = np.nan if rec.cd_ratio is None else rec.cd_ratio
        trace.xi_norms = xi
        trace.cd_ratios = cd


def cd_statistics(values) -> dict:
    """Max / 99th percentile / mean over the finite ratio values."""
    arr = np.asarray(
        [v for v in values if v is not None and np.isfinite(v)], dtype=np.float64
    )
    if arr.size == 0:
        return {"count": 0, "max": np.nan, "p99": np.nan, "mean": np.nan}
    return {
        "count": int(arr.size),
        "max": float(arr.max()),
        "p99": float(np.percentile(arr, 99)),
        "mean": float(arr.mean()),
    }
