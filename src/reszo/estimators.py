"""Classic zeroth-order gradient estimators.

All three estimators are stateless formulas; the residual-feedback
variant needs the previous perturbed-point value, which the caller
threads through (see ``EstimateOutcome.last_value``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import BlackBoxObjective


@dataclass
class EstimateOutcome:
    """One gradient estimate plus its evaluation accounting.

    ``last_value`` is the newest function value, so a driver can chain
    residual-feedback estimates without re-querying.
    """

    gradient_estimate: np.ndarray
    evaluations_used: int
    last_value: float


def _check_delta(delta: float) -> float:
    delta = float(delta)
    if not 0.0 < delta < np.inf:
        raise ValueError(f"smoothing radius must be positive and finite, got {delta}")
    return delta


def szo_estimate(
    f: BlackBoxObjective, x: np.ndarray, u: np.ndarray, delta: float
) -> EstimateOutcome:
    """Single-point estimate (d/delta) * f(x + delta*u) * u."""
    delta = _check_delta(delta)
    d = f.dimension
    value = f.evaluate(x + delta * u)
    return EstimateOutcome((d / delta) * value * u, 1, value)


def rszo_estimate(
    f: BlackBoxObjective,
    x: np.ndarray,
    u: np.ndarray,
    delta: float,
    prev_value: float,
) -> EstimateOutcome:
    """Residual-feedback estimate differencing against the previous value.

    (d/delta) * (f(x + delta*u) - prev_value) * u, where ``prev_value``
    is the evaluation at the previous iteration's perturbed point.
    """
    delta = _check_delta(delta)
    d = f.dimension
    value = f.evaluate(x + delta * u)
    return EstimateOutcome((d / delta) * (value - prev_value) * u, 1, value)


def tzo_estimate(
    f: BlackBoxObjective, x: np.ndarray, u: np.ndarray, delta: float
) -> EstimateOutcome:
    """Two-point central estimate (d/(2*delta)) * (f(x+du) - f(x-du)) * u."""
    delta = _check_delta(delta)
    d = f.dimension
    plus = f.evaluate(x + delta * u)
    minus = f.evaluate(x - delta * u)
    return EstimateOutcome((d / (2.0 * delta)) * (plus - minus) * u, 2, plus)
