"""Shared numeric substrate: objectives, RNG streams, exceptions.

Vectors and matrices throughout the package are plain float64 numpy
arrays; there is no wrapper type and no configurable precision.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import fields
from typing import Callable, Optional

import numpy as np

# Runs are declared diverged once |f| exceeds this.
DIVERGENCE_THRESHOLD = 1e12


def _all_finite(a: np.ndarray) -> bool:
    """Whether every entry of ``a`` is finite.  A finite sum of squares
    settles it with one BLAS dot and no boolean temporary; only one that
    overflows or is NaN is checked entry by entry.  ``np.vdot``, unlike
    ``@``, does not warn when the sum overflows."""
    return math.isfinite(np.vdot(a, a)) or bool(np.isfinite(a).all())


def _require_finite_fields(config) -> None:
    """Raise ValueError on the first field of the dataclass ``config``
    holding a NaN or an infinity, which a range check can let through,
    or, where the field is annotated ``int``, a bool or a non-integer."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value!r}")
        if f.type in (int, "int") and (
            isinstance(value, bool) or not isinstance(value, numbers.Integral)
        ):
            raise ValueError(f"{f.name} must be an integer, got {value!r}")


class DimensionMismatchError(ValueError):
    """Input vector length does not match the objective dimension."""


class EvaluationFailureError(RuntimeError):
    """A function evaluation returned NaN or Inf."""

    def __init__(self, message, x=None):
        super().__init__(message)
        self.x = x


class NotEnoughSamplesError(RuntimeError):
    """The evaluation window holds too few points for the requested fit."""


class SingularUpdateError(RuntimeError):
    """A rank-1 inverse update hit a near-zero denominator."""


class DivergenceError(RuntimeError):
    """An optimizer run produced a non-finite or runaway iterate.

    Carries the partial trace so the harness can record the failure
    instead of losing the trial.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class ExperimentFailedError(RuntimeError):
    """Every trial of an experiment diverged."""


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Return a Philox-based generator for the given 64-bit seed.

    Philox is counter-based, so distinct (seed, stream) keys yield
    independent streams by construction and the draw sequence for a
    given key is bit-reproducible across runs.  ``stream`` selects a
    sub-stream (e.g. initial-point draws vs. direction draws) without
    consuming from the main sequence.
    """
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    if not 0 <= stream < 2**64:
        raise ValueError(f"stream must be a 64-bit unsigned integer, got {stream}")
    return np.random.Generator(np.random.Philox(key=(stream << 64) | seed))


class BlackBoxObjective:
    """A scalar objective queried through counted function evaluations.

    ``evaluate`` is the only channel the optimizers may use; it bumps
    ``query_count`` by exactly one per call.  ``oracle_evaluate`` runs
    the same function without counting and exists solely for
    diagnostics (finite-difference gradients, gap bookkeeping) that
    must not distort the measured query complexity.
    """

    def __init__(
        self,
        dimension: int,
        fn: Callable[[np.ndarray], float],
        *,
        analytic_gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        smoothness_L: Optional[float] = None,
        optimum_value=None,
        name: str = "",
    ):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        if smoothness_L is not None and smoothness_L <= 0:
            raise ValueError("smoothness_L must be positive")
        self.dimension = int(dimension)
        self._fn = fn
        self.analytic_gradient = analytic_gradient
        self.smoothness_L = smoothness_L
        # Either a float, None, or a zero-arg callable resolved lazily
        # on first access (some optima need an iterative solve).
        self._optimum = optimum_value
        self.name = name
        self.query_count = 0

    @property
    def optimum_value(self):
        if callable(self._optimum):
            self._optimum = float(self._optimum())
        return self._optimum

    def _check_input(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.dimension,):
            raise DimensionMismatchError(
                f"expected vector of length {self.dimension}, got shape {x.shape}"
            )
        if not _all_finite(x):
            raise EvaluationFailureError("non-finite entries in input point", x=x)
        return x

    def evaluate(self, x: np.ndarray) -> float:
        """Counted evaluation of f(x)."""
        x = self._check_input(x)
        self.query_count += 1
        value = float(self._fn(x))
        if not math.isfinite(value):
            raise EvaluationFailureError(f"objective returned {value}", x=x)
        return value

    def oracle_evaluate(self, x: np.ndarray) -> float:
        """Uncounted evaluation, reserved for diagnostics."""
        x = self._check_input(x)
        value = float(self._fn(x))
        if not math.isfinite(value):
            raise EvaluationFailureError(f"objective returned {value}", x=x)
        return value

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """Analytic gradient, if the problem provides one."""
        if self.analytic_gradient is None:
            raise AttributeError(f"objective {self.name!r} has no analytic gradient")
        return np.asarray(self.analytic_gradient(np.asarray(x, dtype=np.float64)))

    def __repr__(self):
        return (
            f"BlackBoxObjective(name={self.name!r}, d={self.dimension}, "
            f"queries={self.query_count})"
        )
