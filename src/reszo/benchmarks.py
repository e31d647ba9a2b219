"""The four benchmark problems, one ``_PROBLEMS`` table entry each.

An entry is three functions:

* ``data(spec)`` generates the dataset, the named arrays that
  ``save_dataset`` writes.  Datasets are pure functions of the spec:
  the same (problem, d, N, lambda, seed) always yields bit-identical,
  read-only arrays.
* ``constants(arrays, lam)`` derives what an objective keeps from
  them: for ridge the smoothness constant L, the factor F, x* and f*;
  for logistic its value and gradient, L and a memoized f*; for the
  neural net its arrays; for Rosenbrock nothing.
* ``objective(d, constants)`` wraps those constants in a fresh
  ``BlackBoxObjective`` with its own query counter.

``make_objective`` takes the constants from one cache keyed by the
spec, so each dataset is generated and its constants derived once per
process; ``objective_from_dataset`` derives them from arrays read back
by ``load_dataset``.  L is the exact top eigenvalue of the Gram.

Ridge keeps no data matrix: its constants are the Cholesky factor F of
A = H^T H + lam*I (one d x d array), x* and f*, and every query is the
exact-gap form f* + 0.5*|F^T (x - x*)|^2.  F is lower triangular, so
the product runs over column panels of ``_RIDGE_PANEL`` columns, each
a view of F from the panel's diagonal down: a query reads F's lower
triangle, never an N x d matrix, and at d <= ``_RIDGE_PANEL`` it is
one d x d GEMV.  f* is the residual form at x*.

Problems:

* ``ridge``      - 0.5*|y - Hx|^2 + 0.5*lam*|x|^2 with Gaussian H and
                   y = 0.5*H*1 + noise; closed-form optimum, queried in
                   the factored form above.
* ``logistic``   - 0.5*sum log(1+exp(-y_i s_i^T x)) + 0.5*lam*|x|^2 on
                   uniform data with linearly generated labels; optimum
                   found once by gradient descent to |grad| <= 1e-10.
* ``rosenbrock`` - sum_{i<d} [100((x_i+1)^2 - x_{i+1} - 1)^2 + x_i^2];
                   minimum 0 at the origin.
* ``neural_net`` - squared error of a 3-layer sigmoid teacher network;
                   the generating parameters attain exactly zero loss.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache
from pathlib import Path

import numpy as np

from .core import BlackBoxObjective, _require_finite_fields, make_rng

# Column-panel width of a ridge query.  Panels of 128 columns skip the
# zero upper triangle of F: at d=900 a query took 234 against 315 us
# for the full GEMV (one BLAS thread).  At d <= 128 the one panel is F.
_RIDGE_PANEL = 128

# Sub-stream of the seed space reserved for dataset generation (stream
# 0 drives optimizer runs, stream 1 initial points).
_DATASET_STREAM = 2


def sigmoid(z):
    # tanh form is stable for large |z|.
    return 0.5 * (1.0 + np.tanh(0.5 * z))


@dataclass(frozen=True)
class BenchmarkSpec:
    """Identifies one benchmark instance; hashable so datasets cache."""

    problem: str
    d: int
    n_samples: int = 1000
    lam: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.problem not in PROBLEMS:
            raise ValueError(f"unknown problem {self.problem!r}; expected one of {PROBLEMS}")
        _require_finite_fields(self)
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if self.problem == "rosenbrock" and self.d < 2:
            raise ValueError("rosenbrock needs d >= 2")
        if self.problem in ("ridge", "logistic", "neural_net") and self.n_samples < 1:
            raise ValueError("data-driven problems need n_samples >= 1")
        if self.lam < 0:
            raise ValueError("lam must be non-negative")
        if self.problem == "neural_net":
            _layer_width(self.d)  # validates the parameter count


def _freeze(arrays):
    for arr in arrays.values():
        arr.setflags(write=False)
    return arrays


# -- ridge -----------------------------------------------------------------


def _ridge_data(spec):
    rng = make_rng(spec.seed, stream=_DATASET_STREAM)
    h_mat = rng.standard_normal((spec.n_samples, spec.d))
    noise = rng.standard_normal(spec.n_samples) * np.sqrt(0.1)
    return _freeze({"H": h_mat, "y": 0.5 * h_mat.sum(axis=1) + noise})


def _ridge_residual_value(h_mat, y_vec, lam, x):
    r = h_mat @ x - y_vec
    return 0.5 * float(r @ r) + 0.5 * lam * float(x @ x)


def _ridge_constants(arrays, lam):
    """(L, F, x*, f*): A = H^T H + lam*I = F F^T; f* is the residual form at x*.

    H and y are taken out of ``arrays`` and released before the
    factorization, so set-up never holds H, A and F at once.
    """
    h_mat, y_vec = arrays.pop("H"), arrays.pop("y")
    gram = h_mat.T @ h_mat
    smoothness = float(np.linalg.eigvalsh(gram)[-1]) + lam
    # The Gram is not needed again: the ridge system is built in place.
    gram[np.diag_indices_from(gram)] += lam
    x_star = np.linalg.solve(gram, h_mat.T @ y_vec)
    fstar = _ridge_residual_value(h_mat, y_vec, lam, x_star)
    del h_mat, y_vec
    factor = np.linalg.cholesky(gram)
    _freeze({"F": factor, "x_star": x_star})
    return smoothness, factor, x_star, fstar


def _ridge_objective(d, constants):
    """f(x) = f* + 0.5*|F^T (x - x*)|^2, gap >= 0 exactly.

    F is lower triangular, so rows above c0 are zero in the columns of
    the panel P = F[c0:, c0:c0 + _RIDGE_PANEL], a view.  With e = x - x*,
    each panel gives v = e[c0:] @ P: the value sums |v|^2 over the panels
    and the gradient F F^T e adds P @ v into its rows c0 onward.  The
    first panel spans every row, so at d <= ``_RIDGE_PANEL`` value and
    gradient are the single GEMVs f* + 0.5*|e @ F|^2 and F @ (e @ F),
    bit for bit.
    """
    smoothness, factor, x_star, fstar = constants
    w = _RIDGE_PANEL
    # A one-panel factor is its own head, so the objective keeps no view.
    head = factor[:, :w] if d > w else factor
    tail = [(c0, factor[c0:, c0 : c0 + w]) for c0 in range(w, d, w)]

    def value(x):
        e = x - x_star
        v = e @ head
        total = float(v @ v)
        for c0, panel in tail:
            v = e[c0:] @ panel
            total += float(v @ v)
        return fstar + 0.5 * total

    def grad(x):
        e = x - x_star
        out = head @ (e @ head)
        for c0, panel in tail:
            out[c0:] += panel @ (e[c0:] @ panel)
        return out

    return BlackBoxObjective(
        d,
        value,
        analytic_gradient=grad,
        smoothness_L=smoothness,
        optimum_value=fstar,
        name="ridge",
    )


# -- logistic --------------------------------------------------------------


def _logistic_data(spec):
    rng = make_rng(spec.seed, stream=_DATASET_STREAM)
    s_mat = rng.uniform(-1.0, 1.0, size=(spec.n_samples, spec.d))
    margins = 0.5 * s_mat.sum(axis=1)
    return _freeze({"S": s_mat, "labels": np.where(margins >= 0.0, 1.0, -1.0)})


def _logistic_constants(arrays, lam):
    """(value, gradient, L, f*), f* a thunk solved once, on first use."""
    s_mat, labels = arrays["S"], arrays["labels"]

    def value(x):
        z = labels * (s_mat @ x)
        return 0.5 * float(np.sum(np.logaddexp(0.0, -z))) + 0.5 * lam * float(x @ x)

    def grad(x):
        z = labels * (s_mat @ x)
        return -0.5 * (s_mat.T @ (sigmoid(-z) * labels)) + lam * x

    # The logistic Hessian is bounded by S^T S / 8 + lam (halved loss).
    smoothness = float(np.linalg.eigvalsh(s_mat.T @ s_mat)[-1]) / 8.0 + lam
    solved = []

    def fstar():
        if not solved:
            solved.append(_descend(value, grad, s_mat.shape[1], smoothness))
        return solved[0]

    return value, grad, smoothness, fstar


def _descend(value, grad, d, smoothness, tol=1e-10, max_iter=500000):
    """Plain gradient descent from the origin with step 1/L until |grad| <= tol."""
    x = np.zeros(d)
    step = 1.0 / smoothness
    for _ in range(max_iter):
        g = grad(x)
        if np.linalg.norm(g) <= tol:
            return value(x)
        x -= step * g
    raise RuntimeError(f"optimum solve did not reach |grad| <= {tol:g} in {max_iter} steps")


def _logistic_objective(d, constants):
    value, grad, smoothness, fstar = constants
    return BlackBoxObjective(
        d,
        value,
        analytic_gradient=grad,
        smoothness_L=smoothness,
        optimum_value=fstar,
        name="logistic",
    )


# -- rosenbrock --------------------------------------------------------------


def _rosenbrock_value(x):
    head = x[:-1]
    q = (head + 1.0) ** 2 - x[1:] - 1.0
    return float(np.sum(100.0 * q * q + head * head))


def _rosenbrock_grad(x):
    head = x[:-1]
    q = (head + 1.0) ** 2 - x[1:] - 1.0
    grad = np.zeros_like(x)
    grad[:-1] = 400.0 * q * (head + 1.0) + 2.0 * head
    grad[1:] -= 200.0 * q
    return grad


def _rosenbrock_objective(d, constants):
    """Chained quartic benchmark; gradient exact, no global smoothness."""
    return BlackBoxObjective(
        d,
        _rosenbrock_value,
        analytic_gradient=_rosenbrock_grad,
        optimum_value=0.0,
        name="rosenbrock",
    )


# -- neural net --------------------------------------------------------------


def _layer_width(d: int) -> int:
    # d = 3n^2 + 4n for a width-n three-layer network.
    n = int(round((-2.0 + np.sqrt(4.0 + 3.0 * d)) / 3.0))
    if n < 1 or 3 * n * n + 4 * n != d:
        raise ValueError(f"d={d} is not 3n^2+4n for any integer width n")
    return n


def unpack_parameters(x: np.ndarray, n: int):
    """Split the flat parameter vector into (W1, W2, W3, b1, b2, b3, w_o)."""
    sq = n * n
    w1 = x[0:sq].reshape(n, n)
    w2 = x[sq : 2 * sq].reshape(n, n)
    w3 = x[2 * sq : 3 * sq].reshape(n, n)
    b1 = x[3 * sq : 3 * sq + n]
    b2 = x[3 * sq + n : 3 * sq + 2 * n]
    b3 = x[3 * sq + 2 * n : 3 * sq + 3 * n]
    w_o = x[3 * sq + 3 * n : 3 * sq + 4 * n]
    return w1, w2, w3, b1, b2, b3, w_o


def pack_parameters(w1, w2, w3, b1, b2, b3, w_o) -> np.ndarray:
    return np.concatenate(
        [w1.ravel(), w2.ravel(), w3.ravel(), b1, b2, b3, w_o]
    )


def _nn_forward(x, inputs, n):
    w1, w2, w3, b1, b2, b3, w_o = unpack_parameters(x, n)
    a = sigmoid(inputs @ w1.T + b1)
    a = sigmoid(a @ w2.T + b2)
    a = sigmoid(a @ w3.T + b3)
    return a @ w_o


def _nn_data(spec):
    width = _layer_width(spec.d)
    rng = make_rng(spec.seed, stream=_DATASET_STREAM)
    x_star = rng.standard_normal(spec.d)
    inputs = rng.standard_normal((spec.n_samples, width))
    targets = _nn_forward(x_star, inputs, width)
    return _freeze({"x_star": x_star, "inputs": inputs, "targets": targets})


def _nn_objective(d, arrays):
    """Teacher-student squared-error loss; treated as a pure black box."""
    width = _layer_width(d)
    inputs, targets = arrays["inputs"], arrays["targets"]

    def value(x):
        err = _nn_forward(x, inputs, width) - targets
        return float(err @ err)

    return BlackBoxObjective(d, value, optimum_value=0.0, name="neural_net")


# -- common interface ---------------------------------------------------------


# problem -> (data(spec), constants(arrays, lam), objective(d, constants)).
_PROBLEMS = {
    "ridge": (_ridge_data, _ridge_constants, _ridge_objective),
    "logistic": (_logistic_data, _logistic_constants, _logistic_objective),
    "rosenbrock": (lambda spec: {}, lambda arrays, lam: None, _rosenbrock_objective),
    "neural_net": (_nn_data, lambda arrays, lam: arrays, _nn_objective),
}
PROBLEMS = tuple(_PROBLEMS)


@lru_cache(maxsize=None)
def _constants(spec: BenchmarkSpec):
    data, constants, _ = _PROBLEMS[spec.problem]
    return constants(data(spec), spec.lam)


def make_objective(spec: BenchmarkSpec) -> BlackBoxObjective:
    """Fresh objective (own query counter) over spec.problem's cached constants."""
    return _PROBLEMS[spec.problem][2](spec.d, _constants(spec))


def initial_point(spec: BenchmarkSpec, rng=None) -> np.ndarray:
    """The problem's starting iterate.

    Deterministic for ridge/logistic (origin) and rosenbrock
    (0.5 * ones); the neural net starts at the teacher parameters
    plus uniform noise drawn from ``rng``.
    """
    if spec.problem == "rosenbrock":
        return np.full(spec.d, 0.5)
    if spec.problem == "neural_net":
        if rng is None:
            raise ValueError("neural_net initial point needs an rng")
        return _constants(spec)["x_star"] + rng.uniform(-1.0, 1.0, size=spec.d)
    return np.zeros(spec.d)


# -- dataset dump/load ---------------------------------------------------------


def save_dataset(spec: BenchmarkSpec, path) -> None:
    """Write the spec and its generated arrays to a .npz archive.

    Derived constants (smoothness, optimum) are recomputed on load;
    they are deterministic functions of the stored arrays.
    """
    meta = {f"meta_{f.name}": np.asarray(getattr(spec, f.name)) for f in fields(BenchmarkSpec)}
    np.savez(Path(path), **_PROBLEMS[spec.problem][0](spec), **meta)


def load_dataset(path):
    """Read back (spec, arrays) from a .npz written by save_dataset."""
    with np.load(Path(path), allow_pickle=False) as data:
        meta = {f.name: data[f"meta_{f.name}"].item() for f in fields(BenchmarkSpec)}
        spec = BenchmarkSpec(**meta)
        arrays = {k: data[k] for k in data.files if not k.startswith("meta_")}
    return spec, arrays


def objective_from_dataset(spec: BenchmarkSpec, arrays) -> BlackBoxObjective:
    """Build an objective over externally supplied arrays, left unchanged."""
    _, constants, objective = _PROBLEMS[spec.problem]
    return objective(spec.d, constants(dict(arrays), spec.lam))
