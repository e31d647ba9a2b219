"""The four benchmark problems.

Datasets are pure functions of the benchmark spec: the same (problem,
d, N, lambda, seed) always yields bit-identical data.  Generated
arrays are cached per spec and marked read-only so that objectives
can share them; each objective instance carries its own query counter.
Derived constants are cached the same way, per (d, N, lambda, seed):
the smoothness constant L (the exact top eigenvalue of the Gram) and
the optimum f*.  Once a dataset has been seen, building an objective
over it only wraps the cached arrays and floats.

Problems:

* ``ridge``      - 0.5*|y - Hx|^2 + 0.5*lam*|x|^2 with Gaussian H and
                   y = 0.5*H*1 + noise; closed-form optimum.
* ``logistic``   - 0.5*sum log(1+exp(-y_i s_i^T x)) + 0.5*lam*|x|^2 on
                   uniform data with linearly generated labels; optimum
                   found once by gradient descent to |grad| <= 1e-10.
* ``rosenbrock`` - sum_{i<d} [100((x_i+1)^2 - x_{i+1} - 1)^2 + x_i^2];
                   minimum 0 at the origin.
* ``neural_net`` - squared error of a 3-layer sigmoid teacher network;
                   the generating parameters attain exactly zero loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .core import BlackBoxObjective, make_rng

PROBLEMS = ("ridge", "logistic", "rosenbrock", "neural_net")

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


def _freeze(*arrays):
    for arr in arrays:
        arr.setflags(write=False)


# -- ridge -----------------------------------------------------------------


@lru_cache(maxsize=None)
def _ridge_data(d, n, seed):
    rng = make_rng(seed, stream=_DATASET_STREAM)
    h_mat = rng.standard_normal((n, d))
    noise = rng.standard_normal(n) * np.sqrt(0.1)
    y_vec = 0.5 * h_mat.sum(axis=1) + noise
    _freeze(h_mat, y_vec)
    return h_mat, y_vec


def _ridge_functions(h_mat, y_vec, lam):
    def value(x):
        r = h_mat @ x - y_vec
        return 0.5 * float(r @ r) + 0.5 * lam * float(x @ x)

    def grad(x):
        return h_mat.T @ (h_mat @ x - y_vec) + lam * x

    return value, grad


def _ridge_constants(h_mat, y_vec, lam):
    """(L, f*) of the ridge objective; f* is ``value`` at the closed form."""
    gram = h_mat.T @ h_mat
    smoothness = float(np.linalg.eigvalsh(gram)[-1]) + lam
    # The Gram is not needed again: the ridge system is built in place.
    gram[np.diag_indices_from(gram)] += lam
    x_star = np.linalg.solve(gram, h_mat.T @ y_vec)
    value, _ = _ridge_functions(h_mat, y_vec, lam)
    return smoothness, value(x_star)


@lru_cache(maxsize=None)
def _ridge_constants_cached(d, n, lam, seed):
    return _ridge_constants(*_ridge_data(d, n, seed), lam)


def _ridge_objective(h_mat, y_vec, lam, constants):
    smoothness, fstar = constants
    value, grad = _ridge_functions(h_mat, y_vec, lam)
    return BlackBoxObjective(
        h_mat.shape[1],
        value,
        analytic_gradient=grad,
        smoothness_L=smoothness,
        optimum_value=fstar,
        name="ridge",
    )


def make_ridge(spec: BenchmarkSpec) -> BlackBoxObjective:
    if spec.problem != "ridge":
        raise ValueError("spec.problem must be 'ridge'")
    h_mat, y_vec = _ridge_data(spec.d, spec.n_samples, spec.seed)
    constants = _ridge_constants_cached(spec.d, spec.n_samples, spec.lam, spec.seed)
    return _ridge_objective(h_mat, y_vec, spec.lam, constants)


# -- logistic --------------------------------------------------------------


@lru_cache(maxsize=None)
def _logistic_data(d, n, seed):
    rng = make_rng(seed, stream=_DATASET_STREAM)
    s_mat = rng.uniform(-1.0, 1.0, size=(n, d))
    margins = 0.5 * s_mat.sum(axis=1)
    labels = np.where(margins >= 0.0, 1.0, -1.0)
    _freeze(s_mat, labels)
    return s_mat, labels


def _logistic_functions(s_mat, labels, lam):
    def value(x):
        z = labels * (s_mat @ x)
        return 0.5 * float(np.sum(np.logaddexp(0.0, -z))) + 0.5 * lam * float(x @ x)

    def grad(x):
        z = labels * (s_mat @ x)
        return -0.5 * (s_mat.T @ (sigmoid(-z) * labels)) + lam * x

    return value, grad


def _logistic_smoothness(s_mat, lam):
    # The logistic Hessian is bounded by S^T S / 8 + lam (halved loss).
    return float(np.linalg.eigvalsh(s_mat.T @ s_mat)[-1]) / 8.0 + lam


@lru_cache(maxsize=None)
def _logistic_smoothness_cached(d, n, lam, seed):
    s_mat, _ = _logistic_data(d, n, seed)
    return _logistic_smoothness(s_mat, lam)


def _logistic_objective(s_mat, labels, lam, smoothness, fstar):
    value, grad = _logistic_functions(s_mat, labels, lam)
    return BlackBoxObjective(
        s_mat.shape[1],
        value,
        analytic_gradient=grad,
        smoothness_L=smoothness,
        optimum_value=fstar,
        name="logistic",
    )


def _logistic_fstar(s_mat, labels, lam, smoothness, tol=1e-10, max_iter=500000):
    """Plain gradient descent from the origin with step 1/L until |grad| <= tol."""
    value, grad = _logistic_functions(s_mat, labels, lam)
    x = np.zeros(s_mat.shape[1])
    step = 1.0 / smoothness
    for _ in range(max_iter):
        g = grad(x)
        if np.linalg.norm(g) <= tol:
            return value(x)
        x -= step * g
    raise RuntimeError(f"optimum solve did not reach |grad| <= {tol:g} in {max_iter} steps")


@lru_cache(maxsize=None)
def _logistic_fstar_cached(d, n, lam, seed):
    s_mat, labels = _logistic_data(d, n, seed)
    return _logistic_fstar(s_mat, labels, lam, _logistic_smoothness_cached(d, n, lam, seed))


def make_logistic(spec: BenchmarkSpec) -> BlackBoxObjective:
    if spec.problem != "logistic":
        raise ValueError("spec.problem must be 'logistic'")
    key = (spec.d, spec.n_samples, spec.lam, spec.seed)
    s_mat, labels = _logistic_data(spec.d, spec.n_samples, spec.seed)
    return _logistic_objective(
        s_mat,
        labels,
        spec.lam,
        _logistic_smoothness_cached(*key),
        lambda: _logistic_fstar_cached(*key),
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


def make_rosenbrock(spec: BenchmarkSpec) -> BlackBoxObjective:
    """Chained quartic benchmark; gradient exact, no global smoothness."""
    if spec.problem != "rosenbrock":
        raise ValueError("spec.problem must be 'rosenbrock'")
    return BlackBoxObjective(
        spec.d,
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


@lru_cache(maxsize=None)
def _nn_data(d, n_samples, seed):
    width = _layer_width(d)
    rng = make_rng(seed, stream=_DATASET_STREAM)
    x_star = rng.standard_normal(d)
    inputs = rng.standard_normal((n_samples, width))
    targets = _nn_forward(x_star, inputs, width)
    _freeze(x_star, inputs, targets)
    return x_star, inputs, targets


def _nn_objective(d, inputs, targets):
    width = _layer_width(d)

    def value(x):
        err = _nn_forward(x, inputs, width) - targets
        return float(err @ err)

    return BlackBoxObjective(d, value, optimum_value=0.0, name="neural_net")


def make_neural_net(spec: BenchmarkSpec) -> BlackBoxObjective:
    """Teacher-student squared-error loss; treated as a pure black box."""
    if spec.problem != "neural_net":
        raise ValueError("spec.problem must be 'neural_net'")
    _, inputs, targets = _nn_data(spec.d, spec.n_samples, spec.seed)
    return _nn_objective(spec.d, inputs, targets)


# -- common interface ---------------------------------------------------------


_MAKERS = {
    "ridge": make_ridge,
    "logistic": make_logistic,
    "rosenbrock": make_rosenbrock,
    "neural_net": make_neural_net,
}


def make_objective(spec: BenchmarkSpec) -> BlackBoxObjective:
    """Fresh objective (own query counter) over the cached dataset."""
    return _MAKERS[spec.problem](spec)


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
        x_star, _, _ = _nn_data(spec.d, spec.n_samples, spec.seed)
        return x_star + rng.uniform(-1.0, 1.0, size=spec.d)
    return np.zeros(spec.d)


# -- dataset dump/load ---------------------------------------------------------


def save_dataset(spec: BenchmarkSpec, path) -> None:
    """Write the spec and its generated arrays to a .npz archive.

    Derived constants (smoothness, optimum) are recomputed on load;
    they are deterministic functions of the stored arrays.
    """
    meta = dict(
        problem=spec.problem,
        d=spec.d,
        n_samples=spec.n_samples,
        lam=spec.lam,
        seed=spec.seed,
    )
    arrays = {}
    if spec.problem == "ridge":
        h_mat, y_vec = _ridge_data(spec.d, spec.n_samples, spec.seed)
        arrays = {"H": h_mat, "y": y_vec}
    elif spec.problem == "logistic":
        s_mat, labels = _logistic_data(spec.d, spec.n_samples, spec.seed)
        arrays = {"S": s_mat, "labels": labels}
    elif spec.problem == "neural_net":
        x_star, inputs, targets = _nn_data(spec.d, spec.n_samples, spec.seed)
        arrays = {"x_star": x_star, "inputs": inputs, "targets": targets}
    np.savez(
        Path(path),
        **arrays,
        **{f"meta_{k}": np.asarray(v) for k, v in meta.items()},
    )


def load_dataset(path):
    """Read back (spec, arrays) from a .npz written by save_dataset."""
    with np.load(Path(path), allow_pickle=False) as data:
        spec = BenchmarkSpec(
            problem=str(data["meta_problem"]),
            d=int(data["meta_d"]),
            n_samples=int(data["meta_n_samples"]),
            lam=float(data["meta_lam"]),
            seed=int(data["meta_seed"]),
        )
        arrays = {k: data[k] for k in data.files if not k.startswith("meta_")}
    return spec, arrays


def objective_from_dataset(spec: BenchmarkSpec, arrays) -> BlackBoxObjective:
    """Build an objective over externally supplied arrays."""
    if spec.problem == "ridge":
        h_mat, y_vec = arrays["H"], arrays["y"]
        return _ridge_objective(h_mat, y_vec, spec.lam, _ridge_constants(h_mat, y_vec, spec.lam))
    if spec.problem == "logistic":
        s_mat, labels = arrays["S"], arrays["labels"]
        smoothness = _logistic_smoothness(s_mat, spec.lam)
        fstar = lambda: _logistic_fstar(s_mat, labels, spec.lam, smoothness)
        return _logistic_objective(s_mat, labels, spec.lam, smoothness, fstar)
    if spec.problem == "rosenbrock":
        return make_rosenbrock(spec)
    return _nn_objective(spec.d, arrays["inputs"], arrays["targets"])
