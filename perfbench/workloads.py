"""The three benchmark workloads, built only from reszo's public API.

A workload is a list of experiments that one round runs back to back
(``run_experiment`` then ``export_results`` for each).  Everything is a
pure function of the workload seed: it fixes each experiment's
``base_seed`` and, except on ``ridge900_diag``, the dataset seed of
every benchmark spec.

Step sizes are the acceptance tests' ones except where noted, so every
trial converges on every dataset seed tried; the floors below are the
smallest per-trial gap reduction the correctness check accepts.  See
README.md for why each workload was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from reszo import BenchmarkSpec, ExperimentConfig, OptimizerConfig


@dataclass(frozen=True)
class Workload:
    name: str
    experiments: Tuple[Tuple[str, ExperimentConfig], ...]
    # Smallest accepted per-trial gap reduction, keyed by experiment label:
    # (f(first query) - f*) / (f(last query) - f*).
    floors: Dict[str, float]


def base_seed(seed: int) -> int:
    return 1000 + 100 * seed


def expected_queries(cfg: OptimizerConfig) -> int:
    """Exact query count of one trial: two per tzo iteration; one per
    iteration plus the seed evaluation for rszo, l_reszo and q_reszo."""
    if cfg.method == "tzo":
        return 2 * cfg.iterations
    return cfg.iterations + 1


# Acceptance-criterion-5 step sizes for ridge d=100, except three that
# sat at the edge of stability on other seeds:
# - rszo's eta and the warm phase's (the same residual-feedback update):
#   at 2.5e-6 it blew up in 8 of 1,200 rszo trials over workload seeds
#   0-399 (seeds 69, 101, 112, ...); at 2e-6 none did;
# - l_reszo's eta: at 8e-6 some trials ended above their starting gap
#   (seeds 21, 34, 53, ...), with the fast and plain fit routes alike.
_RIDGE100_RSZO_ETA = 2e-6
_RIDGE100_TABLE = {
    "tzo": dict(eta=1.1e-5, delta=0.002),
    "rszo": dict(eta=_RIDGE100_RSZO_ETA, delta=0.2),
    "l_reszo": dict(eta=6e-6, delta=0.002),
    "q_reszo": dict(eta=1.6e-5, delta=0.002),
}
_RIDGE100_WARM = dict(window_m=110, warm_eta=_RIDGE100_RSZO_ETA, warm_delta=0.2)
_RIDGE100_BUDGET = 1000  # queries per trial, as in criterion 5 (3000) but shorter
_RIDGE100_TRIALS = 3


def ridge100_mix(seed: int) -> Workload:
    spec = BenchmarkSpec("ridge", d=100, n_samples=1000, lam=0.1, seed=seed)
    experiments = []
    for method, steps in _RIDGE100_TABLE.items():
        if method == "tzo":
            iterations = _RIDGE100_BUDGET // 2
        else:
            iterations = _RIDGE100_BUDGET - 1
        warm = _RIDGE100_WARM if method in ("l_reszo", "q_reszo") else {}
        opt = OptimizerConfig(method=method, iterations=iterations, **steps, **warm)
        exp = ExperimentConfig(
            benchmark=spec, optimizer=opt, trials=_RIDGE100_TRIALS, base_seed=base_seed(seed)
        )
        experiments.append((method, exp))
    floors = {"tzo": 10.0, "rszo": 5.0, "l_reszo": 300.0, "q_reszo": 100.0}
    return Workload("ridge100_mix", tuple(experiments), floors)


# Post-warm iterations; criterion 7 runs 3090.  They take about 70% of a
# round, the fit's factorization and solve alone 45%, and a round is short
# enough (3.3-5 s) that a 50-second run has ten or more of them to take
# each step's fastest time from.
_RIDGE900_POST_WARM = 40
# The power iteration for L on the d=900 Gram matrix takes about 400
# steps on dataset seeds 0 and 1 but 1,800-2,600 on seeds 15 and 3, so
# a varying dataset would make set-up time follow the seed, not the
# code.  The dataset is fixed; the workload seed drives only base_seed.
_RIDGE900_DATASET_SEED = 0


def ridge900_diag(seed: int) -> Workload:
    d = 900
    spec = BenchmarkSpec("ridge", d=d, n_samples=1000, lam=0.1, seed=_RIDGE900_DATASET_SEED)
    opt = OptimizerConfig(
        method="l_reszo",
        eta=4.1e-7,
        delta=0.002,
        iterations=d + 10 + _RIDGE900_POST_WARM,
        window_m=d + 10,
        warm_eta=1.3e-7,
        warm_delta=0.2,
        adaptive_delta=True,
        regression_mode="difference_no_intercept",
    )
    exp = ExperimentConfig(
        benchmark=spec,
        optimizer=opt,
        trials=1,
        base_seed=base_seed(seed),
        record_diagnostics=True,
    )
    return Workload("ridge900_diag", (("l_reszo", exp),), {"l_reszo": 1.2})


_NN_ITERATIONS = 3000  # criterion 9 runs 20000
_NN_TRIALS = 2
# The shipped config (eta 1.7e-3, warm_eta 1e-5) is tuned for dataset
# seed 0; on other dataset seeds its warm phase diverged in several
# trials, and l_reszo at eta 1.7e-3 diverged after the warm phase.
# These values converged on every seed tried (see README.md).
_NN_ETA = {"q_reszo": 1.7e-3, "l_reszo": 4e-4}
_NN_WARM_ETA = 1e-6


def nn_q_reszo(seed: int) -> Workload:
    spec = BenchmarkSpec("neural_net", d=132, n_samples=500, seed=seed)
    experiments = []
    for method in ("q_reszo", "l_reszo"):
        opt = OptimizerConfig(
            method=method,
            eta=_NN_ETA[method],
            delta=0.001,
            iterations=_NN_ITERATIONS,
            window_m=6,
            warm_eta=_NN_WARM_ETA,
            warm_delta=0.05,
        )
        exp = ExperimentConfig(
            benchmark=spec, optimizer=opt, trials=_NN_TRIALS, base_seed=base_seed(seed)
        )
        experiments.append((method, exp))
    return Workload("nn_q_reszo", tuple(experiments), {"q_reszo": 2.0, "l_reszo": 2.0})


WORKLOADS = {
    "ridge100_mix": ridge100_mix,
    "ridge900_diag": ridge900_diag,
    "nn_q_reszo": nn_q_reszo,
}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
