#!/usr/bin/env python3
"""Output drift between two versions of reszo, on a fixed matrix of small runs.

    PYTHONPATH=src python tools/drift.py --out drift_new.json
    PYTHONPATH=<other checkout>/src python tools/drift.py --out drift_old.json
    PYTHONPATH=src python tools/drift.py --out drift_new.json --against drift_old.json

Every case is one seeded ``run_optimizer`` call on ridge d=20, ridge
d=100 or the neural net d=132: all five methods, both direction
distributions, every regression mode and adaptive delta on and off for
the regression methods, each observed by a diagnostics collector, plus
runs that diverge.  Ridge d=300 adds short l_reszo and q_reszo runs,
whose ridge queries span several column panels, and logistic d=20 and
Rosenbrock d=20 add tzo, l_reszo and q_reszo runs, so every benchmark
problem is covered.  Two ridge d=100 l_reszo runs, one per regression
mode, are long enough that the window's moment sums are rebuilt from the
window more than once, which none of the shorter runs reaches at
d >= 100.  One ridge d=20 q_reszo run keeps a window of 50 points,
more than 2d + 1, so its fits solve the full quadratic design by
``lstsq``, where every other q_reszo window solves the reduced one.
Each shipped ``configs/*.json``, loaded through
``experiment_from_dict``, adds one case: its trial 0 (seed and initial
point), cut to ``window_m + 100`` iterations (baselines: 200) and
diagnosed when the config records diagnostics.  That trial is also
exported through ``export_results`` as the experiment's only trial,
under the config as loaded (its ``stride`` included).  The JSON records,
per case and per ``RunTrace`` array, its sha256 and its raw bytes, and
for a config case the sha256 of its ``curve.csv`` and ``trials.csv``;
``manifest.json`` is left out, as it records the thread count and the
version.  With ``--against``, each array of the new run is reported as
byte-identical, or with its largest relative drift and the first
iteration (or coordinate, for ``final_x``) that differs, and each
exported CSV as byte-identical or different; a case that only the
reference has is listed as dropped and counted in the summary.

The report measures drift; it is not a test and fails on nothing.  The
BLAS thread count is pinned to 1 unless set, so the numbers do not
depend on it.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import base64  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import reszo  # noqa: E402
from reszo import (  # noqa: E402
    BenchmarkSpec,
    DiagnosticsCollector,
    DivergenceError,
    OptimizerConfig,
    TrialResult,
    aggregate_trials,
    experiment_from_dict,
    export_results,
    initial_point,
    make_objective,
    make_rng,
    run_optimizer,
)
from reszo.optimizers import REGRESSION_METHODS  # noqa: E402
from reszo.regression import REGRESSION_MODES  # noqa: E402

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

ARRAYS = (
    "iterations",
    "queries",
    "f_values",
    "grad_est_norms",
    "deltas",
    "solver_paths",
    "final_x",
    "xi_norms",
    "cd_ratios",
)

# (eta, delta) per problem and method, for sphere directions; Gaussian
# directions, whose squared length averages d, take eta / d (warm_eta
# too), so neither distribution diverges.  ridge20 reaches the cached
# linear route in one substitution block, ridge100 has the shapes of the
# ridge100_mix benchmark workload (several blocks), and the neural net
# uses the shipped m=6 window, where every fit is a row-space solve.
# ridge300 runs only the regression methods, for 40 fits past the warm
# phase: its queries and gradients sum over three column panels of F.
# logistic20 and rosen20 run one baseline and both regression methods
# with steps that converge on both direction distributions.
PROBLEMS = {
    "ridge20": dict(
        spec=BenchmarkSpec("ridge", d=20, n_samples=200, seed=3),
        iterations=150,
        window=dict(window_m=30, warm_eta=1e-6, warm_delta=0.1),
        steps={
            "szo": (1e-8, 0.01),
            "rszo": (1e-6, 0.1),
            "tzo": (1e-4, 0.01),
            "l_reszo": (1e-4, 0.01),
            "q_reszo": (1e-4, 0.01),
        },
    ),
    "ridge100": dict(
        spec=BenchmarkSpec("ridge", d=100, n_samples=1000, lam=0.1, seed=0),
        iterations=200,
        window=dict(window_m=110, warm_eta=2e-6, warm_delta=0.2),
        steps={
            "szo": (1e-9, 0.2),
            "rszo": (2e-6, 0.2),
            "tzo": (1.1e-5, 0.002),
            "l_reszo": (6e-6, 0.002),
            "q_reszo": (1.6e-5, 0.002),
        },
    ),
    "nn132": dict(
        spec=BenchmarkSpec("neural_net", d=132, n_samples=500, seed=0),
        iterations=40,
        window=dict(window_m=6, warm_eta=1e-9, warm_delta=0.05),
        steps={
            "szo": (1e-10, 0.05),
            "rszo": (1e-9, 0.05),
            "tzo": (1e-5, 0.001),
            "l_reszo": (1e-3, 0.001),
            "q_reszo": (1e-3, 0.001),
        },
    ),
    "ridge300": dict(
        spec=BenchmarkSpec("ridge", d=300, n_samples=1000, lam=0.1, seed=0),
        iterations=350,
        window=dict(window_m=310, warm_eta=6e-7, warm_delta=0.2),
        steps={
            "l_reszo": (2e-6, 0.002),
            "q_reszo": (4e-6, 0.002),
        },
    ),
    "logistic20": dict(
        spec=BenchmarkSpec("logistic", d=20, n_samples=200, seed=3),
        iterations=120,
        window=dict(window_m=30, warm_eta=1e-6, warm_delta=0.05),
        steps={method: (1e-3, 0.01) for method in ("tzo", "l_reszo", "q_reszo")},
    ),
    "rosen20": dict(
        spec=BenchmarkSpec("rosenbrock", d=20),
        iterations=120,
        window=dict(window_m=30, warm_eta=1e-6, warm_delta=0.05),
        steps={method: (1e-5, 0.01) for method in ("tzo", "l_reszo", "q_reszo")},
    ),
}
# ridge100's matrix runs end after 90 fits, before the moment sums are
# first rebuilt; these l_reszo runs cross two rebuilds or more.
LONG_RIDGE100_ITERATIONS = 700
# Every matrix q_reszo window holds at most 2d + 1 points, so its fits
# solve the reduced design; this ridge20 window is larger, so its fits
# solve the full (m, 2d + 1) design by lstsq.
FULL_QUADRATIC_WINDOW_M = 50
DIRECTIONS = ("sphere", "gaussian")
# A step size far past stability, so the run diverges.
DIVERGING_ETA = 1e3
# The files of an export whose bytes are compared.
EXPORTS = ("curve.csv", "trials.csv")


def cases():
    """(name, BenchmarkSpec, OptimizerConfig, diagnosed) for the fixed
    matrix, the long ridge100 runs, the full quadratic design run, then
    for each shipped config."""
    for pname, prob in PROBLEMS.items():
        spec = prob["spec"]
        for method in prob["steps"]:
            regression = method in ("l_reszo", "q_reszo")
            modes = REGRESSION_MODES if method == "l_reszo" else (REGRESSION_MODES[0],)
            adaptive = (False, True) if regression else (False,)
            eta, delta = prob["steps"][method]
            for direction in DIRECTIONS:
                scale = spec.d if direction == "gaussian" else 1
                for mode in modes:
                    for adapt in adaptive:
                        kw = dict(
                            method=method,
                            eta=eta / scale,
                            delta=delta,
                            iterations=prob["iterations"],
                            direction=direction,
                            regression_mode=mode,
                            adaptive_delta=adapt,
                            seed=7,
                        )
                        if regression:
                            kw.update(prob["window"], warm_eta=prob["window"]["warm_eta"] / scale)
                        name = f"{pname}/{method}/{direction}"
                        if method == "l_reszo":
                            name += f"/{mode}"
                        if adapt:
                            name += "/adaptive"
                        yield name, spec, OptimizerConfig(**kw), regression
        for method in ("rszo", "l_reszo", "q_reszo"):
            if method not in prob["steps"]:
                continue
            kw = dict(
                method=method,
                eta=DIVERGING_ETA,
                delta=prob["steps"][method][1],
                iterations=prob["iterations"],
                seed=7,
            )
            if method != "rszo":
                kw.update(prob["window"])
            yield f"{pname}/{method}/diverging", spec, OptimizerConfig(**kw), method != "rszo"
    prob = PROBLEMS["ridge100"]
    eta, delta = prob["steps"]["l_reszo"]
    for mode in REGRESSION_MODES:
        cfg = OptimizerConfig(
            method="l_reszo",
            eta=eta,
            delta=delta,
            iterations=LONG_RIDGE100_ITERATIONS,
            regression_mode=mode,
            seed=7,
            **prob["window"],
        )
        yield f"ridge100/l_reszo/long/{mode}", prob["spec"], cfg, True
    prob = PROBLEMS["ridge20"]
    eta, delta = prob["steps"]["q_reszo"]
    cfg = OptimizerConfig(
        method="q_reszo",
        eta=eta,
        delta=delta,
        iterations=prob["iterations"],
        seed=7,
        **dict(prob["window"], window_m=FULL_QUADRATIC_WINDOW_M),
    )
    yield "ridge20/q_reszo/full_design", prob["spec"], cfg, True
    for name, exp in shipped_configs():
        regression = exp.optimizer.method in REGRESSION_METHODS
        iterations = exp.optimizer.window_m + 100 if regression else 200
        cfg = replace(exp.optimizer, iterations=iterations, seed=exp.base_seed)
        yield name, exp.benchmark, cfg, regression and exp.record_diagnostics


def shipped_configs():
    """(case name, ExperimentConfig as loaded) for each ``configs/*.json``."""
    for path in sorted(CONFIGS.glob("*.json")):
        yield f"config/{path.stem}", experiment_from_dict(json.loads(path.read_text()))


def run_case(obj, spec, cfg, diagnosed):
    collector = None
    if diagnosed:
        collector = DiagnosticsCollector(obj)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            x0 = initial_point(spec, make_rng(cfg.seed, stream=1))
            return run_optimizer(obj, cfg, x0, diagnostics=collector)
        except DivergenceError as exc:
            return exc.trace


def encode(arr):
    arr = np.ascontiguousarray(arr)
    raw = arr.tobytes()
    return {
        "sha256": hashlib.sha256(raw).hexdigest(),
        "dtype": arr.dtype.str,
        "data": base64.b64encode(raw).decode("ascii"),
    }


def decode(entry):
    return np.frombuffer(base64.b64decode(entry["data"]), dtype=np.dtype(entry["dtype"]))


def export_digests(exp, obj, trace):
    """sha256 of each of ``EXPORTS`` as ``export_results`` writes
    ``trace`` as the only trial of ``exp``."""
    fstar = obj.optimum_value
    curve = aggregate_trials([trace], exp.confidence, 0.0 if fstar is None else fstar)
    results = [TrialResult(index=0, seed=exp.base_seed, trace=trace)]
    with tempfile.TemporaryDirectory() as tmp:
        export_results(curve, results, tmp, exp)
        return {
            name: hashlib.sha256((Path(tmp) / name).read_bytes()).hexdigest()
            for name in EXPORTS
        }


def collect():
    out = {}
    configs = dict(shipped_configs())
    for name, spec, cfg, diagnosed in cases():
        obj = make_objective(spec)
        trace = run_case(obj, spec, cfg, diagnosed)
        arrays = {
            key: encode(getattr(trace, key))
            for key in ARRAYS
            if getattr(trace, key) is not None
        }
        out[name] = {
            "diverged": bool(trace.diverged),
            "divergence_iteration": trace.divergence_iteration,
            "arrays": arrays,
        }
        if name in configs and not trace.diverged:
            out[name]["exports"] = export_digests(configs[name], obj, trace)
    return out


def drift(new, old):
    """(max relative drift, first differing index) of two equal-length arrays.

    Entries that match bit for bit, NaN included, do not count.  A
    relative drift is |new - old| / |old|, or |new - old| where old is 0;
    a NaN or infinity that appears or vanishes counts as infinite.
    """
    differs = new.view(np.uint8).reshape(len(new), -1) != old.view(np.uint8).reshape(len(old), -1)
    idx = np.flatnonzero(differs.any(axis=1))
    if not idx.size:
        return 0.0, None
    a, b = new[idx].astype(np.float64), old[idx].astype(np.float64)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        gap = np.abs(a - b)
        scale = np.where(b == 0, 1.0, np.abs(b))
        rel = gap / scale
    rel[~np.isfinite(rel)] = np.inf
    return float(rel.max()), int(idx[0])


def compare(new_cases, old_cases):
    """Print one line per case that moved, was added or was dropped, and a
    summary; return the counts of identical and moved arrays and of
    identical and different exported CSVs."""
    identical = moved = same_csv = other_csv = 0
    for name, case in new_cases.items():
        old = old_cases.get(name)
        if old is None:
            print(f"{name}: not in the reference")
            continue
        notes = []
        was, now = old["divergence_iteration"], case["divergence_iteration"]
        if was != now:
            notes.append(f"divergence_iteration {was} -> {now}")
        for key in ARRAYS:
            a, b = case["arrays"].get(key), old["arrays"].get(key)
            if a is None and b is None:
                continue
            if a is None or b is None or a["dtype"] != b["dtype"]:
                notes.append(f"{key} present in one run only or of another dtype")
                moved += 1
                continue
            if a["sha256"] == b["sha256"]:
                identical += 1
                continue
            moved += 1
            na, nb = decode(a), decode(b)
            if na.shape != nb.shape:
                notes.append(f"{key} length {nb.size} -> {na.size}")
                continue
            rel, first = drift(na, nb)
            where = "index" if key == "final_x" else "iteration"
            notes.append(f"{key} max rel drift {rel:.3g}, first at {where} {first}")
        exports, old_exports = case.get("exports", {}), old.get("exports", {})
        for file in EXPORTS:
            a, b = exports.get(file), old_exports.get(file)
            if a is None and b is None:
                continue
            if a == b:
                same_csv += 1
                continue
            other_csv += 1
            notes.append(f"{file} {'different' if a and b else 'exported in one run only'}")
        if notes:
            print(f"{name}: " + "; ".join(notes))
    dropped = [name for name in old_cases if name not in new_cases]
    for name in dropped:
        print(f"{name}: dropped, in the reference only")
    print(
        f"{identical} of {identical + moved} arrays and {same_csv} of "
        f"{same_csv + other_csv} exported CSVs byte-identical across "
        f"{len(new_cases)} cases; {len(dropped)} reference cases dropped"
    )
    return identical, moved, same_csv, other_csv


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True, help="JSON to write")
    parser.add_argument("--against", type=Path, help="an earlier JSON to compare with")
    args = parser.parse_args(argv)
    result = {
        "reszo": str(Path(reszo.__file__).resolve().parent),
        "numpy": np.__version__,
        "cases": collect(),
    }
    args.out.write_text(json.dumps(result, indent=1, sort_keys=True))
    print(f"{len(result['cases'])} cases from {result['reszo']} written to {args.out}")
    if args.against is not None:
        old = json.loads(args.against.read_text())
        compare(result["cases"], old["cases"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
