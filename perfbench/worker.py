"""One workload in one process: set-up, timed rounds, correctness checks.

run.py starts this with the BLAS thread count pinned in its
environment and ``src`` on ``PYTHONPATH``; it prints one JSON object on
its last stdout line.  A round runs every experiment of the workload
through ``run_experiment`` and ``export_results``, exactly as a user of
the library would, and rounds repeat until ``--seconds`` have passed.
All rounds of a run use the same seed, so each must reproduce the first
one bit for bit: that checks determinism and, when traced and untraced
rounds alternate (``--trace 1``), that tracing changes no result.
"""

import time

T0 = time.perf_counter()  # set-up time includes the imports below

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Optional, Tuple  # noqa: E402

import numpy as np  # noqa: E402

import reszo  # noqa: E402
import workloads  # noqa: E402
from reszo.optimizers import SOLVER_PATH_CODES  # noqa: E402
from tracing import Tracer  # noqa: E402

# Layer spans reported as calls plus self time, with the time unit that
# suits their per-round magnitude.
_LAYER_TIMES = (
    ("core.evaluate", "us"),
    ("core.gradient", "ms"),
    ("sampling.draw", "us"),
    ("estimators.estimate", "us"),
    ("regression.push", "us"),
    ("regression.fit_linear", "ms"),
    ("regression.fit_quadratic", "ms"),
    ("regression.solve_least_squares", "ms"),
    ("regression.inverse_cache", "ms"),
    ("regression.moment_cache", "ms"),
    ("regression.condition", "ms"),
    ("regression.spread", "ms"),
    ("diagnostics.observe", "ms"),
    ("diagnostics.observe_warm", "ms"),
    ("harness.run_experiment", "ms"),
)
_NS_PER = {"us": 1e3, "ms": 1e6}
_NO_SPANS = {"calls": 0, "incl_ns": 0.0, "self_ns": 0.0}


@dataclass
class Outcome:
    """One experiment of a round: what it returned and wrote."""

    label: str
    exp: reszo.ExperimentConfig
    results: list
    curve: Optional[reszo.AggregateCurve]
    paths: dict
    error: Optional[str]
    spans: Tuple[int, int]  # span index range of the experiment (traced rounds)


def set_up(workload):
    """Dataset generation and objective construction, optimum included."""
    fstar = {}
    for _, exp in workload.experiments:
        if exp.benchmark not in fstar:
            fstar[exp.benchmark] = reszo.make_objective(exp.benchmark).optimum_value or 0.0
    return fstar


def run_round(workload, out_dir, tracer):
    """Run and export every experiment once; only this is timed."""
    run_experiment, export_results = reszo.run_experiment, reszo.export_results
    if tracer is not None:
        run_experiment = tracer.wrap("harness.run_experiment", run_experiment)
        export_results = tracer.wrap("harness.export", export_results)
    outcomes, parts = [], {}
    t_round = time.perf_counter()
    for label, exp in workload.experiments:
        span_lo = len(tracer) if tracer is not None else 0
        t = time.perf_counter()
        try:
            results, curve = run_experiment(exp)
            error = None
        except reszo.ExperimentFailedError as exc:
            results, curve, error = [], None, str(exc)
        t_run = time.perf_counter()
        paths = {}
        if curve is not None:
            paths = export_results(curve, results, out_dir / label, exp)
        t_export = time.perf_counter()
        parts[label] = [t_run - t, t_export - t_run]
        span_hi = len(tracer) if tracer is not None else 0
        outcomes.append(Outcome(label, exp, results, curve, paths, error, (span_lo, span_hi)))
    wall_s = time.perf_counter() - t_round
    return outcomes, wall_s, parts


def _sha256(*chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _trial_digest(trace) -> str:
    return _sha256(
        trace.final_x.tobytes(),
        trace.queries.tobytes(),
        trace.f_values.tobytes(),
        trace.grad_est_norms.tobytes(),
        trace.deltas.tobytes(),
        trace.solver_paths.tobytes(),
    )


def _data_rows(path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1


def check_round(workload, fstar, outcomes, tracer, reference):
    """Count attempted and failed trials; return digests of this round.

    A trial fails if it diverged, used other than its exact query
    budget, ended with a non-finite iterate, missed the workload's
    convergence floor, or differs from the first round.  Every trial of
    an experiment fails if its exported files differ from the first
    round's, are malformed, or (traced) the objective saw another number
    of counted evaluations than the traces report.
    """
    attempted, failed, failures, digests = 0, 0, [], {}
    for oc in outcomes:
        label, exp, results, paths = oc.label, oc.exp, oc.results, oc.paths
        attempted += exp.trials
        if oc.error is not None:
            failed += exp.trials
            failures.append(f"{label}: {oc.error}")
            continue
        expected = workloads.expected_queries(exp.optimizer)
        floor = workload.floors[label]
        f_star = fstar[exp.benchmark]
        ref = reference.get(label) if reference else None
        trial_digests = []
        bad = set()
        for res in results:
            tr = res.trace
            trial_digests.append(_trial_digest(tr))
            if tr.diverged:
                reason = f"diverged at iteration {tr.divergence_iteration}"
            elif len(tr) != exp.optimizer.iterations or tr.queries[-1] != expected:
                reason = f"used {tr.queries[-1]} queries, expected {expected}"
            elif not np.all(np.isfinite(tr.final_x)):
                reason = "non-finite final iterate"
            else:
                reduction = (tr.f_values[0] - f_star) / (tr.f_values[-1] - f_star)
                reason = None if reduction >= floor else (
                    f"gap reduction {reduction:.3g} below floor {floor:g}"
                )
            if reason is None and ref and trial_digests[-1] != ref["trials"][res.index]:
                reason = "result differs from the first round"
            if reason is not None:
                bad.add(res.index)
                failures.append(f"{label} trial {res.index}: {reason}")
        files = {key: _sha256(Path(p).read_bytes()) for key, p in sorted(paths.items())}
        whole = []
        if ref:
            if files != ref["files"]:
                whole.append("exported files differ from the first round")
        else:
            if _data_rows(paths["trials"]) != sum(len(r.trace) for r in results):
                whole.append("trials.csv row count differs from the traces")
            loaded = reszo.load_curve_csv(paths["curve"])
            same = all(
                np.array_equal(getattr(loaded, k), getattr(oc.curve, k))
                for k in ("queries", "mean_gap", "ci_low", "ci_high")
            )
            if not same:
                whole.append("curve.csv does not round-trip")
        if tracer is not None:
            calls = tracer.count("core.evaluate", *oc.spans)
            if calls != expected * exp.trials:
                whole.append(f"{calls} counted evaluations, traces report {expected * exp.trials}")
        for reason in whole:
            failures.append(f"{label}: {reason}")
            bad.update(range(exp.trials))
        failed += len(bad)
        digests[label] = {"trials": trial_digests, "files": files}
    return attempted, failed, failures, digests


def route_counts(outcomes):
    counts = {name: 0 for name in SOLVER_PATH_CODES}
    for oc in outcomes:
        for res in oc.results:
            paths = np.bincount(res.trace.solver_paths, minlength=4)
            for name, code in SOLVER_PATH_CODES.items():
                counts[name] += int(paths[code])
    return counts


def layer_metrics(tracer, lo, hi, outcomes):
    """Per-layer numbers of one traced round, as {name: [value, unit]}."""
    stats = tracer.layer_stats(lo, hi)
    out = {}
    for layer, unit in _LAYER_TIMES:
        st = stats.get(layer, _NO_SPANS)
        out[f"{layer}.calls"] = [st["calls"], "count"]
        out[f"{layer}.self_{unit}"] = [st["self_ns"] / _NS_PER[unit], unit]
    run = stats.get("optimizers.run", _NO_SPANS)
    iterations = sum(oc.exp.optimizer.iterations * oc.exp.trials for oc in outcomes)
    out["optimizers.run.calls"] = [run["calls"], "count"]
    out["optimizers.run.iterations"] = [iterations, "count"]
    out["optimizers.run.self_us_per_iter"] = [run["self_ns"] / 1e3 / iterations, "us"]
    make = stats.get("benchmarks.make_objective", _NO_SPANS)
    out["benchmarks.make_objective.calls"] = [make["calls"], "count"]
    out["benchmarks.make_objective.ms"] = [make["incl_ns"] / 1e6, "ms"]
    out["harness.aggregate.ms"] = [stats.get("harness.aggregate", _NO_SPANS)["incl_ns"] / 1e6, "ms"]
    out["harness.export.ms"] = [stats.get("harness.export", _NO_SPANS)["incl_ns"] / 1e6, "ms"]
    paths = [p for oc in outcomes for p in oc.paths.values()]
    out["harness.export.bytes"] = [sum(os.path.getsize(p) for p in paths), "bytes"]
    out["harness.export.rows"] = [
        sum(_data_rows(p) for p in paths if str(p).endswith(".csv")), "count"
    ]
    routes = route_counts(outcomes)
    for name, count in routes.items():
        out[f"regression.route.{name}"] = [count, "count"]
    out["regression.fits_post_warm"] = [sum(routes.values()), "count"]
    # Only linear fits have a cached route, so they are the ratio's base.
    linear_fits = out["regression.fit_linear.calls"][0]
    cached = routes["cached_rank1"] + routes["cached_moments"]
    out["regression.fast_path_ratio"] = [cached / linear_fits if linear_fits else 0.0, "ratio"]
    out["trace.spans"] = [hi - lo, "count"]
    return out


def numeric_environment():
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }
    try:
        import scipy

        env["scipy"] = scipy.__version__
    except ImportError:
        env["scipy"] = None
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    env["blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    env["cpu_model"] = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return env


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True, help="directory for CSVs and spans")
    parser.add_argument("--setup-only", action="store_true", help="time set-up and exit")
    parser.add_argument("--env", action="store_true", help="also report the numeric environment")
    args = parser.parse_args(argv)

    workload = workloads.build(args.workload, args.seed)
    fstar = set_up(workload)
    setup_s = time.perf_counter() - T0
    report = {"setup_s": setup_s, "reszo": str(Path(reszo.__file__).resolve().parent)}
    if args.env:
        report["env"] = numeric_environment()
    if args.setup_only:
        print(json.dumps(report))
        return 0

    tracer = Tracer() if args.trace else None
    min_rounds = 4 if args.trace else 3
    deadline = time.perf_counter() + args.seconds
    # Round 0 warms caches and lazy imports; it is checked but not timed.
    rounds, reference = [], None
    attempted, failed, failures = 0, 0, []
    while True:
        traced = tracer is not None and len(rounds) % 2 == 0 and len(rounds) > 0
        lo = len(tracer) if traced else 0
        if traced:
            with tracer.installed():
                outcomes, wall_s, parts = run_round(workload, args.out, tracer)
        else:
            outcomes, wall_s, parts = run_round(workload, args.out, None)
        queries = sum(
            int(r.trace.queries[-1]) for oc in outcomes for r in oc.results if len(r.trace)
        )
        n, n_failed, reasons, digests = check_round(
            workload, fstar, outcomes, tracer if traced else None, reference
        )
        attempted += n
        failed += n_failed
        failures += reasons
        reference = reference or digests
        record = {
            "warmup": not rounds,
            "traced": traced,
            "wall_s": wall_s,
            "run_s": sum(run for run, _ in parts.values()),
            "parts": parts,
            "queries": queries,
        }
        if traced:
            record["layers"] = layer_metrics(tracer, lo, len(tracer), outcomes)
        rounds.append(record)
        del outcomes
        timed = [r["wall_s"] for r in rounds[1:]]
        done = len(timed) >= min_rounds and len(timed) % (2 if tracer else 1) == 0
        if done and time.perf_counter() + statistics.median(timed) > deadline:
            break

    if tracer is not None:
        tracer.save(args.out / "spans.npz")
    report.update(
        rounds=rounds,
        attempted=attempted,
        failed=failed,
        failures=failures[:50],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        results_sha256=_sha256(json.dumps(reference, sort_keys=True).encode()),
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
