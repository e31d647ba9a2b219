#!/usr/bin/env python3
"""The reszo benchmark: one command for every workload.

    python3 perfbench/run.py --workload ridge100_mix --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py                      # all workloads, seed 0

Each workload runs in its own child process (worker.py) with the BLAS
thread count pinned to 1 before numpy is imported.  Set-up is timed in
several more child processes and reported as the median.  With
``--trace 0`` the end-to-end metrics are printed, with ``--trace 1`` the
per-layer metrics of alternating traced rounds.  Every metric is
printed by name with its unit; the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
record (numeric environment, every round, result digests) is written
to ``perfbench/results/``.  See README.md.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
WORKLOADS = ("ridge100_mix", "ridge900_diag", "nn_q_reszo")
SETUP_SAMPLES = 15  # set-up samples per workload: fourteen set-up-only processes and the workload's own
RUN_LIMIT_S = 170  # a whole run, all child processes included, must end within this
PINNED_THREADS = {
    var: "1"
    for var in (
        "OPENBLAS_NUM_THREADS",
        "OMP_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "queries_per_s": "1/s", "peak_rss_mb": "MB"}


class BenchmarkError(RuntimeError):
    pass


def _child_env():
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def _run_child(args, deadline):
    """Run worker.py to completion and return its JSON report."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), *args]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError("out of time before starting " + " ".join(args))
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"worker timed out after {timeout:.0f} s: {' '.join(args)}") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited with {proc.returncode}: {' '.join(args)}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchmarkError("worker printed no report")
    report = json.loads(lines[-1])
    if Path(report["reszo"]) != ROOT / "src" / "reszo":
        raise BenchmarkError(f"measured reszo at {report['reszo']}, not this checkout's src/")
    return report


def fastest_steps(rounds):
    """A round's time in run_experiment and in export, each summed over
    the round's steps (one experiment's run_experiment, its export) at
    the step's fastest over the given rounds.

    Every round does the same work and must give bit-identical results,
    so their times differ only by how much other load on the shared
    machine slowed them.  That load slows a step by up to 50%, in bursts
    lasting from a fraction of a second to minutes.  Short steps sampled
    over the whole run catch the quiet moments between short bursts;
    against load that lasts the whole run no statistic helps (README.md,
    Spread).
    """
    labels = rounds[0]["parts"]
    run_s = sum(min(r["parts"][label][0] for r in rounds) for label in labels)
    export_s = sum(min(r["parts"][label][1] for r in rounds) for label in labels)
    return run_s, export_s


def run_workload(name, seed, seconds, trace, deadline):
    out_dir = RESULTS_DIR / f"{name}-seed{seed}-trace{trace}"
    base = ["--workload", name, "--seed", str(seed), "--out", str(out_dir)]
    # Set-up-only processes run before and after the workload, so the
    # median of their set-up times spans the machine's speed over the run.
    setups = []

    def setup_only(*extra):
        report = _run_child(base + ["--setup-only", *extra], deadline)
        setups.append(report["setup_s"])
        return report

    env = setup_only("--env")["env"]
    for _ in range(SETUP_SAMPLES // 2 - 1):
        setup_only()
    report = _run_child(base + ["--seconds", str(seconds), "--trace", str(trace)], deadline)
    setups.append(report["setup_s"])
    for _ in range(SETUP_SAMPLES // 2):
        setup_only()
    rounds = report["rounds"]
    plain = [r for r in rounds if not (r["warmup"] or r["traced"])]
    traced = [r for r in rounds if r["traced"]]

    if trace:
        layers = {}
        for metric, (_, unit) in traced[0]["layers"].items():
            values = [r["layers"][metric][0] for r in traced]
            layers[metric] = {"value": statistics.median(values), "unit": unit}
        overhead = sum(fastest_steps(traced)) / sum(fastest_steps(plain))
        layers["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
        metrics = layers
        samples = {}
    else:
        run_s, export_s = fastest_steps(plain)
        samples = {
            "setup_s": setups,
            "wall_s": [r["wall_s"] for r in plain],
            "queries_per_s": [r["queries"] / r["run_s"] for r in plain],
            "peak_rss_mb": [report["peak_rss_mb"]],
        }
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": run_s + export_s,
            "queries_per_s": plain[0]["queries"] / run_s,
            "peak_rss_mb": report["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    print(
        f"workload {name}  seed {seed}  trace {trace}  "
        f"timed rounds {len(plain)} untraced, {len(traced)} traced (after 1 warm-up round)"
    )
    for metric, entry in metrics.items():
        line = f"  {metric:42s} {entry['value']:>14.6g} {entry['unit']}"
        values = samples.get(metric, [])
        if len(values) > 1:
            lo, _, hi = statistics.quantiles(values, n=4)
            line += (
                f"   {len(values)} samples: median {statistics.median(values):.6g},"
                f" quartiles {lo:.6g}..{hi:.6g}, min {min(values):.6g}, max {max(values):.6g}"
            )
        print(line)
    if trace:
        wall_ms = statistics.mean(r["wall_s"] for r in traced) * 1e3
        print(f"  self-time shares of the mean traced round ({wall_ms:.1f} ms):")
        for metric, entry in metrics.items():
            if entry["unit"] in ("us", "ms") and ".self_" in metric and "per_iter" not in metric:
                ms = entry["value"] / (1e3 if entry["unit"] == "us" else 1.0)
                print(f"    {metric:40s} {100.0 * ms / wall_ms:6.1f} %")
    print(f"  correct {report['failed'] == 0}  attempted {report['attempted']} trials  failed {report['failed']}")
    for reason in report["failures"]:
        print(f"  FAILED {reason}")
    print(f"  results sha256 {report['results_sha256']}")

    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    record = dict(
        result,
        workload=name,
        seed=seed,
        seconds=seconds,
        trace=trace,
        samples=samples,
        setup_samples_s=setups,
        rounds=rounds,
        failures=report["failures"],
        results_sha256=report["results_sha256"],
        environment=env,
    )
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    with open(RESULTS_DIR / f"{name}-seed{seed}-trace{trace}.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description="reszo benchmark")
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**32:
        parser.error("--seed must lie in [0, 2**32)")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (ROOT / "src" / "reszo" / "__init__.py").is_file():
        print(f"error: no reszo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Turn a termination request into an exception, so subprocess.run
    # kills and reaps the running worker before this process exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        deadline = time.monotonic() + RUN_LIMIT_S
        try:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, deadline)
        except BenchmarkError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        if len(names) > 1:
            print(json.dumps(results[name]))
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{metric}": entry
                for name, r in results.items()
                for metric, entry in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
