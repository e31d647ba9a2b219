"""Command-line front end for the experiment harness.

Config files are JSON mirroring ExperimentConfig; see the README for
the schema.  A manifest written by a previous run is itself a valid
config (the embedded ``config`` object is used), which is how runs are
reproduced bit-exactly.  Flags override config keys.  Exit status is 0
on success, 1 when an experiment fails (every trial diverged) or its
results cannot be written (``export failed: ...`` on stderr), 2 on bad
configs or arguments.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .core import ExperimentFailedError
from .diagnostics import cd_statistics
from .harness import (
    ExperimentConfig,
    ExportError,
    experiment_from_dict,
    export_results,
    exporting,
    grid_search,
    run_experiment,
    write_compare_csv,
    write_manifest,
)


def _write_csv(out_dir, name: str, header: str, lines) -> None:
    """Write a CSV to ``out_dir/name``; a failed write is an ExportError."""
    with exporting(out_dir) as out, open(out / name, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(line + "\n" for line in lines)


def _load_config(path: str) -> ExperimentConfig:
    """The config at ``path``; a path that cannot be read (missing, a
    directory, under a regular file) is a config error that names it."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror or exc}") from exc
    return experiment_from_dict(data)


def _apply_overrides(exp: ExperimentConfig, args) -> ExperimentConfig:
    updates = {}
    if getattr(args, "seed", None) is not None:
        updates["base_seed"] = args.seed
    if getattr(args, "trials", None) is not None:
        updates["trials"] = args.trials
    if getattr(args, "output", None) is not None:
        updates["output_path"] = args.output
    if getattr(args, "stride", None) is not None:
        updates["stride"] = args.stride
    return replace(exp, **updates) if updates else exp


def _add_common(sub):
    sub.add_argument("--seed", type=int, default=None, help="override base_seed")
    sub.add_argument("--trials", type=int, default=None, help="override trial count")
    sub.add_argument("--output", type=str, default=None, help="override output directory")


def _float_list(text: str):
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma-separated float list, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("empty list")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reszo",
        description="Zeroth-order optimization experiments: run, tune and compare methods.",
    )
    parser.add_argument("--version", action="version", version=f"reszo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment and export its curves")
    p_run.add_argument("--config", required=True, help="JSON config or manifest path")
    p_run.add_argument("--stride", type=int, default=None, help="export row subsampling")
    _add_common(p_run)

    p_grid = sub.add_parser("grid", help="grid-search step size and smoothing radius")
    p_grid.add_argument("--config", required=True)
    p_grid.add_argument("--eta", required=True, type=_float_list, help="comma list of step sizes")
    p_grid.add_argument(
        "--delta", required=True, type=_float_list, help="comma list of smoothing radii"
    )
    _add_common(p_grid)

    p_cd = sub.add_parser(
        "cd-ratio", help="run with diagnostics and report gradient-error ratio statistics"
    )
    p_cd.add_argument("--config", required=True)
    _add_common(p_cd)

    p_cmp = sub.add_parser("compare", help="run several configs on one benchmark")
    p_cmp.add_argument("--configs", required=True, nargs="+", help="JSON config paths")
    p_cmp.add_argument("--stride", type=int, default=None)
    _add_common(p_cmp)
    return parser


def _cmd_run(args) -> int:
    exp = _apply_overrides(_load_config(args.config), args)
    results, curve = run_experiment(exp)
    out_dir = exp.output_path or "reszo_out"
    paths = export_results(curve, results, out_dir, exp)
    print(
        f"{exp.optimizer.method} on {exp.benchmark.problem}: "
        f"{exp.trials} trial(s), {curve.diverged_count} diverged, "
        f"final mean gap {curve.mean_gap[-1]:.6g} at {int(curve.queries[-1])} queries"
    )
    print(f"wrote {paths['curve']}")
    return 0


def _cmd_grid(args) -> int:
    exp = _apply_overrides(_load_config(args.config), args)
    trials = args.trials if args.trials is not None else 10
    best, table = grid_search(exp, args.eta, args.delta, trials=trials)
    header = "eta,delta,score,queries_to_2x,diverged_trials"
    print(header)
    for cell in table:
        print(
            f"{cell.eta:g},{cell.delta:g},{cell.score:.6g},"
            f"{cell.queries_to_2x:g},{cell.diverged_trials}"
        )
    print(f"best: eta={best.eta:g} delta={best.delta:g} score={best.score:.6g}")
    if exp.output_path:
        lines = (
            f"{c.eta!r},{c.delta!r},{c.score!r},{c.queries_to_2x!r},{c.diverged_trials}"
            for c in table
        )
        _write_csv(exp.output_path, "grid.csv", header, lines)
    return 0


def _cmd_cd_ratio(args) -> int:
    exp = _apply_overrides(_load_config(args.config), args)
    exp = replace(exp, record_diagnostics=True)
    if exp.optimizer.method != "l_reszo":
        print("cd-ratio requires the l_reszo method", file=sys.stderr)
        return 2
    results, _ = run_experiment(exp)
    rows = []
    pooled = []
    for res in results:
        tr = res.trace
        values = [] if tr.cd_ratios is None else tr.cd_ratios[np.isfinite(tr.cd_ratios)]
        pooled.extend(values)
        rows.append((res.index, cd_statistics(values)))
    header = "trial,count,max,p99,mean"
    print(header)
    for idx, stats in rows:
        print(
            f"{idx},{stats['count']},{stats['max']:.6g},"
            f"{stats['p99']:.6g},{stats['mean']:.6g}"
        )
    total = cd_statistics(pooled)
    print(
        f"all,{total['count']},{total['max']:.6g},{total['p99']:.6g},{total['mean']:.6g}"
    )
    if exp.output_path:
        lines = (
            f"{idx},{s['count']},{s['max']!r},{s['p99']!r},{s['mean']!r}"
            for idx, s in rows + [("all", total)]
        )
        _write_csv(exp.output_path, "cd_stats.csv", header, lines)
    return 0


def _cmd_compare(args) -> int:
    exps = [_apply_overrides(_load_config(p), args) for p in args.configs]
    bench = exps[0].benchmark
    for exp in exps[1:]:
        if exp.benchmark != bench:
            print("compare requires all configs to share one benchmark", file=sys.stderr)
            return 2
    labels = []
    curves = []
    for exp in exps:
        label = exp.optimizer.method
        if label in labels:
            suffix = 2
            while f"{label}_{suffix}" in labels:
                suffix += 1
            label = f"{label}_{suffix}"
        _, curve = run_experiment(exp)
        labels.append(label)
        curves.append(curve)
        print(f"{label}: final mean gap {curve.mean_gap[-1]:.6g}")
    with exporting(exps[0].output_path or "reszo_out") as out_dir:
        path = out_dir / "compare.csv"
        write_compare_csv(labels, curves, path, stride=exps[0].stride)
        for label, exp in zip(labels, exps):
            write_manifest(exp, out_dir / f"manifest_{label}.json")
    print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "grid": _cmd_grid,
        "cd-ratio": _cmd_cd_ratio,
        "compare": _cmd_compare,
    }
    try:
        return handlers[args.command](args)
    except ExperimentFailedError as exc:
        print(f"experiment failed: {exc}", file=sys.stderr)
        return 1
    except ExportError as exc:
        print(f"export failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # json.JSONDecodeError included
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
