"""Command-line entry point: evolve1d, replay, simulate, metrics, print-config.

``replay`` and ``simulate`` share one batch runner. An episode that raises is
reported on stderr and in its ``run_NNNN.summary.json`` (``"outcome":
"error"``, no CSV); the other episodes are still written and aggregated,
and the batch report lists each failed run's error under ``errors``.

Exit codes: 0 success; 1 numerical failure at runtime, or an episode failed
(the rest were written); 2 configuration or input error.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from dataclasses import fields
from functools import partial
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, dump_default_config, load_config
from .dataset import extract_partials, load_dataset
from .engine import SolverConfig, solve
from .errors import ConfigError, NumericalError
from .grids import TimeGrid
from .metrics import Thresholds, aggregate, classify_run
from .oracle import (
    GridDensity,
    exact_update,
    ks_distance,
    write_evolution_csv,
)
from .runlog import read_runlog, read_summary, write_runlog
from .samples import SampleSet
from .simulator import human_baseline, run_interactive, run_replay

__all__ = ["main"]


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _check_counts(args)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distnav",
        description="Distribution-space coupled prediction and planning tools.",
    )
    sub = parser.add_subparsers(required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, default=None, help="YAML config file")
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--m", type=int, default=None, help="samples per agent")
    common.add_argument("--out", type=Path, default=None, help="output directory")

    batch = argparse.ArgumentParser(add_help=False)
    batch.add_argument("--jobs", type=int, default=1)
    batch.add_argument("--no-timing", action="store_true", help="omit wall-time fields")

    p = sub.add_parser("print-config", help="print the full default configuration")
    p.set_defaults(func=lambda args: (print(dump_default_config(), end=""), 0)[1])

    p = sub.add_parser("evolve1d", parents=[common], help="evolve 1D densities")
    p.add_argument("--sweeps", type=int, default=None)
    p.add_argument("--compare-sampler", action="store_true")
    p.set_defaults(func=cmd_evolve1d)

    p = sub.add_parser("replay", parents=[common, batch], help="partial-trajectory replay benchmark")
    p.add_argument("--dataset", type=Path, required=True)
    p.add_argument("--frame-period", type=float, default=None)
    p.add_argument("--dry-run", action="store_true", help="list partial runs and stop")
    p.add_argument("--human-baseline", action="store_true")
    p.add_argument("--limit", type=int, default=None, help="run at most N partials")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("simulate", parents=[common, batch], help="interactive social-force runs")
    p.add_argument("--pedestrians", type=int, default=None)
    p.add_argument("--runs", type=int, default=10)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("metrics", help="recompute metrics from run logs")
    p.add_argument("--logs", type=Path, required=True, help="directory of run logs")
    p.add_argument("--out", type=Path, default=None, help="report file (default: stdout)")
    for f in fields(Thresholds):
        p.add_argument(f"--{f.name.replace('_', '-')}", type=float, default=None)
    p.set_defaults(func=cmd_metrics)
    return parser


def _check_counts(args) -> None:
    for flag in ("runs", "jobs", "limit"):
        value = getattr(args, flag, None)
        if value is not None and value < 1:
            raise ConfigError(f"--{flag} must be >= 1")


def _experiment_config(args, extra: dict | None = None) -> ExperimentConfig:
    overrides = {
        "seed": args.seed,
        "samples_per_agent": args.m,
        "out": str(args.out) if args.out else None,
    }
    overrides.update(extra or {})
    return load_config(args.config, overrides)


def _out_dir(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {out}: {exc.strerror}") from None
    return out


def cmd_evolve1d(args) -> int:
    cfg = _experiment_config(args, {"evolve1d.sweeps": args.sweeps})
    out = _out_dir(cfg)
    ev = cfg.evolve1d

    widest = max(ev.sigmas)
    lo = min(ev.means) - ev.span_sigmas * widest
    hi = max(ev.means) + ev.span_sigmas * widest
    xs = np.linspace(lo, hi, ev.grid_points)
    densities = [GridDensity.gaussian(xs, mu, s) for mu, s in zip(ev.means, ev.sigmas)]
    history = exact_update(densities, cfg.collision, ev.sweeps)

    write_evolution_csv(history, out / "evolution.csv")
    with (out / "jc_trace.csv").open("w") as fh:
        fh.write("sweep,jc,kl_sum\n")
        for k, jc in enumerate(history.jc_trace):
            kl = repr(history.kl_trace[k - 1]) if k > 0 else ""
            fh.write(f"{k},{repr(jc)},{kl}\n")
    print(f"evolve1d: {len(ev.means)} agents, {ev.sweeps} sweeps -> {out}")

    if args.compare_sampler:
        m = cfg.samples_per_agent
        grid = TimeGrid(0.0, 1.0, 1)
        sets = []
        for k, (mu, s) in enumerate(zip(ev.means, ev.sigmas)):
            rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, k)))
            draws = mu + s * rng.standard_normal(m)
            sets.append(SampleSet(k, grid, draws[:, None, None], np.ones(m)))
        if len(sets) >= 2 and ev.sweeps >= 1:  # else the oracle leaves every density as it was
            solve(sets, cfg.collision, SolverConfig(epsilon=0.0, max_sweeps=ev.sweeps, rtol=0.0))
        summary = {}
        for k, (gd, ss) in enumerate(zip(densities, sets)):
            summary[f"agent_{k}"] = ks_distance(gd, ss.trajectories[:, 0, 0], ss.weights)
        (out / "ks_summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
        worst = max(summary.values())
        print(f"sampler comparison (m={m}): worst KS distance {worst:.4f}")
    return 0


def _attempt(worker, payload):
    """``worker(*payload)``'s run log, or the error summary of the exception it raised."""
    try:
        return worker(*payload)
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
        return {"outcome": "error", "error": error, "traceback": traceback.format_exc()}


def _run_batch(out: Path, jobs: int, worker, payloads, thresholds, no_timing: bool):
    """Run ``worker(*payload)`` per payload; write, classify and drop each run's log
    in payload order as it finishes. Returns the completed runs' classifications and
    ``(outcome, duration)`` pairs in payload order, and each failed run's error by name."""
    run = partial(_attempt, worker)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing: only for --jobs > 1

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return _write_runs(out, pool.map(run, payloads), len(payloads), thresholds, no_timing)
    return _write_runs(out, map(run, payloads), len(payloads), thresholds, no_timing)


def _write_runs(out: Path, results, count: int, thresholds, no_timing: bool):
    classifications, completed, errors = [], [], {}
    for k in range(count):  # not enumerate(): its reused tuple would keep the last log alive
        result = next(results)
        csv_path, summary_path = out / f"run_{k:04d}.csv", out / f"run_{k:04d}.summary.json"
        if isinstance(result, dict):
            errors[f"run_{k:04d}"] = result["error"]
            print(f"run_{k:04d}: {result['error']}", file=sys.stderr)
            csv_path.unlink(missing_ok=True)  # a stale CSV would pair with this summary
            summary_path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
            continue
        if no_timing:  # so that neither the written log nor its classification keeps a wall time
            for step in result.steps:
                step.replan_ms = None
        write_runlog(result, csv_path, summary_path)
        classifications.append(classify_run(result, thresholds))
        completed.append((result.outcome, result.duration))
        del result  # drop this run's log before the next run starts
    return classifications, completed, errors


def _write_report(path: Path | None, report: dict, errors: dict) -> None:
    """Write a batch report as sorted JSON, to stdout when ``path`` is None,
    with an ``errors`` key (run name -> error) only when a run failed, so
    error-free reports keep their bytes."""
    if errors:
        report = {**report, "errors": errors}
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if path is None:
        print(text, end="")
        return
    try:
        path.write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write report {path}: {exc.strerror}") from None


def cmd_replay(args) -> int:
    cfg = _experiment_config(args)
    ds = load_dataset(args.dataset, frame_period=args.frame_period)
    partials = extract_partials(ds)[: args.limit]
    if args.dry_run:
        print(f"{len(partials)} partial runs:")
        for k, p in enumerate(partials):
            print(
                f"  run_{k:04d}: pedestrian {p.ped_id}, frames {p.start_frame}-{p.end_frame}, "
                f"{p.human_length:.2f} m"
            )
        return 0
    if not partials:
        raise ConfigError("dataset yields no partial runs")

    out = _out_dir(cfg)
    planner_cfg = cfg.planner_config()
    payloads = [(ds, p, planner_cfg, cfg.replay, cfg.seed + k) for k, p in enumerate(partials)]
    classifications, completed, errors = _run_batch(
        out, args.jobs, run_replay, payloads, cfg.thresholds, args.no_timing
    )
    if not completed:
        return 1  # every episode failed; each summary holds its error

    report = aggregate(classifications)
    _write_report(out / "metrics_report.json", report.to_dict(), errors)
    table = report.to_table("distnav")

    if args.human_baseline:
        human = [classify_run(human_baseline(ds, p), cfg.thresholds) for p in partials]
        human_report = aggregate(human)
        _write_report(out / "human_report.json", human_report.to_dict(), {})
        table += human_report.to_table("human").splitlines()[1] + "\n"

    (out / "metrics_table.txt").write_text(table)
    print(table, end="")
    timeouts = sum(1 for outcome, _ in completed if outcome == "timeout")
    print(f"{len(completed)} runs written to {out} ({timeouts} timeouts)")
    return 0 if len(completed) == len(payloads) else 1


def cmd_simulate(args) -> int:
    cfg = _experiment_config(args, {"scenario.n_pedestrians": args.pedestrians})
    out = _out_dir(cfg)
    scenario = cfg.scenario_config()
    planner_cfg = cfg.planner_config()
    payloads = [(scenario, planner_cfg, cfg.seed + k) for k in range(args.runs)]
    classifications, completed, errors = _run_batch(
        out, args.jobs, run_interactive, payloads, cfg.thresholds, args.no_timing
    )
    if not completed:
        return 1  # every episode failed; each summary holds its error
    report = aggregate(classifications)

    arrived = [duration for outcome, duration in completed if outcome == "arrived"]
    summary = {
        "runs": len(completed),
        "pedestrians": scenario.n_pedestrians,
        "arrived": len(arrived),
        "arrived_pct": 100.0 * len(arrived) / len(completed),
        "collisions": sum(1 for c in classifications if c.collision),
        "mean_time_to_goal_s": float(np.mean(arrived)) if arrived else None,
        "metrics": report.to_dict(),
    }
    _write_report(out / "simulation_report.json", summary, errors)
    print(report.to_table("distnav"), end="")
    print(
        f"{summary['arrived']}/{len(completed)} arrived, {summary['collisions']} collision runs, "
        f"mean time to goal {summary['mean_time_to_goal_s']}"
    )
    return 0 if len(completed) == len(payloads) else 1


def cmd_metrics(args) -> int:
    overrides = {f.name: getattr(args, f.name) for f in fields(Thresholds)}
    try:
        thresholds = Thresholds(**{k: v for k, v in overrides.items() if v is not None})
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    logs_dir = Path(args.logs)
    if not logs_dir.is_dir():
        raise ConfigError(f"not a directory: {logs_dir}")
    csvs = sorted(logs_dir.glob("run_*.csv"))
    runs = [read_runlog(p, p.with_name(f"{p.stem}.summary.json")) for p in csvs]
    errors = {}  # a failed run leaves only its summary, as _run_batch writes it
    for summary_path in sorted(logs_dir.glob("run_*.summary.json")):
        name = summary_path.name.removesuffix(".summary.json")
        if (logs_dir / f"{name}.csv").exists():
            continue
        summary = read_summary(summary_path)
        if isinstance(summary, dict) and summary.get("outcome") == "error":
            if not isinstance(summary.get("error"), str):
                raise ConfigError(f"run summary {summary_path} has no error message")
            errors[name] = summary["error"]
    if not runs:
        raise ConfigError(f"no run logs found in {logs_dir}")
    classifications = [classify_run(r, thresholds) for r in runs]
    _write_report(args.out, aggregate(classifications).to_dict(), errors)
    if args.out:
        print(f"report written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
