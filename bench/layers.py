"""Which program functions the trace wraps, and the per-layer metrics read from it.

Targets are named as the calling module sees them, so a span covers exactly
the calls that layer receives from its caller. Time and count metrics are
per operation (one replan, or one 1D solve), averaged over the traced rounds.
"""

from __future__ import annotations

import json
from pathlib import Path

import checks
from tracer import Tracer

OP_SPAN = {"sfm_crowd": "planner.replan", "replay_sparse": "planner.replan",
           "oracle1d_large_m": "engine.solve"}


def _penalty_counts(args, kwargs, result):
    return {"entries": float(result.size)}


def _sample_counts(args, kwargs, result):
    return {"samples": float(result.m)}


def _critical_counts(args, kwargs, result):
    scores = args[0]
    robot = kwargs.get("robot", args[2] if len(args) > 2 else None)
    return {"scored": float(len(scores)), "critical": float(sum(a != robot for a in result))}


def _solve_counts(args, kwargs, report):
    bad = checks.check_decrease(report.initial_objective, report.objective_trace, report.kl_trace)
    return {"sweeps": float(report.sweeps), "max_sweeps": float(report.terminated_by == "max_sweeps"),
            "violations": float(len(bad))}


# (target as the caller sees it, span name, counter)
TARGETS = [
    ("distnav.cli.run_interactive", "simulator.run", None),
    ("distnav.cli.run_replay", "simulator.run", None),
    ("distnav.cli.load_dataset", "dataset.load", None),
    ("distnav.cli.extract_partials", "dataset.load", None),
    ("distnav.cli.write_runlog", "runlog.write", None),
    ("distnav.cli.classify_run", "metrics.classify", None),
    ("distnav.dataset.TrajectoryDataset.present_at", "dataset.lookup", None),
    ("distnav.dataset.TrajectoryDataset.position_at", "dataset.lookup", None),
    ("distnav.simulator.replan", "planner.replan", None),
    ("distnav.simulator.step_sfm", "sfm.step", None),
    ("distnav.planner.fit_preference", "gp.fit", None),
    ("distnav.planner.sample_trajectories", "gp.sample", _sample_counts),
    ("distnav.planner.interaction_scores", "engine.score", None),
    ("distnav.planner.select_critical", "engine.critical", _critical_counts),
    ("distnav.planner.solve", "engine.solve", _solve_counts),
    ("distnav.planner.select_optimal", "engine.select", None),
    ("distnav.engine.solve", "engine.solve", _solve_counts),
    ("distnav.engine.penalty_matrix", "collision.penalty", _penalty_counts),
    ("distnav.engine.joint_expected_penalty", "collision.objective", None),
    ("distnav.engine.log_densities", "gp.logdens", None),
    ("distnav.oracle.exact_update", "oracle.exact", None),
]

# per-layer metric name -> unit, as BENCHMARK.json lists them
UNITS = {m["name"]: m["unit"] for m in
         json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())["per_layer"]}

# metric -> span names it is read from; absent when any of them was not wrapped
SOURCES = {
    "collision.penalty_ms": ["collision.penalty", "engine.score"],
    "collision.penalty_entries": ["collision.penalty", "engine.score"],
    "collision.penalty_mentries_per_s": ["collision.penalty", "engine.score"],
    "collision.objective_ms": ["collision.objective"],
    "collision.objective_calls": ["collision.objective"],
    "engine.sweep_ms": ["engine.solve"],
    "engine.solves": ["engine.solve"],
    "engine.sweeps": ["engine.solve"],
    "engine.max_sweeps_share": ["engine.solve"],
    "engine.critical_share": ["engine.critical"],
    "engine.score_ms": ["engine.score"],
    "engine.select_ms": ["engine.select"],
    "gp.fit_ms": ["gp.fit"],
    "gp.fit_calls": ["gp.fit"],
    "gp.sample_ms": ["gp.sample"],
    "gp.samples_drawn": ["gp.sample"],
    "gp.logdens_ms": ["gp.logdens"],
    "planner.self_ms": ["planner.replan"],
    "simulator.self_ms": ["simulator.run"],
    "sfm.step_ms": ["sfm.step"],
    "sfm.steps": ["sfm.step"],
    "runlog.write_ms": ["runlog.write"],
    "metrics.classify_ms": ["metrics.classify"],
    "dataset.load_ms": ["dataset.load"],
    "dataset.lookup_ms": ["dataset.lookup"],
    "oracle.exact_ms": ["oracle.exact"],
    "trace.op_ms": [],
    "trace.overhead_s": [],
    "share.gp": ["gp.fit", "gp.sample", "gp.logdens"],
    "share.collision_engine": ["collision.penalty", "collision.objective", "engine.solve",
                               "engine.score", "engine.select"],
}


def install() -> Tracer:
    tracer = Tracer()
    for target, span, counter in TARGETS:
        tracer.wrap(target, span, counter)
    return tracer


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(tracer: Tracer, workload: str, ops: int, setup_totals: dict, overhead_s: float) -> dict:
    """Per-layer metric values from the spans of the traced rounds."""
    tot = tracer.totals()
    get = lambda name, key: tot[name][key] if name in tot else 0.0
    count = lambda name, key: tot[name]["counts"].get(key, 0.0) if name in tot else 0.0
    per_op_ms = lambda seconds: 1000.0 * seconds / ops

    # penalty rows built while scoring against the robot's intent belong to scoring
    solve_penalty = [s for s in tracer.spans
                     if s.name == "collision.penalty" and not tracer.has_ancestor(s, "engine.score")]
    pen_s = sum(s.duration for s in solve_penalty)
    pen_entries = sum(s.counts.get("entries", 0.0) for s in solve_penalty)
    op_s = get(OP_SPAN[workload], "total_s")
    gp_s = get("gp.fit", "total_s") + get("gp.sample", "total_s") + get("gp.logdens", "total_s")
    ce_s = (get("collision.penalty", "total_s") + get("collision.objective", "total_s")
            + get("engine.solve", "self_s") + get("engine.score", "self_s") + get("engine.select", "self_s"))
    exact = setup_totals.get("oracle.exact")

    values = {
        "collision.penalty_ms": per_op_ms(pen_s),
        "collision.penalty_entries": pen_entries / ops,
        "collision.penalty_mentries_per_s": _ratio(pen_entries / 1e6, pen_s),
        "collision.objective_ms": per_op_ms(get("collision.objective", "total_s")),
        "collision.objective_calls": get("collision.objective", "calls") / ops,
        "engine.sweep_ms": per_op_ms(get("engine.solve", "self_s")),
        "engine.solves": get("engine.solve", "calls") / ops,
        "engine.sweeps": count("engine.solve", "sweeps") / ops,
        "engine.max_sweeps_share": _ratio(count("engine.solve", "max_sweeps"), get("engine.solve", "calls")),
        "engine.critical_share": _ratio(count("engine.critical", "critical"), count("engine.critical", "scored")),
        "engine.score_ms": per_op_ms(get("engine.score", "total_s")),
        "engine.select_ms": per_op_ms(get("engine.select", "self_s")),
        "gp.fit_ms": per_op_ms(get("gp.fit", "total_s")),
        "gp.fit_calls": get("gp.fit", "calls") / ops,
        "gp.sample_ms": per_op_ms(get("gp.sample", "total_s")),
        "gp.samples_drawn": count("gp.sample", "samples") / ops,
        "gp.logdens_ms": per_op_ms(get("gp.logdens", "total_s")),
        "planner.self_ms": per_op_ms(get("planner.replan", "self_s")),
        "simulator.self_ms": per_op_ms(get("simulator.run", "self_s")),
        "sfm.step_ms": per_op_ms(get("sfm.step", "total_s")),
        "sfm.steps": get("sfm.step", "calls") / ops,
        "runlog.write_ms": per_op_ms(get("runlog.write", "total_s")),
        "metrics.classify_ms": per_op_ms(get("metrics.classify", "total_s")),
        "dataset.load_ms": per_op_ms(get("dataset.load", "total_s")),
        "dataset.lookup_ms": per_op_ms(get("dataset.lookup", "total_s")),
        "oracle.exact_ms": 1000.0 * exact["total_s"] if exact else 0.0,
        "trace.op_ms": per_op_ms(op_s),
        "trace.overhead_s": overhead_s / ops,
        "share.gp": _ratio(gp_s, op_s),
        "share.collision_engine": _ratio(ce_s, op_s),
    }
    absent = set(tracer.missing)
    return {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()
            if not absent.intersection(SOURCES[name])}


def violations_since(tracer: Tracer, first: int) -> int:
    """Solves recorded from span ``first`` on that broke the per-sweep decrease inequality."""
    return sum(1 for s in tracer.spans[first:] if s.name == "engine.solve" and s.counts.get("violations"))
