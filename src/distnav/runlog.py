"""Run logs and their on-disk form.

A run log is the rows it writes. Each step holds one ``(agent_id, x, y)``
row per agent present, the robot's first, plus the step's time, replan time
and robot-to-nearest-pedestrian separation. Each run produces one CSV (one
line per row: ``t, agent_id, x, y, min_sep, replan_ms``; the separation and
timing columns are filled on the robot's line) plus a JSON summary. Floats
are written with ``repr``, so a reloaded log holds every row, separation and
replan time bit for bit. A step keeps its replan time in milliseconds, the
quantity the CSV holds; ``RunLog.replan_times`` gives it in seconds.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dataset import arc_length
from .errors import ConfigError, read_input

__all__ = ["RunLogStep", "RunLog", "write_runlog", "read_runlog", "read_summary"]

ARRIVED = "arrived"
TIMEOUT = "timeout"


@dataclass
class RunLogStep:
    time: float
    rows: list  # (agent_id, x, y) per agent present, the robot's first
    replan_ms: float | None  # None on a step that made no replan
    min_sep: float  # NaN when no pedestrian is present


@dataclass
class RunLog:
    steps: list = field(default_factory=list)
    outcome: str = ARRIVED
    seed: int | None = None
    robot_id: int = -1
    human_length: float = field(kw_only=True)  # the human path length the robot's path is compared with

    def robot_positions(self) -> np.ndarray:
        return np.array([s.rows[0][1:] for s in self.steps])

    def min_sep_series(self) -> np.ndarray:
        return np.array([s.min_sep for s in self.steps])

    def replan_times(self) -> list:
        """Each replan's time, in seconds."""
        return [s.replan_ms / 1000.0 for s in self.steps if s.replan_ms is not None]

    @property
    def duration(self) -> float:
        if len(self.steps) < 2:
            return 0.0
        return self.steps[-1].time - self.steps[0].time


def _fmt(x: float) -> str:
    return repr(float(x))


def write_runlog(log: RunLog, csv_path, summary_path) -> None:
    """Write a run's CSV and summary; the summary has ``mean_replan_s``
    exactly when the log holds a replan time."""
    csv_path, summary_path = Path(csv_path), Path(summary_path)
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    with csv_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "agent_id", "x", "y", "min_sep", "replan_ms"])
        for step in log.steps:
            min_sep = "" if math.isnan(step.min_sep) else _fmt(step.min_sep)
            replan_ms = "" if step.replan_ms is None else _fmt(step.replan_ms)
            cells = [min_sep, replan_ms]  # the robot's row, then blanks
            for agent_id, x, y in step.rows:
                writer.writerow([_fmt(step.time), agent_id, _fmt(x), _fmt(y), *cells])
                cells = ["", ""]

    summary = {
        "outcome": log.outcome,
        "seed": log.seed,
        "robot_id": log.robot_id,
        "steps": len(log.steps),
        "duration_s": log.duration,
        "robot_path_length_m": arc_length(log.robot_positions()),
        "human_path_length_m": log.human_length,
    }
    times = log.replan_times()
    if times:
        summary["mean_replan_s"] = float(np.mean(times))
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")


def read_summary(summary_path):
    """A run summary's parsed JSON; a file that cannot be read or parsed
    raises ConfigError naming it."""
    try:
        return json.loads(read_input(summary_path))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"cannot read run summary {summary_path}: {exc}") from None


def _nonnegative(name: str, cell: str) -> float:
    value = float(cell)
    if not 0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {cell}")
    return value


def read_runlog(csv_path, summary_path) -> RunLog:
    """Rebuild a run from disk, every row of every step. A robot row starts a
    step; any other row joins the step before it, at the same time. A summary
    without a positive finite human path length, a row with a field that is
    not a number, a non-finite time or position, or a negative or non-finite
    separation or replan time, and a pedestrian row that does not follow a
    robot row at its time raise ConfigError naming the file (and line); a
    blank separation or replan time reads as NaN or None."""
    summary = read_summary(summary_path)
    if not (isinstance(summary, dict) and isinstance(summary.get("robot_id"), int) and "outcome" in summary):
        raise ConfigError(f"{summary_path}: a run summary needs an integer robot_id and an outcome")
    robot_id, human = summary["robot_id"], summary.get("human_path_length_m")
    if type(human) not in (int, float) or not 0 < human < math.inf:
        raise ConfigError(f"{summary_path}: human_path_length_m must be a positive finite number, got {human!r}")

    steps = []
    reader = csv.reader(io.StringIO(read_input(csv_path)))
    header = next(reader, None)
    if header is None or header[:4] != ["t", "agent_id", "x", "y"]:
        raise ConfigError(f"{csv_path}: not a run log")
    for row in reader:
        try:
            t, agent, x, y, min_sep, replan_ms = row
            agent, t, x, y = int(agent), float(t), float(x), float(y)
            replan_ms = _nonnegative("replan time", replan_ms) if replan_ms else None
            min_sep = _nonnegative("separation", min_sep) if min_sep else math.nan
            if not math.isfinite(t):
                raise ValueError(f"non-finite time {t}")
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"agent {agent} has non-finite state")
            if agent == robot_id:
                steps.append(RunLogStep(t, [(agent, x, y)], replan_ms, min_sep))
            elif not steps or t != steps[-1].time:
                raise ValueError(f"agent {agent}'s row at time {t} does not follow a robot row at that time")
            else:
                steps[-1].rows.append((agent, x, y))
        except ValueError as exc:
            raise ConfigError(f"{csv_path}:{reader.line_num}: {exc}") from None
    if not steps:
        raise ConfigError(f"{csv_path}: log contains no robot rows")
    return RunLog(
        steps=steps,
        outcome=summary["outcome"],
        seed=summary.get("seed"),
        robot_id=robot_id,
        human_length=human,
    )
