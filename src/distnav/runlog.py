"""Run logs and their on-disk form.

Each run produces one CSV (row per agent per step: ``t, agent_id, x, y,
min_sep, replan_ms``; the separation and timing columns are filled on the
robot's row) plus a JSON summary. Floats are written with ``repr`` so a
reloaded log reproduces the in-memory values bit for bit.
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
from .world import ROBOT, AgentState, WorldState

__all__ = ["RunLogStep", "RunLog", "write_runlog", "read_runlog", "read_summary"]

ARRIVED = "arrived"
TIMEOUT = "timeout"


@dataclass
class RunLogStep:
    time: float
    world: WorldState
    replan_s: float | None  # None on a step that made no replan
    min_sep: float  # NaN when no pedestrian is present


@dataclass
class RunLog:
    steps: list = field(default_factory=list)
    outcome: str = ARRIVED
    seed: int | None = None
    robot_id: int = -1
    human_length: float = field(kw_only=True)  # the human path length the robot's path is compared with

    def robot_positions(self) -> np.ndarray:
        return np.array([s.world.get(self.robot_id).pos for s in self.steps])

    def min_sep_series(self) -> np.ndarray:
        return np.array([s.min_sep for s in self.steps])

    def replan_times(self) -> list:
        return [s.replan_s for s in self.steps if s.replan_s is not None]

    @property
    def duration(self) -> float:
        if len(self.steps) < 2:
            return 0.0
        return self.steps[-1].time - self.steps[0].time


def _fmt(x: float) -> str:
    return repr(float(x))


def write_runlog(log: RunLog, csv_path, summary_path, include_timing: bool = True) -> None:
    csv_path, summary_path = Path(csv_path), Path(summary_path)
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    with csv_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "agent_id", "x", "y", "min_sep", "replan_ms"])
        for step in log.steps:
            for agent in step.world.agents:
                is_robot = agent.id == log.robot_id
                min_sep = _fmt(step.min_sep) if is_robot and not math.isnan(step.min_sep) else ""
                replan_ms = ""
                if is_robot and step.replan_s is not None and include_timing:
                    replan_ms = _fmt(step.replan_s * 1000.0)
                writer.writerow(
                    [_fmt(step.time), agent.id, _fmt(agent.pos[0]), _fmt(agent.pos[1]), min_sep, replan_ms]
                )

    summary = {
        "outcome": log.outcome,
        "seed": log.seed,
        "robot_id": log.robot_id,
        "steps": len(log.steps),
        "duration_s": log.duration,
        "robot_path_length_m": arc_length(log.robot_positions()),
        "human_path_length_m": log.human_length,
    }
    if include_timing:
        times = log.replan_times()
        summary["mean_replan_s"] = float(np.mean(times)) if times else None
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")


def read_summary(summary_path):
    """A run summary's parsed JSON; a file that cannot be read or parsed
    raises ConfigError naming it."""
    try:
        return json.loads(read_input(summary_path))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"cannot read run summary {summary_path}: {exc}") from None


def read_runlog(csv_path, summary_path) -> RunLog:
    """Rebuild a run from disk. Each step's world holds the robot alone, since
    the CSV records neither agent kinds nor velocities and goals. A summary
    without a positive finite human path length, or a robot row with a
    non-finite time or position, raises ConfigError."""
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
            if int(agent) != robot_id:
                continue
            t, pos = float(t), (float(x), float(y))
            if not math.isfinite(t):
                raise ValueError(f"non-finite time {t}")
            replan_s = float(replan_ms) / 1000.0 if replan_ms else None
            min_sep = float(min_sep) if min_sep else math.nan
            world = WorldState(t, [AgentState(robot_id, pos, np.zeros(2), pos, ROBOT)])
        except ValueError as exc:
            raise ConfigError(f"{csv_path}:{reader.line_num}: {exc}") from None
        steps.append(RunLogStep(t, world, replan_s, min_sep))
    if not steps:
        raise ConfigError(f"{csv_path}: log contains no robot rows")
    return RunLog(
        steps=steps,
        outcome=summary["outcome"],
        seed=summary.get("seed"),
        robot_id=robot_id,
        human_length=human,
    )
