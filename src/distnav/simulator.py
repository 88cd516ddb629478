"""Closed-loop navigation runs: dataset replay and reactive simulation.

Replay runs follow the partial-trajectory protocol: the chosen pedestrian is
removed, the robot inherits its start and end, and everyone else is replayed
verbatim (non-responsive). Interactive runs put the robot among social-force
pedestrians that treat it as a repulsive neighbour and recycle their goals on
arrival, keeping the crowd density steady.

Each frame is a list of ``(id, x, y)`` rows, the robot's first. The robot
and the social-force pedestrians are the agents that move; a replayed
pedestrian is only its row at each frame. The robot tracks its current plan
open-loop for one frame, then replans.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import PartialRun, TrajectoryDataset
from .planner import PlannerConfig, replan
from .runlog import ARRIVED, TIMEOUT, RunLog, RunLogStep
from .sfm import SfmParams, step_sfm
from .world import AgentState, min_separation

__all__ = [
    "ReplayConfig",
    "ScenarioConfig",
    "run_replay",
    "run_interactive",
    "human_baseline",
]

ROBOT_ID = -1


@dataclass(frozen=True)
class ReplayConfig:
    goal_tolerance: float = 0.5
    grace_fraction: float = 0.25

    def __post_init__(self):
        if not (self.goal_tolerance > 0) or self.grace_fraction < 0:
            raise ValueError("invalid replay configuration")


@dataclass(frozen=True)
class ScenarioConfig:
    arena_radius: float = 4.0
    n_pedestrians: int = 5
    time_cap_s: float = 60.0
    goal_tolerance: float = 0.5
    recycle_tolerance: float = 0.3
    sfm: SfmParams = field(default_factory=SfmParams)
    sfm_substeps: int = 4

    def __post_init__(self):
        if self.n_pedestrians < 0 or self.arena_radius <= 0:
            raise ValueError("invalid scenario configuration")
        if self.sfm_substeps < 1 or self.time_cap_s <= 0:
            raise ValueError("invalid scenario configuration")
        if not self.goal_tolerance > 0:
            raise ValueError(f"goal_tolerance must be > 0, got {self.goal_tolerance}")


def _advance_along_plan(robot: AgentState, plan, dt: float, max_speed: float) -> None:
    """Move the robot to the plan's next state, clamped to max_speed * dt."""
    step = plan.states[1] - robot.pos
    norm = float(np.linalg.norm(step))
    limit = max_speed * dt
    if norm > limit:
        step = step * (limit / norm)
    robot.pos = robot.pos + step


def _run_episode(robot, frames, crowd, cfg, goal_tolerance, seed, human_length, react=None) -> RunLog:
    """Drive the robot until it reaches its goal or the frames run out.

    ``frames`` yields ``(frame, now)`` pairs and ``crowd(frame)`` the other
    agents' ``(id, x, y)`` rows at that frame. Each frame builds its rows
    once, the robot's first: the step's record keeps them, the separation is
    read off them, and each agent's history gets its ``(now, x, y)`` (oldest
    first; the planner picks the rows it fits and their noises). Then it
    either stops at the goal or replans for the robot and the pedestrians
    present, moves the robot along the plan and calls ``react(robot)``.
    """
    log = RunLog(seed=seed, robot_id=robot.id, human_length=human_length)
    history: dict[int, list] = {}  # agent id -> (t, x, y) rows
    for frame, now in frames:
        rows = [(robot.id, *robot.pos.tolist()), *crowd(frame)]
        for agent_id, x, y in rows:
            history.setdefault(agent_id, []).append((now, x, y))
        sep = min_separation(rows)

        if float(np.linalg.norm(robot.pos - robot.goal)) <= goal_tolerance:
            log.steps.append(RunLogStep(now, rows, None, sep))
            log.outcome = ARRIVED
            return log

        t0 = _time.perf_counter()
        result = replan(robot, [r[0] for r in rows[1:]], history, cfg, seed=seed, frame=frame)
        elapsed_ms = (_time.perf_counter() - t0) * 1000.0
        log.steps.append(RunLogStep(now, rows, elapsed_ms, sep))
        _advance_along_plan(robot, result.robot_plan, cfg.dt, cfg.max_speed)
        if react is not None:
            react(robot)

    log.outcome = TIMEOUT
    return log


def _replay_crowd(ds: TrajectoryDataset, ped_id: int):
    """Frame -> the ``(id, x, y)`` rows of the recorded pedestrians present
    at it, ``ped_id`` left out."""

    def crowd(frame: int) -> list:
        return [(ped, *ds.position_at(ped, frame).tolist()) for ped in ds.present_at(frame) if ped != ped_id]

    return crowd


def run_replay(
    ds: TrajectoryDataset,
    partial: PartialRun,
    planner_cfg: PlannerConfig = PlannerConfig(),
    replay_cfg: ReplayConfig = ReplayConfig(),
    seed: int = 0,
) -> RunLog:
    """Drive the robot over one partial run against the replayed crowd."""
    if partial.ped_id not in ds.tracks:
        raise ValueError(f"pedestrian {partial.ped_id} not in dataset")
    period, stride = ds.frame_period, ds.frame_stride
    # frame ids step by the recording's stride; one stride is one frame period
    n_frames = (partial.end_frame - partial.start_frame) // stride + 1
    last_frame = partial.end_frame + stride * math.ceil(replay_cfg.grace_fraction * n_frames)
    frames = ((f, f * period / stride) for f in range(partial.start_frame, last_frame + 1, stride))

    robot = AgentState(ROBOT_ID, partial.start.copy(), np.zeros(2), partial.goal.copy())
    return _run_episode(
        robot, frames, _replay_crowd(ds, partial.ped_id), replace(planner_cfg, dt=period),
        replay_cfg.goal_tolerance, seed, partial.human_length,
    )


def human_baseline(ds: TrajectoryDataset, partial: PartialRun) -> RunLog:
    """Score the removed pedestrian's own recording as if it were the robot."""
    period, stride = ds.frame_period, ds.frame_stride
    frames, xy = ds.tracks[partial.ped_id]
    mask = (frames >= partial.start_frame) & (frames <= partial.end_frame)
    crowd = _replay_crowd(ds, partial.ped_id)
    log = RunLog(seed=None, robot_id=ROBOT_ID, human_length=partial.human_length)
    for frame, pos in zip(frames[mask], xy[mask]):
        now = float(frame) * period / stride
        rows = [(ROBOT_ID, *pos.tolist()), *crowd(int(frame))]
        log.steps.append(RunLogStep(now, rows, None, min_separation(rows)))
    log.outcome = ARRIVED
    return log


def _circle_point(radius: float, angle: float) -> np.ndarray:
    return radius * np.array([math.cos(angle), math.sin(angle)])


def run_interactive(
    scenario: ScenarioConfig,
    planner_cfg: PlannerConfig = PlannerConfig(),
    seed: int = 0,
) -> RunLog:
    """Robot crossing a circulating social-force crowd; ends at goal or time cap."""
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0xD15C)))
    radius = scenario.arena_radius

    robot = AgentState(ROBOT_ID, _circle_point(radius, math.pi), np.zeros(2), _circle_point(radius, 0.0))
    peds = []
    # fixed rotation keeps every start clear of the robot's start and goal
    for k in range(scenario.n_pedestrians):
        angle = 2.0 * math.pi * (k + 0.5) / max(scenario.n_pedestrians, 1) + 0.37
        start = _circle_point(radius, angle)
        peds.append(AgentState(k, start, np.zeros(2), -start))

    def react(robot: AgentState) -> None:
        # the pedestrians see the robot where its move just took it
        sub_dt = planner_cfg.dt / scenario.sfm_substeps
        for _ in range(scenario.sfm_substeps):
            peds[:] = step_sfm(peds, [robot], scenario.sfm, sub_dt)
        for ped in peds:
            if float(np.linalg.norm(ped.pos - ped.goal)) <= scenario.recycle_tolerance:
                ped.goal = _circle_point(radius, rng.uniform(0.0, 2.0 * math.pi))

    human_length = float(np.linalg.norm(robot.goal - robot.pos))
    n_frames = int(math.ceil(scenario.time_cap_s / planner_cfg.dt))
    frames = ((f, f * planner_cfg.dt) for f in range(n_frames + 1))
    crowd = lambda frame: [(p.id, *p.pos.tolist()) for p in peds]
    return _run_episode(robot, frames, crowd, planner_cfg, scenario.goal_tolerance, seed, human_length, react)
