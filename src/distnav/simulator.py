"""Closed-loop navigation runs: dataset replay and reactive simulation.

Replay runs follow the partial-trajectory protocol: the chosen pedestrian is
removed, the robot inherits its start and end, and everyone else is replayed
verbatim (non-responsive). Interactive runs put the robot among social-force
pedestrians that treat it as a repulsive neighbour and recycle their goals on
arrival, keeping the crowd density steady.

The robot tracks its current plan open-loop for one frame, then replans.
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
from .world import REPLAY, ROBOT, SFM, AgentState, WorldState, min_separation

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
    target = plan.states[min(1, plan.states.shape[0] - 1)]
    step = target - robot.pos
    norm = float(np.linalg.norm(step))
    limit = max_speed * dt
    if norm > limit:
        step = step * (limit / norm)
    robot.vel = step / dt
    robot.pos = robot.pos + step


def _run_episode(robot, frames, crowd, cfg, goal_tolerance, seed, human_length, react=None) -> RunLog:
    """Drive the robot until it reaches its goal or the frames run out.

    ``frames`` yields ``(frame, now)`` pairs and ``crowd(frame)`` the other
    agents at that frame. Each frame snapshots the world, appends every
    agent's ``(now, x, y)`` row to its history (oldest first; the planner
    picks the rows it fits and their noises), and either stops at the goal
    or replans, moves the robot along the plan and then calls
    ``react(robot, now)``.
    """
    log = RunLog(seed=seed, robot_id=robot.id, human_length=human_length)
    history: dict[int, list] = {}  # agent id -> (t, x, y) rows
    for frame, now in frames:
        world = WorldState(now, [robot.copy(), *crowd(frame)])
        for agent in world.agents:
            history.setdefault(agent.id, []).append((now, *agent.pos.tolist()))
        sep = min_separation(world)

        if float(np.linalg.norm(robot.pos - robot.goal)) <= goal_tolerance:
            log.steps.append(RunLogStep(now, world, None, sep))
            log.outcome = ARRIVED
            return log

        t0 = _time.perf_counter()
        result = replan(world, history, cfg, seed=seed, frame=frame)
        elapsed = _time.perf_counter() - t0
        log.steps.append(RunLogStep(now, world, elapsed, sep))
        _advance_along_plan(robot, result.robot_plan, cfg.dt, cfg.max_speed)
        if react is not None:
            react(robot, now)

    log.outcome = TIMEOUT
    return log


def _replay_crowd(ds: TrajectoryDataset, ped_id: int):
    """Frame -> the recorded pedestrians present at it, ``ped_id`` left out."""

    def crowd(frame: int) -> list:
        agents = []
        for ped in ds.present_at(frame):
            if ped != ped_id:
                pos = ds.position_at(ped, frame)
                agents.append(AgentState(ped, pos, np.zeros(2), pos, REPLAY))
        return agents

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

    robot = AgentState(ROBOT_ID, partial.start.copy(), np.zeros(2), partial.goal.copy(), ROBOT)
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
        robot = AgentState(ROBOT_ID, pos, np.zeros(2), partial.goal.copy(), ROBOT)
        world = WorldState(now, [robot, *crowd(int(frame))])
        log.steps.append(RunLogStep(now, world, None, min_separation(world)))
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

    robot = AgentState(
        ROBOT_ID, _circle_point(radius, math.pi), np.zeros(2), _circle_point(radius, 0.0), ROBOT
    )
    peds = []
    # fixed rotation keeps every start clear of the robot's start and goal
    for k in range(scenario.n_pedestrians):
        angle = 2.0 * math.pi * (k + 0.5) / max(scenario.n_pedestrians, 1) + 0.37
        start = _circle_point(radius, angle)
        peds.append(AgentState(k, start, np.zeros(2), -start, SFM))

    def react(robot: AgentState, now: float) -> None:
        # the pedestrians see the robot where its move just took it
        world = WorldState(now, [robot, *peds])
        sub_dt = planner_cfg.dt / scenario.sfm_substeps
        for _ in range(scenario.sfm_substeps):
            world = step_sfm(world, scenario.sfm, sub_dt)
        peds[:] = world.pedestrians()
        for ped in peds:
            if float(np.linalg.norm(ped.pos - ped.goal)) <= scenario.recycle_tolerance:
                ped.goal = _circle_point(radius, rng.uniform(0.0, 2.0 * math.pi))

    human_length = float(np.linalg.norm(robot.goal - robot.pos))
    n_frames = int(math.ceil(scenario.time_cap_s / planner_cfg.dt))
    frames = ((f, f * planner_cfg.dt) for f in range(n_frames + 1))
    crowd = lambda frame: [p.copy() for p in peds]
    return _run_episode(robot, frames, crowd, planner_cfg, scenario.goal_tolerance, seed, human_length, react)
