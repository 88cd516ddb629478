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
from dataclasses import dataclass, field

import numpy as np

from .dataset import PartialRun, TrajectoryDataset
from .gp import Observation
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
    cfg = planner_cfg
    if cfg.dt != period:
        cfg = _with_dt(cfg, period)

    # frame ids step by the recording's stride; one stride is one frame period
    n_frames = (partial.end_frame - partial.start_frame) // stride + 1
    last_frame = partial.end_frame + stride * math.ceil(replay_cfg.grace_fraction * n_frames)

    robot = AgentState(ROBOT_ID, partial.start.copy(), np.zeros(2), partial.goal.copy(), ROBOT)
    history: dict[int, list] = {ROBOT_ID: []}
    log = RunLog(seed=seed, robot_id=ROBOT_ID, human_length=partial.human_length)

    for frame in range(partial.start_frame, last_frame + 1, stride):
        now = frame * period / stride
        agents = [robot.copy()]
        for ped in ds.present_at(frame):
            if ped == partial.ped_id:
                continue
            pos = ds.position_at(ped, frame)
            agents.append(AgentState(ped, pos, np.zeros(2), pos, REPLAY))
            history.setdefault(ped, []).append(
                Observation(now, tuple(pos), cfg.obs_noise_var)
            )
            history[ped] = history[ped][-cfg.history_window :]
        world = WorldState(now, agents)
        history[ROBOT_ID].append(Observation(now, tuple(robot.pos), cfg.current_obs_noise_var))
        history[ROBOT_ID] = history[ROBOT_ID][-cfg.history_window :]
        sep = min_separation(world)

        if float(np.linalg.norm(robot.pos - robot.goal)) <= replay_cfg.goal_tolerance:
            log.steps.append(RunLogStep(now, world, None, 0.0, sep))
            log.outcome = ARRIVED
            return log

        t0 = _time.perf_counter()
        result = replan(world, history, cfg, seed=seed, frame=frame)
        elapsed = _time.perf_counter() - t0
        log.steps.append(RunLogStep(now, world, result.robot_plan, elapsed, sep))
        _advance_along_plan(robot, result.robot_plan, period, cfg.max_speed)

    log.outcome = TIMEOUT
    return log


def human_baseline(ds: TrajectoryDataset, partial: PartialRun) -> RunLog:
    """Score the removed pedestrian's own recording as if it were the robot."""
    period, stride = ds.frame_period, ds.frame_stride
    frames, xy = ds.tracks[partial.ped_id]
    mask = (frames >= partial.start_frame) & (frames <= partial.end_frame)
    log = RunLog(seed=None, robot_id=ROBOT_ID, human_length=partial.human_length)
    for frame, pos in zip(frames[mask], xy[mask]):
        now = float(frame) * period / stride
        agents = [AgentState(ROBOT_ID, pos, np.zeros(2), partial.goal.copy(), ROBOT)]
        for ped in ds.present_at(int(frame)):
            if ped == partial.ped_id:
                continue
            p = ds.position_at(ped, int(frame))
            agents.append(AgentState(ped, p, np.zeros(2), p, REPLAY))
        world = WorldState(now, agents)
        log.steps.append(RunLogStep(now, world, None, 0.0, min_separation(world)))
    log.outcome = ARRIVED
    return log


def _with_dt(cfg: PlannerConfig, dt: float) -> PlannerConfig:
    from dataclasses import replace

    return replace(cfg, dt=dt)


def _circle_point(radius: float, angle: float) -> np.ndarray:
    return radius * np.array([math.cos(angle), math.sin(angle)])


def run_interactive(
    scenario: ScenarioConfig,
    planner_cfg: PlannerConfig = PlannerConfig(),
    seed: int = 0,
) -> RunLog:
    """Robot crossing a circulating social-force crowd; ends at goal or time cap."""
    cfg = planner_cfg
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0xD15C)))
    radius = scenario.arena_radius

    robot = AgentState(
        ROBOT_ID, _circle_point(radius, math.pi), np.zeros(2), _circle_point(radius, 0.0), ROBOT
    )
    agents = [robot]
    # fixed rotation keeps every start clear of the robot's start and goal
    for k in range(scenario.n_pedestrians):
        angle = 2.0 * math.pi * (k + 0.5) / max(scenario.n_pedestrians, 1) + 0.37
        start = _circle_point(radius, angle)
        agents.append(AgentState(k, start, np.zeros(2), -start, SFM))
    world = WorldState(0.0, agents)

    history: dict[int, list] = {a.id: [] for a in agents}
    log = RunLog(
        seed=seed,
        robot_id=ROBOT_ID,
        human_length=float(np.linalg.norm(robot.goal - robot.pos)),
    )
    n_frames = int(math.ceil(scenario.time_cap_s / cfg.dt))

    for frame in range(n_frames + 1):
        now = frame * cfg.dt
        world.time = now
        robot = world.robot()
        for agent in world.agents:
            noise = cfg.current_obs_noise_var if agent.kind == ROBOT else cfg.obs_noise_var
            history[agent.id].append(Observation(now, tuple(agent.pos), noise))
            history[agent.id] = history[agent.id][-cfg.history_window :]
        sep = min_separation(world)

        if float(np.linalg.norm(robot.pos - robot.goal)) <= scenario.goal_tolerance:
            log.steps.append(RunLogStep(now, world.copy(), None, 0.0, sep))
            log.outcome = ARRIVED
            return log

        t0 = _time.perf_counter()
        result = replan(world, history, cfg, seed=seed, frame=frame)
        elapsed = _time.perf_counter() - t0
        log.steps.append(RunLogStep(now, world.copy(), result.robot_plan, elapsed, sep))

        _advance_along_plan(robot, result.robot_plan, cfg.dt, cfg.max_speed)
        sub_dt = cfg.dt / scenario.sfm_substeps
        for _ in range(scenario.sfm_substeps):
            world = step_sfm(world, scenario.sfm, sub_dt)
        world.time = now + cfg.dt
        for agent in world.agents:
            if agent.kind == SFM and (
                float(np.linalg.norm(agent.pos - agent.goal)) <= scenario.recycle_tolerance
            ):
                agent.goal = _circle_point(radius, rng.uniform(0.0, 2.0 * math.pi))

    log.outcome = TIMEOUT
    return log
