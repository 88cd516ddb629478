"""Receding-horizon replanning with the distribution-space engine.

Every frame: fit a preference GP per agent from recent observations (the
robot's goal enters as an artificial observation; pedestrians get a
constant-velocity waypoint so the squared-exponential posterior does not sag
back to the prior mean over the horizon; agents observed on the same schedule
share one posterior covariance), sample each GP, keep only agents whose
interaction score against the robot's intent is critical, run the sequential
variational solve, and read off the best sample of the robot and of each
critical pedestrian: the others keep unit weights and get no prediction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .collision import CollisionKernel
from .engine import (
    SolveReport,
    SolverConfig,
    interaction_scores,
    select_critical,
    select_optimal,
    solve,
)
from .gp import KernelParams, Observation, augment_with_goal, fit_preference, sample_trajectories
from .grids import TimeGrid, Trajectory
from .world import WorldState

__all__ = ["PlannerConfig", "ReplanResult", "replan"]


@dataclass(frozen=True)
class PlannerConfig:
    horizon_steps: int = 20
    dt: float = 0.4
    samples_per_agent: int = 100
    kernel: KernelParams = field(default_factory=KernelParams)
    collision: CollisionKernel = field(default_factory=CollisionKernel)
    solver: SolverConfig = field(default_factory=SolverConfig)
    robot_speed: float = 1.3
    max_speed: float = 1.8
    history_window: int = 8
    obs_noise_var: float = 0.005
    current_obs_noise_var: float = 1e-6
    goal_noise_var: float = 0.01
    ped_waypoint_noise_var: float = 1.0

    def __post_init__(self):
        if self.samples_per_agent < 1:
            raise ValueError("samples_per_agent must be >= 1")
        if self.horizon_steps < 2:
            raise ValueError("horizon_steps must be >= 2")
        if not (self.dt > 0 and self.robot_speed > 0 and self.max_speed > 0):
            raise ValueError("dt and speeds must be positive")
        if self.history_window < 1:
            raise ValueError(f"history_window must be >= 1, got {self.history_window}")
        for name in ("obs_noise_var", "current_obs_noise_var", "goal_noise_var",
                     "ped_waypoint_noise_var"):
            value = getattr(self, name)
            if not value >= 0:
                raise ValueError(f"{name} must be >= 0, got {value}")

    def grid_at(self, t0: float) -> TimeGrid:
        return TimeGrid(t0, self.dt, self.horizon_steps)


@dataclass
class ReplanResult:
    robot_plan: Trajectory
    predictions: dict  # critical ped_id -> Trajectory
    report: SolveReport | None  # None when no critical pedestrians
    critical: list
    scores: dict
    replan_s: float = 0.0


def _recent(history: Sequence[Observation], window: int) -> list[Observation]:
    return sorted(history, key=lambda o: o.t)[-window:]


def _robot_observations(robot, history, cfg: PlannerConfig, now: float):
    obs = list(_recent(history, cfg.history_window))
    if not obs or obs[-1].t < now:
        obs.append(Observation(now, tuple(robot.pos), cfg.current_obs_noise_var))
    to_goal = robot.goal - robot.pos
    dist = float(np.linalg.norm(to_goal))
    horizon = cfg.dt * (cfg.horizon_steps - 1)
    if dist <= cfg.robot_speed * horizon:
        goal_pos = robot.goal
        goal_time = now + max(dist / cfg.robot_speed, cfg.dt)
    else:
        # goal beyond the horizon: aim at its projection onto the horizon end
        goal_pos = robot.pos + to_goal / dist * cfg.robot_speed * horizon
        goal_time = now + horizon
    return augment_with_goal(obs, tuple(goal_pos), goal_time, artificial_noise_var=cfg.goal_noise_var)


def _pedestrian_observations(ped, history, cfg: PlannerConfig, now: float):
    obs = list(_recent(history, cfg.history_window))
    if not obs:
        obs = [Observation(now, tuple(ped.pos), cfg.obs_noise_var)]
    if len(obs) >= 2:
        (a, b) = obs[-2], obs[-1]
        dt = b.t - a.t
        vel = (np.asarray(b.pos) - np.asarray(a.pos)) / dt if dt > 0 else np.zeros(2)
    else:
        vel = np.zeros(2)
    wp_time = now + cfg.dt * (cfg.horizon_steps - 1)
    waypoint = np.asarray(obs[-1].pos) + vel * (wp_time - obs[-1].t)
    return augment_with_goal(
        obs, tuple(waypoint), wp_time, artificial_noise_var=cfg.ped_waypoint_noise_var
    )


def _sample_seed(seed: int, frame: int, agent_id: int):
    # agent ids are >= -1 (robot may be -1); SeedSequence needs non-negatives
    return np.random.SeedSequence((int(seed), int(frame), int(agent_id) + 1))


def replan(
    world: WorldState,
    history: Mapping[int, Sequence[Observation]],
    cfg: PlannerConfig,
    seed: int = 0,
    frame: int = 0,
) -> ReplanResult:
    """Plan the robot's horizon jointly with predictions for the critical
    pedestrians; ``predictions`` holds no other pedestrian."""
    robot = world.robot()
    now = world.time
    grid = cfg.grid_at(now)

    posteriors: dict = {}  # one GP posterior per observation schedule, shared by its agents
    robot_obs = _robot_observations(robot, history.get(robot.id, ()), cfg, now)
    robot_gp = fit_preference(robot_obs, grid, cfg.kernel, posteriors)
    gps = {robot.id: robot_gp}
    for ped in world.pedestrians():
        ped_obs = _pedestrian_observations(ped, history.get(ped.id, ()), cfg, now)
        gps[ped.id] = fit_preference(ped_obs, grid, cfg.kernel, posteriors)

    ids, m = list(gps), cfg.samples_per_agent  # the robot first
    seeds = [_sample_seed(seed, frame, a) for a in ids]
    robot_set = sample_trajectories([robot_gp], m, seeds[:1], ids[:1])[0]
    ped_sets = sample_trajectories(list(gps.values())[1:], m, seeds[1:], ids[1:])
    sets = dict(zip(ids, [robot_set, *ped_sets]))
    scores = interaction_scores(robot_gp.mean_trajectory(), ped_sets, cfg.collision)
    critical = select_critical(scores, cfg.solver.critical_threshold, robot=robot.id)

    report = None
    if len(critical) >= 2:
        # robot commits first, then pedestrians in ascending interaction score
        ordered = [robot.id] + sorted(critical[1:], key=lambda a: (scores[a], a))
        solve_sets = [sets[a] for a in ordered]
        report = solve(solve_sets, cfg.collision, cfg.solver)

    best = select_optimal([sets[a] for a in critical], gps)
    return ReplanResult(
        robot_plan=best[robot.id],
        predictions={a: best[a] for a in critical[1:]},
        report=report,
        critical=critical,
        scores=scores,
    )
