"""Receding-horizon replanning with the distribution-space engine.

Every frame: fit a preference GP per agent from recent observations, every
agent in one call (agents observed on the same schedule share one posterior
covariance, one solve and one product), sample every GP in one call, keep
only agents whose interaction score against the robot's intent is critical,
run the sequential variational solve (a lone robot's too: it has no pair),
and read off the best sample of the robot and of each critical pedestrian:
the others keep unit weights and get no prediction.

The caller passes each agent's observed ``(t, x, y)`` rows as they are; the
planner alone decides how they enter the fit. It keeps an agent's last
``history_window`` rows and turns them into one track of arrays: the
robot's rows get ``current_obs_noise_var`` and its goal row
``goal_noise_var``, a pedestrian's rows ``obs_noise_var``.

Each fit's prior mean is a line of the agent's own (see :mod:`distnav.gp`),
so a replan of a world shifted by c is the same replan shifted by c. A
pedestrian's line passes through its latest observation at the velocity of
its last two: where its observations end, its mean walks on at that
velocity. The robot's goal enters as an artificial observation, and its line
is flat at its current position: past the goal's time its mean settles back
toward where it is, not toward the origin or on past the goal. In the
5-pedestrian social-force scenario (seeds 0-49, all arriving) this line gave
2 collision runs; a line through its position at its velocity gave 20, one
flat at its goal observation 14, and one flat at the mean of its
observations, goal included, 14.
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
from .gp import KernelParams, fit_preference, sample_trajectories
from .grids import TimeGrid, Trajectory
from .samples import CrowdSamples
from .world import AgentState

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

    def __post_init__(self):
        if self.samples_per_agent < 1:
            raise ValueError("samples_per_agent must be >= 1")
        if self.horizon_steps < 2:
            raise ValueError("horizon_steps must be >= 2")
        if not (self.dt > 0 and self.robot_speed > 0 and self.max_speed > 0):
            raise ValueError("dt and speeds must be positive")
        if self.history_window < 1:
            raise ValueError(f"history_window must be >= 1, got {self.history_window}")
        for name in ("obs_noise_var", "current_obs_noise_var", "goal_noise_var"):
            value = getattr(self, name)
            if not value >= 0:
                raise ValueError(f"{name} must be >= 0, got {value}")


@dataclass
class ReplanResult:
    robot_plan: Trajectory
    predictions: dict  # critical ped_id -> Trajectory
    report: SolveReport  # a lone robot's solve has no pair: J_0 = 0
    critical: list  # the solve order: the robot, then pedestrians in ascending (score, id)
    scores: dict


def _robot_observations(robot, rows, cfg: PlannerConfig, now: float):
    """The robot's track, its goal last, and its prior mean line: flat at
    its current position."""
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
    track = np.array([*rows[-cfg.history_window:], (goal_time, *goal_pos.tolist())])
    noises = np.full(len(track), cfg.current_obs_noise_var)
    noises[-1] = cfg.goal_noise_var
    return (track[:, 0], track[:, 1:], noises), (now, robot.pos, np.zeros_like(robot.pos))


def _pedestrian_observations(rows, cfg: PlannerConfig):
    """A pedestrian's track and its prior mean line: through the latest
    row, at the velocity of the last two."""
    rows = rows[-cfg.history_window:]
    (ta, xa, ya), (t, x, y) = rows[-2:][0], rows[-1]  # with one row, both are it
    dt = t - ta
    vel = ((x - xa) / dt, (y - ya) / dt) if dt > 0 else (0.0, 0.0)
    track = np.array(rows)
    return (track[:, 0], track[:, 1:], np.full(len(rows), cfg.obs_noise_var)), (t, (x, y), vel)


def _sample_seed(seed: int, frame: int, agent_id: int):
    # SeedSequence needs non-negatives: agent ids are >= -1 (the robot's may be -1), and
    # % 2^64 maps frames >= -(2^63 - 1) one to one into [0, 2^64), each frame >= 0 to itself
    return np.random.SeedSequence((int(seed), int(frame) % 2**64, int(agent_id) + 1))


def replan(
    robot: AgentState,
    peds: Sequence[int],
    history: Mapping[int, Sequence[tuple]],
    cfg: PlannerConfig,
    seed: int = 0,
    frame: int = 0,
) -> ReplanResult:
    """Plan the robot's horizon jointly with predictions for the critical
    pedestrians; ``predictions`` holds no other pedestrian.

    ``robot`` gives the robot's position and goal, ``peds`` the ids of the
    pedestrians present now. ``history[a]`` holds agent a's observed
    ``(t, x, y)`` rows, oldest first; the robot and every pedestrian of
    ``peds`` need one, and any other agent's rows are not read. The plan
    starts at ``now``, the time of the robot's last row. The fit keeps each
    agent's last ``cfg.history_window`` rows.
    """
    ids = [robot.id, *peds]  # the robot first
    missing = [a for a in ids if not history.get(a)]
    if missing:
        raise ValueError(f"no observation of agents {missing} in the history")
    now = history[robot.id][-1][0]
    grid = TimeGrid(now, cfg.dt, cfg.horizon_steps)

    tracks, lines = zip(_robot_observations(robot, history[robot.id], cfg, now),
                        *(_pedestrian_observations(history[p], cfg) for p in peds))
    fits = fit_preference(tracks, grid, cfg.kernel, lines)

    m = cfg.samples_per_agent
    crowd = sample_trajectories(fits, m, [_sample_seed(seed, frame, a) for a in ids], ids)
    ped_sets = CrowdSamples(crowd[1:], crowd.block[m:])
    scores = interaction_scores(Trajectory(grid, fits[0].mean), ped_sets, cfg.collision)
    critical = select_critical(scores, cfg.solver.critical_threshold, robot=robot.id)

    critical_sets = [crowd[ids.index(a)] for a in critical]
    report = solve(critical_sets, cfg.collision, cfg.solver)
    best = select_optimal(critical_sets, dict(zip(ids, fits)))
    return ReplanResult(
        robot_plan=best[robot.id],
        predictions={a: best[a] for a in critical[1:]},
        report=report,
        critical=critical,
        scores=scores,
    )
