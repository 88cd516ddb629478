"""Reactive pedestrian backend: a minimal social-force model.

Each pedestrian relaxes toward its desired velocity and is pushed away from
every other pedestrian, and from every agent it is given that does not move
(the robot), by an exponential repulsion. Integration is symplectic Euler.
Deterministic; an exact head-on deadlock is broken by a fixed small rightward
bias so symmetric scenes stay symmetric instead of overlapping forever.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .world import AgentState

__all__ = ["SfmParams", "step_sfm"]

# Bias applied when repulsion is antiparallel to the desired direction.
_TIE_BREAK_ACCEL = 1e-3
_TIE_BREAK_ANGLE = 1e-6


@dataclass(frozen=True)
class SfmParams:
    desired_speed: float = 1.3
    relaxation_time: float = 0.5
    repulsion_strength: float = 2.0
    repulsion_range: float = 0.3
    max_speed: float = 1.8

    def __post_init__(self):
        for name in (
            "desired_speed",
            "relaxation_time",
            "repulsion_strength",
            "repulsion_range",
            "max_speed",
        ):
            if not (getattr(self, name) > 0):
                raise ValueError(f"{name} must be positive")
        if self.max_speed < self.desired_speed:
            raise ValueError("max_speed must be >= desired_speed")


def _desired_velocity(agent, params: SfmParams) -> np.ndarray:
    to_goal = agent.goal - agent.pos
    dist = float(np.linalg.norm(to_goal))
    if dist < 1e-12:
        return np.zeros(2)
    speed = min(params.desired_speed, dist / params.relaxation_time)
    return to_goal / dist * speed


def _repulsion(agent, others, params: SfmParams) -> np.ndarray:
    force = np.zeros(2)
    for other in others:
        away = agent.pos - other.pos
        dist = float(np.linalg.norm(away))
        if dist < 1e-9:
            continue  # exactly coincident: direction undefined, no force
        force += params.repulsion_strength * math.exp(-dist / params.repulsion_range) * away / dist
    return force


def step_sfm(peds: list, others: list, params: SfmParams, dt: float) -> list:
    """Each of ``peds`` ``dt`` later, pushed by ``others`` and by the other
    pedestrians; ``others`` are read and not moved."""
    if not (dt > 0):
        raise ValueError("dt must be positive")
    agents = []
    for prev in peds:
        neighbours = [*others, *(q for q in peds if q.id != prev.id)]
        v_des = _desired_velocity(prev, params)
        rep = _repulsion(prev, neighbours, params)
        accel = (v_des - prev.vel) / params.relaxation_time + rep

        d_norm = float(np.linalg.norm(v_des))
        r_norm = float(np.linalg.norm(rep))
        if d_norm > 1e-12 and r_norm > 1e-12:
            d_hat = v_des / d_norm
            cross = rep[0] * d_hat[1] - rep[1] * d_hat[0]
            dot = float(rep @ d_hat)
            if dot < 0 and abs(cross) <= r_norm * _TIE_BREAK_ANGLE:
                accel = accel + _TIE_BREAK_ACCEL * np.array([d_hat[1], -d_hat[0]])

        vel = prev.vel + accel * dt
        speed = float(np.linalg.norm(vel))
        if speed > params.max_speed:
            vel = vel * (params.max_speed / speed)
        agents.append(AgentState(prev.id, prev.pos + vel * dt, vel, prev.goal))
    return agents
