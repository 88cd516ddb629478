"""The agents that move in the closed loop, and the robot's separation.

Each frame of a navigation loop is a list of ``(id, x, y)`` rows, the
robot's first. Only an agent that moves has an :class:`AgentState`: the
robot, which the planner drives, and each social-force pedestrian. A
replayed pedestrian is its row alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class AgentState:
    """One agent that moves: id, planar position/velocity and current goal."""

    id: int
    pos: np.ndarray
    vel: np.ndarray
    goal: np.ndarray

    def __post_init__(self):
        self.pos = np.asarray(self.pos, dtype=float).reshape(2)
        self.vel = np.asarray(self.vel, dtype=float).reshape(2)
        self.goal = np.asarray(self.goal, dtype=float).reshape(2)


def min_separation(rows) -> float:
    """Distance from the robot, the first ``(id, x, y)`` row, to the nearest
    other row; NaN if there is none."""
    if len(rows) < 2:
        return float("nan")
    robot = np.array(rows[0][1:])
    return min(float(np.linalg.norm(np.array(r[1:]) - robot)) for r in rows[1:])
