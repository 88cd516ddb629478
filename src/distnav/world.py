"""World state shared by the social-force backend and the navigation loops."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ROBOT = "robot"
SFM = "sfm"
REPLAY = "replay"
_KINDS = (ROBOT, SFM, REPLAY)


@dataclass
class AgentState:
    """One agent: id, planar position/velocity, current goal, and kind."""

    id: int
    pos: np.ndarray
    vel: np.ndarray
    goal: np.ndarray
    kind: str

    def __post_init__(self):
        self.pos = np.asarray(self.pos, dtype=float).reshape(2)
        self.vel = np.asarray(self.vel, dtype=float).reshape(2)
        self.goal = np.asarray(self.goal, dtype=float).reshape(2)
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")


@dataclass
class WorldState:
    """Snapshot of every agent at one instant."""

    time: float
    agents: list = field(default_factory=list)

    def __post_init__(self):
        ids = [a.id for a in self.agents]
        if len(set(ids)) != len(ids):
            raise ValueError(f"agent ids must be unique, got {ids}")
        for a in self.agents:
            if not (np.all(np.isfinite(a.pos)) and np.all(np.isfinite(a.vel))):
                raise ValueError(f"agent {a.id} has non-finite state")

    def robot(self) -> AgentState:
        for a in self.agents:
            if a.kind == ROBOT:
                return a
        raise ValueError("no robot in world")

    def pedestrians(self) -> list:
        return [a for a in self.agents if a.kind != ROBOT]

    def rows(self) -> list:
        """Each agent's ``(id, x, y)``, in agent order."""
        return [(a.id, *a.pos.tolist()) for a in self.agents]


def min_separation(world: WorldState) -> float:
    """Distance from the robot to the nearest pedestrian; NaN if none present."""
    robot = world.robot()
    peds = world.pedestrians()
    if not peds:
        return float("nan")
    return min(float(np.linalg.norm(p.pos - robot.pos)) for p in peds)
