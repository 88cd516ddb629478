"""Weighted trajectory samples: the discrete representation of a preference.

A SampleSet holds a fixed batch of trajectories and one mutable weight per
trajectory. Solvers only ever touch the weights; the trajectories are frozen
at creation. CrowdSamples holds the sets of one sampling call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

import numpy as np

from .grids import TimeGrid, Trajectory


@dataclass
class SampleSet:
    """m trajectories on a shared grid plus per-sample weights (mean kept at 1)."""

    agent: Hashable
    grid: TimeGrid
    trajectories: np.ndarray = field(repr=False)  # (m, steps, dim), read-only
    weights: np.ndarray = field(repr=False)  # (m,)

    def __post_init__(self):
        traj = np.array(self.trajectories, dtype=float, order="C")  # a copy, made read-only below
        if traj.ndim != 3 or traj.shape[1] != self.grid.steps:
            raise ValueError(
                f"trajectories must be (m, {self.grid.steps}, dim), got {traj.shape}"
            )
        if traj.shape[0] < 1:
            raise ValueError("a sample set needs at least one trajectory")
        if not np.all(np.isfinite(traj)):
            raise ValueError("trajectories contain non-finite values")
        traj.setflags(write=False)
        self.trajectories = traj
        weights = np.asarray(self.weights, dtype=float).copy()
        if weights.shape != (traj.shape[0],):
            raise ValueError(f"weights must have shape ({traj.shape[0]},)")
        if np.any(weights < 0) or not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite and non-negative")
        self.weights = weights

    @classmethod
    def _of_block(cls, agent: Hashable, grid: TimeGrid, traj: np.ndarray) -> "SampleSet":
        """An unweighted set taking ``traj`` as it is: read-only, C-contiguous, finite."""
        s = cls.__new__(cls)
        s.agent, s.grid, s.trajectories, s.weights = agent, grid, traj, np.ones(len(traj))
        return s

    @property
    def m(self) -> int:
        return self.trajectories.shape[0]

    @property
    def dim(self) -> int:
        return self.trajectories.shape[2]

    def trajectory(self, j: int) -> Trajectory:
        return Trajectory(self.grid, self.trajectories[j])


class CrowdSamples(tuple):
    """The sets of one sampling call, in the order their agents were given;
    ``block`` is the read-only (len * m, steps, dim) array they view in turn."""

    def __new__(cls, sets, block: np.ndarray):
        self = super().__new__(cls, sets)
        self.block = block
        return self

    @property
    def m(self) -> int:
        return len(self.block)
