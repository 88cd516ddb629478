"""Time grids and trajectories: the basic objects every other module works on.

A trajectory is a sequence of planar (or, for the low-dimensional reference
problems, scalar) states indexed by a uniform time grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatchError


@dataclass(frozen=True)
class TimeGrid:
    """Uniform planning grid: ``steps`` points starting at ``t0``, spaced ``dt``."""

    t0: float
    dt: float
    steps: int

    def __post_init__(self):
        if not (self.dt > 0):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.steps)


@dataclass(frozen=True)
class Trajectory:
    """States on a time grid; ``states`` has shape (steps, dim) with dim 1 or 2."""

    grid: TimeGrid
    states: np.ndarray = field(repr=False)

    def __post_init__(self):
        states = np.asarray(self.states, dtype=float)
        if states.ndim == 1:
            states = states[:, None]
        if states.ndim != 2 or states.shape[1] not in (1, 2):
            raise ValueError(f"states must be (steps, 1|2), got {states.shape}")
        if states.shape[0] != self.grid.steps:
            raise ValueError(
                f"states has {states.shape[0]} rows but grid has {self.grid.steps} steps"
            )
        if not np.all(np.isfinite(states)):
            raise ValueError("states contain non-finite values")
        states = states.copy()
        states.setflags(write=False)
        object.__setattr__(self, "states", states)

    @property
    def dim(self) -> int:
        return self.states.shape[1]


def require_same_grid(a: TimeGrid, b: TimeGrid, what: str = "operands") -> None:
    if a != b:
        raise GridMismatchError(f"{what} are on different time grids: {a} vs {b}")
