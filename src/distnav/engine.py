"""Sequential iterative variational solver over weighted trajectory samples.

One sweep visits every agent in order. Each agent reweights its samples by
exp(-gamma_hat), where gamma_hat estimates the expected collision exposure of
each sample against all other agents: agents earlier in the order contribute
their fresh weights, later agents their pre-sweep weights. This is an exact
coordinate update of the coupled objective restricted to the sample support,
so every full sweep decreases the joint expected penalty by at least the sum
of per-agent KL divergences between consecutive weight distributions.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Hashable, Mapping, Sequence

import numpy as np

from .collision import (
    CollisionKernel,
    batch_penalty_matrix,
    joint_expected_penalty,
    penalty_matrix,
)
from .errors import NumericalError
from .gp import PreferenceGP, log_densities
from .grids import Trajectory, require_same_grid
from .samples import SampleSet

__all__ = [
    "SolverConfig",
    "SolveReport",
    "PenaltyCache",
    "gamma_hat",
    "update_agent",
    "sweep",
    "solve",
    "interaction_scores",
    "select_critical",
    "select_optimal",
]

log = logging.getLogger(__name__)

# Cap on gamma_hat before exponentiation; exp(-700) is still representable.
GAMMA_CLAMP = 700.0
# A sweep whose total KL falls below this is treated as a fixed point.
FIXED_POINT_KL = 1e-12
# Pairs with more matrix entries than this are cached in float32 to halve the
# footprint (a 20000 x 20000 pair is 1.6 GB instead of 3.2 GB).
_FLOAT32_CACHE_ENTRIES = 25_000_000


@dataclass(frozen=True)
class SolverConfig:
    """Termination and ordering knobs for :func:`solve`."""

    epsilon: float = 1e-3
    max_sweeps: int = 30
    critical_threshold: float = 0.01
    agent_order: tuple | None = None  # indices into the solve's set list

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be >= 1")


@dataclass
class SolveReport:
    """Per-sweep objective and KL traces plus the termination reason."""

    sweeps: int
    objective_trace: list = field(default_factory=list)
    kl_trace: list = field(default_factory=list)
    terminated_by: str = "max_sweeps"
    initial_objective: float = math.nan
    clamp_events: int = 0

    @property
    def final_objective(self) -> float:
        return self.objective_trace[-1] if self.objective_trace else self.initial_objective


class PenaltyCache:
    """Pairwise penalty matrices for a list of sample sets, built once.

    Matrices are stored for index pairs i < j and served transposed for the
    reverse order, so both directions always see the same symmetric values.
    """

    def __init__(
        self,
        sets: Sequence[SampleSet],
        kernel: CollisionKernel,
        dtype=np.float64,
    ):
        self.n = len(sets)
        self._mats: dict[tuple[int, int], np.ndarray] = {}
        for i in range(self.n):
            for j in range(i + 1, self.n):
                self._mats[(i, j)] = penalty_matrix(sets[i], sets[j], kernel, dtype=dtype)

    @classmethod
    def from_matrices(cls, n: int, mats: Mapping[tuple, np.ndarray]) -> "PenaltyCache":
        """Build from explicit matrices keyed by (i, j) with i < j (tests, oracles)."""
        cache = cls.__new__(cls)
        cache.n = n
        cache._mats = {k: np.asarray(v) for k, v in mats.items()}
        return cache

    def get(self, i: int, j: int) -> np.ndarray:
        """(m_i, m_j) matrix of penalties between sets i and j."""
        if i < j:
            return self._mats[(i, j)]
        return self._mats[(j, i)].T

    def pair_matrices(self) -> dict[tuple, np.ndarray]:
        return dict(self._mats)


def _gamma_all(i: int, sets: Sequence[SampleSet], cache: PenaltyCache) -> np.ndarray:
    """gamma_hat for every sample of agent i, under everyone's current weights."""
    total = np.zeros(sets[i].m)
    for j in range(len(sets)):
        if j == i:
            continue
        mat = cache.get(i, j)
        wj = sets[j].weights.astype(mat.dtype, copy=False)
        total += np.asarray(mat @ wj, dtype=float) / sets[j].m
    return total


def gamma_hat(
    i: int,
    y: int,
    sets: Sequence[SampleSet],
    cache: PenaltyCache,
    updated: frozenset | set = frozenset(),
) -> float:
    """Monte Carlo collision exposure of sample y of agent i.

    Agents listed in ``updated`` must already carry their new weights; all
    others contribute pre-sweep weights. Since weights are updated in place,
    the estimate just reads everyone's current weight vector. Evaluated
    through the same vectorized path the weight update uses, so the value is
    bit-identical to what the update applies.
    """
    if i in updated:
        raise ValueError(f"agent {i} cannot condition on its own update")
    return float(_gamma_all(i, sets, cache)[y])


def _update_agent(
    i: int,
    sets: Sequence[SampleSet],
    cache: PenaltyCache,
    updated: set,
) -> tuple[float, int]:
    """Reweight agent i in place; returns (KL(new || old), clamp count)."""
    if i in updated:
        raise ValueError(f"agent {i} cannot condition on its own update")
    gamma = _gamma_all(i, sets, cache)
    clamped = int(np.count_nonzero(gamma > GAMMA_CLAMP))
    if clamped:
        log.warning(
            "clamping %d gamma_hat values above %g for agent index %d "
            "(collision penalty scale is likely too large)",
            clamped,
            GAMMA_CLAMP,
            i,
        )
        gamma = np.minimum(gamma, GAMMA_CLAMP)

    old = sets[i].weights
    new = old * np.exp(-gamma)
    total = new.sum()
    if total <= 0.0 or not np.isfinite(total):
        raise NumericalError(
            f"all weights of agent index {i} underflowed to zero "
            f"(max gamma_hat = {gamma.max():.6g})"
        )
    new *= sets[i].m / total  # mean weight back to 1
    sets[i].weights = new

    q_new = new / sets[i].m
    q_old = old / old.sum()
    nz = q_new > 0
    kl = float(np.sum(q_new[nz] * (np.log(q_new[nz]) - np.log(q_old[nz]))))
    return max(kl, 0.0), clamped


def update_agent(
    i: int,
    sets: Sequence[SampleSet],
    cache: PenaltyCache,
    updated: set | frozenset = frozenset(),
) -> float:
    """Apply the closed-form reweighting to agent i; returns the KL divergence
    of its sample distribution from before the update."""
    kl, _ = _update_agent(i, sets, cache, set(updated))
    return kl


def sweep(
    sets: Sequence[SampleSet],
    kernel: CollisionKernel,
    cache: PenaltyCache,
    order: Sequence[int] | None = None,
) -> tuple[float, float]:
    """Update every agent once, sequentially; returns (KL sum, objective after)."""
    kl_sum, _, jc = _sweep_full(sets, kernel, cache, order)
    return kl_sum, jc


def _sweep_full(sets, kernel, cache, order=None) -> tuple[float, int, float]:
    n = len(sets)
    order = list(range(n)) if order is None else list(order)
    if sorted(order) != list(range(n)):
        raise ValueError(f"order must be a permutation of 0..{n - 1}, got {order}")
    kl_sum = 0.0
    clamps = 0
    updated: set[int] = set()
    for i in order:
        kl, c = _update_agent(i, sets, cache, updated)
        kl_sum += kl
        clamps += c
        updated.add(i)
    jc = joint_expected_penalty(sets, kernel, matrices=cache.pair_matrices())
    return kl_sum, clamps, jc


def solve(
    sets: Sequence[SampleSet],
    kernel: CollisionKernel,
    config: SolverConfig = SolverConfig(),
    cache: PenaltyCache | None = None,
) -> SolveReport:
    """Run sweeps until the objective drops below epsilon, a fixed point is
    reached, or max_sweeps expires. Mutates the sets' weights in place."""
    if len(sets) < 2:
        raise ValueError("solve needs at least 2 sample sets")
    for s in sets[1:]:
        require_same_grid(sets[0].grid, s.grid, "sample sets")
    if cache is None:
        biggest = max(
            sets[i].m * sets[j].m for i in range(len(sets)) for j in range(i + 1, len(sets))
        )
        dtype = np.float32 if biggest > _FLOAT32_CACHE_ENTRIES else np.float64
        cache = PenaltyCache(sets, kernel, dtype=dtype)

    initial = joint_expected_penalty(sets, kernel, matrices=cache.pair_matrices())
    report = SolveReport(sweeps=0, initial_objective=initial)
    if initial < config.epsilon:
        report.terminated_by = "objective_threshold"
        return report

    for _ in range(config.max_sweeps):
        kl_sum, clamps, jc = _sweep_full(sets, kernel, cache, config.agent_order)
        report.sweeps += 1
        report.objective_trace.append(jc)
        report.kl_trace.append(kl_sum)
        report.clamp_events += clamps
        if jc < config.epsilon:
            report.terminated_by = "objective_threshold"
            return report
        if kl_sum < FIXED_POINT_KL:
            report.terminated_by = "fixed_point"
            return report
    report.terminated_by = "max_sweeps"
    return report


def interaction_scores(
    robot_intent: Trajectory,
    sets: Sequence[SampleSet],
    kernel: CollisionKernel,
) -> dict:
    """Mean weighted penalty of each agent's samples against the robot's intent.

    One penalty row of the intent against every set's samples at once; each
    set's score reads its own slice of that row.
    """
    if not sets:
        return {}
    for s in sets:
        require_same_grid(robot_intent.grid, s.grid, "robot intent and sample set")
        if s.dim != robot_intent.dim:
            raise ValueError(f"sample set dim {s.dim} != robot intent dim {robot_intent.dim}")
    intent = robot_intent.states[:, :, None]  # (T, d, 1)
    stacked = np.concatenate([s.trajectories.transpose(1, 2, 0) for s in sets], axis=2)
    row = batch_penalty_matrix(intent, stacked, kernel)[0]
    parts = np.split(row, np.cumsum([s.m for s in sets[:-1]], dtype=int))
    return {s.agent: float(part @ s.weights) / s.m for s, part in zip(sets, parts)}


def select_critical(scores: Mapping, threshold: float, robot: Hashable = None) -> list:
    """Agents whose interaction score strictly exceeds the threshold.

    The robot, when given, is always first in the returned list.
    """
    chosen = [a for a, v in scores.items() if v > threshold and a != robot]
    return ([robot] if robot is not None else []) + chosen


def select_optimal(
    sets: Sequence[SampleSet],
    gps: Mapping,
) -> dict:
    """Per agent, the sample maximizing prior log-density plus log-weight.

    ``gps`` maps each set's agent id to its original preference GP. Samples
    with zero weight are excluded; exact ties resolve to the lowest index.
    """
    best: dict[Hashable, Trajectory] = {}
    for s in sets:
        gp: PreferenceGP = gps[s.agent]
        scores = log_densities(gp, s.trajectories)
        with np.errstate(divide="ignore"):
            scores = scores + np.log(s.weights)
        if not np.isfinite(scores).any():
            raise NumericalError(f"agent {s.agent}: every sample has zero weight")
        best[s.agent] = s.trajectory(int(np.argmax(scores)))
    return best
