"""Sequential iterative variational solver over weighted trajectory samples.

One sweep visits every agent in order. Each agent reweights its samples by
exp(-gamma_hat), where gamma_hat estimates the expected collision exposure of
each sample against all other agents: agents earlier in the order contribute
their fresh weights, later agents their pre-sweep weights. This is an exact
coordinate update of the coupled objective restricted to the sample support,
so every full sweep decreases the joint expected penalty by at least the sum
of per-agent KL divergences between consecutive weight distributions.

The objective after a sweep is not evaluated by a pass of its own. Each
update already forms agent i's terms (M_ij @ w_j) / m_j for gamma_hat; those of
the agents updated before i in the sweep, which carry their final weights,
also go into a vector earlier_i, and J = sum_i (w_i / m_i) . earlier_i with
the updated w_i counts each unordered pair once, at its later member. A sweep
thus reads every pair matrix twice (once from each side), and only the initial
objective goes through :func:`joint_expected_penalty`.

The products only need ``@`` and ``.T``: when every set is 1D and single-step
and the largest pair would exceed _DENSE_CACHE_ENTRIES, :func:`solve` serves
each pair as a :class:`~distnav.collision.GaussTransform` instead of a
matrix, and the sweeps, the objective and the update run through it
unchanged.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Hashable, Mapping, Sequence

import numpy as np

from .collision import (
    CollisionKernel,
    gauss_transforms,
    joint_expected_penalty,
    penalty_matrix,
    penalty_row,
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
# Solves whose largest pair has more matrix entries than this (200 MB of
# float64) take the Gauss transform when their sets allow it.
_DENSE_CACHE_ENTRIES = 25_000_000


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

    The matrices of every earlier agent i < j against agent j come from one
    penalty call that stacks the earlier agents' samples as rows, written
    into column j's stretch of one buffer that holds the whole cache. The
    matrix of pair (i, j) is agent i's block of rows in that column, a
    contiguous (m_i, m_j) view laid out as a call for that pair alone lays it
    out, so products with it round the same way. It is served transposed for
    the reverse order, so both directions always see the same symmetric
    values.
    """

    def __init__(self, sets: Sequence[SampleSet], kernel: CollisionKernel):
        self.n = len(sets)
        self._mats: dict[tuple[int, int], np.ndarray] = {}
        sizes = [s.m for s in sets]
        edges = np.cumsum(sizes)
        buffer = np.empty(sum(edges[j - 1] * sizes[j] for j in range(1, self.n)))
        start = 0
        for j in range(1, self.n):
            column = buffer[start : start + edges[j - 1] * sizes[j]].reshape(-1, sizes[j])
            start += column.size
            penalty_matrix(sets[:j], sets[j], kernel, out=column)
            for i, mat in enumerate(np.split(column, edges[: j - 1])):
                self._mats[(i, j)] = mat

    @classmethod
    def from_matrices(cls, n: int, mats: Mapping[tuple, np.ndarray]) -> "PenaltyCache":
        """Build from explicit pair operators keyed by (i, j) with i < j: arrays
        (tests, oracles) or anything else with ``@`` and ``.T``."""
        cache = cls.__new__(cls)
        cache.n = n
        cache._mats = dict(mats)
        return cache

    def get(self, i: int, j: int) -> np.ndarray:
        """(m_i, m_j) matrix, or operator, of penalties between sets i and j."""
        if i < j:
            return self._mats[(i, j)]
        return self._mats[(j, i)].T

    def partners(self, i: int) -> list[tuple[int, np.ndarray]]:
        """(j, matrix of i against j) for every other agent j, in index order."""
        return [(j, self.get(i, j)) for j in range(self.n) if j != i]

    def pair_matrices(self) -> dict[tuple, np.ndarray]:
        return dict(self._mats)


def _gamma(
    i: int,
    sets: Sequence[SampleSet],
    partners: Sequence[tuple[int, np.ndarray]],
    earlier: set | frozenset = frozenset(),
) -> tuple[np.ndarray, np.ndarray]:
    """gamma_hat for every sample of agent i, under everyone's current weights,
    and the part of it that the agents in ``earlier`` contribute.

    Terms (M_ij @ w_j) / m_j are summed over j in index order.
    """
    gamma = np.zeros(sets[i].m)
    part = np.zeros(sets[i].m)
    for j, mat in partners:
        term = mat @ sets[j].weights
        term /= sets[j].m
        gamma += term
        if j in earlier:
            part += term
    return gamma, part


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
    return float(_gamma(i, sets, cache.partners(i))[0][y])


def _reweight(i: int, sets: Sequence[SampleSet], gamma: np.ndarray) -> tuple[float, int]:
    """Set agent i's weights to old * exp(-gamma), renormalised; returns
    (KL(new || old), clamp count)."""
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


def _update_agent(
    i: int,
    sets: Sequence[SampleSet],
    cache: PenaltyCache,
    updated: set,
) -> tuple[float, int]:
    """Reweight agent i in place; returns (KL(new || old), clamp count)."""
    if i in updated:
        raise ValueError(f"agent {i} cannot condition on its own update")
    return _reweight(i, sets, _gamma(i, sets, cache.partners(i))[0])


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


def _checked_order(n: int, order: Sequence[int] | None) -> list[int]:
    order = list(range(n)) if order is None else list(order)
    if sorted(order) != list(range(n)):
        raise ValueError(f"order must be a permutation of 0..{n - 1}, got {order}")
    return order


def _sweep(sets, partners, order) -> tuple[float, int, float]:
    """Update every agent once in ``order``; returns (KL sum, clamp count,
    objective after the sweep).

    ``partners[i]`` lists agent i's (j, matrix) pairs. The objective is read
    off the products the updates compute anyway: agent i's terms from agents
    already updated in this sweep carry those agents' final weights, so
    (w_i' / m_i) . earlier_i is the expected penalty of every pair whose later
    member is i, and the sum over i counts each unordered pair once.
    """
    kl_sum = 0.0
    clamps = 0
    jc = 0.0
    done: set[int] = set()
    for i in order:
        gamma, earlier = _gamma(i, sets, partners[i], done)
        kl, c = _reweight(i, sets, gamma)
        jc += float(sets[i].weights @ earlier) / sets[i].m
        kl_sum += kl
        clamps += c
        done.add(i)
    return kl_sum, clamps, jc


def sweep(
    sets: Sequence[SampleSet],
    kernel: CollisionKernel,
    cache: PenaltyCache,
    order: Sequence[int] | None = None,
) -> tuple[float, float]:
    """Update every agent once, sequentially; returns (KL sum, objective after).

    The objective is read off the sweep's own products, so ``kernel`` is not
    used; it is kept so that callers name the problem they sweep.
    """
    partners = [cache.partners(i) for i in range(len(sets))]
    kl_sum, _, jc = _sweep(sets, partners, _checked_order(len(sets), order))
    return kl_sum, jc


def solve(
    sets: Sequence[SampleSet],
    kernel: CollisionKernel,
    config: SolverConfig = SolverConfig(),
    cache: PenaltyCache | None = None,
) -> SolveReport:
    """Run sweeps until the objective drops below epsilon, a fixed point is
    reached, or max_sweeps expires. Mutates the sets' weights in place.

    The pair matrices are read once per sweep for the updates; the objective
    after each sweep comes from those same products (see :func:`_sweep`), and
    only the initial objective takes a pass of its own.

    Without a ``cache``, pairs are dense float64 matrices unless the largest
    has more than _DENSE_CACHE_ENTRIES entries and every set is 1D and
    single-step: those solves (the 1D oracle comparisons) apply each pair as
    a Gauss transform, in O(m) memory. A larger solve of any other shape
    still builds the dense float64 cache, however big; no caller in this
    package makes one at its defaults (closed-loop replans draw 100 samples
    per agent, and only ``--m`` above 5000 would)."""
    if len(sets) < 2:
        raise ValueError("solve needs at least 2 sample sets")
    for s in sets[1:]:
        require_same_grid(sets[0].grid, s.grid, "sample sets")
    if cache is None:
        biggest = max(
            sets[i].m * sets[j].m for i in range(len(sets)) for j in range(i + 1, len(sets))
        )
        if biggest > _DENSE_CACHE_ENTRIES and all(s.grid.steps == 1 and s.dim == 1 for s in sets):
            cache = PenaltyCache.from_matrices(len(sets), gauss_transforms(sets, kernel))
        else:
            cache = PenaltyCache(sets, kernel)

    initial = joint_expected_penalty(sets, kernel, matrices=cache.pair_matrices())
    report = SolveReport(sweeps=0, initial_objective=initial)
    if initial < config.epsilon:
        report.terminated_by = "objective_threshold"
        return report

    order = _checked_order(len(sets), config.agent_order)
    partners = [cache.partners(i) for i in range(len(sets))]
    for _ in range(config.max_sweeps):
        kl_sum, clamps, jc = _sweep(sets, partners, order)
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

    One penalty row of the intent against every set's samples at once, by the
    direct arithmetic of :func:`~distnav.collision.pairwise_penalty`; each
    set's score reads its own slice of that row.
    """
    if not sets:
        return {}
    for s in sets:
        require_same_grid(robot_intent.grid, s.grid, "robot intent and sample set")
        if s.dim != robot_intent.dim:
            raise ValueError(f"sample set dim {s.dim} != robot intent dim {robot_intent.dim}")
    stacked = np.concatenate([s.trajectories.transpose(1, 2, 0) for s in sets], axis=2)
    row = penalty_row(robot_intent, stacked, kernel)
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
