"""Sequential iterative variational solver over weighted trajectory samples.

One sweep visits every agent in index order; callers order the sets they
pass. Each agent reweights its samples by exp(-gamma_hat), where gamma_hat
estimates the expected collision exposure of each sample against all other
agents: agents earlier in the order contribute their fresh
weights, later agents their pre-sweep weights. This is an exact coordinate
update of the coupled objective restricted to the sample support, so every
full sweep decreases the joint expected penalty by at least the sum of
per-agent KL divergences between consecutive weight distributions. gamma_hat
is shifted by its least value on a weighted sample before exp, and the
normaliser cancels the shift exactly: nothing is clamped, and samples driven
to zero weight are counted.

Column j of the pair cache stacks the penalty matrices of every agent i < j
against j: one (e_j, m_j) operator, e_j = m_0 + ... + m_{j-1}. With v the
concatenated w / m, agent k's update takes two products on its own column:
earlier_k = col(k).T @ v[:e_k] (the agents already updated this sweep) and,
after the update, col(k) @ v_k added into rows [:e_k] of ``later``. In each
agent's rows ``later`` holds the terms of the agents after it at pre-sweep
weights, so gamma_hat of k is earlier_k + later[rows of k]; rows once read
are cleared and refilled for the next sweep. A seed pass, later[:e_j] +=
col(j) @ v_j for ascending j, fills it first, in the order a sweep refills
it, so a fresh seed pass gives bit for bit the gamma_hat a sweep applies.
It also gives J_0 = v . later; after a sweep, J = sum_k v_k' . earlier_k
counts each pair once, at its later member.

Each gamma_hat entry sums M = sum_{j != k} m_j nonnegative terms, with two
roundings each and M - 1 additions in any order, so it is within
gamma_{M+1} = (M+1)u / (1 - (M+1)u), u = 2^-53, of its exact value, relative;
tests/test_engine.py bounds every update of a solve against a per-pair update
from there. When every set is 1D and single-step and the largest pair has
more than _DENSE_CACHE_ENTRIES entries, :class:`PenaltyCache` holds each
column as one :class:`~distnav.collision.GaussTransform` of the same sets
instead: the sweeps only need ``@`` and ``.T``, so a sweep of n agents takes
2(n - 1) transform products and the seed pass n - 1.

Entries of v below the floor F = _WEIGHT_FLOOR are zeroed, in the seed pass
and after each update. Weights fall that far within a few sweeps, and a
penalty times such a weight is a subnormal product, on which x86 BLAS takes a
slow path. Only the operand changes: the weights keep their exact values.
With peak the kernel's largest penalty, a dropped term is at most peak * F,
so gamma_hat moves by at most M * peak * F. A gamma_hat of magnitude at least
2^53 * M * peak * F absorbs that in its rounding; below it, low and gamma are
both so small that |low - gamma| < 2^-54 and exp(shift) is exactly 1 either
way. So the weights are bit-identical with and without the floor, and J and
sum KL can differ only where they are below about 1e-230. (The absorption
argument is made on the sum; a BLAS sum forms partial sums, and a dropped term
could move one across a rounding boundary. tests/test_engine.py checks the
weights and traces bit for bit on a solve driven far into underflow.)

:func:`solve` stops once a sweep's KL sum is at most ``rtol`` times the
objective J it leaves. The KL sum measures how far the sweep moved the
weights, and the sufficient-decrease certificate J_k - J_{k+1} >= sum KL
says the sweep lowered J by at least that much. A sweep whose weights moved
by a KL of at most rtol * J is near a fixed point of the update, relative to
the objective still at stake, and the solve reports ``converged``. Far-apart
agents give sum KL = J = 0 and stop on the first sweep; ``rtol = 0`` stops
only on a sweep whose KL sum is 0 and otherwise runs ``max_sweeps``.

Each update moves weight toward the agent's best response to the others, so
the sweeps head to a vertex, one sample per agent, that no agent improves on
alone (a sample whose weight underflowed aside); not always the joint minimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Hashable, Mapping, Sequence

import numpy as np

from .collision import (
    CollisionKernel,
    GaussTransform,
    joint_expected_penalty,  # noqa: F401  (bench/layers.py traces it under this module)
    penalty_matrix,
    penalty_row,
)
from .errors import NumericalError
from .gp import PreferenceGP, log_densities
from .grids import Trajectory, require_same_grid
from .samples import CrowdSamples, SampleSet

__all__ = [
    "SolverConfig",
    "SolveReport",
    "PenaltyCache",
    "solve",
    "interaction_scores",
    "select_critical",
    "select_optimal",
]

# Solves whose largest pair has more matrix entries than this (200 MB of
# float64) take the Gauss transform when their sets allow it.
_DENSE_CACHE_ENTRIES = 25_000_000
# Entries of the product operand w / m below this are zeroed (module docstring).
_WEIGHT_FLOOR = 1e-250


@dataclass(frozen=True)
class SolverConfig:
    """Termination knobs for :func:`solve`, and ``critical_threshold``, the
    planner's selection threshold, which :func:`solve` never reads."""

    epsilon: float = 1e-3
    max_sweeps: int = 30
    rtol: float = 1e-3  # stop once a sweep's KL sum is at most rtol times its objective
    critical_threshold: float = 0.01

    def __post_init__(self):
        for name in ("epsilon", "rtol", "critical_threshold"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be >= 1")


@dataclass
class SolveReport:
    """Per-sweep objective and KL traces plus the termination reason."""

    objective_trace: list = field(default_factory=list)
    kl_trace: list = field(default_factory=list)
    terminated_by: str = "max_sweeps"
    initial_objective: float = math.nan
    zero_weights: int = 0  # samples the updates drove to zero weight

    @property
    def sweeps(self) -> int:
        return len(self.kl_trace)


class PenaltyCache:
    """Pairwise penalties of a list of sample sets, built once and read by
    columns, ``columns[j]`` for column j.

    Column j is the (e_j, m_j) operator of every earlier agent, its samples
    stacked as rows, against agent j; column 0 has no rows. Each is one call
    of :func:`penalty_matrix`, written into column j's stretch of one buffer
    that holds the whole cache. When the largest pair has more than
    _DENSE_CACHE_ENTRIES entries and every set is 1D and single-step, each is
    instead one :class:`~distnav.collision.GaussTransform` of the same sets,
    in O(m) memory: the sweeps only need ``@`` and ``.T``. A larger solve of
    any other shape still builds the dense float64 cache, however big; no
    caller in this package makes one at its defaults (closed-loop replans
    draw 100 samples per agent, and only ``--m`` above 5000 would).

    In a dense cache agent i owns rows ``edges[i]:edges[i + 1]`` of every
    later column: the matrix of pair (i, j), a contiguous (m_i, m_j) view
    laid out as a call for that pair alone lays it out.
    """

    def __init__(self, sets: Sequence[SampleSet], kernel: CollisionKernel):
        sizes = [s.m for s in sets]
        self.n, self.edges = len(sizes), [0, *np.cumsum(sizes).tolist()]
        if math.prod(sorted(sizes)[-2:]) > _DENSE_CACHE_ENTRIES and all(
            s.grid.steps == 1 and s.dim == 1 for s in sets
        ):
            rest = (GaussTransform(sets[:j], sets[j], kernel) for j in range(1, self.n))
            self.columns = [np.empty((0, sizes[0])), *rest]
            return
        buffer = np.empty(sum(e * m for e, m in zip(self.edges, sizes)))
        self.columns = []
        start = 0
        for j, m in enumerate(sizes):
            column = buffer[start : start + self.edges[j] * m].reshape(self.edges[j], m)
            start += column.size
            self.columns.append(column)
            if j:
                penalty_matrix(sets[:j], sets[j], kernel, out=column)


def _seed(sets: Sequence[SampleSet], cache: PenaltyCache) -> tuple[np.ndarray, np.ndarray]:
    """v, every agent's w / m concatenated with entries below the floor
    zeroed, and ``later`` for it: in the rows of each agent, the terms of
    every agent after it, added in ascending order as a sweep adds them."""
    v = np.concatenate([s.weights / s.m for s in sets])
    v[v < _WEIGHT_FLOOR] = 0.0
    later = np.zeros(v.size)
    for j in range(1, cache.n):
        e, f = cache.edges[j], cache.edges[j + 1]
        later[:e] += cache.columns[j] @ v[e:f]
    return v, later


def _gamma(i: int, cache: PenaltyCache, v: np.ndarray, later: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """gamma_hat for every sample of agent i, and the part of it that the
    agents before i contribute."""
    e, f = cache.edges[i], cache.edges[i + 1]
    earlier = cache.columns[i].T @ v[:e]
    return earlier + later[e:f], earlier


def _reweight(i: int, sets: Sequence[SampleSet], gamma: np.ndarray) -> tuple[float, int]:
    """Set agent i's weights to old * exp(low - gamma), renormalised, where
    low is the least gamma of a sample that still has weight; returns
    (KL(new || old), the number of samples this drove to zero weight).

    The sample at ``low`` keeps its weight, so the normaliser is positive;
    a sample without weight has its exponent capped at 0, so it stays 0.
    With S the old total and T the new one before renormalising, the KL
    divergence is log(S / T) + (new . (low - gamma)) / T.
    """
    old = sets[i].weights
    alive = old > 0
    low = gamma[alive].min(initial=np.inf)
    if not math.isfinite(low):
        raise NumericalError(f"agent index {i} has no weighted sample with a finite gamma_hat")
    shift = np.minimum(low - gamma, 0.0)
    new = np.exp(shift)
    new *= old
    total = new.sum()
    kl = math.log(old.sum() / total) + float(new @ shift) / total
    new *= sets[i].m / total  # mean weight back to 1
    sets[i].weights = new
    return max(kl, 0.0), int(np.count_nonzero(alive)) - int(np.count_nonzero(new))


def _sweep(sets, cache, v, later) -> tuple[float, int, float]:
    """Update every agent once in index order; returns (KL sum, samples driven
    to zero weight, objective after the sweep). ``v`` is kept current, and
    ``later`` becomes the next sweep's in place: agent k's rows are cleared
    once read, and agents k+1, ... add into them in the seed pass's order."""
    kl_sum, zeros, jc = 0.0, 0, 0.0
    for k in range(cache.n):
        e, f = cache.edges[k], cache.edges[k + 1]
        gamma, earlier = _gamma(k, cache, v, later)
        later[e:f] = 0.0
        kl, z = _reweight(k, sets, gamma)
        vk = np.divide(sets[k].weights, sets[k].m, out=v[e:f])
        vk[vk < _WEIGHT_FLOOR] = 0.0
        jc += float(vk @ earlier)
        later[:e] += cache.columns[k] @ vk
        kl_sum += kl
        zeros += z
    return kl_sum, zeros, jc


def solve(
    sets: Sequence[SampleSet],
    kernel: CollisionKernel,
    config: SolverConfig = SolverConfig(),
) -> SolveReport:
    """Run sweeps until the objective drops below epsilon, a sweep's KL sum
    is at most ``rtol`` times its objective, or max_sweeps expires. Mutates
    the sets' weights in place.

    The second rule: a sweep lowers the objective by at least its KL sum
    (J_k - J_{k+1} >= sum KL), and a sweep whose KL sum is at most
    rtol * J moved the weights by a negligible amount relative to the
    objective left, so it ends the solve (``terminated_by == "converged"``).
    ``rtol = 0`` ends it only on a sweep whose KL sum is 0.

    The initial objective comes from the seed pass, each later one from its
    sweep's products; :class:`PenaltyCache` decides how the pairs are held."""
    if not sets:
        raise ValueError("solve needs at least 1 sample set")
    for s in sets[1:]:
        require_same_grid(sets[0].grid, s.grid, "sample sets")
    cache = PenaltyCache(sets, kernel)

    v, later = _seed(sets, cache)
    report = SolveReport(initial_objective=float(v @ later))
    if report.initial_objective < config.epsilon:
        report.terminated_by = "objective_threshold"
        return report

    for _ in range(config.max_sweeps):
        kl_sum, zeros, jc = _sweep(sets, cache, v, later)
        report.objective_trace.append(jc)
        report.kl_trace.append(kl_sum)
        report.zero_weights += zeros
        if jc < config.epsilon:
            report.terminated_by = "objective_threshold"
            return report
        if kl_sum <= config.rtol * jc:
            report.terminated_by = "converged"
            return report
    return report


def interaction_scores(
    robot_intent: Trajectory,
    sets: CrowdSamples,
    kernel: CollisionKernel,
) -> dict:
    """Mean weighted penalty of each agent's samples against the robot's intent.

    One penalty row of the intent against every set's samples at once, by the
    direct arithmetic of :func:`~distnav.collision.pairwise_penalty`, read off
    the block of the sets; each set's score reads its own slice of that row.
    """
    for s in sets:
        require_same_grid(robot_intent.grid, s.grid, "robot intent and sample set")
        if s.dim != robot_intent.dim:
            raise ValueError(f"sample set dim {s.dim} != robot intent dim {robot_intent.dim}")
    row = penalty_row(robot_intent, sets.block.transpose(1, 2, 0), kernel)
    parts = np.split(row, np.cumsum([s.m for s in sets[:-1]], dtype=int))
    return {s.agent: float(part @ s.weights) / s.m for s, part in zip(sets, parts)}


def select_critical(scores: Mapping, threshold: float, robot: Hashable) -> list:
    """The solve order: the robot, which commits first, then the agents whose
    interaction score strictly exceeds the threshold, in ascending (score, id)."""
    return [robot] + sorted((a for a, v in scores.items() if v > threshold), key=lambda a: (scores[a], a))


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
