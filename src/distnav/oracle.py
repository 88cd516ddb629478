"""Exact 1D reference solver on a density grid.

Evolves one-dimensional preference densities with the closed-form
multiplicative update p <- p * exp(-gamma) / Z, where gamma is computed by
trapezoid quadrature instead of Monte Carlo. Used to validate the sampled
engine on problems small enough to solve exactly. In 1D each "trajectory"
is a single coordinate, so the penalty needs no max-over-time.

Each call builds the trapezoid weights tw and kernel matrix K once and holds
one field per agent, f_j = K (tw * p_j): agent i's gamma is the sum of the
others' fields, J = sum over i < j of (tw * p_i) . f_j, and an update makes
one kernel product, for its own field. J adds the products of
((tw * p_i) K) . (tw * p_j) in another order, so it may differ from that form
by (4N + 2n^2) u relative on N grid points (u = 2^-53); gamma does not.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .collision import CollisionKernel
from .errors import GridMismatchError, NumericalError

__all__ = [
    "GridDensity",
    "EvolutionHistory",
    "exact_gamma",
    "exact_update",
    "ks_distance",
    "write_evolution_csv",
]

_DENSITY_FLOOR = 1e-300


@dataclass
class GridDensity:
    """A 1D probability density sampled on a uniform grid (trapezoid-normalized)."""

    xs: np.ndarray = field(repr=False)
    ps: np.ndarray = field(repr=False)

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        ps = np.asarray(self.ps, dtype=float)
        if xs.ndim != 1 or xs.shape != ps.shape or xs.size < 3:
            raise ValueError("xs and ps must be equal-length 1D arrays (>= 3 points)")
        h = np.diff(xs)
        if h.min() <= 0 or (h.max() - h.min()) > 1e-9 * h.mean():
            raise ValueError("grid must be uniformly spaced and increasing")
        if np.any(ps < 0):
            raise ValueError("density values must be non-negative")
        total = np.trapezoid(ps, xs)
        if abs(total - 1.0) > 1e-8:
            raise ValueError(f"density integrates to {total}, not 1 within 1e-8")
        self.xs = xs
        self.ps = ps

    @property
    def spacing(self) -> float:
        return float(self.xs[1] - self.xs[0])

    @classmethod
    def from_values(cls, xs: np.ndarray, values: np.ndarray) -> "GridDensity":
        """Normalize arbitrary non-negative values into a density."""
        values = np.asarray(values, dtype=float)
        total = np.trapezoid(values, xs)
        if total <= 0 or not math.isfinite(total):
            raise NumericalError(f"cannot normalize density, integral = {total}")
        return cls(np.asarray(xs, dtype=float), values / total)

    @classmethod
    def gaussian(cls, xs: np.ndarray, mu: float, sigma: float) -> "GridDensity":
        xs = np.asarray(xs, dtype=float)
        vals = np.exp(-0.5 * ((xs - mu) / sigma) ** 2)
        return cls.from_values(xs, vals)

    def cdf(self) -> np.ndarray:
        """Cumulative trapezoid integral, rescaled to end exactly at 1."""
        seg = 0.5 * (self.ps[1:] + self.ps[:-1]) * np.diff(self.xs)
        out = np.concatenate([[0.0], np.cumsum(seg)])
        return out / out[-1]


@dataclass
class EvolutionHistory:
    """Snapshots per sweep: densities, quadrature objective, and KL sums."""

    xs: np.ndarray
    snapshots: list  # snapshots[k][i] = agent i's ps after sweep k (k=0: initial)
    jc_trace: list  # jc_trace[k] = objective after sweep k (k=0: initial)
    kl_trace: list  # kl_trace[k] = KL sum during sweep k+1

    @property
    def sweeps(self) -> int:
        return len(self.snapshots) - 1


def _fields(densities: Sequence[GridDensity], kernel: CollisionKernel):
    """Check the shared grid; build its trapezoid weights tw, the kernel matrix
    psi(x, y) = w * N(x | y, sigma^2), and each agent's g = tw * p and kmat @ g."""
    xs = densities[0].xs
    for d in densities[1:]:
        if d.xs.shape != xs.shape or not np.array_equal(d.xs, xs):
            raise GridMismatchError("densities are on different grids")
    tw = np.full(xs.size, xs[1] - xs[0])
    tw[0] = tw[-1] = tw[0] / 2
    norm = kernel.weight / (math.sqrt(2.0 * math.pi) * kernel.sigma)
    kmat = norm * np.exp(-0.5 * ((xs[:, None] - xs[None, :]) / kernel.sigma) ** 2)
    masses = [tw * d.ps for d in densities]
    return xs, tw, kmat, masses, [kmat @ g for g in masses]


def _gamma(i: int, fields: list) -> np.ndarray:
    """Agent i's gamma: the other agents' fields, added in index order."""
    return sum((f for j, f in enumerate(fields) if j != i), np.zeros(fields[0].size))


def _objective(masses: list, fields: list) -> float:
    """J = sum over unordered pairs i < j of g_i . f_j (the float 0.0 for one agent)."""
    return sum((float(g @ f) for i, g in enumerate(masses) for f in fields[i + 1 :]), 0.0)


def exact_gamma(i: int, densities: Sequence[GridDensity], kernel: CollisionKernel) -> np.ndarray:
    """Quadrature of sum_j int psi(x, y) p_j(y) dy over all agents j != i."""
    return _gamma(i, _fields(densities, kernel)[4])


def _grid_kl(p_new: np.ndarray, p_old: np.ndarray, tw: np.ndarray) -> float:
    pn = np.maximum(p_new, _DENSITY_FLOOR)
    po = np.maximum(p_old, _DENSITY_FLOOR)
    return float(np.sum(tw * p_new * (np.log(pn) - np.log(po))))


def exact_update(
    densities: list[GridDensity],
    kernel: CollisionKernel,
    sweeps: int,
) -> EvolutionHistory:
    """Run closed-form sequential sweeps on grid densities in index order (mutates the list)."""
    xs, tw, kmat, masses, fields = _fields(densities, kernel)
    history = EvolutionHistory(
        xs=xs,
        snapshots=[[d.ps.copy() for d in densities]],
        jc_trace=[_objective(masses, fields)],
        kl_trace=[],
    )
    for _ in range(sweeps):
        kl_sum = 0.0
        for i in range(len(densities)):
            gamma = _gamma(i, fields)
            shifted = gamma - gamma.min()
            if not shifted.any():
                continue  # constant gamma: the normalizer cancels it exactly
            raw = densities[i].ps * np.exp(-shifted)
            z = float(np.sum(tw * raw))
            if z <= 0 or not math.isfinite(z):
                raise NumericalError(f"normalizer underflow for agent index {i}")
            new = raw / z
            kl_sum += _grid_kl(new, densities[i].ps, tw)
            densities[i] = GridDensity(xs, new)
            masses[i] = tw * new
            fields[i] = kmat @ masses[i]
        history.snapshots.append([d.ps.copy() for d in densities])
        history.jc_trace.append(_objective(masses, fields))
        history.kl_trace.append(kl_sum)
    return history


def ks_distance(grid: GridDensity, samples: np.ndarray, weights: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance between the grid CDF and a weighted sample set.

    Evaluated on the union of grid points and sample points, with the weighted
    empirical CDF taken right-continuous and the grid CDF trapezoid-interpolated.
    """
    samples = np.asarray(samples, dtype=float).reshape(-1)
    weights = np.asarray(weights, dtype=float).reshape(-1)
    if samples.shape != weights.shape:
        raise ValueError("samples and weights must have equal length")
    if np.any(weights < 0):
        raise ValueError("weights must be non-negative")
    total = weights.sum()
    if total <= 0:
        raise ValueError("weights sum to zero")
    order = np.argsort(samples, kind="stable")
    xs_sorted = samples[order]
    emp = np.cumsum(weights[order]) / total
    # collapse ties so the empirical CDF carries the full mass at each value
    last = np.r_[xs_sorted[1:] != xs_sorted[:-1], True]
    xs_sorted, emp = xs_sorted[last], emp[last]
    grid_cdf = grid.cdf()

    at_samples = np.interp(xs_sorted, grid.xs, grid_cdf, left=0.0, right=1.0)
    d_samples = np.max(np.abs(at_samples - emp))

    idx = np.searchsorted(xs_sorted, grid.xs, side="right")
    emp_at_grid = np.concatenate([[0.0], emp])[idx]
    d_grid = np.max(np.abs(grid_cdf - emp_at_grid))
    return float(max(d_samples, d_grid))


def write_evolution_csv(history: EvolutionHistory, path) -> None:
    """Dump every snapshot as rows of (sweep, agent, x, p)."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sweep", "agent", "x", "p"])
        for k, snap in enumerate(history.snapshots):
            for i, ps in enumerate(snap):
                for x, p in zip(history.xs, ps):
                    writer.writerow([k, i, repr(float(x)), repr(float(p))])
