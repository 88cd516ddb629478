"""Exact 1D reference solver on a density grid.

Evolves one-dimensional preference densities with the closed-form
multiplicative update p <- p * exp(-gamma) / Z, where gamma is computed by
trapezoid quadrature instead of Monte Carlo. Used to validate the sampled
engine on problems small enough to solve exactly. In 1D each "trajectory"
is a single coordinate, so the penalty needs no max-over-time.
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
    "quadrature_joint_penalty",
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


def _trapezoid_weights(xs: np.ndarray) -> np.ndarray:
    h = xs[1] - xs[0]
    w = np.full(xs.size, h)
    w[0] = w[-1] = h / 2
    return w


def _require_shared_grid(densities: Sequence[GridDensity]) -> np.ndarray:
    xs = densities[0].xs
    for d in densities[1:]:
        if d.xs.shape != xs.shape or not np.array_equal(d.xs, xs):
            raise GridMismatchError("densities are on different grids")
    return xs


def _penalty_kernel_1d(xs: np.ndarray, kernel: CollisionKernel) -> np.ndarray:
    """psi(x, y) = w * N(x | y, sigma^2) evaluated on the grid cross product."""
    d = xs[:, None] - xs[None, :]
    norm = kernel.weight / (math.sqrt(2.0 * math.pi) * kernel.sigma)
    return norm * np.exp(-0.5 * (d / kernel.sigma) ** 2)


def exact_gamma(
    i: int,
    densities: Sequence[GridDensity],
    kernel: CollisionKernel,
    _kmat: np.ndarray | None = None,
) -> np.ndarray:
    """Quadrature of sum_j int psi(x, y) p_j(y) dy over all agents j != i."""
    xs = _require_shared_grid(densities)
    kmat = _penalty_kernel_1d(xs, kernel) if _kmat is None else _kmat
    tw = _trapezoid_weights(xs)
    total = np.zeros(xs.size)
    for j, d in enumerate(densities):
        if j != i:
            total += kmat @ (tw * d.ps)
    return total


def quadrature_joint_penalty(
    densities: Sequence[GridDensity],
    kernel: CollisionKernel,
    _kmat: np.ndarray | None = None,
) -> float:
    """Joint expected penalty over all unordered pairs, by trapezoid quadrature."""
    xs = _require_shared_grid(densities)
    kmat = _penalty_kernel_1d(xs, kernel) if _kmat is None else _kmat
    tw = _trapezoid_weights(xs)
    total = 0.0
    for i in range(len(densities)):
        gi = tw * densities[i].ps
        for j in range(i + 1, len(densities)):
            total += float(gi @ kmat @ (tw * densities[j].ps))
    return total


def _grid_kl(p_new: np.ndarray, p_old: np.ndarray, tw: np.ndarray) -> float:
    pn = np.maximum(p_new, _DENSITY_FLOOR)
    po = np.maximum(p_old, _DENSITY_FLOOR)
    return float(np.sum(tw * p_new * (np.log(pn) - np.log(po))))


def exact_update(
    densities: list[GridDensity],
    kernel: CollisionKernel,
    sweeps: int,
) -> EvolutionHistory:
    """Run closed-form sequential sweeps on grid densities, in index order
    (mutates the list)."""
    xs = _require_shared_grid(densities)
    kmat = _penalty_kernel_1d(xs, kernel)
    tw = _trapezoid_weights(xs)

    history = EvolutionHistory(
        xs=xs,
        snapshots=[[d.ps.copy() for d in densities]],
        jc_trace=[quadrature_joint_penalty(densities, kernel, _kmat=kmat)],
        kl_trace=[],
    )
    for _ in range(sweeps):
        kl_sum = 0.0
        for i in range(len(densities)):
            gamma = exact_gamma(i, densities, kernel, _kmat=kmat)
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
        history.snapshots.append([d.ps.copy() for d in densities])
        history.jc_trace.append(quadrature_joint_penalty(densities, kernel, _kmat=kmat))
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
