"""Collision penalty on trajectory pairs and its Monte Carlo expectations.

The pairwise penalty is the max over time of a Gaussian bump in the distance
between two time-aligned trajectories; expectations over sample sets are
weighted double sums. Matrices of pairwise penalties are precomputed once per
solve because sample trajectories never change, only weights do.

The min-over-time squared distance is accumulated one time step at a time, so
a row block needs (1 + dim) floats of scratch per entry whatever the horizon.
Row blocks are sized so that this scratch, 8 * _BLOCK_BUDGET bytes at most,
is allocated once per call and stays in a core's L2 cache (2 MiB per core on
the 2-vCPU Xeon the benchmark was measured on): every time step rereads and
rewrites the whole block, and a block larger than the cache turns each of
those passes into memory traffic. Entries do not depend on the block size, so
a call may stack several sample sets as rows. Penalties below the smallest
normal number of the output dtype are flushed to zero: a subnormal entry adds
nothing a normal one would not, but it slows every later product with the
matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grids import Trajectory, require_same_grid
from .samples import SampleSet

__all__ = [
    "CollisionKernel",
    "pairwise_penalty",
    "penalty_matrix",
    "batch_penalty_matrix",
    "expected_penalty",
    "joint_expected_penalty",
]

# Row-block size cap, in float64 of scratch: the running minimum plus one
# difference per axis, (1 + dim) * rows * mb, for one time step at a time, and
# a flag byte per entry for the flush. 2^17 float64 are 1 MiB, half a core's
# L2 cache, which leaves the other half to the block's output rows and inputs.
_BLOCK_BUDGET = 1 << 17


@dataclass(frozen=True)
class CollisionKernel:
    """Gaussian closeness penalty: weight w and isotropic std sigma (m)."""

    weight: float = 10.0
    sigma: float = 0.35

    def __post_init__(self):
        if not (self.weight > 0):
            raise ValueError("weight must be > 0")
        if not (self.sigma > 0):
            raise ValueError("sigma must be > 0")

    def peak(self, dim: int = 2) -> float:
        """Penalty at zero separation: w * (2 pi sigma^2)^(-dim/2)."""
        return self.weight * (2.0 * math.pi * self.sigma**2) ** (-dim / 2.0)


def _min_sq_dist(a: np.ndarray, b: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """Min-over-time squared distance between batches (T,d,ma) and (T,d,mb).

    ``scratch``, float64 of shape (1 + d, ma, mb), holds the running minimum
    and one difference per axis; the result is ``scratch[0]``. Per time step,
    the per-axis differences are squared and summed in axis order, the same
    arithmetic as a sum over the last axis of diff * diff.
    """
    steps, dim = a.shape[:2]
    if scratch is None:
        scratch = np.empty((1 + dim, a.shape[2], b.shape[2]))
    acc, diffs = scratch[0], scratch[1:]
    acc.fill(np.inf)
    for t in range(steps):
        for k in range(dim):
            np.subtract.outer(a[t, k], b[t, k], out=diffs[k])
        np.square(diffs, out=diffs)
        for k in range(1, dim):
            diffs[0] += diffs[k]
        np.minimum(acc, diffs[0], out=acc)
    return acc


def _penalty_block(
    a: np.ndarray, b: np.ndarray, kernel: CollisionKernel, scratch: np.ndarray | None = None
) -> np.ndarray:
    """Penalty for every pair of the (T,d,ma) and (T,d,mb) trajectory batches."""
    d2 = _min_sq_dist(a, b, scratch)
    np.multiply(d2, -0.5 / kernel.sigma**2, out=d2)
    np.exp(d2, out=d2)
    d2 *= kernel.peak(a.shape[1])
    return d2


def pairwise_penalty(fa: Trajectory, fb: Trajectory, kernel: CollisionKernel) -> float:
    """Max over time steps of the Gaussian penalty between two trajectories."""
    require_same_grid(fa.grid, fb.grid, "trajectories")
    if fa.dim != fb.dim:
        raise ValueError(f"trajectory dims differ: {fa.dim} vs {fb.dim}")
    return float(_penalty_block(fa.states[:, :, None], fb.states[:, :, None], kernel)[0, 0])


def penalty_matrix(
    a: SampleSet | Sequence[SampleSet],
    b: SampleSet,
    kernel: CollisionKernel,
    dtype=np.float64,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Matrix of pairwise penalties, entry (y, z) = penalty(a_y, b_z).

    ``a`` may also be a list of sample sets: their samples then make the rows
    one set after another, so one call stacks the matrices of every set in
    ``a`` against ``b``, each a contiguous block of rows holding the entries
    a call for that set alone gives. Computed in row blocks to bound scratch
    memory; ``dtype=np.float32`` halves the cache footprint for very large
    sample sets. Entries below the dtype's smallest normal number are stored
    as 0. ``out``, a C-contiguous array of the result's shape, receives the
    entries in place of a new array (its dtype then replaces ``dtype``).
    """
    rows = [a] if isinstance(a, SampleSet) else list(a)
    for s in rows:
        require_same_grid(s.grid, b.grid, "sample sets")
        if s.dim != b.dim:
            raise ValueError(f"sample set dims differ: {s.dim} vs {b.dim}")
    at = np.concatenate([s.trajectories.transpose(1, 2, 0) for s in rows], axis=2)
    bt = np.ascontiguousarray(b.trajectories.transpose(1, 2, 0))
    return batch_penalty_matrix(at, bt, kernel, dtype, out)


def batch_penalty_matrix(
    a: np.ndarray,
    b: np.ndarray,
    kernel: CollisionKernel,
    dtype=np.float64,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """:func:`penalty_matrix` of two trajectory batches in (T, d, m) layout."""
    dim, ma, mb = a.shape[1], a.shape[2], b.shape[2]
    if out is None:
        out = np.empty((ma, mb), dtype=dtype)
    elif out.shape != (ma, mb):
        raise ValueError(f"out has shape {out.shape}, expected {(ma, mb)}")
    tiny = np.finfo(out.dtype).tiny
    # per entry: (1 + dim) scratch floats and one byte for the flush's flags
    block = max(1, min(ma, 8 * _BLOCK_BUDGET // ((8 * (1 + dim) + 1) * mb)))
    scratch = np.empty((1 + dim, block, mb))  # reused, so it stays in cache
    for s in range(0, ma, block):
        e = min(s + block, ma)
        rows = out[s:e]
        rows[...] = _penalty_block(a[:, :, s:e], b, kernel, scratch[:, : e - s])
        rows *= rows >= tiny  # the flush; penalties are >= 0, so x * 0 is +0
    return out


def expected_penalty(
    a: SampleSet,
    b: SampleSet,
    kernel: CollisionKernel,
    matrix: np.ndarray | None = None,
) -> float:
    """Monte Carlo expected penalty: weighted mean of the penalty matrix."""
    if matrix is None:
        matrix = penalty_matrix(a, b, kernel)
    qa = (a.weights / a.m).astype(matrix.dtype, copy=False)
    qb = (b.weights / b.m).astype(matrix.dtype, copy=False)
    return float(qa @ (matrix @ qb))


def joint_expected_penalty(
    sets: Sequence[SampleSet],
    kernel: CollisionKernel,
    matrices: dict | None = None,
) -> float:
    """Sum of expected penalties over all unordered pairs of sample sets."""
    if len(sets) < 2:
        raise ValueError("need at least 2 sample sets")
    total = 0.0
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            mat = matrices.get((i, j)) if matrices is not None else None
            total += expected_penalty(sets[i], sets[j], kernel, matrix=mat)
    return total
