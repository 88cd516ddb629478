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
normal number of the output are flushed to zero: a subnormal entry adds
nothing a normal one would not, but it slows every later product with the
matrix.

For 1D single-step sets the penalty matrix is a Gaussian kernel matrix, and
:class:`GaussTransform` applies it to a weight vector in O(m) time and memory
with no matrix at all (a 1D fast Gauss transform), to within
1e-13 * peak * sum|w| of the dense product.
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
    "GaussTransform",
    "gauss_transforms",
    "expected_penalty",
    "joint_expected_penalty",
]

# Row-block size cap, in float64 of scratch: the running minimum plus one
# difference per axis, (1 + dim) * rows * mb, for one time step at a time, and
# a flag byte per entry for the flush. 2^17 float64 are 1 MiB, half a core's
# L2 cache, which leaves the other half to the block's output rows and inputs.
_BLOCK_BUDGET = 1 << 17

# Error budget of the 1D Gauss transform, each as a fraction of peak * sum|w|:
# the truncated expansions, and the boxes left out beyond the cutoff. Rounding
# has the rest of the 1e-13 the transform promises.
_TRUNCATION_BOUND = 1e-14
_CUTOFF_BOUND = 1e-14
# Cramer's inequality: |H_n(t)| exp(-t^2 / 2) <= _CRAMER * 2^(n/2) * sqrt(n!)
_CRAMER = 1.086435


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
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Matrix of pairwise penalties, entry (y, z) = penalty(a_y, b_z).

    ``a`` may also be a list of sample sets: their samples then make the rows
    one set after another, so one call stacks the matrices of every set in
    ``a`` against ``b``, each a contiguous block of rows holding the entries
    a call for that set alone gives. Computed in row blocks to bound scratch
    memory. Entries below the output's smallest normal number are stored as
    0. ``out``, a C-contiguous array of the result's shape, receives the
    entries in place of a new float64 array.
    """
    rows = [a] if isinstance(a, SampleSet) else list(a)
    for s in rows:
        require_same_grid(s.grid, b.grid, "sample sets")
        if s.dim != b.dim:
            raise ValueError(f"sample set dims differ: {s.dim} vs {b.dim}")
    at = np.concatenate([s.trajectories.transpose(1, 2, 0) for s in rows], axis=2)
    bt = np.ascontiguousarray(b.trajectories.transpose(1, 2, 0))
    return batch_penalty_matrix(at, bt, kernel, out)


def batch_penalty_matrix(
    a: np.ndarray,
    b: np.ndarray,
    kernel: CollisionKernel,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """:func:`penalty_matrix` of two trajectory batches in (T, d, m) layout."""
    dim, ma, mb = a.shape[1], a.shape[2], b.shape[2]
    if out is None:
        out = np.empty((ma, mb))
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


@dataclass(frozen=True)
class _Expansion:
    """Box width, expansion order and cutoff of the 1D Gauss transform of one
    kernel, and the matrices that translate moments between boxes.

    Lengths are in units of h = sqrt(2) sigma, so the kernel is exp(-u^2) in
    u = (x - s) / h. The box width is the power of two in (h/4, h/2], so every
    box centre (k + 1/2) * width is exact and two centres are exactly a whole
    number of widths apart, however far from 0 the samples lie.
    """

    width: float
    h: float
    order: int  # p: Hermite moments and Taylor coefficients per box
    reach: int  # K: source boxes more than K widths away are left out
    translations: np.ndarray  # ((2K + 1) p, p); block K + delta for offset delta

    @classmethod
    def of(cls, kernel: CollisionKernel) -> "_Expansion":
        """The smallest order and cutoff that keep the error within the bounds.

        With a = (s - c_B) / h and b = (x - c_C) / h the offsets of a source
        and a target from their box centres (|a|, |b| <= r / 2, r = width / h)
        and D = (c_C - c_B) / h, the kernel is the double series

            exp(-(D + b - a)^2) = sum_{n, k} a^n / n! * (-b)^k / k! * h_{n+k}(D),

        h_j(t) = H_j(t) exp(-t^2) the Hermite functions. By Cramer's inequality
        and (n + k)! <= 2^(n+k) n! k!, term (n, k) is at most
        _CRAMER * r^n / sqrt(n!) * r^k / sqrt(k!), so keeping n, k < p leaves at
        most 2 * _CRAMER * S(r) * tail_p(r) per unit weight, with
        S(r) = sum_n r^n / sqrt(n!) and tail_p(r) the same sum from n = p. A
        source more than K boxes from the target's box is at least K r away,
        and exp(-(K r)^2) bounds what it would add.
        """
        h = math.sqrt(2.0) * kernel.sigma
        _, e = math.frexp(h / 2.0)
        width = math.ldexp(1.0, e - 1)
        r = width / h
        terms = np.cumprod(np.r_[1.0, r / np.sqrt(np.arange(1.0, 60.0))])
        tails = np.cumsum(terms[::-1])[::-1]
        order = int(np.argmax(2.0 * _CRAMER * tails[0] * tails <= _TRUNCATION_BOUND))
        reach = math.ceil(math.sqrt(-math.log(_CUTOFF_BOUND)) / r)
        # h_j(delta r) for j < 2p - 1 by the recurrence h_{j+1} = 2t h_j - 2j h_{j-1}
        t = np.arange(-reach, reach + 1) * r
        herm = np.empty((t.size, 2 * order - 1))
        herm[:, 0] = np.exp(-t * t)
        herm[:, 1] = 2.0 * t * herm[:, 0]
        for j in range(1, 2 * order - 2):
            herm[:, j + 1] = 2.0 * t * herm[:, j] - 2.0 * j * herm[:, j - 1]
        n = np.arange(order)
        scale = 1.0 / np.sqrt(np.cumprod(np.r_[1.0, n[1:]]))  # 1 / sqrt(n!)
        # block[n, k] = h_{n+k}(D) (-1)^k / sqrt(n! k!): moments scaled by
        # 1 / sqrt(n!) in, Taylor coefficients scaled by sqrt(k!) out
        blocks = herm[:, n[:, None] + n] * (scale[:, None] * (scale * (-1.0) ** n))
        translations = kernel.peak(1) * blocks.reshape(-1, order)
        return cls(width, h, order, reach, translations)


class _Boxes:
    """One 1D sample set sorted once into the expansion's boxes.

    Only boxes that hold samples are kept. ``powers[y, n]`` is t^n / sqrt(n!)
    for the y-th sample in sorted order, t its offset from its box centre in
    units of h: it forms the set's moments as a source and evaluates its
    Taylor coefficients as a target.
    """

    def __init__(self, s: SampleSet, exp: _Expansion):
        if s.grid.steps != 1 or s.dim != 1:
            raise ValueError(f"the Gauss transform needs 1D single-step sets, got "
                             f"{s.grid.steps} steps of dim {s.dim}")
        x = s.trajectories[:, 0, 0]
        self.m = x.size
        self.index = np.argsort(x, kind="stable")  # the set's index of each sorted sample
        x = x[self.index]
        keys = np.floor(x / exp.width)  # exact: the width is a power of two
        if not np.abs(keys).max() < 2.0**52:
            raise ValueError(f"samples reach {np.abs(x).max():g}, beyond 2^52 boxes of "
                             f"width {exp.width:g} from 0")
        self.ids, self.starts = np.unique(keys, return_index=True)
        self.box_of = np.repeat(np.arange(self.ids.size), np.diff(np.r_[self.starts, x.size]))
        t = (x - (keys + 0.5) * exp.width) / exp.h
        steps = t[:, None] / np.sqrt(np.arange(1.0, exp.order))
        self.powers = np.cumprod(np.hstack([np.ones((x.size, 1)), steps]), axis=1)


class GaussTransform:
    """The penalty matrix of two 1D single-step sample sets as an operator.

    ``op @ w`` equals ``penalty_matrix(a, b, kernel) @ w`` to within
    1e-13 * kernel.peak(1) * sum|w| (see :meth:`_Expansion.of`) and ``op.T``
    applies the transpose, with no matrix: a product forms each source box's
    Hermite moments of the weights, translates them into Taylor coefficients
    of every target box within the cutoff (one fixed matrix per box offset),
    and evaluates those at the targets. A product takes O(m p) time for the
    m samples and O(boxes K p^2) for the translations, where boxes counts only
    boxes that hold samples and K is the cutoff in boxes; memory is
    O(m p + boxes K), whatever the sets' spread. Build the operators of a list
    of sets with :func:`gauss_transforms`.
    """

    def __init__(self, targets: _Boxes, sources: _Boxes, exp: _Expansion, transpose=None):
        self._targets, self._sources, self._exp = targets, sources, exp
        self.shape = (targets.m, sources.m)
        # near[c, K + delta]: the source box delta boxes below target box c, or
        # the zero row past the last source box when that box holds no samples
        want = targets.ids[:, None] - np.arange(-exp.reach, exp.reach + 1)
        pos = np.searchsorted(sources.ids, want)
        hit = sources.ids[np.minimum(pos, sources.ids.size - 1)] == want
        self._near = np.where(hit, pos, sources.ids.size)
        self.T = transpose if transpose is not None else GaussTransform(sources, targets, exp, self)

    def __matmul__(self, w: np.ndarray) -> np.ndarray:
        src, tgt, p = self._sources, self._targets, self._exp.order
        moments = np.zeros((src.ids.size + 1, p))
        np.add.reduceat(src.powers * w[src.index, None], src.starts, axis=0, out=moments[:-1])
        local = np.empty((tgt.ids.size, p))
        rows = max(1, _BLOCK_BUDGET // (self._near.shape[1] * p))  # bounds the gathered moments
        for s in range(0, tgt.ids.size, rows):
            near = moments[self._near[s : s + rows]]
            np.matmul(near.reshape(len(near), -1), self._exp.translations, out=local[s : s + rows])
        out = np.empty(tgt.m)
        out[tgt.index] = np.einsum("yn,yn->y", tgt.powers, local[tgt.box_of])
        return out


def gauss_transforms(sets: Sequence[SampleSet], kernel: CollisionKernel) -> dict:
    """:class:`GaussTransform` of every pair (i, j), i < j, of 1D single-step
    sets; each set is sorted and boxed once."""
    exp = _Expansion.of(kernel)
    boxes = [_Boxes(s, exp) for s in sets]
    return {
        (i, j): GaussTransform(boxes[i], boxes[j], exp)
        for i in range(len(sets))
        for j in range(i + 1, len(sets))
    }


def expected_penalty(
    a: SampleSet,
    b: SampleSet,
    kernel: CollisionKernel,
    matrix=None,
) -> float:
    """Monte Carlo expected penalty: weighted mean of the penalty matrix.

    ``matrix`` may be any pair operator with ``@``, such as a
    :class:`GaussTransform`."""
    if matrix is None:
        matrix = penalty_matrix(a, b, kernel)
    return float((a.weights / a.m) @ (matrix @ (b.weights / b.m)))


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
