"""Collision penalty on trajectory pairs and its Monte Carlo expectations.

The pairwise penalty is the max over time of a Gaussian bump in the distance
between two time-aligned trajectories; expectations over sample sets are
weighted double sums. Matrices of pairwise penalties are precomputed once per
solve because sample trajectories never change, only weights do.

A set-against-set matrix (:func:`penalty_matrix`, which the solver's pair
cache is built from) expands |p - q|^2 = |p|^2 + |q|^2 - 2 p.q. At each time
step both sides are measured from the step's mean of the column set b, so a
cache column and a per-pair call use the same origin, and one matrix product
of the rows [p, |p|^2, 1] by the columns [-2q; 1; |q|^2] gives the squared
distances of a row block: two passes per step (the product and the running
minimum) where direct differences take six. The minimum is clamped at 0,
since rounding can take it below.

Error bound. With u = 2^-53, gamma_n = n u / (1 - n u), and p_t, q_t a row's
and a column's positions at step t measured from that origin, each step's
computed |p - q|^2 is within gamma_(3d+9) * (|p_t|^2 + |q_t|^2) of the exact
squared distance of the input points in d dimensions: the centring rounds
each coordinate difference by at most u (|p_k| + |q_k|), which moves
|p - q|^2 by at most 4u (|p|^2 + |q|^2) to first order; the squared norms
carry gamma_d; and the (d + 2)-term dot product carries gamma_(d+2) times
sum |x_k y_k| = |p|^2 + |q|^2 + 2 sum |p_k q_k| <= 2 (|p|^2 + |q|^2). A
minimum over steps moves by at most the largest step error, and the clamp
only moves toward the exact value, which is >= 0. The kernel
peak * exp(-s / (2 sigma^2)) moves by at most peak / (2 sigma^2) per unit of
s >= 0, so every entry is within

    peak / (2 sigma^2) * gamma_(3d+9) * max_t (|p_t|^2 + |q_t|^2)

of the kernel at the exact distance, plus 8u * peak for the kernel's own
evaluation (the argument's product, an exp within 2 ulp, the peak's product)
and, where the flush cuts an entry, the smallest normal number. Centring is
what keeps this small: measured from 0, |p|^2 of sets a kilometre out is
1e6 m^2 whatever their spread.

Rows are computed in blocks sized by _BLOCK_BUDGET, so that a block's running
minimum and one step's product stay in a core's L2 cache (2 MiB per core on
the 2-vCPU Xeon the benchmark was measured on): every time step rereads and
rewrites the whole block, and a block larger than the cache turns each of
those passes into memory traffic. Entries do not depend on the block size, so
a call may stack several sample sets as rows. Penalties below the smallest
normal float64 are flushed to zero: a subnormal entry adds nothing a normal
one would not, but it slows every later product with the matrix.

One trajectory against many (:func:`pairwise_penalty`, :func:`penalty_row`,
which scores every pedestrian against the robot's intent) keeps direct
differences. A direct entry depends only on its own two trajectories, so
pairwise penalties are exactly symmetric and the critical sets, and so the
solve order, stay what they were bit for bit; and a one-row product would
cost more in operands (d + 2 floats per column and step) than it saves.

For 1D single-step sets the penalty matrix is a Gaussian kernel matrix, and
:class:`GaussTransform` applies it to a weight vector in O(m) time and memory
with no matrix at all (a 1D fast Gauss transform), to within
1e-13 * peak * sum|w| of the dense product. It takes its rows as
:func:`penalty_matrix` does, a set or a list of sets stacked, so a solve's
pair cache holds one transform per column (every earlier agent against one
agent), and a sweep of n agents takes 2(n - 1) transform products.
"""

from __future__ import annotations

import functools
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
    "penalty_row",
    "GaussTransform",
    "expected_penalty",
    "joint_expected_penalty",
]

# Row-block size cap, in float64: in penalty_matrix, a block's running minimum
# and one time step's product, 2 * rows * mb, plus a flag byte per entry for
# the flush; in GaussTransform, the gathered moments.
# 2^17 float64 are 1 MiB, half a core's L2 cache, which leaves the other half
# to the block's inputs.
_BLOCK_BUDGET = 1 << 17

# Error budget of the 1D Gauss transform, each as a fraction of peak * sum|w|:
# the truncated expansions, and the boxes left out beyond the cutoff. Rounding
# has the rest of the 1e-13 the transform promises.
_TRUNCATION_BOUND = 1e-14
_CUTOFF_BOUND = 1e-14
# Cramer's inequality: |H_n(t)| exp(-t^2 / 2) <= _CRAMER * 2^(n/2) * sqrt(n!)
_CRAMER = 1.086435
# Penalties below the smallest normal float64 are flushed to 0 (module docstring).
_TINY = np.finfo(np.float64).tiny


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


def _to_penalty(d2: np.ndarray, kernel: CollisionKernel, dim: int) -> np.ndarray:
    """Turn min squared distances into penalties in place, flushing entries
    below ``_TINY`` to 0."""
    np.multiply(d2, -0.5 / kernel.sigma**2, out=d2)
    np.exp(d2, out=d2)
    d2 *= kernel.peak(dim)
    d2 *= d2 >= _TINY  # the flush; penalties are >= 0, so x * 0 is +0
    return d2


def penalty_row(f: Trajectory, batch: np.ndarray, kernel: CollisionKernel) -> np.ndarray:
    """Penalties of one trajectory against each of a (T, d, m) batch, by direct
    differences: squared per axis, summed in axis order, minimum over steps."""
    d2 = np.full(batch.shape[2], np.inf)
    diffs = np.empty(batch.shape[1:])  # (d, m)
    for t, point in enumerate(f.states):
        np.subtract(point[:, None], batch[t], out=diffs)
        np.square(diffs, out=diffs)
        for k in range(1, f.dim):
            diffs[0] += diffs[k]
        np.minimum(d2, diffs[0], out=d2)
    return _to_penalty(d2, kernel, f.dim)


def pairwise_penalty(fa: Trajectory, fb: Trajectory, kernel: CollisionKernel) -> float:
    """Max over time steps of the Gaussian penalty between two trajectories."""
    require_same_grid(fa.grid, fb.grid, "trajectories")
    if fa.dim != fb.dim:
        raise ValueError(f"trajectory dims differ: {fa.dim} vs {fb.dim}")
    return float(penalty_row(fa, fb.states[:, :, None], kernel)[0])


def _sum_squares(parts: Sequence[np.ndarray], out: np.ndarray) -> None:
    """out = sum of the squares of ``parts``, elementwise and in their order."""
    np.square(parts[0], out=out)
    for x in parts[1:]:
        out += x * x


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
    a call for that set alone gives. Entries are within the bound in the
    module docstring of the exact penalties, and those below the smallest
    normal float64 are stored as 0. ``out``, a C-contiguous float64 array of
    the result's shape, receives the entries in place of a new array.

    Each time step's squared distances come from one matrix product,
    [p, |p|^2, 1] @ [-2q; 1; |q|^2] = |p - q|^2, with p and q measured from
    the step's mean of ``b``; a running minimum folds the steps together. The
    rows are computed in blocks of at least two: numpy sends a one-row
    product to gemv, which sums in another order than gemm's rows, while gemm
    gives a row the same entries whichever block it is in.
    """
    sets = [a] if isinstance(a, SampleSet) else list(a)
    for s in sets:
        require_same_grid(s.grid, b.grid, "sample sets")
        if s.dim != b.dim:
            raise ValueError(f"sample set dims differ: {s.dim} vs {b.dim}")
    steps, dim, ma, mb = b.grid.steps, b.dim, sum(s.m for s in sets), b.m
    if out is None:
        out = np.empty((ma, mb))
    elif out.shape != (ma, mb):
        raise ValueError(f"out has shape {out.shape}, expected {(ma, mb)}")
    centre = b.trajectories.mean(axis=0)  # (T, d): the origin of this call
    right = np.empty((steps, dim + 2, mb))  # [-2q; 1; |q|^2] per step
    q = right[:, :dim]
    np.subtract(b.trajectories.transpose(1, 2, 0), centre[:, :, None], out=q)
    _sum_squares(q.transpose(1, 0, 2), right[:, dim + 1])
    q *= -2.0
    right[:, dim] = 1.0
    n = max(ma, 2)
    left = np.empty((steps, n, dim + 2))  # [p, |p|^2, 1] per row and step
    left[:, ma:] = 0.0  # the padding row of a one-row call, never stored
    start = 0
    for s in sets:
        p = left[:, start : start + s.m, :dim]
        np.subtract(s.trajectories.transpose(1, 0, 2), centre[:, None, :], out=p)
        _sum_squares(p.transpose(2, 0, 1), left[:, start : start + s.m, dim])
        start += s.m
    left[:, :, dim + 1] = 1.0

    # per entry: a block's running minimum, one time step's product, and one
    # byte for the flush's flags, all reused so they stay in cache
    block = max(2, min(n, 8 * _BLOCK_BUDGET // (17 * mb)))
    scratch = np.empty((2, block, mb))
    for lo in range(0, ma, block):
        hi = min(lo + block, n)
        lo = min(lo, hi - 2)  # a last row on its own is redone with the one before
        acc, d2 = scratch[0, : hi - lo], scratch[1, : hi - lo]
        np.matmul(left[0, lo:hi], right[0], out=acc)
        for t in range(1, steps):
            np.matmul(left[t, lo:hi], right[t], out=d2)
            np.minimum(acc, d2, out=acc)
        np.maximum(acc, 0.0, out=acc)  # rounding can take |p - q|^2 below 0
        rows = out[lo : min(hi, ma)]
        rows[...] = _to_penalty(acc, kernel, dim)[: len(rows)]
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
    """A 1D sample set, or a list of them stacked one after another, sorted
    once into the expansion's boxes.

    Only boxes that hold samples are kept. ``powers[y, n]`` is t^n / sqrt(n!)
    for the y-th sample in sorted order, t its offset from its box centre in
    units of h: it forms the samples' moments as a source and evaluates their
    Taylor coefficients as a target.
    """

    def __init__(self, a: SampleSet | Sequence[SampleSet], exp: _Expansion):
        sets = [a] if isinstance(a, SampleSet) else list(a)
        for s in sets:
            if s.grid.steps != 1 or s.dim != 1:
                raise ValueError(f"the Gauss transform needs 1D single-step sets, got "
                                 f"{s.grid.steps} steps of dim {s.dim}")
        x = np.concatenate([s.trajectories[:, 0, 0] for s in sets])
        self.m = x.size
        self.index = np.argsort(x, kind="stable")  # the stacked index of each sorted sample
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
    """The penalty matrix of 1D single-step sample sets as an operator.

    ``GaussTransform(a, b, kernel)`` stands for ``penalty_matrix(a, b,
    kernel)``, ``a`` a set or a list of sets stacked as rows: ``op @ w``
    equals the dense product to within 1e-13 * kernel.peak(1) * sum|w| (see
    :meth:`_Expansion.of`) and ``op.T``, built on first use, applies the
    transpose, with no matrix. A product forms each source box's Hermite
    moments of the weights, translates them into Taylor coefficients of every
    target box within the cutoff (one fixed matrix per box offset), and
    evaluates those at the targets. A product takes O(m p) time for the m
    samples and O(boxes K p^2) for the translations, where boxes counts only
    boxes that hold samples and K is the cutoff in boxes; memory is
    O(m p + boxes K), whatever the sets' spread.
    """

    def __init__(self, a: SampleSet | Sequence[SampleSet], b: SampleSet, kernel: CollisionKernel):
        exp = _Expansion.of(kernel)
        self._link(_Boxes(a, exp), _Boxes(b, exp), exp)

    def _link(self, targets: _Boxes, sources: _Boxes, exp: _Expansion) -> None:
        self._targets, self._sources, self._exp = targets, sources, exp
        self.shape = (targets.m, sources.m)
        # near[c, K + delta]: the source box delta boxes below target box c, or
        # the zero row past the last source box when that box holds no samples
        want = targets.ids[:, None] - np.arange(-exp.reach, exp.reach + 1)
        pos = np.searchsorted(sources.ids, want)
        hit = sources.ids[np.minimum(pos, sources.ids.size - 1)] == want
        self._near = np.where(hit, pos, sources.ids.size)

    @functools.cached_property
    def T(self) -> "GaussTransform":
        """The transpose, sharing the boxes; it holds no link back, so a
        dropped transform is freed without the cyclic garbage collector."""
        op = GaussTransform.__new__(GaussTransform)
        op._link(self._sources, self._targets, self._exp)
        return op

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


def expected_penalty(a: SampleSet, b: SampleSet, kernel: CollisionKernel) -> float:
    """Monte Carlo expected penalty: weighted mean of the penalty matrix."""
    matrix = penalty_matrix(a, b, kernel)
    return float((a.weights / a.m) @ (matrix @ (b.weights / b.m)))


def joint_expected_penalty(sets: Sequence[SampleSet], kernel: CollisionKernel) -> float:
    """Sum of expected penalties over all unordered pairs of sample sets."""
    if len(sets) < 2:
        raise ValueError("need at least 2 sample sets")
    total = 0.0
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            total += expected_penalty(sets[i], sets[j], kernel)
    return total
