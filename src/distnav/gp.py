"""Gaussian-process trajectory preferences.

Each agent's preference over future trajectories is the posterior of a GP
fitted to its observed positions (per axis, squared-exponential kernel,
independent x/y). An agent's observations come as one track of arrays,
``(times, positions, noises)``; the caller picks each observation's noise
and which observations to keep. A goal enters as one more, artificial,
observation. Sampling the GP yields the weighted-sample representation the
solver operates on.

The GP's prior mean is a line, m(t) = pos + vel * (t - t0), that the caller
passes per agent: the fit conditions on the residuals y - m(t_obs) and adds
m back over the grid. A zero prior mean would pull every mean toward the
world point (0, 0) wherever the observations thin out; the further the agent
is from the origin, the harder. With a line through the agent's own
observations, shifting the observations and the line by c shifts the mean
and every sample by c (up to rounding), so a fit does not depend on where
the world's origin lies.

The posterior covariance depends only on the observation times and noises,
never on the positions, so agents observed on the same schedule share it.
A ``PreferenceGP`` comes from ``fit_preference``, which fits a replan's
agents in one call: per schedule one Gram factor, one posterior covariance,
one solve of its agents' residuals stacked as columns and one batched
product by the cross-covariance, which makes for each agent the BLAS call
its fit alone makes. The Cholesky factors that sampling and log-densities
need are made on first use and kept with the posterior. Each agent's fit is
bit for bit the one it gets alone (tested).

Sampling draws each agent's normals from its own seed and multiplies the draws
of a schedule by its lower factor in runs of up to ``_PRODUCT_COLUMNS``
columns; every agent's samples land in one read-only block that their sample
sets view. A run is one ``einsum("ts,sdm->tdm", low, zt)``. With ``low`` in
Fortran order, einsum iterates the step sum outermost, so every entry adds
its rounded products ``low[t, s] * zt[s, d, k]`` one at a time in ascending
s, as a loop over the factor's columns would, whatever the width (tested): a
sample does not depend on who shares its run, and is bit for bit
``einsum("ts,msd->mtd", low, z)`` when planar.

The three LAPACK routines the GP needs (``dpotrf``, ``dpotrs``, ``dtrtrs``)
come from scipy's own f2py extension ``scipy/linalg/_flapack``, loaded from
its file. Importing any ``scipy.linalg`` module would first run that
package's ``__init__``, which loads ``numpy.f2py``, ``numpy.testing`` and
more and takes about half of a fresh ``import distnav.cli``. Each wrapper
makes the LAPACK call that scipy's function makes for float64 input, with the
same finiteness checks and errors, so the factors and solves are bit for bit
scipy's: ``_cholesky`` is ``cholesky(a, lower=True)``, ``_cho_solve`` is
``cho_solve((c, True), b)`` and ``_solve_lower`` is
``solve_triangular(a, b, lower=True)``.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .errors import GridMismatchError, NumericalError
from .grids import TimeGrid, Trajectory
from .samples import CrowdSamples, SampleSet

__all__ = [
    "KernelParams",
    "PreferenceGP",
    "DensityMoments",
    "fit_preference",
    "sample_trajectories",
    "moments_1d",
]

_LOG_2PI = math.log(2.0 * math.pi)
# One initial jitter attempt plus this many x10 escalations before giving up.
_MAX_JITTER_ESCALATIONS = 3
# columns of one sampling product: a schedule's draws go through its factor in
# runs this wide, whose operands stay within a core's cache
_PRODUCT_COLUMNS = 1024


def _load_flapack():
    """scipy's f2py LAPACK extension, loaded from its file so that the
    ``scipy.linalg`` package's ``__init__`` does not run."""
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError("distnav needs scipy")
    folder = Path(scipy.submodule_search_locations[0], "linalg")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = folder / f"_flapack{suffix}"
        if path.exists():
            loader = importlib.machinery.ExtensionFileLoader("scipy.linalg._flapack", str(path))
            module = importlib.util.module_from_spec(importlib.util.spec_from_loader(loader.name, loader))
            loader.exec_module(module)
            return module
    raise ImportError(f"no LAPACK extension _flapack in {folder}")


_flapack = _load_flapack()


def _cholesky(a) -> np.ndarray:
    """scipy's ``cholesky(a, lower=True)``: the potrf call of its ``_cholesky``."""
    c, info = _flapack.dpotrf(np.atleast_2d(np.asarray_chkfinite(a)), lower=True, clean=True)
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}-th leading minor of the array is not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal potrf")
    return c


def _cho_solve(c, b) -> np.ndarray:
    """scipy's ``cho_solve((c, True), b)``: the potrs call of its ``_cho_solve``."""
    b, c = np.asarray_chkfinite(b), np.asarray_chkfinite(c)
    x, info = _flapack.dpotrs(c, b, lower=True)
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of internal potrs")
    return x


def _solve_lower(a, b) -> np.ndarray:
    """scipy's ``solve_triangular(a, b, lower=True)``: the trtrs call of its
    ``_solve_triangular``, which solves the transposed upper system when ``a``
    is not F-contiguous."""
    a, b = np.asarray_chkfinite(a), np.asarray_chkfinite(b)
    if a.flags.f_contiguous:
        x, info = _flapack.dtrtrs(a, b, lower=True, trans=0)
    else:
        x, info = _flapack.dtrtrs(a.T, b, lower=False, trans=1)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal trtrs")
    return x


@dataclass(frozen=True)
class KernelParams:
    """Squared-exponential kernel hyperparameters (time in s, variance in m^2)."""

    length_scale: float = 4.0
    signal_var: float = 4.0
    jitter: float = 1e-8

    def __post_init__(self):
        for name in ("length_scale", "signal_var", "jitter"):
            if not (getattr(self, name) > 0):
                raise ValueError(f"{name} must be strictly positive")


@dataclass
class PreferenceGP:
    """GP posterior over the grid: per-axis mean, one shared T x T covariance.

    The same observation times and noises condition both axes, so the
    posterior covariance is axis-independent; only the means differ. Made by
    :func:`fit_preference`: ``_post`` is the schedule's posterior, shared by
    every fit on that schedule, with its read-only covariance.
    """

    grid: TimeGrid
    mean: np.ndarray = field(repr=False)  # (steps, dim)
    _post: "_Posterior" = field(repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.mean.shape[1]

    def mean_trajectory(self) -> Trajectory:
        return Trajectory(self.grid, self.mean)


class _Posterior:
    """An observation schedule's posterior covariance and the Cholesky factors
    made from it for sampling and densities, each computed on first use."""

    __slots__ = ("cov", "jitter", "_sample_low", "_density")

    def __init__(self, cov, jitter):
        self.cov, self.jitter = cov, jitter
        self._sample_low = None
        self._density = None

    def sample_factor(self) -> np.ndarray:
        """Lower factor of the covariance."""
        if self._sample_low is None:
            self._sample_low = _cholesky_psd(self.cov, self.jitter)
        return self._sample_low

    def density_factor(self) -> tuple:
        """Lower factor of cov + jitter * I, and half its log-determinant."""
        if self._density is None:
            steps = self.cov.shape[0]
            low = _cholesky_psd(self.cov + self.jitter * np.eye(steps), self.jitter)
            self._density = (low, float(np.sum(np.log(np.diag(low)))))
        return self._density


class DensityMoments(NamedTuple):
    mean: float
    variance: float
    skew: float
    excess_kurtosis: float
    modes: tuple


def _se_kernel(ta: np.ndarray, tb: np.ndarray, kp: KernelParams) -> np.ndarray:
    d = ta[:, None] - tb[None, :]
    return kp.signal_var * np.exp(-0.5 * (d / kp.length_scale) ** 2)


def _cholesky_psd(mat, base_jitter: float, from_zero=True, what="Cholesky failed") -> np.ndarray:
    """Lower Cholesky factor of mat + jit * I, jit escalating x10 from base_jitter
    (from 0 first when ``from_zero``)."""
    eye = np.eye(mat.shape[0])
    jit = 0.0 if from_zero else base_jitter
    for _ in range(_MAX_JITTER_ESCALATIONS + 1 + from_zero):
        try:
            return _cholesky(mat + jit * eye)
        except np.linalg.LinAlgError:
            jit = base_jitter if jit == 0.0 else 10.0 * jit
    cond = float(np.linalg.cond(mat + jit * eye))
    raise NumericalError(f"{what} after jitter escalation to {jit:g} (cond ~ {cond:.3g})")


def fit_preference(tracks: Sequence[tuple], grid: TimeGrid, kp: KernelParams,
                   priors: Sequence) -> list[PreferenceGP]:
    """GP posteriors over the grid times, per axis: one per agent's track.

    A track is ``(times, positions, noises)``: n finite observation times,
    the (n, dim) positions observed at them, dim 1 or 2, and n noise
    variances >= 0. ``priors[k] = (t0, pos, vel)`` is agent k's prior mean
    line m(t) = pos + vel * (t - t0), ``pos`` and ``vel`` with one component
    per axis: the fit conditions on y - m(t_obs) and adds m(grid.times())
    back. Agents on one schedule (times, noises and dimension) share its
    posterior, solve and product; each agent's fit is bit for bit the one it
    gets alone.
    """
    if len(priors) != len(tracks) or None in priors:
        raise ValueError("fit_preference needs one prior line per agent")
    schedules: dict = {}  # (times, noises, dim) -> [(agent, times, noises, residuals, line)]
    for k, ((times, positions, noises), line) in enumerate(zip(tracks, priors)):
        y = np.array(positions, dtype=float)  # (n, dim): a copy, the line comes off it in place
        t_obs, noise = np.asarray(times, dtype=float), np.asarray(noises, dtype=float)
        if not y.size:
            raise ValueError("a track needs at least one observation")
        if y.ndim != 2 or y.shape[1] not in (1, 2):
            raise ValueError(f"positions must be 1D or 2D, one row per observation, got shape {y.shape}")
        if t_obs.shape != (len(y),) or noise.shape != (len(y),):
            raise ValueError(f"a track needs one time and one noise per position, got {t_obs.shape} "
                             f"and {noise.shape} for {len(y)}")
        t0, pos, vel = line = (float(line[0]), np.asarray(line[1], dtype=float), np.asarray(line[2], dtype=float))
        if pos.shape != (y.shape[1],) or vel.shape != (y.shape[1],):
            raise ValueError(f"prior pos and vel need {y.shape[1]} components, got {pos.shape} and {vel.shape}")
        key = (t_obs.tobytes(), noise.tobytes(), y.shape[1])
        schedules.setdefault(key, []).append((k, t_obs, noise, y, line))
    gps: list = [None] * len(tracks)
    times = grid.times()
    for members in schedules.values():
        _, t_obs, noise, y, _ = members[0]  # checked once per schedule
        if not np.isfinite(t_obs).all():
            raise ValueError("observation times must be finite")
        if not (noise >= 0).all():
            raise ValueError("observation noises must be >= 0")
        for _, _, _, y_k, (t0, pos, vel) in members:  # after the checks: a non-finite time raises, not warns
            y_k -= pos + (t_obs - t0)[:, None] * vel
        post, gram_low, k_star = _fit_posterior(t_obs, noise, grid, kp)
        alpha = _cho_solve(gram_low, np.hstack([member[3] for member in members]))  # (n, agents * dim)
        # one (steps, n) @ (n, dim) product per agent, the one its fit alone makes
        means = k_star.T @ alpha.reshape(len(y), len(members), -1).transpose(1, 0, 2)
        for (k, *_, (t0, pos, vel)), mean in zip(members, means):
            mean += pos + (times - t0)[:, None] * vel
            gps[k] = PreferenceGP(grid, mean, post)
    return gps


def _fit_posterior(t_obs: np.ndarray, noise: np.ndarray, grid: TimeGrid, kp: KernelParams) -> tuple:
    """One observation schedule's posterior, its covariance checked, and the lower
    factor of its Gram matrix and (n, steps) cross-covariance, which give each mean."""
    gram = _se_kernel(t_obs, t_obs, kp) + np.diag(noise)
    low = _cholesky_psd(gram, kp.jitter, from_zero=False, what="singular Gram matrix")
    t_grid = grid.times()
    k_star = _se_kernel(t_obs, t_grid, kp)  # (n, steps)
    v = _solve_lower(low, k_star)  # (n, steps)
    cov = _se_kernel(t_grid, t_grid, kp) - v.T @ v
    cov = 0.5 * (cov + cov.T) + kp.jitter * np.eye(grid.steps)
    if np.linalg.eigvalsh(cov).min() < -1e-9 * max(np.trace(cov), 1.0):
        raise ValueError("cov is not positive semi-definite within tolerance")
    cov.setflags(write=False)
    return _Posterior(cov, kp.jitter), low, k_star


def _lower_product(low: np.ndarray, zt: np.ndarray) -> np.ndarray:
    """``low @ zt[:, :, k]`` for every draw of zt (steps, dim, m), as a (steps, dim, m) array.

    Each entry is its products summed one at a time in step order; see the
    module docstring.
    """
    return np.einsum("ts,sdm->tdm", np.asfortranarray(low), zt)


def sample_trajectories(
    gps: Sequence[PreferenceGP], m: int, seeds: Sequence, agents: Sequence | None = None
) -> CrowdSamples:
    """Draw m trajectories from each GP; all weights start at 1.

    GP k is sampled from ``default_rng(seeds[k])`` as agent ``agents[k]``
    (None without ``agents``): same seed, bit-identical samples, whichever
    other GPs are sampled in the same call. GPs that share a posterior
    covariance share their products, up to ``_PRODUCT_COLUMNS`` columns each.
    The GPs of a call have one number of steps and one dimension: their
    samples fill one read-only block, GP k's rows k * m to (k + 1) * m.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    agents = [None] * len(gps) if agents is None else agents
    if not len(gps) == len(seeds) == len(agents):
        raise ValueError("sample_trajectories needs one seed and one agent per GP")
    shapes = {(gp.grid.steps, gp.dim) for gp in gps} or {(0, 1)}
    if len(shapes) > 1:
        raise ValueError(f"sample_trajectories needs GPs of one (steps, dim), got {sorted(shapes)}")
    ((steps, dim),) = shapes
    schedules: dict = {}
    for k, gp in enumerate(gps):
        schedules.setdefault(gp._post, []).append(k)
    per = max(1, _PRODUCT_COLUMNS // m)  # agents per product
    runs = [(post, ks[i:i + per]) for post, ks in schedules.items() for i in range(0, len(ks), per)]
    block = np.empty((len(gps) * m, steps, dim))
    for post, members in runs:
        zt = np.empty((steps, dim, len(members) * m))  # the draws, one column per sample
        for g, k in enumerate(members):
            z = np.random.default_rng(seeds[k]).standard_normal((m, steps, dim))
            zt[:, :, g * m:(g + 1) * m] = z.transpose(1, 2, 0)
        traj = _lower_product(post.sample_factor(), zt)
        for g, k in enumerate(members):
            np.add(traj[:, :, g * m:(g + 1) * m].transpose(2, 0, 1), gps[k].mean, out=block[k * m:(k + 1) * m])
    if not np.isfinite(block).all():
        raise ValueError("trajectories contain non-finite values")
    block.setflags(write=False)
    return CrowdSamples([SampleSet._of_block(agents[k], gp.grid, block[k * m:(k + 1) * m])
                         for k, gp in enumerate(gps)], block)


def log_densities(gp: PreferenceGP, trajectories: np.ndarray) -> np.ndarray:
    """Log-density of each trajectory of a (m, steps, dim) batch under the GP
    (axes independent, shared covariance)."""
    traj = np.asarray(trajectories, dtype=float)
    m, steps, dim = traj.shape
    if steps != gp.grid.steps or dim != gp.dim:
        raise GridMismatchError(
            f"batch shape {traj.shape} incompatible with GP ({gp.grid.steps}, {gp.dim})"
        )
    low, log_det_half = gp._post.density_factor()
    resid = (traj - gp.mean[None]).transpose(1, 0, 2).reshape(steps, m * dim)
    z = _solve_lower(low, resid).reshape(steps, m, dim)
    quad = np.einsum("tmd,tmd->m", z, z)
    return -0.5 * quad - dim * (log_det_half + 0.5 * steps * _LOG_2PI)


def moments_1d(
    xs: np.ndarray, density: np.ndarray, min_mode_height: float = 0.0
) -> DensityMoments:
    """Central moments of a grid-sampled 1D density, plus its local maxima.

    The density must integrate to 1 within 1e-6 under the trapezoid rule.
    ``min_mode_height`` drops local maxima below that fraction of the peak.
    """
    xs = np.asarray(xs, dtype=float)
    ps = np.asarray(density, dtype=float)
    if xs.shape != ps.shape or xs.ndim != 1:
        raise ValueError("xs and density must be 1D arrays of equal length")
    if np.any(ps < 0):
        raise ValueError("density must be non-negative")
    total = np.trapezoid(ps, xs)
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"density integrates to {total}, not 1 within 1e-6")

    mean = np.trapezoid(xs * ps, xs)
    var = np.trapezoid((xs - mean) ** 2 * ps, xs)
    skew = np.trapezoid((xs - mean) ** 3 * ps, xs) / var**1.5
    kurt = np.trapezoid((xs - mean) ** 4 * ps, xs) / var**2 - 3.0

    floor = min_mode_height * ps.max()
    interior = (ps[1:-1] > ps[:-2]) & (ps[1:-1] > ps[2:]) & (ps[1:-1] >= floor)
    modes = tuple(float(x) for x in xs[1:-1][interior])
    return DensityMoments(float(mean), float(var), float(skew), float(kurt), modes)
