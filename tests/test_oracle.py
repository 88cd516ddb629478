import math

import numpy as np
import pytest

from distnav.collision import CollisionKernel
from distnav.engine import SolverConfig, solve
from distnav.errors import GridMismatchError
from distnav.oracle import (
    GridDensity,
    exact_gamma,
    exact_update,
    ks_distance,
    write_evolution_csv,
)

from helpers import U, gaussian_densities_1d, gaussian_sets_1d

KERNEL = CollisionKernel(weight=10.0, sigma=0.3)


def norm_pdf(xs, mu, sigma):
    return np.exp(-0.5 * ((xs - mu) / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))


class TestGridDensity:
    def test_rejects_non_normalized(self):
        xs = np.linspace(0, 1, 11)
        with pytest.raises(ValueError):
            GridDensity(xs, np.full(11, 3.0))

    def test_rejects_irregular_grid(self):
        xs = np.array([0.0, 0.1, 0.3, 0.4])
        with pytest.raises(ValueError):
            GridDensity(xs, np.full(4, 2.5))

    def test_from_values_normalizes(self):
        xs = np.linspace(-3, 3, 601)
        gd = GridDensity.from_values(xs, np.exp(-np.abs(xs)))
        assert abs(np.trapezoid(gd.ps, gd.xs) - 1.0) < 1e-12


class TestExactGamma:
    def test_spike_recovers_kernel_profile(self):
        xs = np.linspace(-4, 4, 2001)
        h = xs[1] - xs[0]
        y0_idx = 1000
        ps = np.zeros_like(xs)
        ps[y0_idx] = 1.0 / h  # single-cell spike
        spike = GridDensity(xs, ps)
        other = GridDensity.gaussian(xs, 0.0, 0.5)
        gamma = exact_gamma(1, [spike, other], KERNEL)
        expected = KERNEL.weight * norm_pdf(xs, xs[y0_idx], KERNEL.sigma)
        assert np.max(np.abs(gamma - expected)) < 50 * h**2 * expected.max()

    def test_far_density_gives_zero(self):
        xs = np.linspace(-4, 4, 1001)
        a = GridDensity.gaussian(xs, 0.0, 0.3)
        b = GridDensity.gaussian(xs, 3.9, 0.01)  # > 10 sigma from the left half
        gamma = exact_gamma(0, [a, b], KERNEL)
        assert np.all(gamma[xs < 0] < 1e-12)

    def test_gaussian_convolution_closed_form(self):
        xs = np.linspace(-6, 6, 2001)
        me = GridDensity.gaussian(xs, -1.0, 0.4)
        other = GridDensity.gaussian(xs, 1.0, 0.5)
        gamma = exact_gamma(0, [me, other], KERNEL)
        s = math.sqrt(KERNEL.sigma**2 + 0.5**2)
        expected = KERNEL.weight * norm_pdf(xs, 1.0, s)
        mask = expected > 1e-12 * expected.max()
        rel = np.abs(gamma[mask] - expected[mask]) / expected[mask]
        assert rel.max() < 1e-6

    def test_grid_mismatch_raises(self):
        a = GridDensity.gaussian(np.linspace(-4, 4, 101), 0, 1)
        b = GridDensity.gaussian(np.linspace(-5, 5, 101), 0, 1)
        with pytest.raises(GridMismatchError):
            exact_gamma(0, [a, b], KERNEL)


class TestExactUpdate:
    def test_near_constant_gamma_leaves_density_unchanged(self):
        # a kernel much wider than the grid makes gamma effectively constant
        xs = np.linspace(-2, 2, 801)
        dens = [GridDensity.gaussian(xs, 0.0, 0.5), GridDensity.gaussian(xs, 0.5, 0.5)]
        wide = CollisionKernel(weight=5.0, sigma=1e6)
        before = [d.ps.copy() for d in dens]
        exact_update(dens, wide, sweeps=1)
        for b, d in zip(before, dens):
            assert np.max(np.abs(d.ps - b)) < 1e-9

    def test_single_agent_is_identity(self):
        xs = np.linspace(-3, 3, 501)
        dens = [GridDensity.gaussian(xs, 0.0, 0.7)]
        before = dens[0].ps.copy()
        history = exact_update(dens, KERNEL, sweeps=3)
        assert np.array_equal(dens[0].ps, before)
        assert history.jc_trace == [0.0, 0.0, 0.0, 0.0]
        assert all(type(jc) is float for jc in history.jc_trace)  # written as 0.0, not 0

    def test_three_gaussians_middle_agent_splits(self):
        dens = gaussian_densities_1d([-1.0, 0.0, 1.0], 0.5)
        history = exact_update(dens, KERNEL, sweeps=10)
        mid = dens[1]
        ps = mid.ps
        maxima = [
            k for k in range(1, ps.size - 1) if ps[k] > ps[k - 1] and ps[k] > ps[k + 1]
        ]
        assert len(maxima) >= 2
        jc = history.jc_trace
        assert all(b < a for a, b in zip(jc, jc[1:]))

    def test_sweep_decrease_matches_kl_at_grid_resolution(self):
        dens = gaussian_densities_1d([-1.0, 0.0, 1.0], 0.5)
        h = dens[0].spacing
        history = exact_update(dens, KERNEL, sweeps=10)
        for k, kl in enumerate(history.kl_trace):
            drop = history.jc_trace[k] - history.jc_trace[k + 1]
            assert drop >= kl - 5 * h**2

    def test_normalization_preserved(self):
        dens = gaussian_densities_1d([-0.5, 0.5], 0.4)
        exact_update(dens, KERNEL, sweeps=5)
        for d in dens:
            assert abs(np.trapezoid(d.ps, d.xs) - 1.0) < 1e-8

    def test_grid_refinement_converges(self):
        finals = {}
        for n in (251, 501, 1001):
            dens = gaussian_densities_1d([-1.0, 0.0, 1.0], 0.5, n=n)
            exact_update(dens, KERNEL, sweeps=5)
            finals[n] = dens[1]
        xs_fine = finals[1001].xs
        coarse = np.interp(xs_fine, finals[251].xs, finals[251].ps)
        med = np.interp(xs_fine, finals[501].xs, finals[501].ps)
        d1 = np.max(np.abs(coarse - med))
        d2 = np.max(np.abs(med - finals[1001].ps))
        assert d2 < 4 * d1

    def test_history_contains_all_snapshots(self):
        dens = gaussian_densities_1d([-0.5, 0.5], 0.4)
        history = exact_update(dens, KERNEL, sweeps=4)
        assert len(history.snapshots) == 5
        assert history.sweeps == 4
        assert len(history.kl_trace) == 4


def reference_update(densities, kernel, sweeps):
    """Per-update quadrature: every gamma from n - 1 fresh kernel products, J
    from ((tw * p_i) K) . (tw * p_j) over the pairs. Returns the snapshots, J
    and KL traces, and each agent's initial gamma."""
    xs = densities[0].xs
    d = xs[:, None] - xs[None, :]
    kmat = kernel.weight / (math.sqrt(2.0 * math.pi) * kernel.sigma) * np.exp(-0.5 * (d / kernel.sigma) ** 2)
    h = xs[1] - xs[0]
    tw = np.full(xs.size, h)
    tw[0] = tw[-1] = h / 2

    def gamma(i):
        total = np.zeros(xs.size)
        for j, dj in enumerate(densities):
            if j != i:
                total += kmat @ (tw * dj.ps)
        return total

    def joint():
        total = 0.0
        for i in range(len(densities)):
            gi = tw * densities[i].ps
            for j in range(i + 1, len(densities)):
                total += float(gi @ kmat @ (tw * densities[j].ps))
        return total

    gammas = [gamma(i) for i in range(len(densities))]
    snapshots, jc, kl = [[dd.ps.copy() for dd in densities]], [joint()], []
    for _ in range(sweeps):
        kl_sum = 0.0
        for i in range(len(densities)):
            g = gamma(i)
            shifted = g - g.min()
            if not shifted.any():
                continue
            raw = densities[i].ps * np.exp(-shifted)
            new = raw / float(np.sum(tw * raw))
            pn, po = np.maximum(new, 1e-300), np.maximum(densities[i].ps, 1e-300)
            kl_sum += float(np.sum(tw * new * (np.log(pn) - np.log(po))))
            densities[i] = GridDensity(xs, new)
        snapshots.append([dd.ps.copy() for dd in densities])
        jc.append(joint())
        kl.append(kl_sum)
    return snapshots, jc, kl, gammas


# (means, sigmas, grid points, kernel, sweeps)
PROBLEMS = [
    ([0.0], [0.7], 101, KERNEL, 3),
    ([-0.5, 0.5], [0.4, 0.4], 51, KERNEL, 4),
    ([-1.0, 0.0, 1.0], [0.5, 0.5, 0.5], 2001, KERNEL, 10),
    ([-1.2, -0.1, 0.4, 1.5], [0.3, 0.6, 0.5, 0.4], 601, CollisionKernel(weight=4.0, sigma=0.5), 6),
    ([-0.3, 0.2, 0.9], [0.8, 0.2, 0.5], 1001, CollisionKernel(weight=25.0, sigma=0.15), 5),
]


class TestAgainstPerUpdateQuadrature:
    @pytest.mark.parametrize("means, sigmas, points, kernel, sweeps", PROBLEMS)
    def test_densities_kl_and_gamma_bit_for_bit_and_j_within_its_bound(
        self, means, sigmas, points, kernel, sweeps
    ):
        """J here is sum over i < j of g_i . (K g_j), the reference's is
        (g_i K) . g_j, with g = tw * p the same stored doubles and K the same
        matrix. So both add the same N^2 nonnegative products
        g_i[a] K[a, b] g_j[b], in two association orders. Each product meets
        two multiplications and at most 2(N - 1) additions, and rounding in
        any summation order of nonnegative terms leaves it scaled by some
        (1 + t), |t| <= gamma_2N, where gamma_k = k u / (1 - k u). The P =
        n(n - 1) / 2 pair terms then go through at most P - 1 additions. Each
        computed J is the exact double sum times (1 + t), |t| <= gamma_K,
        K = 2N + P - 1, so the two differ relatively by at most
        2 gamma_K / (1 - gamma_K) = 2K u + O((K u)^2) < (4N + n^2) u + O((K u)^2),
        inside (4N + 2n^2) u. A product that underflows errs by at most
        2^-1075 absolutely, about 1e-317 over all products here, far below
        u J."""
        xs = np.linspace(min(means) - 8 * max(sigmas), max(means) + 8 * max(sigmas), points)
        make = lambda: [GridDensity.gaussian(xs, mu, s) for mu, s in zip(means, sigmas)]
        snapshots, jc, kl, gammas = reference_update(make(), kernel, sweeps)
        dens = make()
        for i, g in enumerate(gammas):
            assert np.array_equal(exact_gamma(i, dens, kernel), g)
        history = exact_update(dens, kernel, sweeps)
        assert len(history.snapshots) == len(snapshots)
        for got, want in zip(history.snapshots, snapshots):
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert history.kl_trace == kl
        n = len(means)
        for got, want in zip(history.jc_trace, jc):
            assert type(got) is float
            assert abs(got - want) <= (4 * points + 2 * n**2) * U * want


class TestKsDistance:
    def test_samples_from_grid_density_are_close(self):
        xs = np.linspace(-4, 4, 2001)
        gd = GridDensity.gaussian(xs, 0.3, 0.8)
        rng = np.random.default_rng(99)
        u = rng.uniform(size=20000)
        samples = np.interp(u, gd.cdf(), gd.xs)  # inverse-CDF draws
        assert ks_distance(gd, samples, np.ones(20000)) < 0.02

    def test_identical_point_mass_is_zero(self):
        xs = np.linspace(0, 1, 11)
        ps = np.zeros(11)
        ps[-1] = 2.0 / (xs[1] - xs[0])  # atom in the final cell
        gd = GridDensity(xs, ps)
        assert ks_distance(gd, np.array([1.0, 1.0]), np.array([0.5, 0.5])) == 0.0

    def test_disjoint_supports_distance_one(self):
        xs = np.linspace(0, 1, 101)
        gd = GridDensity.gaussian(xs, 0.5, 0.05)
        samples = np.array([5.0, 6.0, 7.0])
        assert ks_distance(gd, samples, np.ones(3)) == 1.0

    def test_all_zero_weights_rejected(self):
        xs = np.linspace(0, 1, 101)
        gd = GridDensity.gaussian(xs, 0.5, 0.1)
        with pytest.raises(ValueError):
            ks_distance(gd, np.array([0.5]), np.array([0.0]))


class TestOracleSamplerAgreement:
    def test_weighted_samples_track_grid_densities(self):
        # smoke-scale version of the acceptance criterion (m=4000 here)
        means = [-1.0, 0.0, 1.0]
        dens = gaussian_densities_1d(means, 0.5)
        exact_update(dens, KERNEL, sweeps=10)
        sets = gaussian_sets_1d(means, 0.5, m=4000, seed=5)
        solve(sets, KERNEL, SolverConfig(epsilon=0.0, max_sweeps=10))
        for gd, ss in zip(dens, sets):
            d = ks_distance(gd, ss.trajectories[:, 0, 0], ss.weights)
            assert d < 0.08


class TestEvolutionCsv:
    def test_csv_round_trip(self, tmp_path):
        dens = gaussian_densities_1d([-0.5, 0.5], 0.4, n=51)
        history = exact_update(dens, KERNEL, sweeps=2)
        path = tmp_path / "evolution.csv"
        write_evolution_csv(history, path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "sweep,agent,x,p"
        assert len(rows) == 1 + 3 * 2 * 51  # (initial + 2 sweeps) x 2 agents x 51 pts
        last = rows[-1].split(",")
        assert float(last[0]) == 2 and float(last[1]) == 1
        assert float(last[3]) == history.snapshots[2][1][-1]
