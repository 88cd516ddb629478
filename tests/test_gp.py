import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve, cholesky, solve_triangular

import distnav.gp
from distnav.errors import GridMismatchError, NumericalError
from distnav.gp import (
    KernelParams,
    _cho_solve,
    _cholesky,
    _cholesky_psd,
    _lower_product,
    fit_preference,
    log_densities,
    moments_1d,
    sample_trajectories,
    _solve_lower,
)
from distnav.grids import TimeGrid, Trajectory

from helpers import U, gp_of_cov, mean_operator_norm, zero_lines


def make_grid(t0=0.0, dt=0.4, steps=20):
    return TimeGrid(t0, dt, steps)


def track(times, positions, noise):
    """An agent's ``(times, positions, noises)`` track; ``noise`` is one
    variance for every row or one per row."""
    times = np.asarray(times, dtype=float)
    return times, np.asarray(positions, dtype=float), np.broadcast_to(np.asarray(noise, dtype=float), times.shape)


class TestFitPreference:
    def test_single_noiseless_observation_interpolates(self):
        grid = make_grid()
        kp = KernelParams(length_scale=2.0, signal_var=1.0, jitter=1e-10)
        obs = track([grid.times()[3]], [(1.5, -2.0)], 0.0)
        gp = fit_preference([obs], grid, kp, zero_lines([obs]))[0]
        assert np.allclose(gp.mean[3], [1.5, -2.0], atol=1e-6)

    def test_two_point_posterior_matches_closed_form(self):
        # independent oracle: explicit 2x2 solve of the GP posterior mean
        grid = TimeGrid(0.0, 1.0, 3)
        kp = KernelParams(length_scale=50.0, signal_var=1.0, jitter=1e-12)
        noise = 1e-4
        t1, t2, tq = 0.0, 2.0, 1.0
        y1, y2 = np.array([0.0, 0.0]), np.array([2.0, -1.0])

        k = lambda a, b: kp.signal_var * math.exp(-0.5 * ((a - b) / kp.length_scale) ** 2)
        k11 = k(t1, t1) + noise
        k22 = k(t2, t2) + noise
        k12 = k(t1, t2)
        det = k11 * k22 - k12 * k12
        inv = np.array([[k22, -k12], [-k12, k11]]) / det
        kq = np.array([k(tq, t1), k(tq, t2)])
        expected = kq @ inv @ np.stack([y1, y2])

        obs = track([t1, t2], [y1, y2], noise)
        gp = fit_preference([obs], grid, kp, zero_lines([obs]))[0]
        assert np.allclose(gp.mean[1], expected, atol=1e-9)
        # with length_scale >> horizon this is linear interpolation to ~cm level
        assert np.linalg.norm(gp.mean[1] - (y1 + y2) / 2) < 0.05


    def test_zero_observations_raises(self):
        group = [track([], np.empty((0, 2)), 0.0)]
        with pytest.raises(ValueError, match="at least one observation"):
            fit_preference(group, make_grid(), KernelParams(), zero_lines(group))

    @pytest.mark.parametrize("bad, message", [
        (track([0.0, np.nan], [(0.0, 0.0), (0.5, 0.0)], 0.01), "times must be finite"),
        (track([0.0, np.inf], [(0.0, 0.0), (0.5, 0.0)], 0.01), "times must be finite"),
        (track([0.0, 0.4], [(0.0, 0.0), (0.5, 0.0)], [0.01, -1e-9]), "noises must be >= 0"),
        (track([0.0, 0.4], [(0.0, 0.0), (0.5, 0.0)], [np.nan, 0.01]), "noises must be >= 0"),
        (track([0.0, 0.4], [(0.0, 0.0, 0.0), (0.5, 0.0, 0.0)], 0.01), "1D or 2D"),
        (track([0.0, 0.4], [0.0, 0.5], 0.01), "1D or 2D"),
        ((np.array([0.0, 0.4, 0.8]), np.zeros((2, 2)), np.full(3, 0.01)), "one time and one noise"),
        ((np.array([0.0, 0.4]), np.zeros((2, 2)), np.full(3, 0.01)), "one time and one noise"),
    ])
    @pytest.mark.parametrize("alone", [True, False])
    @pytest.mark.filterwarnings("error::RuntimeWarning")  # a bad time is refused before any arithmetic on it
    def test_a_bad_track_is_refused(self, bad, message, alone):
        good = track([0.0, 0.4], [(0.0, 0.0), (0.5, 0.0)], 0.01)
        with pytest.raises(ValueError, match=message):
            group = [bad] if alone else [good, good, bad]
            fit_preference(group, make_grid(), KernelParams(), zero_lines(group))

    def test_the_fit_leaves_the_positions_alone(self):
        times, positions, noises = track([0.0, 0.4], [(1.0, 2.0), (1.5, 2.5)], 0.01)
        before = positions.copy()
        fit_preference([(times, positions, noises)], make_grid(), KernelParams(), [(0.4, (1.5, 2.5), (1.25, 1.25))])
        assert np.array_equal(positions, before)

    def test_noiseless_observations_interpolated_at_grid_times(self):
        grid = make_grid(steps=10)
        kp = KernelParams(length_scale=3.0, signal_var=2.0, jitter=1e-10)
        rng = np.random.default_rng(3)
        idx = [0, 4, 9]
        pts = rng.normal(size=(3, 2))
        obs = track(grid.times()[idx], pts, 0.0)
        gp = fit_preference([obs], grid, kp, zero_lines([obs]))[0]
        for i, p in zip(idx, pts):
            assert np.linalg.norm(gp.mean[i] - p) < 1e-6

    def test_posterior_variance_never_exceeds_prior(self):
        grid = make_grid()
        kp = KernelParams(length_scale=1.5, signal_var=3.0, jitter=1e-9)
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = rng.integers(1, 6)
            rows = [(rng.uniform(-2, 10), rng.normal(size=2), rng.uniform(0, 0.1)) for _ in range(n)]
            obs = track(*zip(*rows))
            gp = fit_preference([obs], grid, kp, zero_lines([obs]))[0]
            assert np.all(np.diag(gp._post.cov) <= kp.signal_var + kp.jitter + 1e-9)


class TestPriorLine:
    """A 1.2 m/s walker observed 8 times, 0.4 s apart, as the planner sees a pedestrian."""

    TIMES = np.arange(8) * 0.4  # the latest observation at 2.8 s is the line's t0
    GRID = TimeGrid(2.8, 0.4, 20)
    NOISE = 0.005

    def walk(self, start, vel):
        """The walker's positions, formed as the fit forms its line, so each
        lies on the line bit for bit."""
        return np.asarray(start) + (self.TIMES - 2.8)[:, None] * vel

    def fit(self, walk, line):
        return fit_preference([track(self.TIMES, walk, self.NOISE)], self.GRID, KernelParams(), [line])[0]

    def test_a_walker_on_its_line_is_extrapolated_exactly(self):
        start, vel = np.array([50.0, 50.0]), 1.2 * np.array([math.cos(0.3), math.sin(0.3)])
        walk = self.walk(start, vel)
        line = start + (self.GRID.times() - 2.8)[:, None] * vel
        # zero residuals: the posterior adds nothing to the line
        assert np.array_equal(self.fit(walk, (2.8, start, vel)).mean, line)
        # with the zero line the mean sags toward the world origin, 0.89 m one step ahead
        assert np.linalg.norm(self.fit(walk, (2.8, (0.0, 0.0), (0.0, 0.0))).mean[1] - line[1]) > 0.5

    def test_line_needs_one_component_per_axis(self):
        walk = self.walk((0.0, 0.0), np.array([1.2, 0.0]))
        with pytest.raises(ValueError, match="2 components"):
            self.fit(walk, (2.8, (0.0,), (1.2, 0.0)))

    @settings(max_examples=60, deadline=None)
    @given(
        start=st.tuples(st.floats(-100, 100), st.floats(-100, 100)),
        heading=st.floats(0, 2 * math.pi),
        speed=st.floats(0, 2),
        c=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_mean_and_samples_shift_with_the_world(self, start, heading, speed, c, seed):
        """Shifting every observation and the line's position by c shifts the
        mean and each sample by c, within k u (1 + |c|).

        Per axis, with a = ||A||_inf of the schedule, S the largest |coordinate|
        of the walk and its line over the grid, Q the largest |sample - mean|,
        and every rounding u relative (first order):
        - each residual y - m(t) of the shifted fit differs from the unshifted
          one (here 0) by at most u(3|c| + 4S): y + c and pos + c (made here),
          pos' + vel (t - t0) in the fit, and the unshifted pos + vel (t - t0);
        - the solve and product map that through A; their own rounding is
          relative to these O(u) residuals, so it is second order;
        - adding the line back takes pos' + vel (tau - t0) and the final sum,
          on both sides: u(3|c| + 5S) with the pos + c above;
        - a sample adds the same draw to either mean: u(|c| + 2(S + Q)) more.
        Together u((3a + 4)|c| + (4a + 7)(S + Q)), under k u (1 + |c|) with
        k = (4a + 7)(1 + S + Q). Here a = 12.9, S <= 116 and Q <= 15, so
        k <= 7800. Without the line, the step-1 mean moves by 0.989 c: it is
        off by 1.1e-2 |c|, 0.8 m at |c| = 70.
        """
        vel = speed * np.array([math.cos(heading), math.sin(heading)])
        start, c = np.array(start), np.array(c)
        walk = self.walk(start, vel)
        gp = self.fit(walk, (2.8, start, vel))
        moved = self.fit(walk + c, (2.8, start + c, vel))
        samples, moved_samples = (sample_trajectories([g], 20, [seed])[0].trajectories for g in (gp, moved))

        a = mean_operator_norm(self.TIMES, np.full(8, self.NOISE), self.GRID, KernelParams())
        scale = max(np.abs(walk).max(), np.abs(gp.mean).max())
        spread = np.abs(samples - gp.mean).max()
        assert a < 13 and scale < 116 and spread < 15
        bound = (4 * a + 7) * (1 + scale + spread) * U * (1 + np.abs(c).max())
        assert np.abs(moved.mean - c - gp.mean).max() <= bound
        assert np.abs(moved_samples - c - samples).max() <= bound


class TestSampleTrajectories:
    def test_empirical_mean_within_three_standard_errors(self):
        grid = make_grid(steps=8)
        kp = KernelParams(length_scale=2.0, signal_var=1.0, jitter=1e-10)
        obs = track([0.0, 2.8], [(0.0, 0.0), (3.0, 1.0)], 0.01)
        gp = fit_preference([obs], grid, kp, zero_lines([obs]))[0]
        m = 20000
        ss = sample_trajectories([gp], m, [42])[0]
        se = np.sqrt(np.diag(gp._post.cov) / m)
        err = np.abs(ss.trajectories.mean(axis=0) - gp.mean)
        assert np.all(err <= 3 * se[:, None] + 1e-12)

    def test_empirical_variance_within_ten_percent(self):
        grid = make_grid(steps=6)
        kp = KernelParams(length_scale=1.0, signal_var=2.0, jitter=1e-8)
        obs = track([0.0], [(0.0, 0.0)], 0.05)
        gp = fit_preference([obs], grid, kp, zero_lines([obs]))[0]
        ss = sample_trajectories([gp], 20000, [7])[0]
        emp = ss.trajectories.var(axis=0).mean(axis=1)  # average the two axes
        ref = np.diag(gp._post.cov)
        assert np.all(np.abs(emp - ref) <= 0.10 * ref)

    def test_seed_determinism(self):
        grid = make_grid(steps=4)
        gp = gp_of_cov(grid, np.zeros((4, 2)), np.eye(4) * 0.5)
        a = sample_trajectories([gp], 50, [123])[0]
        b = sample_trajectories([gp], 50, [123])[0]
        assert np.array_equal(a.trajectories, b.trajectories)
        assert np.array_equal(a.weights, np.ones(50))

    def test_m_zero_rejected(self):
        grid = make_grid(steps=2)
        gp = gp_of_cov(grid, np.zeros((2, 2)), np.eye(2))
        with pytest.raises(ValueError):
            sample_trajectories([gp], 0, [1])


class TestLogDensity:
    @staticmethod
    def log_density(gp, traj):
        return log_densities(gp, traj.states[None])[0]

    def test_maximized_at_mean(self):
        grid = make_grid(steps=5)
        rng = np.random.default_rng(5)
        a = rng.normal(size=(5, 5))
        gp = gp_of_cov(grid, rng.normal(size=(5, 2)), a @ a.T + 0.1 * np.eye(5))
        at_mean = self.log_density(gp, Trajectory(grid, gp.mean))
        for _ in range(20):
            other = Trajectory(grid, gp.mean + rng.normal(size=(5, 2)))
            assert self.log_density(gp, other) <= at_mean

    def test_symmetric_offsets_equal(self):
        grid = make_grid(steps=3)
        gp = gp_of_cov(grid, np.zeros((3, 2)), np.diag([1.0, 2.0, 0.5]))
        off = np.array([[0.3, -0.1], [0.2, 0.4], [-0.5, 0.1]])
        hi = self.log_density(gp, Trajectory(grid, off))
        lo = self.log_density(gp, Trajectory(grid, -off))
        assert abs(hi - lo) < 1e-9

    def test_unit_covariance_one_meter_drop(self):
        grid = TimeGrid(0.0, 1.0, 1)
        gp = gp_of_cov(grid, np.zeros((1, 2)), np.eye(1))
        at_mean = self.log_density(gp, Trajectory(grid, np.zeros((1, 2))))
        offset = self.log_density(gp, Trajectory(grid, np.array([[1.0, 0.0]])))
        assert abs((at_mean - offset) - 0.5) < 1e-12

    def test_grid_mismatch_raises(self):
        gp = gp_of_cov(make_grid(steps=3), np.zeros((3, 2)), np.eye(3))
        other = Trajectory(make_grid(steps=4), np.zeros((4, 2)))
        with pytest.raises(GridMismatchError):
            self.log_density(gp, other)


# how an agent's observation schedule relates to the group's first one
SCHEDULES = ["same", "shifted_times", "other_noise", "zero_noise_duplicates"]


def schedule_group(seed, n_obs, kinds, dim):
    """One track per kind; positions always differ between agents."""
    rng = np.random.default_rng(seed)
    base_t = np.sort(rng.uniform(-3.0, 8.0, n_obs))
    base_noise = rng.uniform(0.0, 0.1, n_obs)
    group = []
    for kind in kinds:
        t, noise = base_t.copy(), base_noise.copy()
        if kind == "shifted_times":
            t[-1] += 0.25
        elif kind == "other_noise":
            noise[0] += 0.01
        elif kind == "zero_noise_duplicates":
            t = np.repeat(t[:1], n_obs)
            noise = np.zeros(n_obs)
        pos = rng.normal(scale=2.0, size=(n_obs, dim))
        group.append(track(t, pos, noise))
    return group


def fit_or_error(group, grid, kp, priors):
    try:
        return fit_preference(group, grid, kp, priors)
    except (NumericalError, ValueError) as exc:
        return type(exc)


def reference_log_densities(gp, traj):
    """log_densities as computed before factors were shared: factorise on every call."""
    m, steps, dim = traj.shape
    low = _cholesky_psd(gp._post.cov + gp._post.jitter * np.eye(steps), gp._post.jitter)
    resid = (traj - gp.mean[None]).transpose(1, 0, 2).reshape(steps, m * dim)
    z = solve_triangular(low, resid, lower=True).reshape(steps, m, dim)
    quad = np.einsum("tmd,tmd->m", z, z)
    log_det_half = float(np.sum(np.log(np.diag(low))))
    return -0.5 * quad - dim * (log_det_half + 0.5 * steps * math.log(2.0 * math.pi))


class TestSharedPosterior:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_obs=st.integers(1, 9),
        kinds=st.lists(st.sampled_from(SCHEDULES), min_size=1, max_size=6),
        agents=st.integers(1, 70),  # 70 planar agents on one schedule: 140 columns in one solve
        dim=st.sampled_from([1, 2]),
        jitter=st.sampled_from([1e-8, 1e-18]),  # 1e-18 vanishes next to a unit Gram entry
    )
    def test_crowd_fit_equals_alone_fit_bit_for_bit(self, seed, n_obs, kinds, agents, dim, jitter):
        grid = make_grid(steps=12)
        kp = KernelParams(length_scale=2.0, signal_var=1.0, jitter=jitter)
        group = schedule_group(seed, n_obs, [kinds[k % len(kinds)] for k in range(agents)], dim)
        rng = np.random.default_rng(seed)
        line = lambda: (rng.uniform(-3.0, 8.0), rng.normal(size=dim), rng.normal(size=dim))
        lines = [(0.0, np.zeros(dim), np.zeros(dim)) if rng.random() < 0.3 else line() for _ in group]
        alone = [fit_or_error([obs], grid, kp, [line]) for obs, line in zip(group, lines)]
        crowd = fit_or_error(group, grid, kp, lines)
        errors = [fit for fit in alone if isinstance(fit, type)]
        if errors:
            assert crowd is errors[0]  # the first failing agent's error
            return
        assert len(crowd) == len(group)
        for got, (fresh,) in zip(crowd, alone):
            assert got.mean.tobytes() == fresh.mean.tobytes()
            assert got._post.cov.tobytes() == fresh._post.cov.tobytes()
            assert got._post.jitter == fresh._post.jitter

    def test_duplicate_zero_noise_times_escalate_jitter_once(self):
        grid = make_grid(steps=6)
        kp = KernelParams(length_scale=2.0, signal_var=1.0, jitter=1e-18)
        group = schedule_group(4, 3, ["zero_noise_duplicates"] * 3, 2)
        with mock.patch.object(distnav.gp, "_cholesky", wraps=distnav.gp._cholesky) as chol:
            fit_preference(group[:1], grid, kp, zero_lines(group[:1]))
            alone = chol.call_count
            assert alone > 1  # the first jitter is lost to rounding
            fit_preference(group, grid, kp, zero_lines(group))
        assert chol.call_count == 2 * alone

    @pytest.mark.parametrize("dim", [1, 2])
    def test_one_gram_cholesky_per_schedule(self, dim):
        grid = make_grid()
        group = schedule_group(9, 9, ["same"] * 5 + ["other_noise"] * 3, dim)
        with mock.patch.object(distnav.gp, "_cholesky", wraps=distnav.gp._cholesky) as chol:
            gps = fit_preference(group, grid, KernelParams(), zero_lines(group))
        assert chol.call_count == 2
        posts = [gp._post for gp in gps]
        assert all(post is posts[0] for post in posts[:5]) and posts[5] is not posts[0]
        assert all(post is posts[5] for post in posts[5:])
        assert len({gp.mean.tobytes() for gp in gps}) == len(gps)

    def test_shared_covariance_is_read_only(self):
        grid = make_grid(steps=4)
        group = [track([0.0], [(0.0, 0.0)], 0.01)]
        gp = fit_preference(group, grid, KernelParams(), zero_lines(group))[0]
        with pytest.raises(ValueError):
            gp._post.cov[0, 0] = 1.0

    def test_an_indefinite_posterior_is_refused(self):
        solve_lower = distnav.gp._solve_lower
        group = [track([0.0, 1.2], [(0.0, 0.0), (1.0, 0.5)], 0.01)]
        # v scaled by 10: the fit subtracts 100 v^T v where v^T v is about the prior
        with mock.patch.object(distnav.gp, "_solve_lower", lambda a, b: 10.0 * solve_lower(a, b)):
            with pytest.raises(ValueError, match="not positive semi-definite"):
                fit_preference(group, make_grid(steps=4), KernelParams(), zero_lines(group))

    def test_needs_one_line_per_agent(self):
        group = schedule_group(2, 3, ["same", "same"], 2)
        with pytest.raises(TypeError, match="priors"):
            fit_preference(group, make_grid(), KernelParams())
        for priors in (zero_lines(group)[:1], [None, *zero_lines(group)[1:]]):
            with pytest.raises(ValueError, match="one prior line per agent"):
                fit_preference(group, make_grid(), KernelParams(), priors)
        assert fit_preference([], make_grid(), KernelParams(), []) == []

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_obs=st.integers(1, 9),
        steps=st.integers(1, 20),
        m=st.integers(1, 40),
        dim=st.sampled_from([1, 2]),
    )
    def test_log_densities_equal_a_fresh_factorisation(self, seed, n_obs, steps, m, dim):
        grid = make_grid(steps=steps)
        kp = KernelParams(length_scale=2.0, signal_var=1.0)
        group = schedule_group(seed, n_obs, ["same", "same"], dim)
        gps = fit_preference(group, grid, kp, zero_lines(group))
        traj = np.random.default_rng(seed).normal(scale=2.0, size=(m, steps, dim))
        for gp in gps:
            ref = reference_log_densities(gp, traj)
            for _ in range(2):  # the second call reads the kept factor
                assert log_densities(gp, traj).tobytes() == ref.tobytes()


def loop_product(low, zt):
    """The sampling product as a loop over the factor's columns, in order: each
    column times the draws at its step, added into the rows it reaches."""
    out = np.zeros_like(zt)
    term = np.empty_like(zt)
    for s in range(zt.shape[0]):
        np.multiply(low[s:, s, None, None], zt[s], out=term[s:])
        out[s:] += term[s:]
    return out


class TestSamplingProduct:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        steps=st.integers(1, 25),
        m=st.integers(1, 60),
    )
    def test_planar_samples_equal_the_einsum_bit_for_bit(self, seed, steps, m):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(steps, steps))
        gp = gp_of_cov(make_grid(steps=steps), rng.normal(size=(steps, 2)),
                          a @ a.T / steps + 1e-3 * np.eye(steps), jitter=1e-9)
        got = sample_trajectories([gp], m, [seed])[0]
        z = np.random.default_rng(seed).standard_normal((m, steps, 2))
        low = _cholesky_psd(gp._post.cov, gp._post.jitter)
        ref = gp.mean[None, :, :] + np.einsum("ts,msd->mtd", low, z)
        assert got.trajectories.tobytes() == ref.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        steps=st.integers(1, 25),
        m=st.one_of(st.integers(1, 40), st.integers(1, 1100)),  # 1100 columns: wider than a full run at m=100
        dim=st.sampled_from([1, 2]),
        fortran=st.booleans(),
    )
    def test_product_equals_the_step_loop_bit_for_bit(self, seed, steps, m, dim, fortran):
        rng = np.random.default_rng(seed)
        low = np.tril(rng.normal(size=(steps, steps)))
        low = np.asfortranarray(low) if fortran else low
        zt = rng.standard_normal((steps, dim, m))
        assert _lower_product(low, zt).tobytes() == loop_product(low, zt).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        steps=st.integers(1, 25),
        m=st.one_of(st.integers(1, 60), st.integers(1, 1100)),
        dim=st.sampled_from([1, 2]),
    )
    def test_product_within_rounding_of_the_einsum(self, seed, steps, m, dim):
        rng = np.random.default_rng(seed)
        low = np.tril(rng.normal(size=(steps, steps)))
        z = rng.standard_normal((m, steps, dim))
        got = _lower_product(low, np.ascontiguousarray(z.transpose(1, 2, 0))).transpose(2, 0, 1)
        ref = np.einsum("ts,msd->mtd", low, z)
        bound = 4 * steps * np.finfo(float).eps * np.einsum("ts,msd->mtd", np.abs(low), np.abs(z))
        assert np.all(np.abs(got - ref) <= bound)
        if dim == 2:
            assert got.tobytes() == ref.tobytes()


class TestBatchSampling:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.lists(st.integers(1, 6), min_size=1, max_size=4),
        m=st.integers(1, 50),
        steps=st.integers(2, 25),
        dim=st.sampled_from([1, 2]),
    )
    def test_each_agent_gets_its_one_gp_samples_bit_for_bit(self, seed, sizes, m, steps, dim):
        grid = make_grid(steps=steps)
        kp = KernelParams(length_scale=2.0, signal_var=1.0)
        rng = np.random.default_rng(seed)
        group = []
        for g, size in enumerate(sizes):  # schedule g: g + 1 observations
            times = np.sort(rng.uniform(-3.0, 0.0, size=g + 1))
            group += [track(times, [rng.normal(size=dim) for _ in times], 0.01) for _ in range(size)]
        group = [group[k] for k in rng.permutation(len(group))]  # schedules interleaved
        gps = fit_preference(group, grid, kp, zero_lines(group))
        seeds = [seed + k for k in range(len(gps))]
        agents = [f"agent{k}" for k in range(len(gps))]

        with mock.patch.object(distnav.gp, "_lower_product", wraps=distnav.gp._lower_product) as product:
            crowd = sample_trajectories(gps, m, seeds, agents)
        per = max(1, distnav.gp._PRODUCT_COLUMNS // m)
        assert product.call_count == sum(-(-size // per) for size in sizes)  # one per schedule run
        assert len(crowd) == len(gps) and crowd.m == m * len(gps)
        assert crowd.block.shape == (len(gps) * m, steps, dim) and not crowd.block.flags.writeable
        for k, s in enumerate(crowd):
            assert s.trajectories.base is crowd.block
            assert np.array_equal(s.trajectories, crowd.block[k * m:(k + 1) * m])
        for gp, k, s in zip(gps, seeds, crowd):
            alone = sample_trajectories([gp], m, [k], [s.agent])[0]
            assert s.trajectories.tobytes() == alone.trajectories.tobytes()
            assert s.trajectories.shape == (m, steps, dim)
            assert s.trajectories.flags.c_contiguous and not s.trajectories.flags.writeable
            assert s.grid == gp.grid and np.array_equal(s.weights, np.ones(m))
            if dim == 2:
                z = np.random.default_rng(k).standard_normal((m, steps, 2))
                low = _cholesky_psd(gp._post.cov, gp._post.jitter)
                ref = gp.mean[None, :, :] + np.einsum("ts,msd->mtd", low, z)
                assert s.trajectories.tobytes() == ref.tobytes()
        assert [s.agent for s in crowd] == agents

    def test_needs_one_seed_and_one_agent_per_gp(self):
        gp = gp_of_cov(make_grid(steps=3), np.zeros((3, 2)), np.eye(3))
        with pytest.raises(ValueError, match="one seed and one agent per GP"):
            sample_trajectories([gp, gp], 4, [1])
        with pytest.raises(ValueError, match="one seed and one agent per GP"):
            sample_trajectories([gp], 4, [1], ["a", "b"])

    def test_no_gps_raises(self):
        with pytest.raises(ValueError, match="one \\(steps, dim\\), got \\[\\]"):
            sample_trajectories([], 5, [])

    def test_gps_of_one_call_share_steps_and_dim(self):
        planar = gp_of_cov(make_grid(steps=3), np.zeros((3, 2)), np.eye(3))
        for other in (gp_of_cov(make_grid(steps=3), np.zeros((3, 1)), np.eye(3)),
                      gp_of_cov(make_grid(steps=4), np.zeros((4, 2)), np.eye(4))):
            with pytest.raises(ValueError, match="one \\(steps, dim\\)"):
                sample_trajectories([planar, other], 4, [1, 2])

    def test_a_schedule_wider_than_one_product_takes_several(self, monkeypatch):
        monkeypatch.setattr(distnav.gp, "_PRODUCT_COLUMNS", 10)
        gp = gp_of_cov(make_grid(steps=4), np.zeros((4, 2)), np.eye(4) * 0.5)
        with mock.patch.object(distnav.gp, "_lower_product", wraps=distnav.gp._lower_product) as product:
            crowd = sample_trajectories([gp] * 7, 3, list(range(7)))
        assert product.call_count == 3  # three agents, three agents, one agent
        for k, s in enumerate(crowd):
            assert s.trajectories.tobytes() == sample_trajectories([gp], 3, [k])[0].trajectories.tobytes()

    def test_a_non_finite_mean_is_refused(self):
        gp = gp_of_cov(make_grid(steps=3), np.zeros((3, 2)), np.eye(3))
        gp.mean[1, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            sample_trajectories([gp], 4, [1])


def _failing_cholesky(fails):
    """A stand-in for ``_cholesky`` that fails its first ``fails`` calls, and
    the list of every matrix it was given."""
    seen = []
    real = distnav.gp._cholesky

    def chol(mat):
        seen.append(mat.copy())
        if len(seen) <= fails:
            raise np.linalg.LinAlgError("forced")
        return real(mat)

    return chol, seen


def _escalation(first, base, tries):
    """The jitters an escalation tries, by its own arithmetic."""
    jits = [first]
    for _ in range(tries - 1):
        jits.append(base if jits[-1] == 0.0 else 10.0 * jits[-1])
    return jits


class TestJitterEscalation:
    OBS = track([0.0, 1.2], [(0.0, 0.0), (1.0, 0.5)], 0.01)

    def gram(self, kp):
        t, _, noise = self.OBS
        return distnav.gp._se_kernel(t, t, kp) + np.diag(noise)

    def test_fit_escalates_from_the_kernel_jitter(self):
        kp = KernelParams(jitter=1e-6)
        chol, seen = _failing_cholesky(2)
        with mock.patch.object(distnav.gp, "_cholesky", chol):
            fit_preference([self.OBS], make_grid(steps=4), kp, zero_lines([self.OBS]))
        jits = _escalation(kp.jitter, kp.jitter, 3)
        assert len(seen) == 3
        for mat, jit in zip(seen, jits):
            assert np.array_equal(mat, self.gram(kp) + jit * np.eye(2))

    def test_fit_gives_up_after_four_tries(self):
        kp = KernelParams(jitter=1e-6)
        chol, seen = _failing_cholesky(100)
        with mock.patch.object(distnav.gp, "_cholesky", chol):
            with pytest.raises(NumericalError) as exc:
                fit_preference([self.OBS], make_grid(steps=4), kp, zero_lines([self.OBS]))
        assert len(seen) == 4
        last = 10.0 * _escalation(kp.jitter, kp.jitter, 4)[-1]
        assert str(exc.value).startswith(f"singular Gram matrix after jitter escalation to {last:g} (cond ~ ")

    def test_sample_factor_escalates_from_zero(self):
        cov = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
        gp = gp_of_cov(make_grid(steps=3), np.zeros((3, 2)), cov, jitter=1e-9)
        chol, seen = _failing_cholesky(2)
        with mock.patch.object(distnav.gp, "_cholesky", chol):
            sample_trajectories([gp], 4, [0])
        jits = _escalation(0.0, gp._post.jitter, 3)
        assert len(seen) == 3
        for mat, jit in zip(seen, jits):
            assert np.array_equal(mat, gp._post.cov + jit * np.eye(3))

    def test_sample_factor_gives_up_after_five_tries(self):
        gp = gp_of_cov(make_grid(steps=3), np.zeros((3, 2)), np.eye(3), jitter=1e-9)
        chol, seen = _failing_cholesky(100)
        with mock.patch.object(distnav.gp, "_cholesky", chol):
            with pytest.raises(NumericalError) as exc:
                sample_trajectories([gp], 4, [0])
        assert len(seen) == 5
        last = 10.0 * _escalation(0.0, gp._post.jitter, 5)[-1]
        assert str(exc.value).startswith(f"Cholesky failed after jitter escalation to {last:g} (cond ~ ")


def _same(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _raised(call):
    try:
        call()
    except Exception as exc:
        return type(exc)
    return None


class TestLapackWrappers:
    """The LAPACK wrappers against the scipy functions they mirror."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 25),
        order=st.sampled_from("CF"),
        rhs=st.sampled_from([(), (1,), (3,)]),
        ridge=st.floats(-10, 1),
    )
    def test_each_wrapper_is_scipys_bit_for_bit(self, seed, n, order, rhs, ridge):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n))
        spd = np.asarray(a @ a.T + 10.0**ridge * np.eye(n), order=order)
        b = rng.standard_normal((n, *rhs))
        low = _cholesky(spd)
        assert _same(low, cholesky(spd, lower=True))
        factor = np.asarray(low, order=order)
        assert factor.flags.f_contiguous == (order == "F" or n == 1)
        assert _same(_cho_solve(factor, b), cho_solve((factor, True), b))
        assert _same(_solve_lower(factor, b), solve_triangular(factor, b, lower=True))

    def test_not_positive_definite_raises_linalgerror_as_scipy(self):
        mat = np.array([[1.0, 2.0], [2.0, 1.0]])
        ours = _raised(lambda: _cholesky(mat))
        assert ours is _raised(lambda: cholesky(mat, lower=True)) is np.linalg.LinAlgError
        singular, b = np.array([[1.0, 0.0], [1.0, 0.0]]), np.ones(2)
        ours = _raised(lambda: _solve_lower(singular, b))
        assert ours is _raised(lambda: solve_triangular(singular, b, lower=True)) is np.linalg.LinAlgError

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["matrix", "rhs"])
    def test_non_finite_input_raises_valueerror_as_scipy(self, bad, where):
        mat = np.array([[2.0, 0.0], [1.0, 3.0]])
        b = np.ones((2, 1))
        if where == "matrix":
            mat[1, 0] = bad
        else:
            b[0, 0] = bad
        calls = [
            (lambda: _cho_solve(mat, b), lambda: cho_solve((mat, True), b)),
            (lambda: _solve_lower(mat, b), lambda: solve_triangular(mat, b, lower=True)),
        ]
        if where == "matrix":
            calls.append((lambda: _cholesky(mat), lambda: cholesky(mat, lower=True)))
        for ours, scipys in calls:
            assert _raised(ours) is _raised(scipys) is ValueError


class TestMoments1d:
    def test_standard_normal_moments(self):
        xs = np.linspace(-6, 6, 1201)
        ps = np.exp(-0.5 * xs**2) / math.sqrt(2 * math.pi)
        ps /= np.trapezoid(ps, xs)
        mom = moments_1d(xs, ps)
        assert abs(mom.mean) < 1e-9
        assert abs(mom.variance - 1.0) < 1e-3
        assert abs(mom.skew) < 1e-3
        assert abs(mom.excess_kurtosis) < 1e-2
        assert len(mom.modes) == 1

    def test_symmetric_bimodal_mixture(self):
        xs = np.linspace(-8, 8, 1601)
        ps = np.exp(-0.5 * ((xs - 2) / 0.7) ** 2) + np.exp(-0.5 * ((xs + 2) / 0.7) ** 2)
        ps /= np.trapezoid(ps, xs)
        mom = moments_1d(xs, ps)
        assert len(mom.modes) == 2
        assert abs(mom.skew) < 1e-9

    def test_shifted_exponential_has_positive_skew(self):
        lam, x0 = 2.0, 1.0
        xs = np.linspace(x0, x0 + 20 / lam, 4001)
        ps = lam * np.exp(-lam * (xs - x0))
        ps /= np.trapezoid(ps, xs)
        # independent quadrature oracle for the skew of this analytic density
        mu = np.trapezoid(xs * ps, xs)
        var = np.trapezoid((xs - mu) ** 2 * ps, xs)
        skew_oracle = np.trapezoid((xs - mu) ** 3 * ps, xs) / var**1.5
        mom = moments_1d(xs, ps)
        assert mom.skew > 0
        assert abs(mom.skew - skew_oracle) < 1e-9
        assert abs(skew_oracle - 2.0) < 0.05  # exponential skew is exactly 2

    def test_non_normalized_rejected(self):
        xs = np.linspace(0, 1, 101)
        with pytest.raises(ValueError):
            moments_1d(xs, np.full(101, 2.0))
