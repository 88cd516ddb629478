import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import gaussian_kde

from distnav import collision, engine
from distnav.collision import CollisionKernel, joint_expected_penalty, penalty_matrix
from distnav.engine import (
    PenaltyCache,
    SolverConfig,
    _current_gamma,
    _seed,
    _sweep,
    _update_agent,
    interaction_scores,
    select_critical,
    select_optimal,
    solve,
)
from distnav.errors import NumericalError
from distnav.gp import KernelParams, sample_trajectories
from distnav.grids import TimeGrid
from distnav.samples import SampleSet

from helpers import GRID_1D, U, crowd_of, gaussian_sets_1d, gp_of_cov, random_instance, straight_line_trajectory

SIGMA = 0.35
UNIT_PEAK = CollisionKernel(weight=2 * math.pi * SIGMA**2, sigma=SIGMA)  # peak = 1
GRID1 = TimeGrid(0.0, 0.4, 1)


def hand_case_sets():
    """Two agents, two samples each: psi(a1,b1)=1, all other pairs ~0."""
    a = SampleSet("A", GRID1, np.array([[[0.0, 0.0]], [[100.0, 0.0]]]), np.ones(2))
    b = SampleSet("B", GRID1, np.array([[[0.0, 0.0]], [[200.0, 0.0]]]), np.ones(2))
    return [a, b]


class TestGammaHat:
    def test_single_other_agent_unit_weights_is_plain_mean(self):
        rng = np.random.default_rng(0)
        grid = TimeGrid(0.0, 0.4, 5)
        kernel = CollisionKernel(10.0, 0.35)
        a = SampleSet("a", grid, rng.normal(size=(3, 5, 2)), np.ones(3))
        b = SampleSet("b", grid, rng.normal(size=(7, 5, 2)), np.ones(7))
        cache = PenaltyCache([a, b], kernel)
        expected = penalty_matrix(a, b, kernel)[1].mean()
        assert _current_gamma(0, [a, b], cache)[1] == pytest.approx(expected, rel=1e-12)

    def test_no_other_agents_is_zero(self):
        rng = np.random.default_rng(1)
        a = SampleSet("a", GRID1, rng.normal(size=(4, 1, 2)), np.ones(4))
        cache = PenaltyCache([a], CollisionKernel(10.0, 0.35))
        assert _current_gamma(0, [a], cache)[2] == 0.0

    def test_hand_case_first_sample(self):
        sets = hand_case_sets()
        cache = PenaltyCache(sets, UNIT_PEAK)
        assert _current_gamma(0, sets, cache)[0] == pytest.approx(0.5, abs=1e-12)

    def test_reads_the_weights_of_agents_already_updated(self):
        sets = hand_case_sets()
        cache = PenaltyCache(sets, UNIT_PEAK)
        _update_agent(0, sets, cache, set())
        assert _current_gamma(1, sets, cache)[0] == pytest.approx(sets[0].weights[0] / 2, abs=1e-12)


class TestUpdateAgent:
    def test_zero_gamma_keeps_weights_and_zero_kl(self):
        rng = np.random.default_rng(2)
        grid = TimeGrid(0.0, 0.4, 3)
        a = SampleSet("a", grid, rng.normal(size=(5, 3, 2)), np.ones(5))
        b = SampleSet("b", grid, 1000.0 + rng.normal(size=(5, 3, 2)), np.ones(5))
        cache = PenaltyCache([a, b], CollisionKernel(10.0, 0.35))
        kl, _ = _update_agent(0, [a, b], cache, set())
        assert kl == pytest.approx(0.0, abs=1e-15)
        assert np.allclose(a.weights, 1.0)

    def test_hand_case_weights(self):
        sets = hand_case_sets()
        cache = PenaltyCache(sets, UNIT_PEAK)
        _update_agent(0, sets, cache, set())
        assert np.allclose(sets[0].weights, [0.7551, 1.2449], atol=1e-4)
        _update_agent(1, sets, cache, {0})
        assert np.allclose(sets[1].weights, [0.8135, 1.1865], atol=1e-4)

    def test_normalization_after_update(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            sets, kernel = random_instance(rng)
            cache = PenaltyCache(sets, kernel)
            _update_agent(0, sets, cache, set())
            assert abs(sets[0].weights.mean() - 1.0) < 1e-9

    def test_huge_penalty_update_is_exact(self):
        # gamma_hat near 6e7 on both samples: the shift cancels it exactly
        kernel = CollisionKernel(weight=1e6, sigma=0.05)
        states = np.zeros((2, 1, 2))
        a = SampleSet("a", GRID1, states, np.full(2, 1e-300))
        b = SampleSet("b", GRID1, states.copy(), np.ones(2))
        cache = PenaltyCache([a, b], kernel)
        assert _current_gamma(0, [a, b], cache)[0] > 1e7
        assert _update_agent(0, [a, b], cache, set()) == (0.0, 0)
        assert np.allclose(a.weights, 1.0, rtol=1e-15, atol=0.0)
        # one sample 6e7 above the other: exactly zero weight, KL exactly log 2
        a = SampleSet("a", GRID1, np.array([[[0.0, 0.0]], [[100.0, 0.0]]]), np.ones(2))
        kl, zeroed = _update_agent(0, [a, b], PenaltyCache([a, b], kernel), set())
        assert a.weights.tolist() == [0.0, 2.0]
        assert kl == math.log(2.0)
        assert zeroed == 1

    def test_shift_ignores_samples_without_weight(self):
        # a shift by the zero-weight sample's gamma would underflow the others
        s = SampleSet("a", GRID1, np.zeros((3, 1, 2)), np.array([0.0, 1.0, 1.0]))
        kl, zeroed = engine._reweight(0, [s], np.array([0.0, 1e4, 1e4 + math.log(3.0)]))
        assert np.allclose(s.weights, [0.0, 2.25, 0.75], rtol=1e-11, atol=0.0)
        assert kl == pytest.approx(0.75 * math.log(3.0) - math.log(2.0), rel=1e-11)
        assert zeroed == 0


def unshifted_update(old, gamma):
    """old * exp(-gamma), renormalised to mean 1, and its KL divergence from
    old by the definition."""
    new = old * np.exp(-gamma)
    total = new.sum()
    q_new, q_old = new / total, old / old.sum()
    nz = q_new > 0
    return new * (old.size / total), float(np.sum(q_new[nz] * np.log(q_new[nz] / q_old[nz])))


class TestReweightProperty:
    @settings(max_examples=200, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(st.one_of(st.just(0.0), st.floats(0.1, 10.0)), st.floats(0.0, 700.0)),
            min_size=1,
            max_size=50,
        ).filter(lambda pairs: any(w > 0 for w, _ in pairs)),
    )
    def test_shift_changes_nothing_where_the_unshifted_update_does_not_underflow(self, pairs):
        """Weights in [0.1, 10] and gamma in [0, 700] keep old * exp(-gamma)
        above 1e-305, a normal float, so the unshifted update is exact up to
        rounding. Both normalise the same old * exp(-gamma), and each side's
        rounding moves |ln weight| by at most 2uG (the shift, G the largest
        gamma), 2(8u + u) (exp within 4 ulps and the product with old, in a
        sample and in the normaliser) and 2 gamma_{m-1} + 2u (the
        normaliser's additions, m / T and the last product), as in the
        per-pair property below. Either KL sums m terms of size at most
        2G + 1 with a few roundings each: gamma_{m+4} (2G + 1) bounds each
        side's error."""
        old = np.array([w for w, _ in pairs])
        gamma = np.array([g for _, g in pairs])
        m, big = old.size, float(gamma.max())
        want, want_kl = unshifted_update(old, gamma)
        s = SampleSet("a", GRID1, np.zeros((m, 1, 2)), old)
        kl, zeroed = engine._reweight(0, [s], gamma)
        own = 2 * U * big + 2 * (8 * U + U) + 2 * gam(m - 1) + 2 * U
        assert zeroed == 0
        assert np.array_equal(s.weights == 0.0, old == 0.0)
        live = old > 0
        assert np.all(np.abs(np.log(s.weights[live] / want[live])) <= 2 * own)
        assert abs(kl - want_kl) <= 2 * gam(m + 4) * (2 * big + 1)


class TestSweep:
    def test_far_agents_are_a_fixed_point(self):
        rng = np.random.default_rng(4)
        grid = TimeGrid(0.0, 0.4, 3)
        sets = [
            SampleSet(k, grid, 1e4 * k + rng.normal(size=(6, 3, 2)), np.ones(6))
            for k in range(3)
        ]
        kernel = CollisionKernel(10.0, 0.35)
        cache = PenaltyCache(sets, kernel)
        kl_sum, _, jc = _sweep(sets, cache, *_seed(sets, cache))
        assert kl_sum < 1e-12
        assert jc < 1e-20
        for s in sets:
            assert np.allclose(s.weights, 1.0, atol=1e-12)

    def test_hand_case_objective_drop(self):
        sets = hand_case_sets()
        cache = PenaltyCache(sets, UNIT_PEAK)
        assert joint_expected_penalty(sets, UNIT_PEAK) == pytest.approx(0.25, abs=1e-12)
        _, _, jc = _sweep(sets, cache, *_seed(sets, cache))
        assert jc == pytest.approx(0.25 * 0.7551 * 0.8135, abs=1e-3)

    def test_decrease_bounded_by_kl_sum(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            sets, kernel = random_instance(rng)
            cache = PenaltyCache(sets, kernel)
            before = joint_expected_penalty(sets, kernel)
            kl_sum, _, after = _sweep(sets, cache, *_seed(sets, cache))
            assert before - after >= kl_sum - 1e-9


class TestSolve:
    def test_epsilon_above_initial_runs_zero_sweeps(self):
        sets = hand_case_sets()
        report = solve(sets, UNIT_PEAK, SolverConfig(epsilon=1.0, max_sweeps=10))
        assert report.sweeps == 0
        assert report.objective_trace == []
        assert report.terminated_by == "objective_threshold"
        assert report.initial_objective == pytest.approx(0.25, abs=1e-12)

    def test_far_agents_converge_on_the_first_sweep(self):
        # no penalty anywhere: sum KL = J = 0, which the relative rule takes even at rtol 0
        grid = TimeGrid(0.0, 0.4, 2)
        for rtol in (0.0, 1e-3):
            rng = np.random.default_rng(6)
            sets = [
                SampleSet(k, grid, 1e4 * k + rng.normal(size=(5, 2, 2)), np.ones(5))
                for k in range(2)
            ]
            report = solve(sets, CollisionKernel(10.0, 0.35), SolverConfig(epsilon=0.0, rtol=rtol))
            assert report.terminated_by == "converged"
            assert report.sweeps == 1
            assert report.kl_trace == report.objective_trace == [0.0]

    def test_objective_trace_non_increasing(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            sets, kernel = random_instance(rng)
            report = solve(sets, kernel, SolverConfig(epsilon=0.0, max_sweeps=8))
            trace = [report.initial_objective] + report.objective_trace
            assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))

    def test_middle_agent_goes_bimodal_when_squeezed(self):
        # middle agent squeezed between two near neighbours splits outward
        sets = gaussian_sets_1d([0.0, -0.5, 0.5], sigma=0.8, m=5000, seed=7)
        kernel = CollisionKernel(weight=10.0, sigma=0.3)
        solve(sets, kernel, SolverConfig(epsilon=0.0, max_sweeps=10))
        mid = sets[0]
        kde = gaussian_kde(mid.trajectories[:, 0, 0], weights=mid.weights)
        xs = np.linspace(-4.0, 4.0, 801)
        ys = kde(xs)
        peak = ys.max()
        modes = [
            xs[k]
            for k in range(1, 800)
            if ys[k] > ys[k - 1] and ys[k] > ys[k + 1] and ys[k] > 0.05 * peak
        ]
        assert len(modes) >= 2

    def test_head_on_agents_contract_objective(self):
        # two agents crossing head-on with a slight lateral offset; the
        # 1D grid oracle on the lateral projection contracts to ~0.1% of the
        # initial objective, so 5% is a loose bound for the sampled engine
        grid = TimeGrid(0.0, 0.4, 16)
        kp = KernelParams(length_scale=3.0, signal_var=0.25, jitter=1e-10)
        tt = np.linspace(0, 1, 16)
        cov = 0.25 * np.exp(-0.5 * ((tt[:, None] - tt[None, :]) * 6.0 / 3.0) ** 2)
        cov += 1e-10 * np.eye(16)
        mean_a = np.stack([np.linspace(0, 6, 16), np.full(16, 0.1)], axis=1)
        mean_b = np.stack([np.linspace(6, 0, 16), np.full(16, -0.1)], axis=1)
        gp_a = gp_of_cov(grid, mean_a, cov, jitter=1e-10)
        gp_b = gp_of_cov(grid, mean_b, cov, jitter=1e-10)
        sets = list(sample_trajectories([gp_a, gp_b], 5000, [21, 22], ["a", "b"]))
        kernel = CollisionKernel(weight=10.0, sigma=0.35)
        report = solve(sets, kernel, SolverConfig(epsilon=0.0, max_sweeps=25))
        assert report.objective_trace[-1] < 0.05 * report.initial_objective

    def test_single_set_rejected(self):
        rng = np.random.default_rng(8)
        a = SampleSet("a", GRID1, rng.normal(size=(3, 1, 2)), np.ones(3))
        with pytest.raises(ValueError):
            solve([a], CollisionKernel(10.0, 0.35))

    def test_zero_weights_counted(self):
        rng = np.random.default_rng(13)
        grid = TimeGrid(0.0, 0.4, 1)
        near = rng.normal(scale=0.001, size=(4, 1, 2))
        a = SampleSet("a", grid, near, np.ones(4))
        b = SampleSet("b", grid, near + 0.001, np.ones(4))
        hot = CollisionKernel(weight=1e6, sigma=0.01)  # gamma_hat gaps far past exp's range
        report = solve([a, b], hot, SolverConfig(epsilon=0.0, max_sweeps=1))
        zeros = sum(int(np.count_nonzero(s.weights == 0.0)) for s in (a, b))
        assert report.zero_weights == zeros > 0
        for s in (a, b):
            assert np.all(np.isfinite(s.weights))
            assert s.weights.mean() == pytest.approx(1.0, rel=1e-15)

    def test_determinism_bit_identical(self):
        def run():
            sets = gaussian_sets_1d([-1.0, 0.0, 1.0], sigma=0.5, m=400, seed=3)
            solve(sets, CollisionKernel(10.0, 0.3), SolverConfig(epsilon=0.0, max_sweeps=5))
            return [s.weights.copy() for s in sets]

        first, second = run(), run()
        for w1, w2 in zip(first, second):
            assert np.array_equal(w1, w2)

    def test_permutation_orders_all_satisfy_decrease(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            sets, kernel = random_instance(rng)
            n = len(sets)
            for _ in range(3):
                copies = copied([sets[i] for i in rng.permutation(n)])
                report = solve(copies, kernel, SolverConfig(epsilon=0.0, max_sweeps=4))
                trace = [report.initial_objective] + report.objective_trace
                for (a, b), kl in zip(zip(trace, trace[1:]), report.kl_trace):
                    assert b <= a - kl + 1e-9


class TestInteractionScores:
    def test_far_agent_scores_near_zero(self):
        rng = np.random.default_rng(10)
        grid = TimeGrid(0.0, 0.4, 8)
        intent = straight_line_trajectory(grid, (0, 0), (5, 0))
        far = SampleSet("far", grid, 1e3 + rng.normal(size=(10, 8, 2)), np.ones(10))
        scores = interaction_scores(intent, crowd_of([far]), CollisionKernel(10.0, 0.35))
        assert scores["far"] < 1e-20

    def test_identical_samples_score_peak(self):
        grid = TimeGrid(0.0, 0.4, 8)
        kernel = CollisionKernel(10.0, 0.35)
        intent = straight_line_trajectory(grid, (0, 0), (5, 0))
        same = SampleSet("same", grid, np.repeat(intent.states[None], 4, axis=0), np.ones(4))
        scores = interaction_scores(intent, crowd_of([same]), kernel)
        assert scores["same"] == pytest.approx(kernel.peak(2), rel=1e-12)

    def test_crossing_agent_scores_highest(self):
        rng = np.random.default_rng(11)
        grid = TimeGrid(0.0, 0.4, 10)
        kernel = CollisionKernel(10.0, 0.35)
        intent = straight_line_trajectory(grid, (0, 0), (6, 0))

        def ped(agent, start, end):
            base = straight_line_trajectory(grid, start, end).states
            states = base + 0.05 * rng.normal(size=(20, 10, 2))
            return SampleSet(agent, grid, states, np.ones(20))

        crossing = ped("crossing", (3, -2), (3, 2))
        parallel = ped("parallel", (0, 3), (6, 3))
        away = ped("away", (-5, -5), (-10, -8))
        scores = interaction_scores(intent, crowd_of([crossing, parallel, away]), kernel)
        assert scores["crossing"] > scores["parallel"]
        assert scores["crossing"] > scores["away"]


class TestSelectCritical:
    def test_zero_threshold_keeps_all_positive(self):
        scores = {"p1": 0.2, "p2": 0.01, "p3": 1.5}
        out = select_critical(scores, 0.0, robot="R")
        assert out[0] == "R"
        assert set(out[1:]) == {"p1", "p2", "p3"}

    def test_threshold_above_max_keeps_robot_only(self):
        scores = {"p1": 0.2, "p2": 0.3}
        assert select_critical(scores, 0.5, robot="R") == ["R"]

    def test_strict_inequality_filtering(self):
        scores = {"a": 0.1, "b": 0.3, "c": 0.5}
        out = select_critical(scores, 0.3, robot="R")
        assert out == ["R", "c"]


class TestSelectOptimal:
    def make_gp(self, grid):
        return gp_of_cov(grid, np.zeros((grid.steps, 2)), np.eye(grid.steps))

    def test_equal_weights_pick_max_prior_density(self):
        grid = TimeGrid(0.0, 0.4, 3)
        gp = self.make_gp(grid)
        states = np.stack(
            [np.full((3, 2), 2.0), np.full((3, 2), 0.5), np.full((3, 2), 1.0)]
        )
        s = SampleSet("a", grid, states, np.ones(3))
        best = select_optimal([s], {"a": gp})
        assert np.array_equal(best["a"].states, states[1])

    def test_dominant_weight_wins(self):
        grid = TimeGrid(0.0, 0.4, 3)
        gp = self.make_gp(grid)
        states = np.stack([np.full((3, 2), 1.0), np.full((3, 2), -1.0)])
        s = SampleSet("a", grid, states, np.array([1e6, 1.0]))
        best = select_optimal([s], {"a": gp})
        assert np.array_equal(best["a"].states, states[0])

    def test_hand_case_selects_second_samples(self):
        # symmetric sample pairs have equal prior density; weights decide
        grid = GRID_1D
        gp = gp_of_cov(grid, np.zeros((1, 1)), np.eye(1))
        a = SampleSet("A", grid, np.array([[[0.5]], [[-0.5]]]), np.array([0.7551, 1.2449]))
        b = SampleSet("B", grid, np.array([[[0.5]], [[-0.5]]]), np.array([0.8135, 1.1865]))
        best = select_optimal([a, b], {"A": gp, "B": gp})
        assert best["A"].states[0, 0] == -0.5
        assert best["B"].states[0, 0] == -0.5

    def test_weight_scaling_invariance(self):
        rng = np.random.default_rng(12)
        grid = TimeGrid(0.0, 0.4, 4)
        gp = gp_of_cov(grid, np.zeros((4, 2)), np.eye(4))
        states = rng.normal(size=(6, 4, 2))
        w = rng.uniform(0.1, 2.0, size=6)
        one = select_optimal([SampleSet("a", grid, states, w)], {"a": gp})
        two = select_optimal([SampleSet("a", grid, states, 17.0 * w)], {"a": gp})
        assert np.array_equal(one["a"].states, two["a"].states)

    def test_zero_weights_excluded_and_all_zero_rejected(self):
        grid = TimeGrid(0.0, 0.4, 2)
        gp = gp_of_cov(grid, np.zeros((2, 2)), np.eye(2))
        states = np.stack([np.zeros((2, 2)), np.ones((2, 2))])
        s = SampleSet("a", grid, states, np.array([0.0, 1.0]))
        best = select_optimal([s], {"a": gp})
        assert np.array_equal(best["a"].states, states[1])
        s_all_zero = SampleSet("a", grid, states, np.zeros(2))
        with pytest.raises(NumericalError):
            select_optimal([s_all_zero], {"a": gp})


class TestSufficientDecreaseProperty:
    def test_random_instances_decrease_by_at_least_kl(self):
        rng = np.random.default_rng(1234)
        for _ in range(60):
            sets, kernel = random_instance(rng)
            cache = PenaltyCache(sets, kernel)
            jc = joint_expected_penalty(sets, kernel)
            for _ in range(3):
                kl_sum, _, jc_next = _sweep(sets, cache, *_seed(sets, cache))
                assert jc_next <= jc - kl_sum + 1e-9
                if kl_sum > 1e-12:
                    assert jc_next < jc
                jc = jc_next


def crowd_sets(seed, sizes, steps, dim):
    """Overlapping Gaussian clouds of unequal size on one grid, random weights."""
    rng = np.random.default_rng(seed)
    grid = TimeGrid(0.0, 0.4, steps)
    return [
        SampleSet(
            k,
            grid,
            rng.uniform(-1.0, 1.0, size=dim) + rng.normal(scale=0.6, size=(m, steps, dim)),
            rng.uniform(0.2, 2.0, m),
        )
        for k, m in enumerate(sizes)
    ]


def copied(sets):
    return [SampleSet(s.agent, s.grid, s.trajectories, s.weights.copy()) for s in sets]


def gam(k):
    """gamma_k = k u / (1 - k u): the relative error bound of k roundings."""
    return k * U / (1 - k * U)


def per_pair_gamma(i, sets, kernel):
    """gamma_hat of agent i from dense per-pair penalty matrices (i < j,
    transposed for j > i): (M_ij @ w_j) / m_j per partner, added in index order."""
    gamma = np.zeros(sets[i].m)
    for j in range(len(sets)):
        if j != i:
            mat = penalty_matrix(sets[min(i, j)], sets[max(i, j)], kernel)
            gamma += (mat if i < j else mat.T) @ sets[j].weights / sets[j].m
    return gamma


class TestSweepProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.lists(st.integers(1, 25), min_size=2, max_size=4),
        steps=st.integers(1, 6),
        dim=st.sampled_from([1, 2]),
    )
    def test_objective_trace_is_the_objective_after_each_sweep(self, seed, sizes, steps, dim):
        sets = crowd_sets(seed, sizes, steps, dim)
        kernel = CollisionKernel(weight=5.0, sigma=0.5)
        for order in itertools.permutations(range(len(sets))):
            for sweeps in (1, 2, 3):
                run = copied([sets[i] for i in order])
                report = solve(run, kernel, SolverConfig(epsilon=0.0, max_sweeps=sweeps))
                direct = joint_expected_penalty(run, kernel)
                # abs_tol only matters where the objective itself nears underflow
                assert math.isclose(report.objective_trace[-1], direct, rel_tol=1e-12, abs_tol=1e-300)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.lists(st.one_of(st.just(1), st.integers(1, 25)), min_size=2, max_size=4),
        steps=st.integers(1, 6),
        dim=st.sampled_from([1, 2]),
        transform=st.booleans(),
    )
    def test_every_update_is_within_the_rounding_bound_of_a_per_pair_update(
        self, seed, sizes, steps, dim, transform
    ):
        """Each update of a solve, in every order, against a per-pair update
        from the same weights.

        Either gamma sums M = sum_{j != i} m_j nonnegative terms
        psi * w_j / m_j, each rounded twice, with M - 1 additions, so each is
        within gamma_{M+1} of the exact gamma, relative, and the two differ
        by at most D = 2 gamma_{M+1} / (1 - gamma_{M+1}) times the per-pair
        one. On the Gauss transform path (1D single-step sets) each of the
        n - 1 stacked products is within 1e-13 * peak * sum_y w_j,y / m_j =
        1e-13 * peak of the dense product (collision.GaussTransform), and
        n - 2 more additions round them, so D gains
        1e-13 * peak * (n - 1) * (1 + gamma_n).

        Both gammas then go through ``_reweight``. Moving every gamma by at
        most max D moves each normalised weight old * exp(-gamma) / sum(...)
        by a factor within exp(+-2 max D). Against the exact update of its
        own gamma, each side's arithmetic adds at most 2uG to |ln weight|
        (the shift, u relative on values at most G, the largest gamma, in the
        sample and in the normaliser), 2(8u + u) (exp within 4 ulps, the
        product with old), 2 gamma_{m-1} (the normaliser's m - 1 additions)
        and 2u (m / T and the last product). No weight here gets near
        underflow, so every bound is relative.
        """
        kernel = CollisionKernel(weight=5.0, sigma=0.5)
        sets = line_sets(seed, sizes) if transform else crowd_sets(seed, sizes, steps, dim)
        run_solve = transform_solve if transform else solve
        real = engine._reweight

        def checked(i, current, gamma):
            want = per_pair_gamma(i, current, kernel)
            n, m = len(current), current[i].m
            gap = 2 * gam(sum(sizes) - m + 1) / (1 - gam(sum(sizes) - m + 1)) * want
            if transform:
                gap += 1e-13 * kernel.peak(1) * (n - 1) * (1 + gam(n))
            assert np.all(np.abs(gamma - want) <= gap)
            reference = copied(current)
            real(i, reference, want)
            result = real(i, current, gamma)
            big = max(gamma.max(), want.max())
            own = 2 * U * big + 2 * (8 * U + U) + 2 * gam(m - 1) + 2 * U  # each side's rounding
            bound = 2 * gap.max() + 2 * own
            got, ref = current[i].weights, reference[i].weights
            assert np.all(ref > 0.0)
            assert np.all(np.abs(np.log(got / ref)) <= bound)
            return result

        for order in itertools.permutations(range(len(sets))):
            config = SolverConfig(epsilon=0.0, max_sweeps=4)
            with mock.patch.object(engine, "_reweight", side_effect=checked) as updates:
                report = run_solve(copied([sets[i] for i in order]), kernel, config)
            assert updates.call_count == report.sweeps * len(sets) > 0

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.lists(st.integers(1, 25), min_size=2, max_size=4),
        steps=st.integers(1, 6),
        dim=st.sampled_from([1, 2]),
    )
    def test_gamma_hat_is_the_gamma_each_update_applies(self, seed, sizes, steps, dim):
        sets = crowd_sets(seed, sizes, steps, dim)
        kernel = CollisionKernel(weight=5.0, sigma=0.5)
        cache = PenaltyCache(sets, kernel)  # the cache solve() builds, bit for bit
        real = engine._reweight
        applied = []

        def checked(i, current, gamma):
            applied.append(_current_gamma(i, current, cache).tobytes() == gamma.tobytes())
            return real(i, current, gamma)

        with mock.patch.object(engine, "_reweight", side_effect=checked):
            report = solve(sets, kernel, SolverConfig(epsilon=0.0, max_sweeps=3))
        assert applied == [True] * report.sweeps * len(sets)


class TestWeightFloor:
    """A heavy kernel drives weights below 1e-300 within ten sweeps; the
    product operand drops them, the weights keep them."""

    KERNEL = CollisionKernel(weight=200.0, sigma=0.5)
    CONFIG = SolverConfig(epsilon=0.0, max_sweeps=10, rtol=0.0)  # all ten sweeps, however small their KL

    def deep_solve(self, seed):
        sets = crowd_sets(seed, [20, 25, 30], 3, 2)
        return sets, solve(sets, self.KERNEL, self.CONFIG)

    @pytest.mark.parametrize("seed", [0, 2, 4])
    def test_solve_is_bit_identical_to_the_solve_without_floor(self, seed, monkeypatch):
        sets, report = self.deep_solve(seed)
        monkeypatch.setattr(engine, "_WEIGHT_FLOOR", 0.0)
        bare_sets, bare = self.deep_solve(seed)
        weights = np.concatenate([s.weights for s in sets])
        assert np.any((weights > 0.0) & (weights < 1e-300))
        assert weights.tobytes() == np.concatenate([s.weights for s in bare_sets]).tobytes()
        assert report == bare  # objective and KL traces, J_0, sweeps, zero counts

    def test_operand_holds_no_entry_below_the_floor(self):
        def floored(sets):
            exact = np.concatenate([s.weights / s.m for s in sets])
            return np.where(exact < engine._WEIGHT_FLOOR, 0.0, exact)

        def checked_seed(sets, cache):
            v, later = real_seed(sets, cache)
            seeded.append(np.array_equal(v, floored(sets)))
            return v, later

        def checked_sweep(sets, cache, v, later):
            result = real_sweep(sets, cache, v, later)
            swept.append(np.array_equal(v, floored(sets)))
            return result

        seeded, swept = [], []
        real_seed, real_sweep = engine._seed, engine._sweep
        with mock.patch.object(engine, "_seed", side_effect=checked_seed), \
                mock.patch.object(engine, "_sweep", side_effect=checked_sweep):
            self.deep_solve(0)
        assert seeded == [True]
        assert swept == [True] * 10

    def test_weights_below_the_floor_keep_their_values(self):
        sets, _ = self.deep_solve(0)
        before = [s.weights.copy() for s in sets]
        tiny = sum(np.count_nonzero((w > 0.0) & (w / w.size < engine._WEIGHT_FLOOR)) for w in before)
        v, _ = engine._seed(sets, PenaltyCache(sets, self.KERNEL))
        assert tiny > 0
        assert np.count_nonzero(v == 0.0) == tiny + sum(np.count_nonzero(w == 0.0) for w in before)
        for s, w in zip(sets, before):
            assert s.weights.tobytes() == w.tobytes()


def normalised(sets):
    """The sets with each agent's weights scaled to mean 1, as the objective's
    sufficient decrease assumes."""
    for s in sets:
        s.weights = s.weights * (s.m / s.weights.sum())
    return sets


class TestRelativeStop:
    """A solve stops after the first sweep whose KL sum is at most rtol times
    the objective it leaves."""

    KERNEL = CollisionKernel(weight=50.0, sigma=0.5)

    @pytest.mark.parametrize("seed", [0, 1, 2])  # stops after 17, 20 and 4 sweeps
    def test_stopped_solve_is_the_solve_of_that_many_sweeps(self, seed):
        sets = normalised(crowd_sets(seed, [20, 25, 30], 3, 2))
        stopped, fixed = copied(sets), copied(sets)
        report = solve(stopped, self.KERNEL, SolverConfig(epsilon=0.0, rtol=1e-3))
        assert report.terminated_by == "converged"
        assert 1 < report.sweeps < 30
        want = solve(fixed, self.KERNEL, SolverConfig(epsilon=0.0, max_sweeps=report.sweeps, rtol=0.0))
        assert want.terminated_by == "max_sweeps"
        assert report.objective_trace == want.objective_trace
        assert report.kl_trace == want.kl_trace
        assert report.initial_objective == want.initial_objective
        assert report.zero_weights == want.zero_weights
        for a, b in zip(stopped, fixed):
            assert a.weights.tobytes() == b.weights.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.lists(st.integers(1, 25), min_size=2, max_size=4),
        steps=st.integers(1, 6),
        dim=st.sampled_from([1, 2]),
        weight=st.floats(0.5, 20.0),
        rtol=st.sampled_from([0.0, 1e-4, 1e-3, 1e-2, 0.1]),
    )
    def test_stops_at_the_first_sweep_under_rtol(self, seed, sizes, steps, dim, weight, rtol):
        sets = normalised(crowd_sets(seed, sizes, steps, dim))
        config = SolverConfig(epsilon=0.0, max_sweeps=30, rtol=rtol)
        report = solve(sets, CollisionKernel(weight=weight, sigma=0.5), config)
        below = [kl <= rtol * jc for kl, jc in zip(report.kl_trace, report.objective_trace)]
        if report.terminated_by == "converged":
            assert below == [False] * (report.sweeps - 1) + [True]
        else:
            assert report.terminated_by == "max_sweeps"
            assert report.sweeps == 30 and not any(below)
        trace = [report.initial_objective] + report.objective_trace
        for (a, b), kl in zip(zip(trace, trace[1:]), report.kl_trace):
            assert b <= a - kl + 1e-9


def line_sets(seed, sizes):
    """1D single-step sample sets around random centres; random weights of mean 1,
    as the objective's sufficient decrease assumes."""
    rng = np.random.default_rng(seed)
    sets = []
    for k, m in enumerate(sizes):
        xs = rng.uniform(-2.0, 2.0) + rng.uniform(0.2, 1.5) * rng.standard_normal((m, 1, 1))
        w = rng.uniform(0.2, 2.0, m)
        sets.append(SampleSet(k, GRID_1D, xs, w * (m / w.sum())))
    return sets


def transform_solve(sets, kernel, config):
    """solve() with the dense-cache threshold at 0, so 1D single-step sets take
    the Gauss transform; checks that every column after the first did."""
    with mock.patch.object(engine, "_DENSE_CACHE_ENTRIES", 0), \
            mock.patch.object(engine, "GaussTransform", wraps=engine.GaussTransform) as built:
        report = solve(sets, kernel, config)
    assert built.call_count == len(sets) - 1
    return report


class TestGaussTransformSolves:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.lists(st.integers(1, 300), min_size=2, max_size=4),
        weight=st.floats(0.5, 20.0),
        sigma=st.floats(0.1, 1.0),
    )
    def test_every_order_decreases_by_at_least_kl(self, seed, sizes, weight, sigma):
        sets = line_sets(seed, sizes)
        kernel = CollisionKernel(weight=weight, sigma=sigma)
        for order in itertools.permutations(range(len(sets))):
            run = copied([sets[i] for i in order])
            report = transform_solve(run, kernel, SolverConfig(epsilon=0.0, max_sweeps=4))
            prev = report.initial_objective
            for jc, kl in zip(report.objective_trace, report.kl_trace):
                assert prev - jc >= kl - 1e-9 * max(1.0, abs(prev))
                prev = jc
            # each pair's expected penalty is within 1e-13 * peak of the dense one
            direct = joint_expected_penalty(run, kernel)
            pairs = len(sets) * (len(sets) - 1) / 2
            assert abs(report.objective_trace[-1] - direct) <= 1e-13 * kernel.peak(1) * pairs

    def test_identical_solves_give_identical_weights(self):
        kernel = CollisionKernel(10.0, 0.3)
        runs = []
        for _ in range(2):
            sets = gaussian_sets_1d([-1.0, 0.0, 1.0], sigma=0.5, m=2000, seed=5)
            transform_solve(sets, kernel, SolverConfig(epsilon=0.0, max_sweeps=5))
            runs.append([s.weights for s in sets])
        for a, b in zip(*runs):
            assert np.array_equal(a, b)

    def test_ten_sweeps_of_three_agents_take_42_products(self):
        # one per column after the first in the seed pass, then two per such column per sweep
        sets = gaussian_sets_1d([-1.0, 0.0, 1.0], sigma=0.5, m=500, seed=4)
        op = collision.GaussTransform
        with mock.patch.object(op, "__matmul__", autospec=True, side_effect=op.__matmul__) as calls:
            report = transform_solve(sets, CollisionKernel(10.0, 0.3), SolverConfig(epsilon=0.0, max_sweeps=10))
        assert report.sweeps == 10
        assert calls.call_count == 42

    def test_memory_stays_far_below_the_dense_cache(self):
        # dense float64 pairs of 3 agents at m=3000 would take 3 * 72 MB
        sets = gaussian_sets_1d([-1.0, 0.0, 1.0], sigma=0.5, m=3000, seed=9)
        tracemalloc.start()
        try:
            transform_solve(sets, CollisionKernel(10.0, 0.3), SolverConfig(epsilon=0.0, max_sweeps=3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


def joint_penalties(sets, kernel):
    """Every joint sample's penalty by brute force: (y_0, ..., y_{n-1}), one
    sample per agent, -> the sum over pairs i < j of penalty(y_i, y_j)."""
    n = len(sets)
    pairs = {(i, j): penalty_matrix(sets[i], sets[j], kernel) for i in range(n) for j in range(i + 1, n)}
    return {ys: sum(mat[ys[i], ys[j]] for (i, j), mat in pairs.items())
            for ys in itertools.product(*(range(s.m) for s in sets))}


def own_choices(joint, top, i, m):
    """The joint penalties of agent i's m samples, every other agent on its sample in ``top``:
    they differ by agent i's own penalty alone, the other pairs' being the same."""
    return np.array([joint[top[:i] + (y,) + top[i + 1:]] for y in range(m)])


def run_sweeps(sets, kernel, sweeps):
    """The solve's sweeps run ``sweeps`` times with no stopping rule."""
    cache = PenaltyCache(sets, kernel)
    v, later = _seed(sets, cache)
    for _ in range(sweeps):
        _sweep(sets, cache, v, later)


TINY_INSTANCES = dict(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.lists(st.integers(1, 6), min_size=2, max_size=3),
    steps=st.integers(1, 3),
    dim=st.sampled_from([1, 2]),
    weight=st.floats(0.5, 20.0),
    sigma=st.floats(0.1, 1.0),
)


class TestWhatTheSweepsConvergeTo:
    """J is linear in each agent's weights while the others' stay fixed, so
    over the weight simplices it is least at a vertex, one sample per agent,
    and an update moves an agent's weight toward its best response to the
    others: the sweeps are best-response dynamics. They head to a joint
    sample that no agent can improve on by switching only its own sample
    (samples whose weight underflowed aside), and that need not be the
    joint minimum.

    Instances: 2-3 agents of 1-6 samples, 1-3 steps, dim 1 or 2, random
    positions and weights (``crowd_sets``, weights scaled to mean 1) and a
    random kernel. On 16,000 seeded draws of such instances, J after 1 to
    3000 sweeps never fell more than 7.9e-16 * peak below the joint minimum,
    and 875 of the 9,576 with a strict minimum ended elsewhere.

    No test bounds each agent's best-response gap, w . gamma minus the least
    gamma of its live samples, at a fixed number of sweeps: after any such
    number an instance can still be moving off a vertex that is not a best
    response, with a gap of a sizeable share of peak. On those draws the
    largest gap was 0.16 * peak after 300 sweeps and 0.09 * peak after 3000.
    """

    @settings(max_examples=60, deadline=None)
    @given(**TINY_INSTANCES, sweeps=st.sampled_from([1, 10, 300]))
    def test_the_objective_never_falls_below_the_joint_minimum(
        self, seed, sizes, steps, dim, weight, sigma, sweeps
    ):
        """J is a weighted mean of the joint penalties, so it is at least
        their least. Allowance: both sides sum the same computed pair
        penalties, each at most peak; J's sums over at most 3 pairs of 6 x 6
        entries round each of its terms at most 40 times, so J is within
        gamma_40 * 3 * peak < 1.4e-14 * peak of the exact sum, and a joint
        penalty, 3 entries, far closer; 1e-13 * peak covers both."""
        sets = normalised(crowd_sets(seed, sizes, steps, dim))
        kernel = CollisionKernel(weight=weight, sigma=sigma)
        floor = min(joint_penalties(sets, kernel).values())
        report = solve(sets, kernel, SolverConfig(epsilon=0.0, max_sweeps=sweeps, rtol=0.0))
        allowance = 1e-13 * kernel.peak(dim)
        assert report.initial_objective >= floor - allowance
        assert min(report.objective_trace) >= floor - allowance
        assert joint_expected_penalty(sets, kernel) >= floor - allowance

    @settings(max_examples=10, deadline=None)
    @given(**TINY_INSTANCES)
    def test_the_weight_ends_on_a_joint_sample_no_agent_improves_on_alone(
        self, seed, sizes, steps, dim, weight, sigma
    ):
        """On instances whose joint minimum is strict by at least 1e-2 * peak,
        after N = 10,000 sweeps: with every other agent on its top-weight
        sample, each agent's top-weight sample is within 1e-3 * peak of the
        best of its samples whose weight is still a normal float64, by brute
        force over its own samples alone, and its samples within 1e-3 * peak
        of that best hold more than 0.99 of its weight.

        Why not "the top joint sample holds 0.99 of every agent's weight and
        no agent improves on it over all its samples": after 3000 sweeps that
        failed on 11 of 9,576 such instances. Eight were still moving off a
        vertex that is not a best response, through a sample climbing back
        from a weight near 1e-300 (all settled by 10,000 sweeps); three had
        underflowed their agent's best sample to 0 or to 5e-324, where a
        growth factor below 1.5 rounds away, so it never returns; and two
        samples within 1e-3 * peak of each other may share the weight far
        longer than N. The sweeps run with no stopping rule: with rtol = 0,
        solve ends on a sweep whose KL sum rounds to 0, which such a climbing
        sample does not register in."""
        sets = normalised(crowd_sets(seed, sizes, steps, dim))
        kernel = CollisionKernel(weight=weight, sigma=sigma)
        peak = kernel.peak(dim)
        joint = joint_penalties(sets, kernel)
        least, runner_up = sorted(joint.values())[:2] if len(joint) > 1 else (0.0, math.inf)
        assume(runner_up - least >= 1e-2 * peak)
        run_sweeps(sets, kernel, 10_000)
        top = tuple(int(np.argmax(s.weights)) for s in sets)
        for i, s in enumerate(sets):
            own = own_choices(joint, top, i, s.m)
            near = own <= own[s.weights >= np.finfo(float).tiny].min() + 1e-3 * peak
            assert near[top[i]]
            assert s.weights[near].sum() > 0.99 * s.weights.sum()

    def test_the_joint_sample_need_not_be_the_joint_minimum(self):
        # two agents of two samples: the sweeps settle on the joint sample (0, 0),
        # which each agent's other sample makes worse, while (1, 1) is lower
        sets = normalised(crowd_sets(86, [2, 2], 1, 2))
        kernel = CollisionKernel(weight=10.0, sigma=0.35)
        joint = joint_penalties(sets, kernel)
        solve(sets, kernel, SolverConfig(epsilon=0.0, rtol=0.0, max_sweeps=300))
        top = tuple(int(np.argmax(s.weights)) for s in sets)
        assert top == (0, 0)
        assert min(s.weights[0] / s.m for s in sets) > 0.999
        assert joint[(0, 0)] < min(joint[(1, 0)], joint[(0, 1)])
        assert joint[(1, 1)] < joint[(0, 0)] - 1e-2 * kernel.peak(2)
