import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import gaussian_kde

from distnav import engine
from distnav.collision import CollisionKernel, joint_expected_penalty, penalty_matrix
from distnav.engine import (
    PenaltyCache,
    SolverConfig,
    gamma_hat,
    interaction_scores,
    select_critical,
    select_optimal,
    solve,
    sweep,
    update_agent,
)
from distnav.errors import NumericalError
from distnav.gp import KernelParams, PreferenceGP, sample_trajectories
from distnav.grids import TimeGrid
from distnav.samples import SampleSet

from helpers import GRID_1D, gaussian_sets_1d, random_instance, straight_line_trajectory

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
        expected = cache.get(0, 1)[1].mean()
        assert gamma_hat(0, 1, [a, b], cache) == pytest.approx(expected, rel=1e-12)

    def test_no_other_agents_is_zero(self):
        rng = np.random.default_rng(1)
        a = SampleSet("a", GRID1, rng.normal(size=(4, 1, 2)), np.ones(4))
        cache = PenaltyCache([a], CollisionKernel(10.0, 0.35))
        assert gamma_hat(0, 2, [a], cache) == 0.0

    def test_hand_case_first_sample(self):
        sets = hand_case_sets()
        cache = PenaltyCache(sets, UNIT_PEAK)
        assert gamma_hat(0, 0, sets, cache) == pytest.approx(0.5, abs=1e-12)

    def test_conditioning_on_own_update_rejected(self):
        sets = hand_case_sets()
        cache = PenaltyCache(sets, UNIT_PEAK)
        with pytest.raises(ValueError):
            gamma_hat(0, 0, sets, cache, updated={0})


class TestUpdateAgent:
    def test_zero_gamma_keeps_weights_and_zero_kl(self):
        rng = np.random.default_rng(2)
        grid = TimeGrid(0.0, 0.4, 3)
        a = SampleSet("a", grid, rng.normal(size=(5, 3, 2)), np.ones(5))
        b = SampleSet("b", grid, 1000.0 + rng.normal(size=(5, 3, 2)), np.ones(5))
        cache = PenaltyCache([a, b], CollisionKernel(10.0, 0.35))
        kl = update_agent(0, [a, b], cache)
        assert kl == pytest.approx(0.0, abs=1e-15)
        assert np.allclose(a.weights, 1.0)

    def test_hand_case_weights(self):
        sets = hand_case_sets()
        cache = PenaltyCache(sets, UNIT_PEAK)
        update_agent(0, sets, cache)
        assert np.allclose(sets[0].weights, [0.7551, 1.2449], atol=1e-4)
        update_agent(1, sets, cache, updated={0})
        assert np.allclose(sets[1].weights, [0.8135, 1.1865], atol=1e-4)

    def test_normalization_after_update(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            sets, kernel = random_instance(rng)
            cache = PenaltyCache(sets, kernel)
            update_agent(0, sets, cache)
            assert abs(sets[0].weights.mean() - 1.0) < 1e-9

    def test_total_underflow_reports_max_gamma(self):
        states = np.zeros((2, 1, 2))
        a = SampleSet("a", GRID1, states, np.full(2, 1e-300))
        b = SampleSet("b", GRID1, states.copy(), np.ones(2))
        # enormous weight drives gamma_hat to the clamp; 1e-300 * exp(-700) == 0
        kernel = CollisionKernel(weight=1e6, sigma=0.05)
        cache = PenaltyCache([a, b], kernel)
        with pytest.raises(NumericalError, match="gamma_hat"):
            update_agent(0, [a, b], cache)


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
        kl_sum, jc = sweep(sets, kernel, cache)
        assert kl_sum < 1e-12
        assert jc < 1e-20
        for s in sets:
            assert np.allclose(s.weights, 1.0, atol=1e-12)

    def test_hand_case_objective_drop(self):
        sets = hand_case_sets()
        cache = PenaltyCache(sets, UNIT_PEAK)
        assert joint_expected_penalty(sets, UNIT_PEAK) == pytest.approx(0.25, abs=1e-12)
        _, jc = sweep(sets, UNIT_PEAK, cache)
        assert jc == pytest.approx(0.25 * 0.7551 * 0.8135, abs=1e-3)

    def test_decrease_bounded_by_kl_sum(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            sets, kernel = random_instance(rng)
            cache = PenaltyCache(sets, kernel)
            before = joint_expected_penalty(sets, kernel, matrices=cache.pair_matrices())
            kl_sum, after = sweep(sets, kernel, cache)
            assert before - after >= kl_sum - 1e-9


class TestSolve:
    def test_epsilon_above_initial_runs_zero_sweeps(self):
        sets = hand_case_sets()
        report = solve(sets, UNIT_PEAK, SolverConfig(epsilon=1.0, max_sweeps=10))
        assert report.sweeps == 0
        assert report.objective_trace == []
        assert report.terminated_by == "objective_threshold"
        assert report.initial_objective == pytest.approx(0.25, abs=1e-12)

    def test_fixed_point_termination_when_no_interaction(self):
        rng = np.random.default_rng(6)
        grid = TimeGrid(0.0, 0.4, 2)
        sets = [
            SampleSet(k, grid, 1e4 * k + rng.normal(size=(5, 2, 2)), np.ones(5))
            for k in range(2)
        ]
        report = solve(sets, CollisionKernel(10.0, 0.35), SolverConfig(epsilon=0.0))
        assert report.terminated_by == "fixed_point"
        assert report.sweeps == 1

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
        kde = gaussian_kde(mid.trajectories[:, 0, 0], weights=mid.distribution())
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
        gp_a = PreferenceGP(grid, mean_a, cov, jitter=1e-10)
        gp_b = PreferenceGP(grid, mean_b, cov, jitter=1e-10)
        sets = [
            sample_trajectories(gp_a, 5000, seed=21, agent="a"),
            sample_trajectories(gp_b, 5000, seed=22, agent="b"),
        ]
        kernel = CollisionKernel(weight=10.0, sigma=0.35)
        report = solve(sets, kernel, SolverConfig(epsilon=0.0, max_sweeps=25))
        assert report.final_objective < 0.05 * report.initial_objective

    def test_single_set_rejected(self):
        rng = np.random.default_rng(8)
        a = SampleSet("a", GRID1, rng.normal(size=(3, 1, 2)), np.ones(3))
        with pytest.raises(ValueError):
            solve([a], CollisionKernel(10.0, 0.35))

    def test_clamp_events_counted(self):
        rng = np.random.default_rng(13)
        grid = TimeGrid(0.0, 0.4, 1)
        near = rng.normal(scale=0.001, size=(4, 1, 2))
        a = SampleSet("a", grid, near, np.ones(4))
        b = SampleSet("b", grid, near + 0.001, np.ones(4))
        hot = CollisionKernel(weight=1e6, sigma=0.01)  # gamma far above the clamp
        report = solve([a, b], hot, SolverConfig(epsilon=0.0, max_sweeps=1))
        assert report.clamp_events > 0

    def test_explicit_matrix_cache_reproduces_hand_case(self):
        grid = GRID_1D
        a = SampleSet("A", grid, np.zeros((2, 1, 1)), np.ones(2))
        b = SampleSet("B", grid, np.zeros((2, 1, 1)), np.ones(2))
        psi = np.array([[1.0, 0.0], [0.0, 0.0]])
        cache = PenaltyCache.from_matrices(2, {(0, 1): psi})
        update_agent(0, [a, b], cache)
        update_agent(1, [a, b], cache, updated={0})
        assert np.allclose(a.weights, [0.7551, 1.2449], atol=1e-4)
        assert np.allclose(b.weights, [0.8135, 1.1865], atol=1e-4)

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
                order = tuple(rng.permutation(n).tolist())
                copies = [
                    SampleSet(s.agent, s.grid, s.trajectories, s.weights.copy())
                    for s in sets
                ]
                report = solve(
                    copies, kernel, SolverConfig(epsilon=0.0, max_sweeps=4, agent_order=order)
                )
                trace = [report.initial_objective] + report.objective_trace
                for (a, b), kl in zip(zip(trace, trace[1:]), report.kl_trace):
                    assert b <= a - kl + 1e-9


class TestInteractionScores:
    def test_far_agent_scores_near_zero(self):
        rng = np.random.default_rng(10)
        grid = TimeGrid(0.0, 0.4, 8)
        intent = straight_line_trajectory(grid, (0, 0), (5, 0))
        far = SampleSet("far", grid, 1e3 + rng.normal(size=(10, 8, 2)), np.ones(10))
        scores = interaction_scores(intent, [far], CollisionKernel(10.0, 0.35))
        assert scores["far"] < 1e-20

    def test_identical_samples_score_peak(self):
        grid = TimeGrid(0.0, 0.4, 8)
        kernel = CollisionKernel(10.0, 0.35)
        intent = straight_line_trajectory(grid, (0, 0), (5, 0))
        same = SampleSet("same", grid, np.repeat(intent.states[None], 4, axis=0), np.ones(4))
        scores = interaction_scores(intent, [same], kernel)
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
        scores = interaction_scores(intent, [crossing, parallel, away], kernel)
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
        return PreferenceGP(grid, np.zeros((grid.steps, 2)), np.eye(grid.steps))

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
        gp = PreferenceGP(grid, np.zeros((1, 1)), np.eye(1))
        a = SampleSet("A", grid, np.array([[[0.5]], [[-0.5]]]), np.array([0.7551, 1.2449]))
        b = SampleSet("B", grid, np.array([[[0.5]], [[-0.5]]]), np.array([0.8135, 1.1865]))
        best = select_optimal([a, b], {"A": gp, "B": gp})
        assert best["A"].states[0, 0] == -0.5
        assert best["B"].states[0, 0] == -0.5

    def test_weight_scaling_invariance(self):
        rng = np.random.default_rng(12)
        grid = TimeGrid(0.0, 0.4, 4)
        gp = PreferenceGP(grid, np.zeros((4, 2)), np.eye(4))
        states = rng.normal(size=(6, 4, 2))
        w = rng.uniform(0.1, 2.0, size=6)
        one = select_optimal([SampleSet("a", grid, states, w)], {"a": gp})
        two = select_optimal([SampleSet("a", grid, states, 17.0 * w)], {"a": gp})
        assert np.array_equal(one["a"].states, two["a"].states)

    def test_zero_weights_excluded_and_all_zero_rejected(self):
        grid = TimeGrid(0.0, 0.4, 2)
        gp = PreferenceGP(grid, np.zeros((2, 2)), np.eye(2))
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
            jc = joint_expected_penalty(sets, kernel, matrices=cache.pair_matrices())
            for _ in range(3):
                kl_sum, jc_next = sweep(sets, kernel, cache)
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


def reference_solve(sets, kernel, sweeps, order, dtype):
    """Per-pair sweeps as a plain loop: one penalty_matrix per pair i < j, served
    transposed for j > i; gamma summed over j in index order."""
    n = len(sets)
    mats = {(i, j): penalty_matrix(sets[i], sets[j], kernel, dtype=dtype)
            for i in range(n) for j in range(i + 1, n)}
    for _ in range(sweeps):
        for i in order:
            gamma = np.zeros(sets[i].m)
            for j in range(n):
                if j != i:
                    mat = mats[(i, j)] if i < j else mats[(j, i)].T
                    wj = sets[j].weights.astype(dtype, copy=False)
                    gamma += np.asarray(mat @ wj, dtype=float) / sets[j].m
            new = sets[i].weights * np.exp(-np.minimum(gamma, engine.GAMMA_CLAMP))
            new *= sets[i].m / new.sum()
            sets[i].weights = new


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
                run = copied(sets)
                config = SolverConfig(epsilon=0.0, max_sweeps=sweeps, agent_order=order)
                report = solve(run, kernel, config)
                direct = joint_expected_penalty(run, kernel)
                # abs_tol only matters where the objective itself nears underflow
                assert math.isclose(report.objective_trace[-1], direct, rel_tol=1e-12, abs_tol=1e-300)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.lists(st.integers(1, 25), min_size=2, max_size=5),
        steps=st.integers(1, 6),
        dim=st.sampled_from([1, 2]),
        dtype=st.sampled_from([np.float64, np.float32]),
        data=st.data(),
    )
    def test_weights_equal_a_per_pair_reference_sweep(self, seed, sizes, steps, dim, dtype, data):
        sets = crowd_sets(seed, sizes, steps, dim)
        order = tuple(data.draw(st.permutations(range(len(sets)))))
        kernel = CollisionKernel(weight=5.0, sigma=0.5)
        run = copied(sets)
        # a threshold of 0 entries puts every pair in the float32 cache
        threshold = 0 if dtype == np.float32 else engine._FLOAT32_CACHE_ENTRIES
        with mock.patch.object(engine, "_FLOAT32_CACHE_ENTRIES", threshold):
            report = solve(run, kernel, SolverConfig(epsilon=0.0, max_sweeps=4, agent_order=order))
        reference_solve(sets, kernel, report.sweeps, order, dtype)
        for got, want in zip(run, sets):
            assert np.array_equal(got.weights, want.weights)
