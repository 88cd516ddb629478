import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distnav import collision
from distnav.collision import (
    CollisionKernel,
    expected_penalty,
    joint_expected_penalty,
    pairwise_penalty,
    penalty_matrix,
)
from distnav.engine import PenaltyCache, interaction_scores
from distnav.errors import GridMismatchError
from distnav.grids import TimeGrid, Trajectory
from distnav.samples import SampleSet

GRID = TimeGrid(0.0, 0.4, 10)
KERNEL = CollisionKernel(weight=10.0, sigma=0.35)


def traj(states):
    return Trajectory(GRID, np.asarray(states, dtype=float))


def random_traj(rng, scale=2.0):
    return traj(rng.normal(scale=scale, size=(GRID.steps, 2)))


def sample_set(agent, rng, m, center=(0.0, 0.0), spread=1.0):
    base = np.asarray(center, dtype=float)
    states = base + rng.normal(scale=spread, size=(m, GRID.steps, 2))
    return SampleSet(agent, GRID, states, np.ones(m))


class TestPairwisePenalty:
    def test_identical_trajectories_hit_peak_exactly(self):
        rng = np.random.default_rng(0)
        f = random_traj(rng)
        val = pairwise_penalty(f, f, KERNEL)
        assert val == KERNEL.weight / (2 * math.pi * KERNEL.sigma**2)

    def test_far_apart_is_negligible(self):
        a = traj(np.zeros((GRID.steps, 2)))
        b = traj(np.full((GRID.steps, 2), 10 * KERNEL.sigma))
        assert pairwise_penalty(a, b, KERNEL) < 1e-20 * KERNEL.weight / KERNEL.sigma**2

    def test_one_sigma_crossing(self):
        states_a = np.zeros((GRID.steps, 2))
        states_b = np.full((GRID.steps, 2), 100.0)
        states_b[4] = (KERNEL.sigma, 0.0)  # closest approach at exactly one sigma
        val = pairwise_penalty(traj(states_a), traj(states_b), KERNEL)
        peak = KERNEL.peak(2)
        assert val == pytest.approx(peak * math.exp(-0.5), rel=1e-12)

    def test_grid_mismatch_raises(self):
        other = Trajectory(TimeGrid(0.0, 0.5, 10), np.zeros((10, 2)))
        with pytest.raises(GridMismatchError):
            pairwise_penalty(traj(np.zeros((10, 2))), other, KERNEL)

    def test_symmetry_exact_on_random_pairs(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            a, b = random_traj(rng), random_traj(rng)
            assert pairwise_penalty(a, b, KERNEL) == pairwise_penalty(b, a, KERNEL)

    def test_bounds(self):
        rng = np.random.default_rng(1)
        peak = KERNEL.peak(2)
        for _ in range(200):
            v = pairwise_penalty(random_traj(rng), random_traj(rng), KERNEL)
            assert 0.0 <= v <= peak

    def test_weight_scaling_is_linear(self):
        rng = np.random.default_rng(2)
        a, b = random_traj(rng), random_traj(rng)
        base = pairwise_penalty(a, b, KERNEL)
        for alpha in (2.0, 0.5, 4.0):
            scaled = CollisionKernel(weight=alpha * KERNEL.weight, sigma=KERNEL.sigma)
            assert pairwise_penalty(a, b, scaled) == alpha * base


class TestPenaltyMatrix:
    def test_self_matrix_symmetric_with_peak_diagonal(self):
        rng = np.random.default_rng(3)
        a = sample_set("a", rng, 6)
        mat = penalty_matrix(a, a, KERNEL)
        assert np.array_equal(mat, mat.T)
        assert np.allclose(np.diag(mat), KERNEL.peak(2))

    def test_single_sample_matches_pairwise(self):
        rng = np.random.default_rng(4)
        a, b = sample_set("a", rng, 1), sample_set("b", rng, 1)
        mat = penalty_matrix(a, b, KERNEL)
        assert mat.shape == (1, 1)
        assert mat[0, 0] == pairwise_penalty(a.trajectory(0), b.trajectory(0), KERNEL)

    def test_transpose_identity_exact(self):
        rng = np.random.default_rng(5)
        a, b = sample_set("a", rng, 3), sample_set("b", rng, 4)
        assert np.array_equal(penalty_matrix(a, b, KERNEL), penalty_matrix(b, a, KERNEL).T)

    def test_entries_match_pairwise_penalty(self):
        rng = np.random.default_rng(6)
        a, b = sample_set("a", rng, 3), sample_set("b", rng, 2)
        mat = penalty_matrix(a, b, KERNEL)
        for y in range(3):
            for z in range(2):
                assert mat[y, z] == pairwise_penalty(a.trajectory(y), b.trajectory(z), KERNEL)


class TestExpectedPenalty:
    def test_shared_single_sample_hits_peak(self):
        states = np.zeros((1, GRID.steps, 2))
        a = SampleSet("a", GRID, states, np.ones(1))
        b = SampleSet("b", GRID, states.copy(), np.ones(1))
        assert expected_penalty(a, b, KERNEL) == KERNEL.peak(2)

    def test_far_sets_negligible(self):
        rng = np.random.default_rng(7)
        a = sample_set("a", rng, 5, center=(0.0, 0.0), spread=0.1)
        b = sample_set("b", rng, 5, center=(100.0, 0.0), spread=0.1)
        assert expected_penalty(a, b, KERNEL) < 1e-20

    def test_hand_case_quarter(self):
        # psi(a1,b1)=1, other pairs ~0, all weights 1 -> (1/4) * 1
        sigma = 0.35
        unit_peak = CollisionKernel(weight=2 * math.pi * sigma**2, sigma=sigma)
        g = TimeGrid(0.0, 0.4, 1)
        a = SampleSet("a", g, np.array([[[0.0, 0.0]], [[100.0, 0.0]]]), np.ones(2))
        b = SampleSet("b", g, np.array([[[0.0, 0.0]], [[200.0, 0.0]]]), np.ones(2))
        assert expected_penalty(a, b, unit_peak) == pytest.approx(0.25, abs=1e-12)

    def test_weight_scaling_is_linear(self):
        rng = np.random.default_rng(8)
        a, b = sample_set("a", rng, 4), sample_set("b", rng, 5)
        base = expected_penalty(a, b, KERNEL)
        doubled = CollisionKernel(weight=2 * KERNEL.weight, sigma=KERNEL.sigma)
        assert expected_penalty(a, b, doubled) == 2 * base


class TestJointExpectedPenalty:
    def test_two_sets_equal_pair_penalty(self):
        rng = np.random.default_rng(9)
        a, b = sample_set("a", rng, 4), sample_set("b", rng, 4)
        assert joint_expected_penalty([a, b], KERNEL) == expected_penalty(a, b, KERNEL)

    def test_three_far_sets_near_zero(self):
        rng = np.random.default_rng(10)
        sets = [
            sample_set(i, rng, 4, center=(100.0 * i, 0.0), spread=0.1) for i in range(3)
        ]
        assert joint_expected_penalty(sets, KERNEL) < 1e-20

    def test_single_overlapping_pair_dominates(self):
        rng = np.random.default_rng(11)
        a = sample_set("a", rng, 4, center=(0.0, 0.0), spread=0.2)
        b = sample_set("b", rng, 4, center=(0.3, 0.0), spread=0.2)
        c = sample_set("c", rng, 4, center=(500.0, 0.0), spread=0.2)
        total = joint_expected_penalty([a, b, c], KERNEL)
        assert total == pytest.approx(expected_penalty(a, b, KERNEL), abs=1e-12)

    def test_fewer_than_two_sets_raises(self):
        rng = np.random.default_rng(12)
        with pytest.raises(ValueError):
            joint_expected_penalty([sample_set("a", rng, 3)], KERNEL)

    def test_reordering_invariance(self):
        rng = np.random.default_rng(13)
        sets = [sample_set(i, rng, 3, center=(0.5 * i, 0.0)) for i in range(4)]
        ref = joint_expected_penalty(sets, KERNEL)
        for perm in ([3, 1, 0, 2], [2, 3, 1, 0], [1, 0, 3, 2]):
            val = joint_expected_penalty([sets[i] for i in perm], KERNEL)
            assert val == pytest.approx(ref, rel=1e-12)


def einsum_penalty(ta, tb, kernel, dtype=np.float64):
    """Reference penalty matrix: one (ma, mb, T, d) difference tensor, then the
    subnormal flush of the output dtype."""
    diff = ta[:, None, :, :] - tb[None, :, :, :]
    d2 = np.einsum("abtd,abtd->abt", diff, diff).min(axis=2)
    np.multiply(d2, -0.5 / kernel.sigma**2, out=d2)
    np.exp(d2, out=d2)
    d2 *= kernel.peak(ta.shape[2])
    out = d2.astype(dtype)
    out[out < np.finfo(dtype).tiny] = 0
    return out


def drawn_sets(seed, sizes, steps, dim, spread):
    """Sample sets on one grid; every other set reuses rows of the first, so
    some pairs meet exactly (the kernel peak) while others are far apart."""
    rng = np.random.default_rng(seed)
    grid = TimeGrid(0.0, 0.4, steps)
    first = rng.normal(scale=spread, size=(sizes[0], steps, dim))
    sets = []
    for k, m in enumerate(sizes):
        states = rng.normal(scale=spread, size=(m, steps, dim)) if k else first
        if k % 2:
            shared = min(m, sizes[0])
            states[:shared:2] = first[:shared:2]
        sets.append(SampleSet(k, grid, states, rng.uniform(0.0, 2.0, m)))
    return sets


SPREADS = st.sampled_from([0.1, 1.0, 5.0, 40.0])  # 40 m puts most entries far below float32 tiny


class TestPenaltyKernelProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        ma=st.integers(1, 40),
        mb=st.integers(1, 40),
        steps=st.integers(1, 25),
        dim=st.sampled_from([1, 2]),
        spread=SPREADS,
        budget=st.integers(1, 400),
        dtype=st.sampled_from([np.float64, np.float32]),
    )
    def test_matches_einsum_reference_across_row_blocks(
        self, seed, ma, mb, steps, dim, spread, budget, dtype
    ):
        a, b = drawn_sets(seed, [ma, mb], steps, dim, spread)
        kernel = CollisionKernel(weight=10.0, sigma=0.3)
        with mock.patch.object(collision, "_BLOCK_BUDGET", budget):
            mat = penalty_matrix(a, b, kernel, dtype=dtype)
        ref = einsum_penalty(a.trajectories, b.trajectories, kernel, dtype)
        assert mat.dtype == dtype
        assert np.array_equal(mat, ref)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        ma=st.integers(1, 40),
        mb=st.integers(1, 40),
        spread=SPREADS,
        dtype=st.sampled_from([np.float64, np.float32]),
    )
    def test_no_subnormal_entries(self, seed, ma, mb, spread, dtype):
        a, b = drawn_sets(seed, [ma, mb], 1, 1, spread)
        mat = penalty_matrix(a, b, CollisionKernel(weight=10.0, sigma=0.3), dtype=dtype)
        assert not np.any((mat > 0) & (mat < np.finfo(dtype).tiny))

    def test_float32_flush_hits_only_subnormals(self):
        # 1D samples around -2 and 2 with weight 10, sigma 0.3: a fifth of the
        # float32 entries would be subnormal without the flush
        rng = np.random.default_rng(7)
        g = TimeGrid(0.0, 1.0, 1)
        a = SampleSet(0, g, -2.0 + 0.5 * rng.standard_normal((400, 1, 1)), np.ones(400))
        b = SampleSet(1, g, 2.0 + 0.5 * rng.standard_normal((400, 1, 1)), np.ones(400))
        kernel = CollisionKernel(weight=10.0, sigma=0.3)
        exact = einsum_penalty(a.trajectories, b.trajectories, kernel, np.float64)
        raw = exact.astype(np.float32)
        tiny = np.finfo(np.float32).tiny
        subnormal = (raw > 0) & (raw < tiny)
        assert subnormal.mean() > 0.1
        mat = penalty_matrix(a, b, kernel, dtype=np.float32)
        assert np.all(mat[subnormal] == 0)
        assert np.array_equal(mat[~subnormal], raw[~subnormal])


class TestPenaltyCacheRows:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.lists(st.integers(1, 30), min_size=2, max_size=6),
        steps=st.integers(1, 12),
        dim=st.sampled_from([1, 2]),
        spread=SPREADS,
        budget=st.integers(1, 400),
        dtype=st.sampled_from([np.float64, np.float32]),
    )
    def test_row_views_equal_per_pair_matrices(
        self, seed, sizes, steps, dim, spread, budget, dtype
    ):
        sets = drawn_sets(seed, sizes, steps, dim, spread)
        with mock.patch.object(collision, "_BLOCK_BUDGET", budget):
            cache = PenaltyCache(sets, KERNEL, dtype=dtype)
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                ref = penalty_matrix(sets[i], sets[j], KERNEL, dtype=dtype)
                assert cache.get(i, j).dtype == dtype
                # laid out as a per-pair build, so BLAS products round alike
                assert cache.get(i, j).flags.c_contiguous
                assert np.array_equal(cache.get(i, j), ref)
                assert np.array_equal(cache.get(j, i), ref.T)

    def test_out_receives_the_entries_and_must_match_the_shape(self):
        a, b = drawn_sets(3, [7, 5], 4, 2, 1.0)
        out = np.empty((7, 5), dtype=np.float32)
        assert penalty_matrix(a, b, KERNEL, out=out) is out
        assert np.array_equal(out, penalty_matrix(a, b, KERNEL, dtype=np.float32))
        with pytest.raises(ValueError, match="shape"):
            penalty_matrix(a, b, KERNEL, out=np.empty((8, 5)))

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("budget", [None, 20_000])
    def test_scratch_stays_within_block_budget(self, dim, dtype, budget):
        # 300 rows against 2000 columns take many row blocks at either budget
        rng = np.random.default_rng(17)
        a = rng.normal(size=(5, dim, 300))
        b = rng.normal(size=(5, dim, 2000))
        budget = collision._BLOCK_BUDGET if budget is None else budget
        with mock.patch.object(collision, "_BLOCK_BUDGET", budget):
            tracemalloc.start()
            try:
                before, _ = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                out = collision.batch_penalty_matrix(a, b, KERNEL, dtype=dtype)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        # slack: numpy's ufunc loops buffer up to 8192 elements per operand
        # whatever the block size (about 128 KiB for the broadcast subtract)
        assert peak - before <= out.nbytes + 8 * budget + 256 * 1024


class TestInteractionScoresProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.lists(st.integers(1, 30), min_size=1, max_size=6),
        steps=st.integers(1, 12),
        dim=st.sampled_from([1, 2]),
        spread=SPREADS,
    )
    def test_equals_per_set_scores(self, seed, sizes, steps, dim, spread):
        intent_set, *sets = drawn_sets(seed, [1] + sizes, steps, dim, spread)
        intent = intent_set.trajectory(0)
        kernel = CollisionKernel(weight=10.0, sigma=0.35)
        scores = interaction_scores(intent, sets, kernel)
        assert list(scores) == [s.agent for s in sets]
        for s in sets:
            row = penalty_matrix(intent_set, s, kernel)[0]
            assert scores[s.agent] == float(row @ s.weights) / s.m

    def test_no_sets_gives_no_scores(self):
        assert interaction_scores(traj(np.zeros((GRID.steps, 2))), [], KERNEL) == {}
