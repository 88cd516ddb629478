import gc
import math
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distnav import collision
from distnav.collision import (
    CollisionKernel,
    GaussTransform,
    expected_penalty,
    joint_expected_penalty,
    pairwise_penalty,
    penalty_matrix,
)
from distnav.engine import PenaltyCache, interaction_scores
from distnav.errors import GridMismatchError
from distnav.grids import TimeGrid, Trajectory
from distnav.samples import CrowdSamples, SampleSet

from helpers import crowd_of

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
        # to within the written bound of the exact matrix, which is symmetric
        # with the peak on its diagonal
        rng = np.random.default_rng(3)
        a = sample_set("a", rng, 6)
        mat = penalty_matrix(a, a, KERNEL)
        bound = written_bound(a.trajectories, a.trajectories, KERNEL)
        assert np.all(np.abs(mat - mat.T) <= bound + bound.T)
        assert np.all(np.abs(np.diag(mat) - KERNEL.peak(2)) <= np.diag(bound))

    def test_single_sample_matches_pairwise(self):
        rng = np.random.default_rng(4)
        a, b = sample_set("a", rng, 1), sample_set("b", rng, 1)
        mat = penalty_matrix(a, b, KERNEL)
        assert mat.shape == (1, 1)
        assert mat[0, 0] == pairwise_penalty(a.trajectory(0), b.trajectory(0), KERNEL)

    def test_transpose_identity_within_bound(self):
        # each side is measured from its own column set's mean, so the two
        # differ by at most both written bounds
        rng = np.random.default_rng(5)
        a, b = (sample_set(k, rng, m, center=(1e3, -1e3)) for k, m in (("a", 3), ("b", 4)))
        ta, tb = a.trajectories, b.trajectories
        gap = np.abs(penalty_matrix(a, b, KERNEL) - penalty_matrix(b, a, KERNEL).T)
        assert np.all(gap <= written_bound(ta, tb, KERNEL) + written_bound(tb, ta, KERNEL).T)

    def test_entries_match_pairwise_penalty(self):
        # pairwise_penalty takes direct differences, as the reference does
        rng = np.random.default_rng(6)
        a, b = sample_set("a", rng, 3), sample_set("b", rng, 2)
        mat = penalty_matrix(a, b, KERNEL)
        bound = reference_bound(a.trajectories, b.trajectories, KERNEL)
        for y in range(3):
            for z in range(2):
                direct = pairwise_penalty(a.trajectory(y), b.trajectory(z), KERNEL)
                assert abs(mat[y, z] - direct) <= bound[y, z]


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

    def test_a_lone_set_has_no_pair(self):
        rng = np.random.default_rng(12)
        assert joint_expected_penalty([sample_set("a", rng, 3)], KERNEL) == 0.0

    def test_reordering_invariance(self):
        rng = np.random.default_rng(13)
        sets = [sample_set(i, rng, 3, center=(0.5 * i, 0.0)) for i in range(4)]
        ref = joint_expected_penalty(sets, KERNEL)
        for perm in ([3, 1, 0, 2], [2, 3, 1, 0], [1, 0, 3, 2]):
            val = joint_expected_penalty([sets[i] for i in perm], KERNEL)
            assert val == pytest.approx(ref, rel=1e-12)


def einsum_penalty(ta, tb, kernel):
    """Reference penalty matrix: one (ma, mb, T, d) difference tensor, then the
    subnormal flush."""
    diff = ta[:, None, :, :] - tb[None, :, :, :]
    d2 = np.einsum("abtd,abtd->abt", diff, diff).min(axis=2)
    np.multiply(d2, -0.5 / kernel.sigma**2, out=d2)
    np.exp(d2, out=d2)
    d2 *= kernel.peak(ta.shape[2])
    d2[d2 < np.finfo(float).tiny] = 0
    return d2


U = np.finfo(float).eps / 2  # unit roundoff


def gamma(n):
    return n * U / (1 - n * U)


def spread_from_centre(ta, tb):
    """max over steps of |p_t|^2 + |q_t|^2 for every pair of samples (m, T, d),
    measured from the per-step mean of the column samples, as penalty_matrix
    measures them."""
    centre = tb.mean(axis=0)
    p2 = np.square(ta - centre).sum(axis=2)
    q2 = np.square(tb - centre).sum(axis=2)
    return (p2[:, None, :] + q2[None, :, :]).max(axis=2)


def written_bound(ta, tb, kernel):
    """The collision module's bound on |penalty_matrix - exact penalty|."""
    dim = ta.shape[2]
    peak = kernel.peak(dim)
    lipschitz = peak / (2 * kernel.sigma**2)
    return (lipschitz * gamma(3 * dim + 9) * spread_from_centre(ta, tb)
            + 8 * U * peak + np.finfo(float).tiny)


def reference_bound(ta, tb, kernel):
    """written_bound plus the error of a direct reference: its rounded
    differences, squares and sum carry gamma(d + 2) of |a - b|^2, at most
    2 (|p|^2 + |q|^2) per step, and its evaluation another 8u * peak."""
    dim = ta.shape[2]
    peak = kernel.peak(dim)
    lipschitz = peak / (2 * kernel.sigma**2)
    own = lipschitz * gamma(2 * dim + 5) * spread_from_centre(ta, tb) + 8 * U * peak
    return written_bound(ta, tb, kernel) + own


def drawn_sets(seed, sizes, steps, dim, spread, centre=0.0):
    """Sample sets around ``centre`` on every axis, on one grid; every other set
    reuses rows of the first, so some pairs meet exactly (the kernel peak)
    while others are far apart."""
    rng = np.random.default_rng(seed)
    grid = TimeGrid(0.0, 0.4, steps)
    first = centre + rng.normal(scale=spread, size=(sizes[0], steps, dim))
    sets = []
    for k, m in enumerate(sizes):
        states = centre + rng.normal(scale=spread, size=(m, steps, dim)) if k else first
        if k % 2:
            shared = min(m, sizes[0])
            states[:shared:2] = first[:shared:2]
        sets.append(SampleSet(k, grid, states, rng.uniform(0.0, 2.0, m)))
    return sets


SPREADS = st.sampled_from([0.1, 1.0, 5.0, 40.0])  # 40 m puts most entries below float64 tiny


class TestPenaltyKernelProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        ma=st.integers(1, 40),
        mb=st.integers(1, 40),
        steps=st.integers(1, 25),
        dim=st.sampled_from([1, 2]),
        spread=SPREADS,
        centre=st.one_of(st.just(0.0), st.floats(-1e3, 1e3)),
        budget=st.integers(1, 400),
    )
    def test_matches_einsum_reference_across_row_blocks(
        self, seed, ma, mb, steps, dim, spread, centre, budget
    ):
        a, b = drawn_sets(seed, [ma, mb], steps, dim, spread, centre)
        kernel = CollisionKernel(weight=10.0, sigma=0.3)
        with mock.patch.object(collision, "_BLOCK_BUDGET", budget):
            mat = penalty_matrix(a, b, kernel)
            cache = PenaltyCache([a, b], kernel)
        ta, tb = a.trajectories, b.trajectories
        assert mat.dtype == np.float64
        gap = np.abs(mat - einsum_penalty(ta, tb, kernel))
        assert np.all(gap <= reference_bound(ta, tb, kernel))
        assert np.all((mat >= 0) & (mat <= kernel.peak(dim)))
        assert not np.any((mat > 0) & (mat < np.finfo(float).tiny))
        assert np.array_equal(cache.columns[1], mat)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        ma=st.integers(1, 40),
        mb=st.integers(1, 40),
        spread=SPREADS,
    )
    def test_no_subnormal_entries(self, seed, ma, mb, spread):
        a, b = drawn_sets(seed, [ma, mb], 1, 1, spread)
        mat = penalty_matrix(a, b, CollisionKernel(weight=10.0, sigma=0.3))
        assert not np.any((mat > 0) & (mat < np.finfo(float).tiny))


def direct_penalty_row(f, batch, kernel):
    """Reference for penalty_row in plain numpy: the minimum over steps of the
    squared per-axis differences (T, d, m), summed in axis order, turned into
    penalties by the module's own _to_penalty."""
    sq = (f[:, :, None] - batch) ** 2
    d2 = sq[:, 0]
    for k in range(1, f.shape[1]):
        d2 = d2 + sq[:, k]
    return collision._to_penalty(d2.min(axis=0), kernel, f.shape[1])


class TestPenaltyRow:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 40),
        steps=st.integers(1, 6),
        dim=st.sampled_from([1, 2]),
        spread=SPREADS,
        centre=st.one_of(st.just(0.0), st.floats(-1e3, 1e3)),
    )
    def test_equals_plain_numpy_bit_for_bit(self, seed, m, steps, dim, spread, centre):
        intent, b = drawn_sets(seed, [1, m], steps, dim, spread, centre)
        f, batch = intent.trajectory(0), b.trajectories.transpose(1, 2, 0)
        kernel = CollisionKernel(weight=10.0, sigma=0.3)
        row = collision.penalty_row(f, batch, kernel)
        assert row.tobytes() == direct_penalty_row(f.states, batch, kernel).tobytes()


class TestFlush:
    def test_entries_below_tiny_become_plus_zero_and_the_rest_keep_their_bits(self):
        tiny = np.finfo(float).tiny
        sigma, dim = 0.5, 2
        # squared distances whose penalties are well above tiny, at tiny (the
        # weight is fitted to d2[at] below), subnormal and 0
        d2 = np.r_[0.0, 0.3, 5.0, 100.0, 300.0, 353.97, np.linspace(354.5, 372.0, 8), 380.0, 1e4]
        at = 5
        bumps = np.exp(d2 * (-0.5 / sigma**2))
        # step the weight an ulp at a time until d2[at]'s penalty is exactly tiny
        weight = tiny / bumps[at] * 2.0 * math.pi * sigma**2
        for _ in range(64):
            plain = CollisionKernel(weight, sigma).peak(dim) * bumps  # penalties, no flush
            if plain[at] == tiny:
                break
            weight = np.nextafter(weight, np.inf if plain[at] < tiny else -np.inf)
        kernel = CollisionKernel(weight, sigma)
        assert plain[at] == tiny and np.any(plain > 1e-3)
        assert np.any(plain == 0.0) and np.any((plain > 0.0) & (plain < tiny))

        out = collision._to_penalty(d2.copy(), kernel, dim)
        below = plain < tiny
        assert np.all(out[below] == 0.0) and not np.any(np.signbit(out[below]))
        assert out[~below].tobytes() == plain[~below].tobytes()


class TestPenaltyCacheRows:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.lists(st.integers(1, 30), min_size=2, max_size=6),
        steps=st.integers(1, 12),
        dim=st.sampled_from([1, 2]),
        spread=SPREADS,
        budget=st.integers(1, 400),
    )
    def test_row_views_equal_per_pair_matrices(self, seed, sizes, steps, dim, spread, budget):
        sets = drawn_sets(seed, sizes, steps, dim, spread)
        with mock.patch.object(collision, "_BLOCK_BUDGET", budget):
            cache = PenaltyCache(sets, KERNEL)
        for j in range(len(sets)):
            for i in range(j):
                mat = cache.columns[j][cache.edges[i]:cache.edges[i + 1]]
                ref = penalty_matrix(sets[i], sets[j], KERNEL)
                assert mat.dtype == np.float64
                # laid out as a per-pair build, so BLAS products round alike
                assert mat.flags.c_contiguous
                assert np.array_equal(mat, ref)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.lists(st.integers(1, 30), min_size=3, max_size=7),
        steps=st.integers(1, 12),
        dim=st.sampled_from([1, 2]),
        spread=SPREADS,
        budget=st.integers(1, 400),
    )
    def test_views_of_one_block_in_solve_order(self, seed, sizes, steps, dim, spread, budget):
        # as the planner lays a solve out: the robot's own set, then views of
        # one sampling call's block in interaction-score order
        robot, *peds = drawn_sets(seed, sizes, steps, dim, spread)
        crowd = crowd_of(peds)
        order = np.random.default_rng(seed).permutation(len(peds))
        views = [robot] + [crowd[k] for k in order]
        assert all(v.trajectories.base is crowd.block for v in views[1:])
        copies = [SampleSet(v.agent, v.grid, v.trajectories, v.weights) for v in views]
        with mock.patch.object(collision, "_BLOCK_BUDGET", budget):
            cache = PenaltyCache(views, KERNEL)
            alone = PenaltyCache(copies, KERNEL)
        for j in range(len(views)):
            assert cache.columns[j].tobytes() == alone.columns[j].tobytes()
            for i in range(j):
                mat = cache.columns[j][cache.edges[i]:cache.edges[i + 1]]
                assert mat.tobytes() == penalty_matrix(copies[i], copies[j], KERNEL).tobytes()

    @pytest.mark.parametrize("dim", [1, 2])
    def test_a_lone_row_gets_the_bits_of_the_default_budget(self, dim):
        # a budget of 68 against 8 columns makes blocks of 4 rows: column 2's
        # nine rows end in a block of one, and column 1 is a call of one row;
        # at the default budget each column is one block
        sets = drawn_sets(5, [1, 8, 8], 6, dim, 1.0)
        default = PenaltyCache(sets, KERNEL)
        with mock.patch.object(collision, "_BLOCK_BUDGET", 68):
            assert 8 * collision._BLOCK_BUDGET // (17 * 8) == 4
            cache = PenaltyCache(sets, KERNEL)
            lone = penalty_matrix(sets[0], sets[2], KERNEL)
        assert lone.tobytes() == default.columns[2][:1].tobytes()
        for j in (1, 2):
            assert cache.columns[j].tobytes() == default.columns[j].tobytes()
            for i in range(j):
                mat = cache.columns[j][cache.edges[i]:cache.edges[i + 1]]
                assert mat.tobytes() == penalty_matrix(sets[i], sets[j], KERNEL).tobytes()

    def test_out_receives_the_entries_and_must_match_the_shape(self):
        a, b = drawn_sets(3, [7, 5], 4, 2, 1.0)
        out = np.empty((7, 5))
        assert penalty_matrix(a, b, KERNEL, out=out) is out
        assert np.array_equal(out, penalty_matrix(a, b, KERNEL))
        with pytest.raises(ValueError, match="shape"):
            penalty_matrix(a, b, KERNEL, out=np.empty((8, 5)))

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("budget", [None, 20_000])
    def test_scratch_stays_within_block_budget(self, dim, budget):
        # 300 rows against 2000 columns take many row blocks at either budget
        steps = 5
        a, b = drawn_sets(17, [300, 2000], steps, dim, 1.0)
        budget = collision._BLOCK_BUDGET if budget is None else budget
        with mock.patch.object(collision, "_BLOCK_BUDGET", budget):
            tracemalloc.start()
            try:
                before, _ = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                out = np.empty((300, 2000))
                penalty_matrix(a, b, KERNEL, out=out)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        # beside the blocks, the product's operands: d + 2 floats per sample
        # and step on either side
        operands = 8 * steps * (dim + 2) * (300 + 2000)
        # slack: numpy's ufunc loops buffer up to 8192 elements per operand
        # whatever the block size (about 128 KiB for the broadcast subtract)
        assert peak - before <= out.nbytes + 8 * budget + operands + 256 * 1024


class TestGaussTransform:
    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        ma=st.one_of(st.just(1), st.integers(1, 3000)),
        mb=st.one_of(st.just(1), st.integers(1, 3000)),
        sigma=st.floats(1e-3, 1e2),
        log_spread=st.floats(math.log10(1 / 3), 4.0),  # sample spread / sigma, 1/3 to 1e4
        centre=st.floats(-1e4, 1e4),  # in units of sigma
        shared=st.floats(0.0, 1.0),
        kept=st.floats(0.0, 1.0),
        cut=st.floats(0.0, 1.0),
    )
    def test_products_match_the_dense_matrix(
        self, seed, ma, mb, sigma, log_spread, centre, shared, kept, cut
    ):
        rng = np.random.default_rng(seed)
        spread = sigma * 10.0**log_spread
        xa = centre * sigma + spread * rng.standard_normal(ma)
        xb = centre * sigma + spread * rng.standard_normal(mb)
        dup = int(shared * min(ma, mb))
        xb[:dup] = xa[:dup]  # exact duplicates across the sets
        xa[ma // 2 :] = xa[: ma - ma // 2]  # and within one set
        grid = TimeGrid(0.0, 1.0, 1)
        a = SampleSet(0, grid, xa[:, None, None], np.ones(ma))
        b = SampleSet(1, grid, xb[:, None, None], np.ones(mb))
        kernel = CollisionKernel(weight=float(rng.uniform(0.1, 20.0)), sigma=sigma)
        k = int(cut * ma)  # rows a list of two sets, stacked, when both are non-empty
        rows = [SampleSet(2, grid, xa[:k, None, None], np.ones(k)),
                SampleSet(3, grid, xa[k:, None, None], np.ones(ma - k))] if 0 < k < ma else a
        op = GaussTransform(rows, b, kernel)
        mat = einsum_penalty(a.trajectories, b.trajectories, kernel)
        wa = rng.uniform(0.0, 2.0, ma) * (rng.random(ma) < kept)
        wb = rng.uniform(0.0, 2.0, mb) * (rng.random(mb) < kept)
        assert op.shape == op.T.T.shape == mat.shape
        for got, want, w in ((op @ wb, mat @ wb, wb), (op.T @ wa, mat.T @ wa, wa)):
            bound = 1e-13 * kernel.peak(1) * np.abs(w).sum()
            assert np.abs(got - want).max() <= bound

    def test_needs_one_dimensional_single_step_sets(self):
        rng = np.random.default_rng(0)
        a, b = drawn_sets(1, [3, 4], 2, 1, 1.0)
        with pytest.raises(ValueError, match="1D single-step"):
            GaussTransform(a, b, KERNEL)
        a, b = (sample_set(k, rng, 3) for k in range(2))
        with pytest.raises(ValueError, match="1D single-step"):
            GaussTransform([a], b, KERNEL)

    def test_a_dropped_transform_and_its_transpose_are_freed(self):
        # a large-m solve drops its transforms once it returns; a reference
        # cycle between an operator and its transpose kept them until gc ran
        a, b = drawn_sets(2, [50, 60], 1, 1, 1.0)
        enabled = gc.isenabled()
        gc.disable()
        try:
            op = GaussTransform(a, b, KERNEL)
            refs = [weakref.ref(op), weakref.ref(op.T)]
            assert op.T is op.T  # built once, then kept
            del op
            assert [ref() for ref in refs] == [None, None]
        finally:
            if enabled:
                gc.enable()


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
        scores = interaction_scores(intent, crowd_of(sets), kernel)
        assert list(scores) == [s.agent for s in sets]
        for s in sets:
            row = np.array([pairwise_penalty(intent, s.trajectory(z), kernel) for z in range(s.m)])
            assert scores[s.agent] == float(row @ s.weights) / s.m

    def test_no_sets_gives_no_scores(self):
        empty = CrowdSamples([], np.empty((0, GRID.steps, 2)))
        assert interaction_scores(traj(np.zeros((GRID.steps, 2))), empty, KERNEL) == {}
