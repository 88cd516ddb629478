import numpy as np
import pytest

from hypothesis import given
from hypothesis import strategies as st

from distnav.sfm import SfmParams, step_sfm
from distnav.world import AgentState, min_separation


def by_id(agents, agent_id):
    return next(a for a in agents if a.id == agent_id)


class TestMinSeparation:
    def test_min_separation_without_pedestrians_is_nan(self):
        assert np.isnan(min_separation([(-1, 0.0, 0.0)]))

    def test_min_separation_picks_nearest(self):
        rows = [(-1, 0.0, 0.0), (1, 3.0, 4.0), (2, 0.0, 1.0)]
        assert min_separation(rows) == pytest.approx(1.0)

    @given(st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)), min_size=1, max_size=6))
    def test_min_separation_is_the_nearest_norm_bit_for_bit(self, points):
        rows = [(k - 1, x, y) for k, (x, y) in enumerate(points)]
        robot = np.array(points[0])
        norms = [float(np.linalg.norm(np.array(p) - robot)) for p in points[1:]]
        got = min_separation(rows)
        if norms:
            assert got.hex() == min(norms).hex()
        else:
            assert np.isnan(got)


class TestSfmParams:
    def test_max_speed_must_cover_desired(self):
        with pytest.raises(ValueError):
            SfmParams(desired_speed=2.0, max_speed=1.0)

    def test_positive_fields(self):
        with pytest.raises(ValueError):
            SfmParams(relaxation_time=0.0)


class TestStepSfm:
    def test_relaxation_to_desired_speed(self):
        # closed form: v(t) = v_d (1 - exp(-t/tau)); 95% at t = 3 tau
        params = SfmParams()
        peds = [AgentState(0, (0, 0), (0, 0), (100.0, 0.0))]
        dt = 0.05
        speeds = []
        for _ in range(int(3 * params.relaxation_time / dt)):
            peds = step_sfm(peds, [], params, dt)
            speeds.append(float(np.linalg.norm(by_id(peds, 0).vel)))
        assert all(b >= a - 1e-12 for a, b in zip(speeds, speeds[1:]))
        assert speeds[-1] >= 0.95 * params.desired_speed
        assert speeds[-1] <= params.desired_speed + 1e-9

    def test_head_on_pair_stays_mirror_symmetric(self):
        params = SfmParams()
        a = AgentState(0, (0.0, 0.0), (0, 0), (10.0, 0.0))
        b = AgentState(1, (10.0, 0.0), (0, 0), (0.0, 0.0))
        peds = [a, b]
        center = np.array([5.0, 0.0])
        for _ in range(120):
            peds = step_sfm(peds, [], params, 0.05)
            pa, pb = by_id(peds, 0).pos, by_id(peds, 1).pos
            assert np.max(np.abs((pa - center) + (pb - center))) < 1e-9
        # the rightward tie-break separated them laterally
        assert abs(by_id(peds, 0).pos[1]) > 1e-4

    def test_agent_at_goal_stays_put(self):
        params = SfmParams()
        peds = [AgentState(0, (2.0, 3.0), (0.0, 0.0), (2.0, 3.0))]
        for _ in range(100):
            peds = step_sfm(peds, [], params, 0.05)
        assert np.linalg.norm(by_id(peds, 0).pos - np.array([2.0, 3.0])) < 0.01

    def test_others_are_read_and_not_moved(self):
        params = SfmParams()
        robot = AgentState(-1, (0, 0), (1, 0), (5, 0))
        peds = [AgentState(0, (1, 1), (0, 0), (4, 4))]
        out = step_sfm(peds, [robot], params, 0.1)
        assert [a.id for a in out] == [0]
        assert np.array_equal(robot.pos, (0.0, 0.0))
        assert not np.array_equal(by_id(out, 0).pos, by_id(peds, 0).pos)

    def test_repulsion_pushes_away_from_robot(self):
        params = SfmParams(repulsion_strength=5.0)
        ped = AgentState(0, (0.0, 0.0), (0, 0), (0.0, 0.0))  # no goal pull
        robot = AgentState(-1, (0.2, 0.0), (0, 0), (5, 0))
        out = step_sfm([ped], [robot], params, 0.1)
        assert by_id(out, 0).pos[0] < 0.0  # pushed in -x, away from the robot

    def test_dt_must_be_positive(self):
        with pytest.raises(ValueError):
            step_sfm([AgentState(0, (0, 0), (0, 0), (1, 0))], [], SfmParams(), 0.0)

    def test_determinism(self):
        params = SfmParams()
        def run():
            peds = [
                AgentState(0, (0.0, 0.1), (0, 0), (8.0, 0.0)),
                AgentState(1, (8.0, -0.1), (0, 0), (0.0, 0.0)),
            ]
            for _ in range(50):
                peds = step_sfm(peds, [], params, 0.1)
            return by_id(peds, 0).pos.copy(), by_id(peds, 1).pos.copy()

        one, two = run(), run()
        assert np.array_equal(one[0], two[0]) and np.array_equal(one[1], two[1])
