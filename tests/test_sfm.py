import numpy as np
import pytest

from distnav.sfm import SfmParams, step_sfm
from distnav.world import ROBOT, SFM, AgentState, WorldState, min_separation


def world_with(agents, t=0.0):
    return WorldState(t, agents)


def by_id(world, agent_id):
    return next(a for a in world.agents if a.id == agent_id)


class TestWorldState:
    def test_duplicate_ids_rejected(self):
        a = AgentState(1, (0, 0), (0, 0), (1, 1), SFM)
        b = AgentState(1, (2, 2), (0, 0), (3, 3), SFM)
        with pytest.raises(ValueError):
            world_with([a, b])

    def test_min_separation_without_pedestrians_is_nan(self):
        w = world_with([AgentState(-1, (0, 0), (0, 0), (1, 0), ROBOT)])
        assert np.isnan(min_separation(w))

    def test_min_separation_picks_nearest(self):
        w = world_with(
            [
                AgentState(-1, (0, 0), (0, 0), (1, 0), ROBOT),
                AgentState(1, (3, 4), (0, 0), (0, 0), SFM),
                AgentState(2, (0, 1), (0, 0), (0, 0), SFM),
            ]
        )
        assert min_separation(w) == pytest.approx(1.0)


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
        agent = AgentState(0, (0, 0), (0, 0), (100.0, 0.0), SFM)
        world = world_with([agent])
        dt = 0.05
        speeds = []
        for _ in range(int(3 * params.relaxation_time / dt)):
            world = step_sfm(world, params, dt)
            speeds.append(float(np.linalg.norm(by_id(world, 0).vel)))
        assert all(b >= a - 1e-12 for a, b in zip(speeds, speeds[1:]))
        assert speeds[-1] >= 0.95 * params.desired_speed
        assert speeds[-1] <= params.desired_speed + 1e-9

    def test_head_on_pair_stays_mirror_symmetric(self):
        params = SfmParams()
        a = AgentState(0, (0.0, 0.0), (0, 0), (10.0, 0.0), SFM)
        b = AgentState(1, (10.0, 0.0), (0, 0), (0.0, 0.0), SFM)
        world = world_with([a, b])
        center = np.array([5.0, 0.0])
        for _ in range(120):
            world = step_sfm(world, params, 0.05)
            pa, pb = by_id(world, 0).pos, by_id(world, 1).pos
            assert np.max(np.abs((pa - center) + (pb - center))) < 1e-9
        # the rightward tie-break separated them laterally
        assert abs(by_id(world, 0).pos[1]) > 1e-4

    def test_agent_at_goal_stays_put(self):
        params = SfmParams()
        agent = AgentState(0, (2.0, 3.0), (0.0, 0.0), (2.0, 3.0), SFM)
        world = world_with([agent])
        for _ in range(100):
            world = step_sfm(world, params, 0.05)
        assert np.linalg.norm(by_id(world, 0).pos - np.array([2.0, 3.0])) < 0.01

    def test_robot_and_replay_agents_do_not_move(self):
        params = SfmParams()
        world = world_with(
            [
                AgentState(-1, (0, 0), (1, 0), (5, 0), ROBOT),
                AgentState(0, (1, 1), (0, 0), (4, 4), SFM),
            ]
        )
        out = step_sfm(world, params, 0.1)
        assert np.array_equal(out.robot().pos, world.robot().pos)
        assert not np.array_equal(by_id(out, 0).pos, by_id(world, 0).pos)

    def test_repulsion_pushes_away_from_robot(self):
        params = SfmParams(repulsion_strength=5.0)
        ped = AgentState(0, (0.0, 0.0), (0, 0), (0.0, 0.0), SFM)  # no goal pull
        robot = AgentState(-1, (0.2, 0.0), (0, 0), (5, 0), ROBOT)
        world = world_with([ped, robot])
        out = step_sfm(world, params, 0.1)
        assert by_id(out, 0).pos[0] < 0.0  # pushed in -x, away from the robot

    def test_dt_must_be_positive(self):
        world = world_with([AgentState(0, (0, 0), (0, 0), (1, 0), SFM)])
        with pytest.raises(ValueError):
            step_sfm(world, SfmParams(), 0.0)

    def test_determinism(self):
        params = SfmParams()
        def run():
            world = world_with(
                [
                    AgentState(0, (0.0, 0.1), (0, 0), (8.0, 0.0), SFM),
                    AgentState(1, (8.0, -0.1), (0, 0), (0.0, 0.0), SFM),
                ]
            )
            for _ in range(50):
                world = step_sfm(world, params, 0.1)
            return by_id(world, 0).pos.copy(), by_id(world, 1).pos.copy()

        one, two = run(), run()
        assert np.array_equal(one[0], two[0]) and np.array_equal(one[1], two[1])
