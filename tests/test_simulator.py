import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import distnav.planner
from distnav.dataset import extract_partials, load_dataset
from distnav.grids import TimeGrid
from distnav.metrics import classify_run
from distnav.planner import PlannerConfig, _pedestrian_observations, _robot_observations, replan
from distnav.runlog import ARRIVED
from distnav.simulator import (
    ScenarioConfig,
    human_baseline,
    run_interactive,
    run_replay,
)
from distnav.world import AgentState

from helpers import U, mean_operator_norm

FAST_PLANNER = PlannerConfig(samples_per_agent=60)
BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def two_ped_dataset(tmp_path_factory):
    """Two straight parallel walkers, 5 m apart, ~30 m long."""
    lines = []
    speed = 0.52
    for k in range(58):
        lines.append(f"{k} 1 {k * speed:.6f} 0.0")
        lines.append(f"{k} 2 {k * speed:.6f} 5.0")
    path = tmp_path_factory.mktemp("data") / "ds.txt"
    path.write_text("\n".join(lines) + "\n")
    return load_dataset(path)


def constant_velocity_history(agent, vel, now, cfg, frames=5):
    """The agent's ``(t, x, y)`` rows at velocity ``vel``, one a frame, the last at ``now``."""
    rows = []
    for k in range(frames):
        t = now - cfg.dt * (frames - 1 - k)
        pos = np.asarray(agent.pos, dtype=float) - np.asarray(vel) * cfg.dt * (frames - 1 - k)
        rows.append((t, *pos.tolist()))
    return rows


def hallway(c=(0.0, 0.0)):
    """The robot heads along x at 1.3 m/s; two pedestrians side by side walk
    at it. Every position and goal is shifted by c."""
    cfg = PlannerConfig(samples_per_agent=150)
    c = np.asarray(c, dtype=float)
    robot = AgentState(-1, c + (0.0, 0.0), (1.3, 0.0), c + (10.0, 0.0))
    p1 = AgentState(1, c + (8.0, 0.3), (-1.3, 0.0), c + (0.0, 0.3))
    p2 = AgentState(2, c + (8.0, -0.3), (-1.3, 0.0), c + (0.0, -0.3))
    history = {a.id: constant_velocity_history(a, a.vel, 2.0, cfg) for a in (robot, p1, p2)}
    return robot, [1, 2], history, cfg


@pytest.fixture
def bench_workloads(monkeypatch):
    """The benchmark's workload module, imported from bench/ and dropped afterwards."""
    monkeypatch.syspath_prepend(str(BENCH))
    before = set(sys.modules)
    import workloads

    yield workloads
    for name in set(sys.modules) - before:
        if Path(getattr(sys.modules[name], "__file__", None) or "/").parent == BENCH:
            del sys.modules[name]


class TestReplan:
    def test_zero_pedestrians_selects_prior_best(self):
        cfg = FAST_PLANNER
        robot = AgentState(-1, (0.0, 0.0), (1.3, 0.0), (6.0, 0.0))
        history = {-1: constant_velocity_history(robot, (1.3, 0.0), 0.0, cfg)}
        res = replan(robot, [], history, cfg, seed=3, frame=0)
        # a lone robot is solved like any crowd: no pair, J_0 = 0, no sweep
        assert res.report.initial_objective == 0.0
        assert (res.report.sweeps, res.report.terminated_by) == (0, "objective_threshold")
        assert res.critical == [-1]
        assert res.predictions == {}
        # reproduce the selection by hand: prior-density argmax of the same set
        from distnav.engine import select_optimal
        from distnav.gp import fit_preference, sample_trajectories
        from distnav.planner import _sample_seed

        grid = TimeGrid(0.0, cfg.dt, cfg.horizon_steps)
        track, prior = _robot_observations(robot, history[-1], cfg, 0.0)
        gp = fit_preference([track], grid, cfg.kernel, [prior])[0]
        ss = sample_trajectories([gp], cfg.samples_per_agent, [_sample_seed(3, 0, -1)], [-1])[0]
        expected = select_optimal([ss], {-1: gp})[-1]
        assert np.array_equal(res.robot_plan.states, expected.states)

    @pytest.mark.parametrize("threshold", [0.01, 1e9])  # both pedestrians critical, or neither
    def test_one_sampling_call_and_one_solve_per_replan(self, threshold, monkeypatch):
        """Every agent is sampled in one call, the robot first, and the critical
        agents are solved whether or not a pedestrian is among them."""
        calls = []

        def recorded(fn):
            def call(*args):
                calls.append((fn.__name__, args, fn(*args)))
                return calls[-1][2]
            return call

        for name in ("sample_trajectories", "solve"):
            monkeypatch.setattr(distnav.planner, name, recorded(getattr(distnav.planner, name)))
        robot, peds, history, cfg = hallway()
        cfg = replace(cfg, solver=replace(cfg.solver, critical_threshold=threshold))
        res = replan(robot, peds, history, cfg, seed=11, frame=5)
        assert [name for name, _, _ in calls] == ["sample_trajectories", "solve"]
        (_, sample_args, crowd), (_, solve_args, report) = calls
        assert sample_args[3] == [-1, 1, 2] and [s.agent for s in crowd] == [-1, 1, 2]
        assert res.critical == ([-1, 1, 2] if threshold < 1 else [-1])
        assert [s.agent for s in solve_args[0]] == res.critical and res.report is report

    def test_plan_starts_at_robot_position(self):
        cfg = FAST_PLANNER
        robot = AgentState(-1, (2.0, 1.0), (1.0, 0.0), (8.0, 1.0))
        ped = AgentState(5, (5.0, 1.0), (-1.0, 0.0), (0.0, 1.0))
        history = {
            -1: constant_velocity_history(robot, (1.0, 0.0), 4.0, cfg),
            5: constant_velocity_history(ped, (-1.0, 0.0), 4.0, cfg),
        }
        res = replan(robot, [5], history, cfg, seed=1, frame=10)
        assert np.linalg.norm(res.robot_plan.states[0] - robot.pos) < 0.05

    def test_hallway_keeps_predicted_separation(self):
        robot, peds, history, cfg = hallway()
        res = replan(robot, peds, history, cfg, seed=11, frame=5)
        assert set(res.critical) == {-1, 1, 2}
        plan = res.robot_plan.states
        for pid, pred in res.predictions.items():
            sep = np.linalg.norm(plan - pred.states, axis=1).min()
            assert sep >= 2 * cfg.collision.sigma, f"ped {pid} separation {sep}"

    @pytest.mark.parametrize("c", [(50.0, 50.0), (-1e3, 1e3)])
    def test_plan_and_predictions_shift_with_the_world(self, c):
        """The hallway shifted by c replans the same, shifted by c, within
        k u (1 + |c|).

        As in tests/test_gp.py's shift test, to first order a fit's mean moves
        by at most a * n_r + n_m roundings of at most u(|c| + W) each: a is
        ||A||_inf of its schedule, n_r counts the roundings in one residual
        and n_m those of the line over the grid; a sample adds 2. W = 1 + S + Q
        bounds the unshifted world's coordinates and the samples' spread.
        - A pedestrian: its history and latest position (made here from
          pos + c) and the fit's line terms give n_r = 9; its velocity
          estimate (b - a) / dt carries 4 roundings / dt, times up to
          H = 1.6 s in a residual and T = 7.6 s over the grid:
          n_r = 9 + 4 H / dt = 25, n_m = 6 + 4 T / dt = 82, a = 14.9.
        - The robot: its goal observation is goal + c projected onto the
          horizon (goal - pos, its norm, the direction times the reach,
          pos + step; the reach over the distance is 0.99 here), about 20
          roundings; its line is flat, n_m = 3; a = 279.
        So k = max(20 * 279 + 3, 25 * 14.9 + 82) + 2 < 5600 W, with S = 15 m
        (the history, goals and plans stay within 10.1 m of the origin) and
        Q = 15 m (7.5 posterior standard deviations). The count
        leaves out the Cholesky solve's own rounding of the robot's
        residuals, which are not zero against its flat line; the worst error
        measured at these shifts is 36 u (1 + |c|).
        """
        robot, peds, history, cfg = hallway()
        base = replan(robot, peds, history, cfg, seed=11, frame=5)
        shifted = replan(*hallway(c), seed=11, frame=5)
        assert shifted.critical == base.critical == [-1, 1, 2]

        grid, now = TimeGrid(2.0, cfg.dt, cfg.horizon_steps), 2.0
        robot_track, _ = _robot_observations(robot, history[-1], cfg, now)
        ped_track, _ = _pedestrian_observations(history[1], cfg)
        norms = [
            mean_operator_norm(times, noises, grid, cfg.kernel)
            for times, _, noises in (robot_track, ped_track)
        ]
        assert norms[0] < 279 and norms[1] < 14.9
        trajectories = {-1: (base.robot_plan, shifted.robot_plan)}
        trajectories.update((a, (base.predictions[a], shifted.predictions[a])) for a in base.predictions)
        assert max(np.abs(t.states).max() for t, _ in trajectories.values()) < 15
        bound = 5600 * (1 + 15 + 15) * U * (1 + max(map(abs, c)))
        for agent, (before, after) in trajectories.items():
            gap = np.abs(after.states - c - before.states).max()
            assert gap <= bound, f"agent {agent} moved {gap} m off the shift"

    def test_selects_only_the_robot_and_the_critical_pedestrians(self, monkeypatch):
        import distnav.engine as engine

        cfg = FAST_PLANNER
        robot = AgentState(-1, (0.0, 0.0), (1.3, 0.0), (10.0, 0.0))
        peds = [
            AgentState(1, (8.0, 0.3), (-1.3, 0.0), (0.0, 0.3)),
            AgentState(2, (8.0, -0.3), (-1.3, 0.0), (0.0, -0.3)),
            AgentState(3, (30.0, 30.0), (0.0, 1.0), (30.0, 40.0)),
            AgentState(4, (-20.0, 15.0), (-1.0, 0.0), (-30.0, 15.0)),
        ]
        history = {a.id: constant_velocity_history(a, a.vel, 2.0, cfg) for a in [robot, *peds]}
        calls = []
        real = engine.log_densities
        monkeypatch.setattr(engine, "log_densities", lambda gp, traj: calls.append(gp) or real(gp, traj))
        res = replan(robot, [1, 2, 3, 4], history, cfg, seed=11, frame=5)
        assert res.critical == [-1, 1, 2]
        assert len(calls) == len(res.critical)
        assert res.predictions.keys() == set(res.critical[1:])
        assert set(res.scores) == {1, 2, 3, 4}

    def test_critical_is_the_order_the_solve_receives(self, monkeypatch):
        import distnav.planner as planner

        cfg = FAST_PLANNER
        robot = AgentState(-1, (0.0, 0.0), (1.3, 0.0), (10.0, 0.0))
        peds = [  # pedestrian 1 walks at the robot, 2 passes 1.5 m to its side
            AgentState(1, (8.0, 0.0), (-1.3, 0.0), (0.0, 0.0)),
            AgentState(2, (8.0, 1.5), (-1.3, 0.0), (0.0, 1.5)),
        ]
        history = {a.id: constant_velocity_history(a, a.vel, 2.0, cfg) for a in [robot, *peds]}
        received, real = [], planner.solve
        monkeypatch.setattr(planner, "solve", lambda sets, *a: received.append([s.agent for s in sets]) or real(sets, *a))
        res = replan(robot, [1, 2], history, cfg, seed=11, frame=5)
        assert res.scores[1] > res.scores[2] > cfg.solver.critical_threshold
        assert received == [res.critical] == [[-1, 2, 1]]

    def test_same_seed_same_plan(self):
        cfg = FAST_PLANNER
        robot = AgentState(-1, (0.0, 0.0), (1.3, 0.0), (6.0, 0.0))
        ped = AgentState(1, (4.0, 0.2), (-1.3, 0.0), (0.0, 0.2))
        history = {
            -1: constant_velocity_history(robot, (1.3, 0.0), 0.0, cfg),
            1: constant_velocity_history(ped, (-1.3, 0.0), 0.0, cfg),
        }
        a = replan(robot, [1], history, cfg, seed=9, frame=2)
        b = replan(robot, [1], history, cfg, seed=9, frame=2)
        assert np.array_equal(a.robot_plan.states, b.robot_plan.states)
        for pid in a.predictions:
            assert np.array_equal(a.predictions[pid].states, b.predictions[pid].states)

    def test_a_replan_fits_only_the_last_history_window_rows(self):
        cfg = FAST_PLANNER
        robot = AgentState(-1, (0.0, 0.0), (1.3, 0.0), (10.0, 0.0))
        peds = [AgentState(1, (5.0, 0.3), (-1.3, 0.0), (0.0, 0.3)),
                AgentState(2, (6.0, -0.4), (-1.0, 0.2), (0.0, -0.4))]
        history = {a.id: constant_velocity_history(a, a.vel, 4.4, cfg, frames=12) for a in [robot, *peds]}
        # the rows before the window are off the line, so fitting them would show
        history = {a: [(t, x + 0.5, y - 0.5) for t, x, y in rows[:4]] + rows[4:] for a, rows in history.items()}
        assert cfg.history_window == 8  # the window starts after the changed rows
        full = replan(robot, [1, 2], history, cfg, seed=5, frame=11)
        window = replan(robot, [1, 2], {a: rows[-cfg.history_window:] for a, rows in history.items()}, cfg,
                        seed=5, frame=11)
        wide = replan(robot, [1, 2], history, replace(cfg, history_window=12), seed=5, frame=11)
        assert full.critical == window.critical and full.scores == window.scores
        assert full.robot_plan.states.tobytes() == window.robot_plan.states.tobytes()
        assert full.predictions.keys() == window.predictions.keys()
        for a in full.predictions:
            assert full.predictions[a].states.tobytes() == window.predictions[a].states.tobytes()
        assert wide.robot_plan.states.tobytes() != full.robot_plan.states.tobytes()

    @pytest.mark.parametrize("rows", [None, []])
    def test_a_world_agent_without_history_is_refused(self, rows):
        cfg = FAST_PLANNER
        robot = AgentState(-1, (0.0, 0.0), (1.3, 0.0), (6.0, 0.0))
        ped = AgentState(7, (4.0, 0.2), (-1.3, 0.0), (0.0, 0.2))
        history = {-1: constant_velocity_history(robot, robot.vel, 0.0, cfg)}
        if rows is not None:
            history[7] = rows
        with pytest.raises(ValueError, match=r"no observation of agents \[7\]"):
            replan(robot, [ped.id], history, cfg)
        with pytest.raises(ValueError, match=r"no observation of agents \[-1\]"):
            replan(robot, [], {}, cfg)

    def test_rows_of_pedestrians_who_have_left_are_not_read(self):
        robot, peds, history, cfg = hallway()
        gone = AgentState(9, (4.0, 0.5), (-1.0, 0.0), (0.0, 0.5))
        with_gone = {**history, 9: constant_velocity_history(gone, gone.vel, 1.6, cfg)}
        base = replan(robot, peds, history, cfg, seed=11, frame=5)
        got = replan(robot, peds, with_gone, cfg, seed=11, frame=5)
        assert got.critical == base.critical and got.scores == base.scores
        assert got.robot_plan.states.tobytes() == base.robot_plan.states.tobytes()
        assert got.predictions.keys() == base.predictions.keys()
        for a in base.predictions:
            assert got.predictions[a].states.tobytes() == base.predictions[a].states.tobytes()

    def test_sample_seeds_take_negative_frames(self):
        from distnav.planner import _sample_seed

        def state(seq):
            return seq.generate_state(4).tobytes()

        for frame in (0, 1, 57, 2**63 - 1):  # a frame >= 0 keeps the seed it always had
            assert state(_sample_seed(3, frame, -1)) == state(np.random.SeedSequence((3, frame, 0)))
        frames = range(-5, 6)
        assert len({state(_sample_seed(3, frame, 2)) for frame in frames}) == len(frames)


class TestRunReplay:
    def test_unobstructed_run_is_nearly_straight(self, two_ped_dataset):
        partial = extract_partials(two_ped_dataset)[0]  # ped 1; ped 2 stays 5 m away
        log = run_replay(two_ped_dataset, partial, FAST_PLANNER, seed=0)
        assert log.outcome == ARRIVED
        rc = classify_run(log)
        straight = np.linalg.norm(partial.goal - partial.start)
        assert rc.robot_path_length <= 1.1 * straight

    def test_replayed_positions_match_dataset_bit_for_bit(self, two_ped_dataset):
        partial = extract_partials(two_ped_dataset)[0]
        log = run_replay(two_ped_dataset, partial, FAST_PLANNER, seed=0)
        for step in log.steps:
            frame = round(step.time / two_ped_dataset.frame_period)
            for agent, x, y in step.rows:
                if agent != log.robot_id:
                    rec = two_ped_dataset.position_at(agent, frame)
                    assert rec is not None
                    assert x == rec[0] and y == rec[1]

    def test_min_sep_defined_whenever_pedestrian_present(self, two_ped_dataset):
        partial = extract_partials(two_ped_dataset)[0]
        log = run_replay(two_ped_dataset, partial, FAST_PLANNER, seed=0)
        for step in log.steps:
            has_ped = any(agent != log.robot_id for agent, _, _ in step.rows)
            assert has_ped == np.isfinite(step.min_sep)

    def test_executed_path_is_continuous(self, two_ped_dataset):
        partial = extract_partials(two_ped_dataset)[0]
        cfg = FAST_PLANNER
        log = run_replay(two_ped_dataset, partial, cfg, seed=0)
        pos = log.robot_positions()
        steps = np.linalg.norm(np.diff(pos, axis=0), axis=1)
        assert np.all(steps <= cfg.max_speed * two_ped_dataset.frame_period + 1e-9)

    def test_unknown_partial_rejected(self, two_ped_dataset):
        from distnav.dataset import PartialRun

        fake = PartialRun(99, 0, 20, np.array([[0.0, 0.0], [10.0, 0.0]]))
        with pytest.raises(ValueError):
            run_replay(two_ped_dataset, fake, FAST_PLANNER)

    def test_determinism(self, two_ped_dataset):
        partial = extract_partials(two_ped_dataset)[0]
        a = run_replay(two_ped_dataset, partial, FAST_PLANNER, seed=4)
        b = run_replay(two_ped_dataset, partial, FAST_PLANNER, seed=4)
        assert np.array_equal(a.robot_positions(), b.robot_positions())
        assert a.outcome == b.outcome

    def test_plaza_replay_does_not_depend_on_the_origin(self, bench_workloads, tmp_path):
        # the benchmark's plaza file: 4 partial runs among about 60 pedestrians,
        # replayed as written, centred on the origin and shifted past it
        tracks = bench_workloads.plaza_tracks(7, bench_workloads.FULL)
        runs = {}
        for dx, dy in [(0.0, 0.0), (-30.0, -30.0), (-60.0, -60.0)]:
            path = tmp_path / f"plaza_{dx:+.0f}.txt"
            shifted = {p: {f: (x + dx, y + dy) for f, (x, y) in t.items()} for p, t in tracks.items()}
            bench_workloads.write_plaza(shifted, path)
            ds = load_dataset(path)
            runs[dx] = []
            for k, partial in enumerate(extract_partials(ds)[:4]):
                log = run_replay(ds, partial, PlannerConfig(), seed=7 + k)
                rc = classify_run(log)
                runs[dx].append((log.outcome, len(log.steps), rc.ratio, rc.min_sep))
        base = runs.pop(0.0)
        assert [r[0] for r in base] == [ARRIVED] * 4
        for dx, shifted in runs.items():
            for (outcome, steps, ratio, sep), got in zip(base, shifted):
                assert got[:2] == (outcome, steps), f"offset {dx}"
                # measured: within 6e-12, relative
                assert math.isclose(got[2], ratio, rel_tol=1e-9), f"offset {dx}"
                assert math.isclose(got[3], sep, rel_tol=1e-9), f"offset {dx}"


class TestHumanBaseline:
    def test_ratio_exactly_one_and_no_freezing(self, two_ped_dataset):
        for partial in extract_partials(two_ped_dataset):
            log = human_baseline(two_ped_dataset, partial)
            rc = classify_run(log)
            assert rc.ratio == 1.0
            assert not rc.freezing
            assert not rc.collision


class TestRunInteractive:
    def test_empty_arena_reaches_goal_at_nominal_speed(self):
        scenario = ScenarioConfig(n_pedestrians=0, time_cap_s=30.0)
        log = run_interactive(scenario, FAST_PLANNER, seed=0)
        assert log.outcome == ARRIVED
        nominal = 2 * scenario.arena_radius / scenario.sfm.desired_speed
        assert abs(log.duration - nominal) <= 0.2 * nominal

    def test_pedestrians_circulate_and_robot_arrives(self):
        scenario = ScenarioConfig(n_pedestrians=3, time_cap_s=40.0)
        log = run_interactive(scenario, FAST_PLANNER, seed=1)
        assert log.outcome == ARRIVED
        # min_sep defined at every step since pedestrians are always present
        assert np.all(np.isfinite(log.min_sep_series()))

    def test_bit_identical_under_fixed_seed(self):
        scenario = ScenarioConfig(n_pedestrians=2, time_cap_s=30.0)
        a = run_interactive(scenario, FAST_PLANNER, seed=7)
        b = run_interactive(scenario, FAST_PLANNER, seed=7)
        assert len(a.steps) == len(b.steps)
        assert np.array_equal(a.robot_positions(), b.robot_positions())
        for sa, sb in zip(a.steps, b.steps):
            for row_a, row_b in zip(sa.rows, sb.rows):
                assert row_a == row_b

    def test_robot_visible_to_pedestrians(self):
        # the lone pedestrian crosses near the robot and must deviate from the
        # straight line it would walk in an empty arena (robot repels it)
        scenario = ScenarioConfig(n_pedestrians=1, time_cap_s=20.0)
        log = run_interactive(scenario, FAST_PLANNER, seed=3)
        ped_path = np.array([next(row[1:] for row in s.rows if row[0] == 0) for s in log.steps])
        start = ped_path[0]
        goal = -start  # run_interactive's first goal: across the arena
        line_dir = (goal - start) / np.linalg.norm(goal - start)
        rel = ped_path - start
        lateral = np.abs(rel[:, 0] * line_dir[1] - rel[:, 1] * line_dir[0])
        assert lateral.max() > 1e-4
