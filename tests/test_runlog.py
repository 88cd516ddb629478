import math

import numpy as np
import pytest

from distnav.errors import ConfigError
from distnav.metrics import classify_run
from distnav.runlog import RunLog, RunLogStep, read_runlog, write_runlog
from distnav.world import REPLAY, ROBOT, AgentState, WorldState


def demo_log():
    rng = np.random.default_rng(0)
    steps = []
    for k in range(6):
        robot = AgentState(-1, rng.normal(size=2), (0, 0), (5.0, 0.0), ROBOT)
        ped = AgentState(3, rng.normal(size=2), (0, 0), (0, 0), REPLAY)
        world = WorldState(0.4 * k, [robot, ped])
        sep = float(np.linalg.norm(robot.pos - ped.pos))
        replan_s = rng.uniform(0.01, 0.1)
        steps.append(RunLogStep(0.4 * k, world, replan_s if k < 5 else None, sep))
    return RunLog(steps=steps, outcome="arrived", seed=12, robot_id=-1, human_length=3.3)


class TestRoundTrip:
    def test_robot_series_survive_exactly(self, tmp_path):
        log = demo_log()
        write_runlog(log, tmp_path / "r.csv", tmp_path / "r.summary.json")
        loaded = read_runlog(tmp_path / "r.csv", tmp_path / "r.summary.json")
        assert np.array_equal(loaded.robot_positions(), log.robot_positions())
        assert np.array_equal(loaded.min_sep_series(), log.min_sep_series())
        assert loaded.replan_times() == [s.replan_s for s in log.steps if s.replan_s is not None]
        assert loaded.outcome == log.outcome
        assert loaded.human_length == log.human_length

    def test_loaded_steps_hold_the_robot_alone(self, tmp_path):
        log = demo_log()
        write_runlog(log, tmp_path / "r.csv", tmp_path / "r.summary.json")
        loaded = read_runlog(tmp_path / "r.csv", tmp_path / "r.summary.json")
        assert isinstance(loaded, RunLog)
        assert [s.time for s in loaded.steps] == [s.time for s in log.steps]
        assert all([a.kind for a in s.world.agents] == [ROBOT] for s in loaded.steps)
        assert loaded.duration == log.duration

    def test_classification_identical_after_round_trip(self, tmp_path):
        log = demo_log()
        write_runlog(log, tmp_path / "r.csv", tmp_path / "r.summary.json")
        loaded = read_runlog(tmp_path / "r.csv", tmp_path / "r.summary.json")
        a = classify_run(log, log.human_length)
        b = classify_run(loaded, loaded.human_length)
        assert a == b

    def test_no_timing_omits_replan_column(self, tmp_path):
        log = demo_log()
        write_runlog(log, tmp_path / "r.csv", tmp_path / "r.summary.json", include_timing=False)
        loaded = read_runlog(tmp_path / "r.csv", tmp_path / "r.summary.json")
        assert loaded.replan_times() == []
        text = (tmp_path / "r.summary.json").read_text()
        assert "mean_replan_s" not in text

    def test_missing_summary_raises_config_error(self, tmp_path):
        log = demo_log()
        write_runlog(log, tmp_path / "r.csv", tmp_path / "r.summary.json")
        with pytest.raises(ConfigError):
            read_runlog(tmp_path / "r.csv", tmp_path / "absent.json")

    def test_non_log_csv_rejected(self, tmp_path):
        (tmp_path / "bad.csv").write_text("a,b\n1,2\n")
        (tmp_path / "bad.summary.json").write_text('{"robot_id": -1, "outcome": "arrived"}\n')
        with pytest.raises(ConfigError):
            read_runlog(tmp_path / "bad.csv", tmp_path / "bad.summary.json")

    def test_nan_min_sep_round_trips(self, tmp_path):
        log = demo_log()
        for s in log.steps:
            s.world.agents = [a for a in s.world.agents if a.kind == ROBOT]
            s.min_sep = math.nan
        write_runlog(log, tmp_path / "r.csv", tmp_path / "r.summary.json")
        loaded = read_runlog(tmp_path / "r.csv", tmp_path / "r.summary.json")
        assert np.all(np.isnan(loaded.min_sep_series()))
