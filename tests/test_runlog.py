import math

import numpy as np
import pytest

from distnav.errors import ConfigError
from distnav.metrics import classify_run
from distnav.runlog import RunLog, RunLogStep, read_runlog, write_runlog
from distnav.world import ROBOT

from helpers import broken_log, demo_log


class TestRoundTrip:
    def test_a_log_needs_its_human_length(self):
        # read_runlog refuses a summary without one, so no log is built without it
        with pytest.raises(TypeError, match="human_length"):
            RunLog(steps=[])

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
        a = classify_run(log)
        b = classify_run(loaded)
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


class TestBrokenLogs:
    @pytest.mark.parametrize(
        "case, message",
        [
            ("field", r"run_0000\.csv:3: could not convert string to float: 'west'"),
            ("short", r"run_0000\.csv:3: not enough values to unpack"),
            ("summary", r"run_0000\.summary\.json: a run summary needs an integer robot_id"),
            ("inf_x", r"run_0000\.csv:3: agent -1 has non-finite state"),
            ("inf_y", r"run_0000\.csv:3: agent -1 has non-finite state"),
            ("nan_t", r"run_0000\.csv:3: non-finite time nan"),
            ("inf_t", r"run_0000\.csv:3: non-finite time inf"),
            ("no_human", r"run_0000\.summary\.json: human_path_length_m must be a positive finite number, got None"),
            ("null_human", r"run_0000\.summary\.json: human_path_length_m must be .*, got None"),
            ("text_human", r"run_0000\.summary\.json: human_path_length_m must be .*, got '3\.3'"),
            ("zero_human", r"run_0000\.summary\.json: human_path_length_m must be .*, got 0"),
            ("nan_human", r"run_0000\.summary\.json: human_path_length_m must be .*, got nan"),
            ("bool_human", r"run_0000\.summary\.json: human_path_length_m must be .*, got True"),
        ],
    )
    def test_config_error_names_the_file_and_line(self, tmp_path, case, message):
        with pytest.raises(ConfigError, match=message):
            read_runlog(*broken_log(tmp_path, case))

    @pytest.mark.parametrize("summary", ["[]", '{"robot_id": "-1", "outcome": "arrived"}', '{"robot_id": -1}'])
    def test_a_summary_of_another_shape_is_refused(self, tmp_path, summary):
        csv_path, summary_path = broken_log(tmp_path, "summary")
        summary_path.write_text(summary)
        with pytest.raises(ConfigError, match="needs an integer robot_id and an outcome"):
            read_runlog(csv_path, summary_path)
