import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distnav.errors import ConfigError
from distnav.metrics import classify_run
from distnav.runlog import RunLog, RunLogStep, read_runlog, write_runlog

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
        assert loaded.replan_times() == log.replan_times()
        assert loaded.outcome == log.outcome
        assert loaded.human_length == log.human_length

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_every_row_survives_bit_for_bit(self, tmp_path_factory, data):
        finite = st.floats(allow_nan=False, allow_infinity=False)
        position = st.floats(-1e150, 1e150)  # the summary's path length squares no overflow
        times = data.draw(st.lists(finite, min_size=1, max_size=5, unique=True).map(sorted))
        replan = st.none() | st.floats(0.0, 1e6)
        separation = st.floats(0.0, allow_infinity=False)  # a distance: read_runlog refuses a negative one
        steps = []
        for t in times:
            peds = data.draw(st.lists(st.integers(0, 2**63 - 1), unique=True, max_size=3))
            rows = [(agent, data.draw(position), data.draw(position)) for agent in [-1, *peds]]
            steps.append(RunLogStep(t, rows, data.draw(replan), data.draw(st.just(math.nan) | separation)))
        log = RunLog(steps=steps, outcome="timeout", seed=None, robot_id=-1, human_length=1.0)

        tmp_path = tmp_path_factory.mktemp("log")
        write_runlog(log, tmp_path / "r.csv", tmp_path / "r.summary.json")
        loaded = read_runlog(tmp_path / "r.csv", tmp_path / "r.summary.json")

        def bits(step):  # float.hex tells -0.0 from 0.0 and matches NaN
            rows = [(agent, x.hex(), y.hex()) for agent, x, y in step.rows]
            replan_ms = None if step.replan_ms is None else step.replan_ms.hex()
            return step.time.hex(), rows, replan_ms, step.min_sep.hex()

        assert [bits(s) for s in loaded.steps] == [bits(s) for s in log.steps]
        assert [s.hex() for s in loaded.replan_times()] == [s.hex() for s in log.replan_times()]

    def test_classification_identical_after_round_trip(self, tmp_path):
        log = demo_log()
        write_runlog(log, tmp_path / "r.csv", tmp_path / "r.summary.json")
        loaded = read_runlog(tmp_path / "r.csv", tmp_path / "r.summary.json")
        a = classify_run(log)
        b = classify_run(loaded)
        assert a == b

    def test_no_timing_omits_replan_column(self, tmp_path):
        log = demo_log()
        for s in log.steps:  # as a --no-timing batch writes it
            s.replan_ms = None
        write_runlog(log, tmp_path / "r.csv", tmp_path / "r.summary.json")
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
            s.rows = s.rows[:1]
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
            ("neg_sep", r"run_0000\.csv:3: separation must be finite and >= 0, got -3\.0"),
            ("nan_sep", r"run_0000\.csv:3: separation must be finite and >= 0, got nan"),
            ("inf_replan", r"run_0000\.csv:3: replan time must be finite and >= 0, got inf"),
            ("neg_replan", r"run_0000\.csv:3: replan time must be finite and >= 0, got -1\.0"),
            ("no_human", r"run_0000\.summary\.json: human_path_length_m must be a positive finite number, got None"),
            ("null_human", r"run_0000\.summary\.json: human_path_length_m must be .*, got None"),
            ("text_human", r"run_0000\.summary\.json: human_path_length_m must be .*, got '3\.3'"),
            ("zero_human", r"run_0000\.summary\.json: human_path_length_m must be .*, got 0"),
            ("nan_human", r"run_0000\.summary\.json: human_path_length_m must be .*, got nan"),
            ("bool_human", r"run_0000\.summary\.json: human_path_length_m must be .*, got True"),
            ("ped_field", r"run_0000\.csv:3: could not convert string to float: 'west'"),
            ("ped_inf_y", r"run_0000\.csv:3: agent 3 has non-finite state"),
            ("ped_first", r"run_0000\.csv:2: agent 3's row at time 0\.0 does not follow a robot row at that time"),
            ("ped_time", r"run_0000\.csv:3: agent 3's row at time 0\.1 does not follow a robot row at that time"),
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
