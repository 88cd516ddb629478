import csv
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import distnav
from distnav.cli import main
from distnav.dataset import extract_partials, load_dataset
from distnav.runlog import read_runlog, write_runlog
from helpers import BROKEN_ROWS, BROKEN_SUMMARIES, broken_log, demo_log


@pytest.fixture()
def dataset(tmp_path):
    lines = []
    speed = 0.52
    for k in range(58):
        lines.append(f"{k} 1 {k * speed:.6f} 0.0")
        lines.append(f"{k} 2 {k * speed:.6f} 5.0")
    path = tmp_path / "ds.txt"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture()
def fast_config(tmp_path):
    path = tmp_path / "fast.yaml"
    path.write_text("samples_per_agent: 50\n")
    return path


def run_cli(*args):
    return main([str(a) for a in args])


def assert_same_files(a, b):
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_start_up_leaves_out_what_the_planner_does_not_use():
    # scipy.linalg's __init__ (and the numpy.f2py it loads) and the process
    # pool were once half of a fresh start-up
    unwanted = ["scipy.linalg", "numpy.f2py", "concurrent.futures.process"]
    code = f"import sys, distnav.cli; print([m for m in {unwanted!r} if m in sys.modules])"
    src = str(Path(distnav.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


class TestPrintConfig:
    def test_prints_parseable_yaml(self, capsys):
        assert run_cli("print-config") == 0
        data = yaml.safe_load(capsys.readouterr().out)
        assert data["collision"]["sigma"] == 0.35


class TestExitCodes:
    def test_numerical_failure_exits_1(self, tmp_path, monkeypatch):
        import distnav.cli as cli
        from distnav.errors import NumericalError

        def boom(*args, **kwargs):
            raise NumericalError("synthetic failure")

        monkeypatch.setattr(cli, "load_dataset", boom)
        code = run_cli("replay", "--dataset", tmp_path / "x.txt", "--out", tmp_path / "o")
        assert code == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("replay", "--limit", -1), "--limit must be >= 1"),
            (("replay", "--limit", 0), "--limit must be >= 1"),
            (("replay", "--jobs", -3), "--jobs must be >= 1"),
            (("simulate", "--jobs", 0), "--jobs must be >= 1"),
            (("simulate", "--runs", 0), "--runs must be >= 1"),
        ],
    )
    def test_bad_counts_exit_2(self, dataset, tmp_path, capsys, argv, message):
        extra = ("--dataset", dataset) if argv[0] == "replay" else ()
        out = tmp_path / "o"
        assert run_cli(*argv, *extra, "--out", out) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_empty_scenario_section_with_pedestrians_exits_2(self, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("scenario:\n")
        code = run_cli("simulate", "--config", cfg, "--pedestrians", 2, "--out", tmp_path / "o")
        assert code == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            ("planner:\n  obs_noise_var: x\n", "'obs_noise_var' must be a number, got 'x'"),
            ("out: 5\n", "'out' must be a string, got 5"),
        ],
    )
    def test_mistyped_config_field_exits_2(self, tmp_path, monkeypatch, capsys, text, message):
        monkeypatch.chdir(tmp_path)  # the config's own out, if it were taken
        cfg = tmp_path / "c.yaml"
        cfg.write_text(text)
        assert run_cli("simulate", "--config", cfg, "--runs", 1) == 2
        assert message in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.yaml"]

    @pytest.mark.parametrize(
        "value, message",
        [
            ("-0.001", "rtol must be finite and >= 0, got -0.001"),
            (".nan", "rtol must be finite and >= 0, got nan"),
            (".inf", "rtol must be finite and >= 0, got inf"),
            ("-.inf", "rtol must be finite and >= 0, got -inf"),
            ("x", "'rtol' must be a number, got 'x'"),
            ("'1e-3'", "'rtol' must be a number, got '1e-3'"),
        ],
    )
    def test_bad_solver_rtol_exits_2(self, tmp_path, monkeypatch, capsys, value, message):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "c.yaml"
        cfg.write_text(f"solver:\n  rtol: {value}\n")
        assert run_cli("simulate", "--config", cfg, "--runs", 1) == 2
        assert message in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.yaml"]

    @pytest.mark.parametrize("field", ["epsilon", "critical_threshold"])
    @pytest.mark.parametrize("value, shown", [(".nan", "nan"), (".inf", "inf"), ("-0.001", "-0.001")])
    def test_bad_solver_threshold_exits_2(self, tmp_path, monkeypatch, capsys, field, value, shown):
        # a nan threshold never fires: no objective ends a solve, no pedestrian is critical
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "c.yaml"
        cfg.write_text(f"solver:\n  {field}: {value}\n")
        assert run_cli("simulate", "--config", cfg, "--runs", 1) == 2
        assert f"{field} must be finite and >= 0, got {shown}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.yaml"]

    @pytest.mark.parametrize(
        "section, field, value, message",
        [
            ("planner", "history_window", "0", "history_window must be >= 1, got 0"),
            ("planner", "history_window", "-2", "history_window must be >= 1, got -2"),
            ("planner", "obs_noise_var", "-0.1", "obs_noise_var must be >= 0, got -0.1"),
            ("planner", "obs_noise_var", ".nan", "obs_noise_var must be >= 0, got nan"),
            ("planner", "goal_noise_var", "-0.1", "goal_noise_var must be >= 0, got -0.1"),
            ("planner", "goal_noise_var", ".nan", "goal_noise_var must be >= 0, got nan"),
            ("scenario", "time_cap_s", ".inf", "'time_cap_s' must be finite, got inf"),
            ("scenario", "arena_radius", ".nan", "'arena_radius' must be finite, got nan"),
            ("scenario", "goal_tolerance", "-1", "goal_tolerance must be > 0, got -1"),
            ("gp", "length_scale", ".inf", "'length_scale' must be finite, got inf"),
            ("collision", "sigma", ".inf", "'sigma' must be finite, got inf"),
        ],
    )
    def test_out_of_range_config_value_exits_2(
        self, tmp_path, monkeypatch, capsys, section, field, value, message
    ):
        # each once ran: a whole history, an empty one, every episode failing,
        # a run that never arrives, or an infinite kernel taken as valid
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "c.yaml"
        cfg.write_text(f"{section}:\n  {field}: {value}\n")
        assert run_cli("simulate", "--config", cfg, "--runs", 1) == 2
        assert message in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.yaml"]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_episode_keeps_the_rest_of_the_batch(
        self, tmp_path, fast_config, monkeypatch, capsys, jobs
    ):
        # the pool forks, so the patched planner reaches the workers too
        import distnav.simulator as simulator
        from distnav.errors import NumericalError

        real = simulator.replan

        def flaky(robot, peds, history, cfg, seed=0, frame=0):
            if seed == 1:
                raise NumericalError("synthetic failure")
            return real(robot, peds, history, cfg, seed=seed, frame=frame)

        monkeypatch.setattr(simulator, "replan", flaky)
        out = tmp_path / "sim"
        out.mkdir()
        (out / "run_0001.csv").write_text("left by an earlier call\n")
        code = run_cli(
            "simulate", "--config", fast_config, "--pedestrians", 2, "--runs", 3,
            "--seed", 0, "--out", out, "--no-timing", "--jobs", jobs,
        )
        assert code == 1
        assert "run_0001: NumericalError: synthetic failure" in capsys.readouterr().err
        assert not (out / "run_0001.csv").exists()
        failed = json.loads((out / "run_0001.summary.json").read_text())
        assert failed["outcome"] == "error"
        assert failed["error"] == "NumericalError: synthetic failure"
        assert "in flaky" in failed["traceback"]
        for k in (0, 2):
            assert (out / f"run_{k:04d}.csv").exists()
            assert json.loads((out / f"run_{k:04d}.summary.json").read_text())["seed"] == k
        report = json.loads((out / "simulation_report.json").read_text())
        assert report["runs"] == 2
        assert report["metrics"]["runs"] == 2
        assert report["errors"] == {"run_0001": "NumericalError: synthetic failure"}

    def test_replay_report_lists_error_runs_only_when_there_are_some(
        self, dataset, tmp_path, fast_config, monkeypatch
    ):
        import distnav.cli as cli

        real = cli.run_replay

        def flaky(ds, partial, planner_cfg, replay_cfg, seed):
            if seed == 1:
                raise ValueError("synthetic failure")
            return real(ds, partial, planner_cfg, replay_cfg, seed)

        args = ("replay", "--dataset", dataset, "--config", fast_config, "--limit", 2, "--seed", 0, "--no-timing")
        assert run_cli(*args, "--out", tmp_path / "clean") == 0
        clean = json.loads((tmp_path / "clean" / "metrics_report.json").read_text())
        assert "errors" not in clean
        monkeypatch.setattr(cli, "run_replay", flaky)
        assert run_cli(*args, "--out", tmp_path / "failed") == 1
        report = json.loads((tmp_path / "failed" / "metrics_report.json").read_text())
        assert report.pop("errors") == {"run_0001": "ValueError: synthetic failure"}
        assert report["runs"] == 1


class TestStreamedBatch:
    @pytest.mark.parametrize("command", ["simulate", "replay"])
    def test_each_run_log_is_dropped_before_the_next_run(
        self, dataset, tmp_path, fast_config, monkeypatch, command
    ):
        import distnav.cli as cli

        name = "run_interactive" if command == "simulate" else "run_replay"
        real = getattr(cli, name)
        refs, previous_gone = [], []

        def tracked(*payload):
            if refs:
                previous_gone.append(refs[-1]() is None)
            log = real(*payload)
            refs.append(weakref.ref(log))
            return log

        monkeypatch.setattr(cli, name, tracked)
        if command == "simulate":
            args = ("simulate", "--pedestrians", 2, "--runs", 3)
        else:
            args = ("replay", "--dataset", dataset, "--limit", 3)
        code = run_cli(*args, "--config", fast_config, "--out", tmp_path / "out", "--no-timing")
        assert code == 0
        assert previous_gone == [True, True]

    def test_an_interrupted_batch_keeps_the_runs_it_finished(self, tmp_path, fast_config, monkeypatch):
        import distnav.cli as cli

        args = ("simulate", "--config", fast_config, "--pedestrians", 2, "--runs", 3, "--seed", 0, "--no-timing")
        whole, cut = tmp_path / "whole", tmp_path / "cut"
        assert run_cli(*args, "--out", whole) == 0
        real = cli.run_interactive

        def interrupted(scenario, planner_cfg, seed):
            if seed == 2:
                raise KeyboardInterrupt
            return real(scenario, planner_cfg, seed)

        monkeypatch.setattr(cli, "run_interactive", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_cli(*args, "--out", cut)
        names = [f"run_{k:04d}{suffix}" for k in (0, 1) for suffix in (".csv", ".summary.json")]
        assert sorted(p.name for p in cut.iterdir()) == names
        for name in names:
            assert (cut / name).read_bytes() == (whole / name).read_bytes(), name


class TestEvolve1d:
    def test_writes_strictly_decreasing_jc_trace(self, tmp_path):
        out = tmp_path / "ev"
        assert run_cli("evolve1d", "--out", out) == 0
        rows = list(csv.DictReader((out / "jc_trace.csv").open()))
        jc = [float(r["jc"]) for r in rows]
        assert len(jc) == 11
        assert all(b < a for a, b in zip(jc, jc[1:]))

    def test_zero_sweeps_leaves_inputs(self, tmp_path):
        out = tmp_path / "ev0"
        assert run_cli("evolve1d", "--out", out, "--sweeps", 0) == 0
        rows = list(csv.DictReader((out / "evolution.csv").open()))
        assert {r["sweep"] for r in rows} == {"0"}

    def test_compare_sampler_reports_small_ks(self, tmp_path):
        out = tmp_path / "evs"
        assert run_cli("evolve1d", "--out", out, "--compare-sampler", "--m", 4000) == 0
        summary = json.loads((out / "ks_summary.json").read_text())
        assert len(summary) == 3
        assert max(summary.values()) < 0.1

    def test_compare_sampler_without_sweeps_compares_the_inputs(self, tmp_path):
        # no sweep moves the oracle's densities, so no sweep may move the samples' weights
        out = tmp_path / "evs0"
        assert run_cli("evolve1d", "--out", out, "--sweeps", 0, "--compare-sampler", "--m", 4000) == 0
        summary = json.loads((out / "ks_summary.json").read_text())
        assert max(summary.values()) < 0.05

    def test_compare_sampler_with_one_agent(self, tmp_path):
        cfg = tmp_path / "one.yaml"
        cfg.write_text("evolve1d:\n  means: [0.0]\n  sigmas: [0.5]\n")
        out = tmp_path / "ev1"
        assert run_cli("evolve1d", "--config", cfg, "--out", out, "--compare-sampler", "--m", 4000) == 0
        summary = json.loads((out / "ks_summary.json").read_text())
        assert list(summary) == ["agent_0"] and summary["agent_0"] < 0.05

    def test_invalid_config_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("evolve1d:\n  sigmas: [0.5]\n")
        assert run_cli("evolve1d", "--config", cfg, "--out", tmp_path / "x") == 2

    def test_mistyped_list_element_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("evolve1d:\n  means: [x, 0, 1]\n")
        assert run_cli("evolve1d", "--config", cfg, "--out", tmp_path / "x") == 2
        assert "'means' must be a list, each element a number, got ['x', 0, 1]" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


class TestReplay:
    def test_dry_run_lists_partials_and_writes_nothing(self, dataset, tmp_path, capsys):
        out = tmp_path / "runs"
        assert run_cli("replay", "--dataset", dataset, "--out", out, "--dry-run") == 0
        text = capsys.readouterr().out
        assert "6 partial runs" in text
        assert not out.exists()

    def test_runs_and_reports(self, dataset, tmp_path, fast_config):
        out = tmp_path / "runs"
        code = run_cli(
            "replay", "--dataset", dataset, "--config", fast_config,
            "--out", out, "--limit", 2, "--no-timing",
        )
        assert code == 0
        report = json.loads((out / "metrics_report.json").read_text())
        assert report["runs"] == 2
        assert report["collision_pct"] == 0.0
        assert report["max_ratio"] < 1.1
        assert (out / "run_0001.csv").exists()

    def test_fixed_seed_is_byte_identical(self, dataset, tmp_path, fast_config):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run_cli(
                "replay", "--dataset", dataset, "--config", fast_config,
                "--out", out, "--limit", 1, "--seed", 3, "--no-timing",
            )
            outs.append(out)
        for fname in ("run_0000.csv", "run_0000.summary.json", "metrics_report.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_human_baseline_reports_identity(self, dataset, tmp_path, fast_config):
        out = tmp_path / "runs"
        run_cli(
            "replay", "--dataset", dataset, "--config", fast_config,
            "--out", out, "--limit", 1, "--human-baseline", "--no-timing",
        )
        human = json.loads((out / "human_report.json").read_text())
        assert human["max_ratio"] == 1.0
        assert human["freezing_pct"] == 0.0
        assert human["collision_pct"] == 0.0

    def test_unreadable_dataset_exits_2(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1 0.0 0.0\nbroken line here\n")
        assert run_cli("replay", "--dataset", bad, "--out", tmp_path / "x") == 2

    def test_robot_id_in_dataset_exits_2(self, tmp_path, capsys):
        walkers = tmp_path / "walkers.txt"
        walkers.write_text(
            "".join(f"{k} {ped} {0.52 * k} {y}\n" for k in range(25) for ped, y in ((-1, 0.0), (2, 3.0)))
        )
        assert run_cli("replay", "--dataset", walkers, "--out", tmp_path / "x", "--limit", 2) == 2
        assert "pedestrian id -1" in capsys.readouterr().err

    def test_strided_frame_ids_keep_the_crowd_in_every_replan(self, tmp_path, fast_config):
        # frame ids 0, 10, ..., 390: one stride of 10 ids is one frame period
        walkers = tmp_path / "strided.txt"
        walkers.write_text(
            "".join(f"{10 * k} {ped} {0.52 * k} {y}\n" for k in range(40) for ped, y in ((1, 0.0), (2, 3.0)))
        )
        out = tmp_path / "runs"
        code = run_cli(
            "replay", "--dataset", walkers, "--config", fast_config,
            "--out", out, "--limit", 1, "--no-timing",
        )
        assert code == 0
        rows = list(csv.DictReader((out / "run_0000.csv").open()))
        robot = [r for r in rows if r["agent_id"] == "-1"]
        assert len(robot) >= 15
        assert all(r["min_sep"] for r in robot)
        times = [float(r["t"]) for r in robot]
        assert all(abs((b - a) - 0.4) < 1e-9 for a, b in zip(times, times[1:]))

    def test_negative_frame_ids_replay(self, tmp_path, fast_config):
        # the dataset fixture's two walkers, at frame ids -100 ... -43
        walkers = tmp_path / "negative.txt"
        walkers.write_text(
            "".join(f"{k - 100} {ped} {0.52 * k:.6f} {y}\n" for k in range(58) for ped, y in ((1, 0.0), (2, 5.0)))
        )
        out = tmp_path / "runs"
        code = run_cli(
            "replay", "--dataset", walkers, "--config", fast_config,
            "--out", out, "--limit", 1, "--no-timing",
        )
        assert code == 0
        log = read_runlog(out / "run_0000.csv", out / "run_0000.summary.json")
        assert log.steps[0].time == -100 * 0.4

    def test_replayed_rows_read_back_as_recorded(self, dataset, tmp_path, fast_config):
        out = tmp_path / "runs"
        code = run_cli(
            "replay", "--dataset", dataset, "--config", fast_config,
            "--out", out, "--limit", 1, "--no-timing",
        )
        assert code == 0
        ds = load_dataset(dataset)
        removed = extract_partials(ds)[0].ped_id
        log = read_runlog(out / "run_0000.csv", out / "run_0000.summary.json")
        checked = 0
        for step in log.steps:
            frame = round(step.time / ds.frame_period)
            ids = [row[0] for row in step.rows]
            assert ids == [log.robot_id, *(p for p in ds.present_at(frame) if p != removed)]
            for agent, x, y in step.rows[1:]:
                rec = ds.position_at(agent, frame)
                assert x == rec[0] and y == rec[1]
                checked += 1
        assert checked > 0

    def test_parallel_jobs_match_serial(self, dataset, tmp_path, fast_config):
        serial, parallel = tmp_path / "s", tmp_path / "p"
        for out, jobs in ((serial, 1), (parallel, 2)):
            run_cli(
                "replay", "--dataset", dataset, "--config", fast_config,
                "--out", out, "--limit", 2, "--no-timing", "--jobs", jobs,
            )
        assert_same_files(serial, parallel)


class TestSimulate:
    def test_no_pedestrians_always_arrives(self, tmp_path, fast_config):
        out = tmp_path / "sim"
        code = run_cli(
            "simulate", "--config", fast_config, "--pedestrians", 0,
            "--runs", 3, "--out", out, "--no-timing",
        )
        assert code == 0
        report = json.loads((out / "simulation_report.json").read_text())
        assert report["arrived"] == 3
        assert report["collisions"] == 0
        nominal = 8.0 / 1.3
        assert abs(report["mean_time_to_goal_s"] - nominal) <= 0.2 * nominal

    def test_deterministic_aggregate(self, tmp_path, fast_config):
        reports = []
        for name, jobs in (("x", 1), ("y", 1), ("z", 2)):
            out = tmp_path / name
            run_cli(
                "simulate", "--config", fast_config, "--pedestrians", 2,
                "--runs", 2, "--seed", 7, "--out", out, "--no-timing", "--jobs", jobs,
            )
            reports.append((out / "simulation_report.json").read_bytes())
        assert reports[0] == reports[1] == reports[2]

    def test_parallel_jobs_match_serial(self, tmp_path, fast_config):
        serial, parallel = tmp_path / "s", tmp_path / "p"
        for out, jobs in ((serial, 1), (parallel, 2)):
            run_cli(
                "simulate", "--config", fast_config, "--pedestrians", 2,
                "--runs", 3, "--seed", 5, "--out", out, "--no-timing", "--jobs", jobs,
            )
        assert_same_files(serial, parallel)

    def test_seven_pedestrian_variant_runs(self, tmp_path, fast_config):
        out = tmp_path / "sim7"
        code = run_cli(
            "simulate", "--config", fast_config, "--pedestrians", 7,
            "--runs", 1, "--out", out, "--no-timing",
        )
        assert code == 0
        report = json.loads((out / "simulation_report.json").read_text())
        assert report["pedestrians"] == 7


class TestMetricsCommand:
    def test_idempotent_with_replay_inline_report(self, dataset, tmp_path, fast_config, capsys):
        out = tmp_path / "runs"
        run_cli(
            "replay", "--dataset", dataset, "--config", fast_config,
            "--out", out, "--limit", 2, "--no-timing",
        )
        capsys.readouterr()
        assert run_cli("metrics", "--logs", out) == 0
        recomputed = capsys.readouterr().out
        assert recomputed == (out / "metrics_report.json").read_text()

    def test_reads_the_errors_of_failed_runs(self, dataset, tmp_path, fast_config, monkeypatch, capsys):
        import distnav.cli as cli

        real = cli.run_replay

        def flaky(ds, partial, planner_cfg, replay_cfg, seed):
            if seed == 1:
                raise ValueError("synthetic failure")
            return real(ds, partial, planner_cfg, replay_cfg, seed)

        monkeypatch.setattr(cli, "run_replay", flaky)
        out = tmp_path / "runs"
        args = ("--config", fast_config, "--limit", 2, "--seed", 0, "--no-timing", "--out", out)
        assert run_cli("replay", "--dataset", dataset, *args) == 1
        inline = (out / "metrics_report.json").read_text()
        assert '"errors"' in inline
        capsys.readouterr()
        assert run_cli("metrics", "--logs", out) == 0
        assert capsys.readouterr().out == inline
        assert run_cli("metrics", "--logs", out, "--out", tmp_path / "report.json") == 0
        assert (tmp_path / "report.json").read_text() == inline

    def test_threshold_override_is_monotone(self, dataset, tmp_path, fast_config, capsys):
        out = tmp_path / "runs"
        run_cli(
            "replay", "--dataset", dataset, "--config", fast_config,
            "--out", out, "--limit", 2, "--no-timing",
        )
        capsys.readouterr()
        run_cli("metrics", "--logs", out)
        base = json.loads(capsys.readouterr().out)
        run_cli("metrics", "--logs", out, "--collision-dist", 0.25)
        loose = json.loads(capsys.readouterr().out)
        assert loose["collision_pct"] >= base["collision_pct"]

    def test_empty_directory_exits_2(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run_cli("metrics", "--logs", empty) == 2

    def test_missing_directory_exits_2(self, tmp_path):
        assert run_cli("metrics", "--logs", tmp_path / "nothere") == 2

    @pytest.mark.parametrize("summary", ['{"outcome": "error"}', '{"outcome": "error", "error": 3}'])
    def test_an_error_summary_without_its_message_exits_2(self, tmp_path, capsys, summary):
        write_runlog(demo_log(), tmp_path / "run_0000.csv", tmp_path / "run_0000.summary.json")
        (tmp_path / "run_0001.summary.json").write_text(summary + "\n")
        assert run_cli("metrics", "--logs", tmp_path) == 2
        assert "run_0001.summary.json" in capsys.readouterr().err

    @pytest.mark.parametrize("case", [*BROKEN_ROWS, *BROKEN_SUMMARIES])
    def test_a_broken_run_log_exits_2(self, tmp_path, capsys, case):
        broken_log(tmp_path, case)
        assert run_cli("metrics", "--logs", tmp_path) == 2
        assert "run_0000" in capsys.readouterr().err


NOT_UTF8 = b"0 1 0.0 0.0\n\xff\xfe\n"


class TestUnusableFiles:
    """An input file that cannot be read or decoded, or an output path that
    cannot be written, exits 2 with the file's name on stderr."""

    @staticmethod
    def exits_2_naming(capsys, name, *argv):
        assert run_cli(*argv) == 2
        assert name in capsys.readouterr().err

    def test_dataset_not_utf8(self, tmp_path, capsys):
        (tmp_path / "ds.txt").write_bytes(NOT_UTF8)
        self.exits_2_naming(capsys, "ds.txt", "replay", "--dataset", tmp_path / "ds.txt", "--dry-run")

    def test_dataset_sidecar_not_utf8(self, tmp_path, capsys):
        (tmp_path / "ds.txt").write_text("0 1 0.0 0.0\n")
        (tmp_path / "ds.txt.meta.yaml").write_bytes(NOT_UTF8)
        self.exits_2_naming(capsys, "ds.txt.meta.yaml", "replay", "--dataset", tmp_path / "ds.txt", "--dry-run")

    def test_config_is_a_directory(self, tmp_path, capsys):
        self.exits_2_naming(capsys, str(tmp_path), "simulate", "--config", tmp_path, "--out", tmp_path / "o")

    def test_config_not_utf8(self, tmp_path, capsys):
        (tmp_path / "c.yaml").write_bytes(NOT_UTF8)
        self.exits_2_naming(capsys, "c.yaml", "simulate", "--config", tmp_path / "c.yaml", "--out", tmp_path / "o")

    @pytest.mark.parametrize("broken", ["run_0000.csv", "run_0000.summary.json", "run_0001.summary.json"])
    def test_run_log_file_not_utf8(self, tmp_path, capsys, broken):
        write_runlog(demo_log(), tmp_path / "run_0000.csv", tmp_path / "run_0000.summary.json")
        (tmp_path / broken).write_bytes(NOT_UTF8)  # run_0001 has no CSV: an error summary
        self.exits_2_naming(capsys, broken, "metrics", "--logs", tmp_path)

    def test_out_is_a_file(self, tmp_path, capsys):
        (tmp_path / "taken").write_text("")
        self.exits_2_naming(capsys, "taken", "simulate", "--runs", 1, "--out", tmp_path / "taken")

    def test_report_in_a_missing_directory(self, tmp_path, capsys):
        write_runlog(demo_log(), tmp_path / "run_0000.csv", tmp_path / "run_0000.summary.json")
        report = tmp_path / "nodir" / "r.json"
        self.exits_2_naming(capsys, str(report), "metrics", "--logs", tmp_path, "--out", report)


# Command-line text of a float: anything argparse's float() parses.
FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-3, 3).map(str),
    st.sampled_from(["-0.0", "1e-300", "nan", "-inf"]),
)


@pytest.fixture(scope="module")
def flag_inputs(tmp_path_factory):
    """A dataset and the run logs of one replay of it, shared by every example."""
    root = tmp_path_factory.mktemp("flags")
    path = root / "ds.txt"
    path.write_text("".join(f"{k} 1 {k * 0.52:.6f} 0.0\n{k} 2 {k * 0.52:.6f} 5.0\n" for k in range(58)))
    (root / "fast.yaml").write_text("samples_per_agent: 20\n")
    logs = root / "logs"
    assert run_cli("replay", "--dataset", path, "--config", root / "fast.yaml", "--limit", 1, "--out", logs) == 0
    return path, logs


def exit_code(*args):
    """main()'s exit code, also when argparse rejects a value (SystemExit)."""
    try:
        return run_cli(*args)
    except SystemExit as exc:
        return exc.code


class TestNumericFlags:
    """No value of a numeric flag ends in a traceback: each is accepted (exit
    0) or rejected as an input error (exit 2). ``replay --dry-run`` and
    ``metrics`` run no episode."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(-(2**70), 2**70),
        m=st.integers(-3, 2**70),
        period=FLOATS,
        limit=st.integers(-3, 5),
        jobs=st.integers(-3, 4),
    )
    def test_replay_dry_run(self, flag_inputs, seed, m, period, limit, jobs):
        dataset, logs = flag_inputs
        code = exit_code(
            "replay", "--dataset", dataset, "--dry-run", "--out", logs.parent / "unused",
            "--seed", seed, "--m", m, "--frame-period", period, "--limit", limit, "--jobs", jobs,
        )
        assert code in (0, 2)

    @pytest.mark.parametrize("period", ["0", "-0.4", "nan", "inf"])
    def test_bad_frame_period_exits_2(self, flag_inputs, capsys, period):
        dataset, _ = flag_inputs
        assert run_cli("replay", "--dataset", dataset, "--dry-run", "--frame-period", period) == 2
        assert "frame period must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["nothere.txt", "."])
    def test_unreadable_dataset_path_exits_2(self, flag_inputs, where):
        dataset, _ = flag_inputs
        assert run_cli("replay", "--dataset", dataset.parent / where, "--dry-run") == 2

    @settings(max_examples=60, deadline=None)
    @given(collision=FLOATS, discomfort=FLOATS, freezing=FLOATS)
    def test_metrics(self, flag_inputs, collision, discomfort, freezing):
        _, logs = flag_inputs
        code = exit_code(
            "metrics", "--logs", logs, "--collision-dist", collision,
            "--discomfort-dist", discomfort, "--freezing-ratio", freezing,
        )
        assert code in (0, 2)
