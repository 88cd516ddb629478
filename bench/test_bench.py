"""Tests for the benchmark: each check passes on real output and fails on a corrupted one.

    python3 -m pytest bench -q
"""

import dataclasses
import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _replace(rows, index, **changes):
    rows = list(rows)
    rows[index] = dataclasses.replace(rows[index], **changes)
    return rows


@pytest.fixture(scope="module")
def crowd(tmp_path_factory):
    wl = workloads.SfmCrowd(workloads.TINY, 7, tmp_path_factory.mktemp("crowd"))
    wl.setup()
    result = wl.run_round("t")
    rows = checks.read_run_csv(wl.workdir / "round_t" / "run_0000.csv")
    summary = json.loads((wl.workdir / "round_t" / "run_0000.summary.json").read_text())
    return wl, result, rows, summary


@pytest.fixture(scope="module")
def replay(tmp_path_factory):
    wl = workloads.ReplaySparse(workloads.TINY, 7, tmp_path_factory.mktemp("replay"))
    wl.setup()
    result = wl.run_round("t")
    rows = checks.read_run_csv(wl.workdir / "round_t" / "run_0000.csv")
    return result, rows, wl.tracks, sorted(wl.tracks)[0]


@pytest.fixture(scope="module")
def oracle(tmp_path_factory):
    wl = workloads.Oracle1dLargeM(workloads.TINY, 7, tmp_path_factory.mktemp("oracle"))
    wl.setup()
    return wl


def test_crowd_checks_pass_on_real_output(crowd):
    wl, result, rows, summary = crowd
    assert result.ops > 0 and result.failed == 0, result.failures
    assert checks.check_min_sep(rows) == []
    assert checks.check_robot_steps(rows, wl.MAX_SPEED, wl.DT) == []
    assert checks.check_arrival(rows, summary["outcome"], (workloads.CROWD_RADIUS, 0.0), wl.GOAL_TOLERANCE) == []


def test_min_sep_check_catches_a_wrong_separation(crowd):
    _, _, rows, _ = crowd
    k = next(i for i, r in enumerate(rows) if r.min_sep is not None)
    assert len(checks.check_min_sep(_replace(rows, k, min_sep=rows[k].min_sep + 1e-9))) == 1


def test_robot_step_check_catches_a_jump(crowd):
    wl, _, rows, _ = crowd
    k = [i for i, r in enumerate(rows) if r.agent == checks.ROBOT_ID][1]
    bad = checks.check_robot_steps(_replace(rows, k, x=rows[k].x + 1.0), wl.MAX_SPEED, wl.DT)
    assert bad


def test_arrival_check_catches_a_far_goal(crowd):
    wl, _, rows, _ = crowd
    assert checks.check_arrival(rows, "arrived", (workloads.CROWD_RADIUS + 1.0, 0.0), wl.GOAL_TOLERANCE)
    assert checks.check_arrival(rows, "timeout", (99.0, 99.0), wl.GOAL_TOLERANCE) == []


def test_replay_check_passes_on_real_output(replay):
    result, rows, tracks, removed = replay
    assert result.ops > 0 and result.failed == 0, result.failures
    assert checks.check_replay(rows, tracks, removed, workloads.PLAZA_PERIOD) == []


def test_replay_check_catches_a_nudged_position(replay):
    _, rows, tracks, removed = replay
    k = next(i for i, r in enumerate(rows) if r.agent != checks.ROBOT_ID)
    nudged = _replace(rows, k, y=rows[k].y + 1e-9)
    assert len(checks.check_replay(nudged, tracks, removed, workloads.PLAZA_PERIOD)) == 1


def test_replay_check_catches_a_missing_pedestrian(replay):
    _, rows, tracks, removed = replay
    k = next(i for i, r in enumerate(rows) if r.agent != checks.ROBOT_ID)
    bad = checks.check_replay(rows[:k] + rows[k + 1:], tracks, removed, workloads.PLAZA_PERIOD)
    assert len(bad) == 1 and "missing" in bad[0]


def test_plaza_tracks_hold_one_partial_each():
    from distnav.dataset import TrajectoryDataset, extract_partials

    tracks = workloads.plaza_tracks(3, workloads.FULL)
    ds = TrajectoryDataset(workloads.PLAZA_PERIOD, {
        p: (np.array(sorted(t)), np.array([t[f] for f in sorted(t)])) for p, t in tracks.items()
    })
    assert [p.ped_id for p in extract_partials(ds)] == sorted(tracks)


def test_decrease_check_passes_on_a_real_solve_and_catches_a_broken_step(oracle):
    report = oracle._solve(oracle._sets((2,)))
    assert checks.check_decrease(report.initial_objective, report.objective_trace, report.kl_trace) == []
    broken = list(report.objective_trace)
    broken[3] = broken[2]  # sweep 4 claims KL > 0 with no drop in J
    assert len(checks.check_decrease(report.initial_objective, broken, report.kl_trace)) == 1


def test_reference_agrees_with_exact_update_and_ks_passes(oracle):
    assert oracle.reference_failures == []
    result = oracle.run_round("t")
    assert result.failed == 0, result.failures


def test_agreement_check_catches_a_shifted_reference(oracle):
    import distnav.oracle

    densities = [distnav.oracle.GridDensity.gaussian(oracle.xs, mu, oracle.SIGMA) for mu in oracle.MEANS]
    distnav.oracle.exact_update(densities, oracle.KERNEL, oracle.SWEEPS)
    ps = [d.ps for d in densities]
    ref = [np.interp(oracle.xs - 0.01, oracle.xs, p) for p in ps]  # the reference moves 1 cm right
    assert len(checks.check_agreement(ps, ref, oracle.AGREEMENT)) == 1


def test_ks_check_catches_a_shifted_reference(oracle):
    wl = workloads.Oracle1dLargeM(oracle.sizes, oracle.seed, None)
    wl.setup()
    wl.xs = wl.xs + 0.2  # the reference density moves 0.2 m right
    result = wl.run_round("t")
    assert result.failed == 1 and any("KS distance" in msg for msg in result.failures)


def test_failed_check_makes_the_run_incorrect(monkeypatch, tmp_path):
    reference_cdf = checks.reference_cdf
    # the reference density moves 0.2 m right, so every solve fails its KS check
    monkeypatch.setattr(checks, "reference_cdf", lambda xs, p: reference_cdf(xs, np.interp(xs - 0.2, xs, p)))
    result = run.run("oracle1d_large_m", 1, 0, False, sizes=workloads.TINY, workdir=tmp_path)
    assert result["failed"] == result["attempted"] >= 1
    assert result["correct"] is False


def test_tracer_records_parents_and_self_time():
    mod = types.ModuleType("bench_fake_layer")
    mod.inner = lambda: sum(range(20000))
    mod.outer = lambda: mod.inner() + mod.inner()
    sys.modules[mod.__name__] = mod
    tracer = Tracer()
    try:
        assert tracer.wrap("bench_fake_layer.inner", "inner")
        assert tracer.wrap("bench_fake_layer.outer", "outer")
        tracer.enabled = True
        mod.outer()
    finally:
        tracer.restore()
        del sys.modules[mod.__name__]
    inner = [s for s in tracer.spans if s.name == "inner"]
    (outer,) = [s for s in tracer.spans if s.name == "outer"]
    assert len(inner) == 2 and all(tracer.spans[s.parent] is outer for s in inner)
    assert outer.self_s == pytest.approx(outer.duration - sum(s.duration for s in inner))


def test_missing_target_is_reported_absent(monkeypatch, tmp_path, capsys):
    targets = [t if t[1] != "gp.fit" else ("distnav.planner.fit_preference_gone", "gp.fit", None)
               for t in layers.TARGETS]
    monkeypatch.setattr(layers, "TARGETS", targets)
    result = run.run("sfm_crowd", 1, 0, True, sizes=workloads.TINY, workdir=tmp_path)
    assert "fit_preference_gone not found" in capsys.readouterr().err
    assert "gp.fit_ms" not in result["metrics"] and "gp.sample_ms" in result["metrics"]
    assert result["failed"] == 0


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_reports_every_metric(workload, trace, tmp_path):
    result = run.run(workload, 1, 0, trace, sizes=workloads.TINY, workdir=tmp_path)
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0, result["failures"]
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
