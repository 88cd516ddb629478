"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and the reported (non-asserted) closed-loop collision counts.
"""

import math

import numpy as np
import pytest

from distnav.collision import CollisionKernel, joint_expected_penalty, pairwise_penalty
from distnav.dataset import extract_partials, load_dataset
from distnav.engine import SolverConfig, solve
from distnav.gp import moments_1d
from distnav.grids import TimeGrid, Trajectory
from distnav.metrics import Thresholds, aggregate, classify_run
from distnav.oracle import exact_update, ks_distance
from distnav.planner import PlannerConfig
from distnav.runlog import ARRIVED
from distnav.samples import SampleSet
from distnav.simulator import (
    ScenarioConfig,
    human_baseline,
    run_interactive,
    run_replay,
)

from helpers import gaussian_densities_1d, gaussian_sets_1d, random_instance

ORACLE_KERNEL = CollisionKernel(weight=10.0, sigma=0.3)


def _write_two_ped_dataset(tmp_path):
    lines = []
    speed = 0.52
    for k in range(58):
        lines.append(f"{k} 1 {k * speed:.6f} 0.0")
        lines.append(f"{k} 2 {k * speed:.6f} 5.0")
    path = tmp_path / "eth_format.txt"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_criterion_1_sufficient_decrease_over_500_random_instances():
    rng = np.random.default_rng(20260810)
    instances = 0
    sweeps_checked = 0
    while instances < 500:
        sets, kernel = random_instance(rng)
        jc = joint_expected_penalty(sets, kernel)
        for _ in range(2):
            report = solve(sets, kernel, SolverConfig(epsilon=0.0, max_sweeps=1, rtol=0.0))
            kl_sum = report.kl_trace[0]
            jc_next = joint_expected_penalty(sets, kernel)
            assert jc_next <= jc - kl_sum + 1e-9
            if kl_sum > 1e-12:
                assert jc_next < jc
            jc = jc_next
            sweeps_checked += 1
        instances += 1
    print(
        f"[criterion 1] PASS: sufficient decrease held on {sweeps_checked} sweeps "
        f"over {instances} random instances"
    )


def test_criterion_2_closed_form_update_hand_case():
    sigma = 0.35
    kernel = CollisionKernel(weight=2 * math.pi * sigma**2, sigma=sigma)  # peak 1
    grid = TimeGrid(0.0, 0.4, 1)
    a = SampleSet("A", grid, np.array([[[0.0, 0.0]], [[100.0, 0.0]]]), np.ones(2))
    b = SampleSet("B", grid, np.array([[[0.0, 0.0]], [[200.0, 0.0]]]), np.ones(2))
    sets = [a, b]
    assert joint_expected_penalty(sets, kernel) == pytest.approx(0.25, abs=1e-3)
    report = solve(sets, kernel, SolverConfig(epsilon=0.0, max_sweeps=1))
    assert np.allclose(a.weights, [0.7551, 1.2449], atol=1e-3)
    assert np.allclose(b.weights, [0.8135, 1.1865], atol=1e-3)
    assert report.objective_trace[0] == pytest.approx(0.1536, abs=1e-3)
    print(
        "[criterion 2] PASS: hand case weights (0.7551, 1.2449) / (0.8135, 1.1865), "
        f"objective 0.25 -> {report.objective_trace[0]:.4f}"
    )


def test_criterion_3_oracle_sampler_equivalence_m20000():
    means = [-1.0, 0.0, 1.0]
    densities = gaussian_densities_1d(means, 0.5)
    exact_update(densities, ORACLE_KERNEL, sweeps=10)
    sets = gaussian_sets_1d(means, 0.5, m=20000, seed=12345)
    report = solve(sets, ORACLE_KERNEL, SolverConfig(epsilon=0.0, max_sweeps=10))
    assert report.sweeps == 10
    distances = [
        ks_distance(gd, ss.trajectories[:, 0, 0], ss.weights)
        for gd, ss in zip(densities, sets)
    ]
    assert all(d < 0.05 for d in distances)
    print(
        "[criterion 3] PASS: oracle vs sampler (m=20000) KS distances "
        + ", ".join(f"{d:.4f}" for d in distances)
    )


def test_criterion_4_three_agent_evolution_goes_bimodal():
    # middle agent first in the order, squeezed by two near neighbours
    densities = gaussian_densities_1d([0.0, -0.5, 0.5], 0.5)
    history = exact_update(densities, ORACLE_KERNEL, sweeps=10)

    mid = densities[0]
    moments = moments_1d(mid.xs, mid.ps, min_mode_height=0.05)
    assert len(moments.modes) >= 2

    intents = [float(gd.xs[np.argmax(gd.ps)]) for gd in densities]
    for i in range(3):
        for j in range(i + 1, 3):
            assert abs(intents[i] - intents[j]) > 2 * ORACLE_KERNEL.sigma

    jc = history.jc_trace
    assert len(jc) == 11
    assert all(b < a for a, b in zip(jc, jc[1:]))
    print(
        f"[criterion 4] PASS: middle-agent modes at {[round(m, 2) for m in moments.modes]}, "
        f"intents {[round(x, 2) for x in intents]}, objective {jc[0]:.3f} -> {jc[-1]:.4f}"
    )


def test_criterion_5_collision_kernel_properties():
    kernel = CollisionKernel(weight=10.0, sigma=0.35)
    grid = TimeGrid(0.0, 0.4, 12)
    rng = np.random.default_rng(55)
    for _ in range(1000):
        fa = Trajectory(grid, rng.normal(scale=2.0, size=(12, 2)))
        fb = Trajectory(grid, rng.normal(scale=2.0, size=(12, 2)))
        assert pairwise_penalty(fa, fb, kernel) == pairwise_penalty(fb, fa, kernel)
    f = Trajectory(grid, rng.normal(size=(12, 2)))
    peak = kernel.weight / (2 * math.pi * kernel.sigma**2)
    assert pairwise_penalty(f, f, kernel) == pytest.approx(peak, rel=1e-12)
    print("[criterion 5] PASS: symmetry exact on 1000 pairs, peak w/(2 pi sigma^2) exact")


def test_criterion_6_metrics_fidelity(tmp_path):
    ds = load_dataset(_write_two_ped_dataset(tmp_path))
    partials = extract_partials(ds)

    human = [classify_run(human_baseline(ds, p)) for p in partials]
    report = aggregate(human)
    assert report.max_ratio == 1.0
    assert report.freezing_pct == 0.0
    assert report.collision_pct == 0.0

    # threshold monotonicity and collision => discomfort on synthetic logs
    from test_metrics import synthetic_log

    rng = np.random.default_rng(6)
    logs = [synthetic_log(list(rng.uniform(0.05, 0.6, size=5))) for _ in range(40)]
    for th in (Thresholds(), Thresholds(collision_dist=0.3, discomfort_dist=0.3)):
        for log in logs:
            rc = classify_run(log, th)
            assert (not rc.collision) or rc.discomfort
    base = sum(classify_run(l, Thresholds()).collision for l in logs)
    wide = sum(
        classify_run(l, Thresholds(collision_dist=0.3, discomfort_dist=0.3)).collision
        for l in logs
    )
    assert wide >= base
    print(
        f"[criterion 6] PASS: human baseline ratio=1 freezing=0% collisions=0; "
        f"collision runs {base} -> {wide} when threshold widens 0.21 -> 0.30"
    )


def test_criterion_7_partial_protocol_and_bitwise_replay(tmp_path):
    ds = load_dataset(_write_two_ped_dataset(tmp_path))
    partials = extract_partials(ds)
    per_ped = {p: sum(1 for q in partials if q.ped_id == p) for p in ds.pedestrians()}
    assert per_ped[1] == 3  # ~30 m straight walk -> exactly 3 partials

    log = run_replay(ds, partials[0], PlannerConfig(samples_per_agent=60), seed=0)
    checked = 0
    for step in log.steps:
        frame = round(step.time / ds.frame_period)
        for agent, x, y in step.rows:
            if agent != log.robot_id:
                rec = ds.position_at(agent, frame)
                assert rec is not None
                assert x == rec[0] and y == rec[1]
                checked += 1
    assert checked > 0
    print(
        f"[criterion 7] PASS: 30 m walk -> 3 partials; {checked} replayed positions "
        "match the dataset bit-for-bit"
    )


def test_criterion_8_closed_loop_five_pedestrians_fifty_seeds():
    scenario = ScenarioConfig(n_pedestrians=5, time_cap_s=60.0)
    planner = PlannerConfig(samples_per_agent=100)
    thresholds = Thresholds()
    arrived = 0
    collisions = 0
    replan_times = []
    for seed in range(50):
        log = run_interactive(scenario, planner, seed=seed)
        if log.outcome == ARRIVED:
            arrived += 1
        rc = classify_run(log, thresholds)
        if rc.collision:
            collisions += 1
        replan_times.extend(log.replan_times())
    mean_replan = float(np.mean(replan_times))
    assert arrived >= 45, f"only {arrived}/50 runs reached the goal"
    assert mean_replan < 1.0, f"mean replan {mean_replan:.3f}s exceeds 1s"
    print(
        f"[criterion 8] PASS: {arrived}/50 arrived, mean replan {mean_replan * 1000:.0f} ms "
        f"(m=100, 6 agents); reported collision runs: {collisions} "
        "(not asserted: social-force backend, not the original reactive simulator)"
    )


def test_criterion_9_replay_harness_runs_on_eth_format(tmp_path):
    # Benchmark-table rows are not reproducible here (the curated dataset
    # subsample is unavailable); this verifies the harness runs end to end
    # on any file in the common frame/ped/x/y export format.
    path = _write_two_ped_dataset(tmp_path)
    from distnav.cli import main

    out = tmp_path / "runs"
    code = main(
        [
            "replay", "--dataset", str(path), "--out", str(out),
            "--limit", "1", "--no-timing", "--seed", "1",
        ]
    )
    assert code == 0
    assert (out / "metrics_report.json").exists()
    assert (out / "run_0000.csv").exists()
    print(
        "[criterion 9] PASS: replay harness runs end-to-end on an ETH-format file; "
        "published table rows are out of scope (curated subsample unavailable)"
    )
