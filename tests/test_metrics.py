import math

import numpy as np
import pytest

from distnav.dataset import arc_length
from distnav.metrics import Thresholds, aggregate, classify_run
from distnav.runlog import ARRIVED, TIMEOUT, RunLog, RunLogStep


def synthetic_log(min_seps, xs=None, outcome=ARRIVED, replans=(10.0, 20.0), human_length=1.0):
    """RunLog with the robot walking +x and a pedestrian parked to give min_sep."""
    steps = []
    xs = xs if xs is not None else [0.4 * k for k in range(len(min_seps))]
    for k, (sep, x) in enumerate(zip(min_seps, xs)):
        rows = [(-1, float(x), 0.0)]
        if not math.isnan(sep):
            rows.append((1, float(x), float(sep)))
        replan_ms = replans[k % len(replans)] if replans else None
        steps.append(RunLogStep(0.4 * k, rows, replan_ms, sep))
    return RunLog(steps=steps, outcome=outcome, robot_id=-1, human_length=human_length)


class TestThresholds:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            Thresholds(collision_dist=0.5, discomfort_dist=0.3)

    def test_freezing_ratio_above_one(self):
        with pytest.raises(ValueError):
            Thresholds(freezing_ratio=1.0)


class TestClassifyRun:
    def test_min_twenty_centimeters_is_collision_and_discomfort(self):
        rc = classify_run(synthetic_log([1.0, 0.20, 0.8], human_length=0.8))
        assert rc.collision and rc.discomfort

    def test_quarter_meter_is_discomfort_only(self):
        rc = classify_run(synthetic_log([1.0, 0.25, 0.8], human_length=0.8))
        assert rc.discomfort and not rc.collision

    def test_equal_paths_not_freezing(self):
        log = synthetic_log([1.0, 1.0, 1.0])
        log.human_length = arc_length(log.robot_positions())
        rc = classify_run(log)
        assert rc.ratio == 1.0
        assert not rc.freezing

    def test_timeout_counts_as_freezing(self):
        rc = classify_run(synthetic_log([1.0, 1.0], outcome=TIMEOUT, human_length=100.0))
        assert rc.freezing and rc.ratio < 1.0

    def test_long_detour_is_freezing(self):
        log = synthetic_log([1.0] * 10)
        log.human_length = arc_length(log.robot_positions()) / 1.3
        rc = classify_run(log)
        assert rc.ratio == pytest.approx(1.3)
        assert rc.freezing

    def test_no_pedestrian_flags_false_with_marker(self):
        rc = classify_run(synthetic_log([math.nan, math.nan]))
        assert math.isnan(rc.min_sep)
        assert not rc.collision and not rc.discomfort

    def test_empty_log_rejected(self):
        with pytest.raises(ValueError):
            classify_run(RunLog(steps=[], robot_id=-1, human_length=1.0))

    def test_ratio_is_over_the_logs_human_length(self):
        log = synthetic_log([1.0] * 3, xs=[0.0, 1.0, 2.0], human_length=0.5)
        rc = classify_run(log)
        assert rc.robot_path_length == 2.0 and rc.ratio == 4.0
        for bad in (0.0, -1.0, math.nan):
            log.human_length = bad
            with pytest.raises(ValueError, match="human_length"):
                classify_run(log)

    def test_collision_implies_discomfort_on_random_logs(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            seps = rng.uniform(0.05, 1.0, size=5)
            rc = classify_run(synthetic_log(list(seps)))
            assert (not rc.collision) or rc.discomfort

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(1)
        logs = [synthetic_log(list(rng.uniform(0.05, 0.6, size=4))) for _ in range(30)]
        lo = Thresholds(collision_dist=0.15)
        hi = Thresholds(collision_dist=0.30, discomfort_dist=0.30)
        n_lo = sum(classify_run(l, lo).collision for l in logs)
        n_hi = sum(classify_run(l, hi).collision for l in logs)
        assert n_hi >= n_lo


class TestAggregate:
    def run_set(self):
        logs = [synthetic_log([1.0, 0.18]), synthetic_log([0.5, 0.5]), synthetic_log([0.26, 0.9])]
        return [classify_run(l) for l in logs]

    def test_percentages_count_flags(self):
        rcs = self.run_set()
        report = aggregate(rcs)
        assert report.runs == 3
        assert report.collision_pct == pytest.approx(100.0 / 3)
        assert report.discomfort_pct == pytest.approx(200.0 / 3)

    def test_hundred_runs_three_collisions_is_three_percent(self):
        logs = [synthetic_log([0.15, 0.5]) for _ in range(3)]
        logs += [synthetic_log([0.8, 0.9]) for _ in range(97)]
        report = aggregate([classify_run(l) for l in logs])
        assert report.runs == 100
        assert report.collision_pct == 3.0

    def test_single_run_has_zero_sd(self):
        report = aggregate(self.run_set()[:1])
        assert report.sd_min_sep_m == 0.0
        assert report.sd_path_m == 0.0

    def test_runs_without_a_pedestrian_leave_the_separation_out(self):
        rcs = self.run_set() + [classify_run(synthetic_log([math.nan, math.nan]))]
        report = aggregate(rcs)
        assert report.runs == 4
        assert report.mean_min_sep_m == aggregate(rcs[:3]).mean_min_sep_m
        assert math.isnan(aggregate(rcs[3:]).mean_min_sep_m)

    def test_permutation_invariance(self):
        rcs = self.run_set()
        a = aggregate(rcs)
        b = aggregate(rcs[::-1])
        assert a == b

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_replan_mean_pools_all_steps(self):
        rcs = self.run_set()
        report = aggregate(rcs)
        pooled = np.concatenate([r.replan_times for r in rcs])
        assert report.mean_replan_s == pytest.approx(pooled.mean())

    def test_table_has_benchmark_columns(self):
        text = aggregate(self.run_set()).to_table("distnav")
        head = text.splitlines()[0]
        for col in ("Discomfort", "Collisions", "Freezing Behavior", "max(d_r/d_h)"):
            assert col in head


class TestPathArcLength:
    def test_single_point(self):
        assert arc_length([(0.0, 0.0)]) == 0.0

    def test_unit_square(self):
        pts = [(0, 0), (1, 0), (1, 1), (0, 1), (0, 0)]
        assert arc_length(pts) == pytest.approx(4.0)
