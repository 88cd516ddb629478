"""Shared builders for solver, oracle, GP and run-log tests."""

import json
import math

import numpy as np

from distnav.collision import CollisionKernel
from distnav.dataset import arc_length
from distnav.gp import PreferenceGP, _cho_solve, _fit_posterior, _Posterior
from distnav.grids import TimeGrid, Trajectory
from distnav.oracle import GridDensity
from distnav.runlog import RunLog, RunLogStep, write_runlog
from distnav.samples import CrowdSamples, SampleSet

GRID_1D = TimeGrid(0.0, 1.0, 1)
U = 2.0**-53  # unit roundoff of float64


def mean_operator_norm(times, noise, grid, kp) -> float:
    """||A||_inf of a schedule's posterior-mean map A = K*^T (K + N)^-1: a
    change of at most e in every residual moves the mean by at most
    ||A||_inf * e on each axis."""
    times, noise = np.asarray(times, dtype=float), np.asarray(noise, dtype=float)
    _, gram_low, k_star = _fit_posterior(times, noise, grid, kp)
    return float(np.abs(_cho_solve(gram_low, k_star)).sum(axis=0).max())


def gp_of_cov(grid, mean, cov, jitter=0.0):
    """A PreferenceGP over ``grid`` made directly from a positive definite
    ``cov``: its posterior holds a read-only copy of ``cov``, as a fit's
    does, and ``jitter``."""
    cov = np.array(cov, dtype=float)
    cov.setflags(write=False)
    return PreferenceGP(grid, mean, _Posterior(cov, jitter))


def zero_lines(tracks):
    """The zero prior mean line of each ``(times, positions, noises)`` track, one component per axis."""
    return [(0.0, np.zeros(np.shape(positions)[-1]), np.zeros(np.shape(positions)[-1])) for _, positions, _ in tracks]


def crowd_of(sets):
    """The sets as one sampling call returns them: a CrowdSamples of read-only
    views, in turn, of one block that stacks their trajectories; each view
    keeps its set's agent and a copy of its weights."""
    block = np.concatenate([s.trajectories for s in sets])
    block.setflags(write=False)
    edges = np.cumsum([0] + [s.m for s in sets])
    views = []
    for s, lo, hi in zip(sets, edges, edges[1:]):
        view = SampleSet._of_block(s.agent, s.grid, block[lo:hi])
        view.weights = s.weights.copy()
        views.append(view)
    return CrowdSamples(views, block)


def gaussian_sets_1d(means, sigma, m, seed):
    """One SampleSet per mean: m scalar draws from N(mean, sigma^2), weights 1."""
    sets = []
    for k, mu in enumerate(means):
        rng = np.random.default_rng(np.random.SeedSequence((seed, k)))
        xs = mu + sigma * rng.standard_normal(m)
        sets.append(SampleSet(k, GRID_1D, xs[:, None, None], np.ones(m)))
    return sets


def gaussian_densities_1d(means, sigma, n=2001, span=8.0):
    """Grid densities matching gaussian_sets_1d, on a shared mu +- span*sigma grid."""
    lo = min(means) - span * sigma
    hi = max(means) + span * sigma
    xs = np.linspace(lo, hi, n)
    return [GridDensity.gaussian(xs, mu, sigma) for mu in means]


def random_instance(rng):
    """A random discrete problem: 2-5 agents, 5-50 samples, Gaussian clouds."""
    n_agents = int(rng.integers(2, 6))
    steps = int(rng.integers(1, 8))
    grid = TimeGrid(0.0, 0.4, steps)
    kernel = CollisionKernel(
        weight=float(rng.uniform(0.5, 20.0)), sigma=float(rng.uniform(0.1, 1.0))
    )
    sets = []
    for k in range(n_agents):
        m = int(rng.integers(5, 51))
        center = rng.uniform(-2, 2, size=2)
        states = center + rng.normal(scale=rng.uniform(0.2, 1.5), size=(m, steps, 2))
        sets.append(SampleSet(k, grid, states, np.ones(m)))
    return sets, kernel


def walk_at_bound(bound):
    """The first seeded walk whose running sum of steps, as
    :func:`~distnav.dataset.extract_partials` adds them, is exactly ``bound``
    while :func:`~distnav.dataset.arc_length` puts it outside [8, 12] m. At
    8 m it is a trailing segment; at 12 m it crosses 10 m only at a final
    step that starts at 9 m."""

    def running(xy):
        arc = 0.0
        for k in range(1, len(xy)):
            arc += float(np.linalg.norm(xy[k] - xy[k - 1]))
        return arc

    rng = np.random.default_rng(0)
    while True:
        xy = np.vstack([np.zeros((1, 2)), np.cumsum(rng.normal(size=(20, 2)), axis=0)])
        xy *= min(bound, 9.0) / running(xy)
        if bound > 10.0:
            step = rng.normal(size=2)
            xy = np.vstack([xy, xy[-1] + step / np.linalg.norm(step) * (bound - running(xy))])
        if running(xy) == bound and not 8.0 <= arc_length(xy) <= 12.0:
            return xy


def straight_line_trajectory(grid: TimeGrid, start, end) -> Trajectory:
    frac = np.linspace(0.0, 1.0, grid.steps)[:, None]
    states = np.asarray(start, dtype=float) + frac * (
        np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    )
    return Trajectory(grid, states)


def demo_log():
    rng = np.random.default_rng(0)
    steps = []
    for k in range(6):
        robot, ped = rng.normal(size=2), rng.normal(size=2)
        rows = [(-1, *robot.tolist()), (3, *ped.tolist())]
        sep = float(np.linalg.norm(robot - ped))
        replan_ms = rng.uniform(10.0, 100.0)
        steps.append(RunLogStep(0.4 * k, rows, replan_ms if k < 5 else None, sep))
    return RunLog(steps=steps, outcome="arrived", seed=12, robot_id=-1, human_length=3.3)


# broken_log's faults: a row put on a line of the CSV (line 2 is the robot's
# row at t=0.0, line 3 pedestrian 3's), or one summary field set to a value
# (... removes it)
BROKEN_ROWS = {
    "field": (3, "0.4,-1,west,1.0,0.5,"),
    "short": (3, "0.4,-1,1.0"),
    "inf_x": (3, "0.4,-1,inf,1.0,0.5,"),
    "inf_y": (3, "0.4,-1,1.0,-inf,0.5,"),
    "nan_t": (3, "nan,-1,1.0,0.5,0.5,"),
    "inf_t": (3, "inf,-1,1.0,0.5,0.5,"),
    "neg_sep": (3, "0.4,-1,1.0,0.5,-3.0,"),
    "nan_sep": (3, "0.4,-1,1.0,0.5,nan,"),
    "inf_replan": (3, "0.4,-1,1.0,0.5,0.5,inf"),
    "neg_replan": (3, "0.4,-1,1.0,0.5,0.5,-1.0"),
    "ped_field": (3, "0.0,3,west,1.0,,"),
    "ped_inf_y": (3, "0.0,3,1.0,inf,,"),
    "ped_first": (2, "0.0,3,1.0,1.0,,"),
    "ped_time": (3, "0.1,3,1.0,1.0,,"),
}
BROKEN_SUMMARIES = {
    "summary": ("robot_id", ...),
    "no_human": ("human_path_length_m", ...),
    "null_human": ("human_path_length_m", None),
    "text_human": ("human_path_length_m", "3.3"),
    "zero_human": ("human_path_length_m", 0),
    "nan_human": ("human_path_length_m", math.nan),
    "bool_human": ("human_path_length_m", True),
}


def broken_log(tmp_path, case):
    """A written log with the one fault ``case`` names in BROKEN_ROWS or BROKEN_SUMMARIES."""
    csv_path, summary_path = tmp_path / "run_0000.csv", tmp_path / "run_0000.summary.json"
    write_runlog(demo_log(), csv_path, summary_path)
    if case in BROKEN_SUMMARIES:
        summary = json.loads(summary_path.read_text())
        key, value = BROKEN_SUMMARIES[case]
        if value is ...:
            del summary[key]
        else:
            summary[key] = value
        summary_path.write_text(json.dumps(summary))
    else:
        lines = csv_path.read_text().splitlines()
        line, row = BROKEN_ROWS[case]
        lines[line - 1] = row
        csv_path.write_text("\n".join(lines) + "\n")
    return csv_path, summary_path
