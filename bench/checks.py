"""Correctness checks computed by the benchmark, independent of the program's results.

Each check takes plain data (rows parsed from a run CSV, generated inputs, a
solve report) and returns the list of failures it found, empty when the
output is correct. Nothing here calls into the program under test.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

ROBOT_ID = -1


@dataclass(frozen=True)
class Row:
    t: float
    agent: int
    x: float
    y: float
    min_sep: float | None  # None when the column is empty
    replan_ms: float | None


def read_run_csv(path) -> list[Row]:
    """Rows of a run log CSV, floats parsed exactly as written."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["t", "agent_id", "x", "y", "min_sep", "replan_ms"]:
            raise ValueError(f"{path}: unexpected header {header}")
        for t, agent, x, y, sep, ms in reader:
            rows.append(
                Row(float(t), int(agent), float(x), float(y),
                    float(sep) if sep else None, float(ms) if ms else None)
            )
    return rows


def steps(rows: list[Row]) -> list[tuple[Row, list[Row]]]:
    """(robot row, other rows) per logged step, in log order."""
    out: list[tuple[Row, list[Row]]] = []
    for row in rows:
        if row.agent == ROBOT_ID:
            out.append((row, []))
        elif out and out[-1][0].t == row.t:
            out[-1][1].append(row)
        else:
            raise ValueError(f"row for agent {row.agent} at t={row.t} precedes the robot's")
    return out


def check_min_sep(rows: list[Row], tol: float = 1e-12) -> list[str]:
    """The logged min_sep equals the nearest pedestrian's distance on the same step."""
    bad = []
    for robot, others in steps(rows):
        if not others:
            if robot.min_sep is not None:
                bad.append(f"t={robot.t}: min_sep {robot.min_sep} logged with no pedestrian")
            continue
        expect = min(math.hypot(o.x - robot.x, o.y - robot.y) for o in others)
        if robot.min_sep is None or abs(robot.min_sep - expect) > tol:
            bad.append(f"t={robot.t}: min_sep {robot.min_sep} != recomputed {expect!r}")
    return bad


def check_robot_steps(rows: list[Row], max_speed: float, dt: float) -> list[str]:
    """Every robot move between consecutive steps is at most max_speed * dt."""
    limit = max_speed * dt * (1.0 + 1e-12)
    robots = [robot for robot, _ in steps(rows)]
    bad = []
    for a, b in zip(robots, robots[1:]):
        step = math.hypot(b.x - a.x, b.y - a.y)
        if step > limit:
            bad.append(f"t={b.t}: robot moved {step!r} m > {max_speed * dt!r} m")
    return bad


def check_arrival(rows: list[Row], outcome: str, goal, tolerance: float) -> list[str]:
    """An ``arrived`` run ends with the robot within ``tolerance`` of its goal."""
    if outcome != "arrived":
        return []
    last = steps(rows)[-1][0]
    gap = math.hypot(last.x - goal[0], last.y - goal[1])
    if gap > tolerance + 1e-12:
        return [f"arrived {gap!r} m from the goal (tolerance {tolerance})"]
    return []


def check_replay(rows: list[Row], tracks: dict, removed: int, period: float) -> list[str]:
    """Replayed pedestrians match the generated file bit for bit, none missing.

    ``tracks`` maps pedestrian id -> {frame: (x, y)} as generated.
    """
    bad = []
    for robot, others in steps(rows):
        frame = round(robot.t / period)
        expect = {p: track[frame] for p, track in tracks.items() if frame in track and p != removed}
        seen = {o.agent: (o.x, o.y) for o in others}
        for ped in expect.keys() - seen.keys():
            bad.append(f"frame {frame}: pedestrian {ped} missing")
        for ped in seen.keys() - expect.keys():
            bad.append(f"frame {frame}: pedestrian {ped} not in the generated file")
        for ped in expect.keys() & seen.keys():
            if seen[ped] != expect[ped]:
                bad.append(f"frame {frame}: pedestrian {ped} at {seen[ped]} != {expect[ped]}")
    return bad


def check_decrease(initial: float, objectives, kls, tol: float = 1e-9) -> list[str]:
    """The per-sweep sufficient decrease J_k - J_{k+1} >= sum of KL, up to rounding."""
    bad = []
    prev = initial
    for k, (jc, kl) in enumerate(zip(objectives, kls)):
        if prev - jc < kl - tol * max(1.0, abs(prev)):
            bad.append(f"sweep {k + 1}: J dropped {prev - jc!r} < KL sum {kl!r}")
        prev = jc
    return bad


# -- 1D reference: trapezoid quadrature of the closed-form sequential update ----------


def trapezoid_weights(xs: np.ndarray) -> np.ndarray:
    w = np.empty(xs.size)
    w[:] = xs[1] - xs[0]
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def reference_evolution(xs, means, sigma, kernel_weight, kernel_sigma, sweeps) -> list[np.ndarray]:
    """Grid densities after ``sweeps`` sequential updates p_i <- p_i exp(-gamma_i) / Z.

    gamma_i(x) = sum_{j != i} int w N(x - y; 0, s^2) p_j(y) dy, by the trapezoid
    rule on ``xs``. Agents start as N(mean, sigma^2) normalised on the grid.
    """
    xs = np.asarray(xs, dtype=float)
    tw = trapezoid_weights(xs)
    gap = xs[:, None] - xs[None, :]
    psi = kernel_weight * np.exp(-0.5 * (gap / kernel_sigma) ** 2) / (kernel_sigma * math.sqrt(2 * math.pi))
    ps = []
    for mu in means:
        p = np.exp(-0.5 * ((xs - mu) / sigma) ** 2)
        ps.append(p / (tw @ p))
    for _ in range(sweeps):
        for i in range(len(ps)):
            gamma = sum(psi @ (tw * ps[j]) for j in range(len(ps)) if j != i)
            p = ps[i] * np.exp(-(gamma - gamma.min()))
            ps[i] = p / (tw @ p)
    return ps


def check_agreement(densities, reference, rel_tol: float) -> list[str]:
    """Grid densities equal the reference ones within ``rel_tol`` of the reference peak."""
    gap = max(float(np.max(np.abs(np.asarray(d) - r))) for d, r in zip(densities, reference))
    peak = max(float(r.max()) for r in reference)
    if gap > rel_tol * peak:
        return [f"exact_update differs from the benchmark quadrature by {gap:.3g}"]
    return []


def reference_cdf(xs: np.ndarray, p: np.ndarray) -> np.ndarray:
    seg = 0.5 * (p[1:] + p[:-1]) * np.diff(xs)
    cdf = np.concatenate([[0.0], np.cumsum(seg)])
    return cdf / cdf[-1]


def weighted_ks(xs: np.ndarray, cdf: np.ndarray, samples, weights) -> float:
    """Sup distance between a weighted empirical CDF and a grid CDF (linear between points)."""
    order = np.argsort(samples, kind="stable")
    s = np.asarray(samples, dtype=float)[order]
    w = np.asarray(weights, dtype=float)[order]
    after = np.cumsum(w) / w.sum()
    before = np.concatenate([[0.0], after[:-1]])
    ref = np.interp(s, xs, cdf, left=0.0, right=1.0)
    return float(max(np.max(np.abs(after - ref)), np.max(np.abs(before - ref))))
