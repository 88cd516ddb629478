"""Safety and efficiency statistics over navigation runs.

Per run: collision (closest approach under 0.21 m), discomfort (under
0.30 m), freezing behaviour (robot path more than 1.25x the human's, or a
timeout), and the path-length ratio. Aggregates mirror the usual benchmark
table: percentages, the worst ratio, and population mean/sd of per-run
minimum separation, robot path length, and per-step replanning time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import arc_length
from .runlog import TIMEOUT

__all__ = ["Thresholds", "RunClassification", "MetricsReport", "classify_run", "aggregate"]


@dataclass(frozen=True)
class Thresholds:
    collision_dist: float = 0.21
    discomfort_dist: float = 0.30
    freezing_ratio: float = 1.25

    def __post_init__(self):
        if not (0 < self.collision_dist <= self.discomfort_dist):
            raise ValueError("need 0 < collision_dist <= discomfort_dist")
        if not (self.freezing_ratio > 1):
            raise ValueError("freezing_ratio must be > 1")


@dataclass
class RunClassification:
    collision: bool
    discomfort: bool
    freezing: bool
    ratio: float
    min_sep: float  # NaN when no pedestrian was ever present
    robot_path_length: float
    had_pedestrian: bool
    replan_times: list
    timed_out: bool


@dataclass
class MetricsReport:
    runs: int
    discomfort_pct: float
    collision_pct: float
    freezing_pct: float
    max_ratio: float
    mean_min_sep: float
    sd_min_sep: float
    mean_path: float
    sd_path: float
    mean_replan_s: float
    sd_replan_s: float

    def to_dict(self) -> dict:
        clean = lambda x: x if isinstance(x, int) or math.isfinite(x) else None
        return {
            "runs": self.runs,
            "discomfort_pct": self.discomfort_pct,
            "collision_pct": self.collision_pct,
            "freezing_pct": self.freezing_pct,
            "max_ratio": clean(self.max_ratio),
            "mean_min_sep_m": clean(self.mean_min_sep),
            "sd_min_sep_m": clean(self.sd_min_sep),
            "mean_path_m": self.mean_path,
            "sd_path_m": self.sd_path,
            "mean_replan_s": clean(self.mean_replan_s),
            "sd_replan_s": clean(self.sd_replan_s),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def to_table(self, label: str = "planner") -> str:
        """Aligned text table with the benchmark's column layout."""
        headers = [
            "",
            "Discomfort",
            "Collisions",
            "Freezing Behavior",
            "max(d_r/d_h)",
            "mu(s)",
            "mu(d_r)",
            "mu(t)",
        ]
        row = [
            label,
            f"{self.discomfort_pct:.1f}%",
            f"{self.collision_pct:.1f}%",
            f"{self.freezing_pct:.1f}%",
            f"{self.max_ratio:.2f}" if math.isfinite(self.max_ratio) else "n/a",
            f"{self.mean_min_sep:.2f}+-{self.sd_min_sep:.2f}m"
            if math.isfinite(self.mean_min_sep)
            else "n/a",
            f"{self.mean_path:.2f}+-{self.sd_path:.2f}m",
            f"{self.mean_replan_s:.3f}+-{self.sd_replan_s:.3f}s"
            if math.isfinite(self.mean_replan_s)
            else "n/a",
        ]
        widths = [max(len(h), len(r)) for h, r in zip(headers, row)]
        line = lambda cells: "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
        return line(headers) + "\n" + line(row) + "\n"


def classify_run(log, human_path_length: float, th: Thresholds = Thresholds()) -> RunClassification:
    """Flags and scalars for one run against the given thresholds."""
    seps = log.min_sep_series()
    if not seps.size:
        raise ValueError("run log is empty")
    if not (human_path_length > 0):
        raise ValueError("human_path_length must be positive")
    had_ped = bool(np.any(np.isfinite(seps)))
    min_sep = float(np.nanmin(seps)) if had_ped else math.nan
    collision = had_ped and min_sep < th.collision_dist
    discomfort = had_ped and min_sep < th.discomfort_dist
    d_r = arc_length(log.robot_positions())
    ratio = d_r / human_path_length
    timed_out = log.outcome == TIMEOUT
    freezing = ratio > th.freezing_ratio or timed_out
    return RunClassification(
        collision=collision,
        discomfort=discomfort,
        freezing=freezing,
        ratio=ratio,
        min_sep=min_sep,
        robot_path_length=d_r,
        had_pedestrian=had_ped,
        replan_times=list(log.replan_times()),
        timed_out=timed_out,
    )


def aggregate(results: Sequence[RunClassification]) -> MetricsReport:
    """Population statistics over per-run classifications (order-independent)."""
    if not results:
        raise ValueError("no runs to aggregate")
    n = len(results)
    pct = lambda flags: 100.0 * sum(flags) / n
    seps = np.array([r.min_sep for r in results if r.had_pedestrian])
    paths = np.array([r.robot_path_length for r in results])
    replans = np.array([t for r in results for t in r.replan_times])
    return MetricsReport(
        runs=n,
        discomfort_pct=pct([r.discomfort for r in results]),
        collision_pct=pct([r.collision for r in results]),
        freezing_pct=pct([r.freezing for r in results]),
        max_ratio=max(r.ratio for r in results),
        mean_min_sep=float(seps.mean()) if seps.size else math.nan,
        sd_min_sep=float(seps.std()) if seps.size else math.nan,
        mean_path=float(paths.mean()),
        sd_path=float(paths.std()),
        mean_replan_s=float(replans.mean()) if replans.size else math.nan,
        sd_replan_s=float(replans.std()) if replans.size else math.nan,
    )
