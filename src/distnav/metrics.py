"""Safety and efficiency statistics over navigation runs.

Per run: collision (closest approach under 0.21 m), discomfort (under
0.30 m), freezing behaviour (robot path more than 1.25x the human's, or a
timeout), and the path-length ratio. Aggregates mirror the usual benchmark
table: percentages, the worst ratio, and population mean/sd of per-run
minimum separation, robot path length, and per-step replanning time.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
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
    replan_times: list


@dataclass
class MetricsReport:
    runs: int
    discomfort_pct: float
    collision_pct: float
    freezing_pct: float
    max_ratio: float
    mean_min_sep_m: float
    sd_min_sep_m: float
    mean_path_m: float
    sd_path_m: float
    mean_replan_s: float
    sd_replan_s: float

    def to_dict(self) -> dict:
        """Every field by name, a non-finite value as None."""
        return {k: v if isinstance(v, int) or math.isfinite(v) else None for k, v in asdict(self).items()}

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
            f"{self.mean_min_sep_m:.2f}+-{self.sd_min_sep_m:.2f}m"
            if math.isfinite(self.mean_min_sep_m)
            else "n/a",
            f"{self.mean_path_m:.2f}+-{self.sd_path_m:.2f}m",
            f"{self.mean_replan_s:.3f}+-{self.sd_replan_s:.3f}s"
            if math.isfinite(self.mean_replan_s)
            else "n/a",
        ]
        widths = [max(len(h), len(r)) for h, r in zip(headers, row)]
        line = lambda cells: "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
        return line(headers) + "\n" + line(row) + "\n"


def classify_run(log, th: Thresholds = Thresholds()) -> RunClassification:
    """Flags and scalars for one run against the given thresholds; the path
    ratio is the robot's path over ``log.human_length``."""
    seps = log.min_sep_series()
    if not seps.size:
        raise ValueError("run log is empty")
    if not (log.human_length > 0):
        raise ValueError("human_length must be positive")
    min_sep = float(np.nanmin(seps)) if np.isfinite(seps).any() else math.nan  # NaN compares False
    collision = min_sep < th.collision_dist
    discomfort = min_sep < th.discomfort_dist
    d_r = arc_length(log.robot_positions())
    ratio = d_r / log.human_length
    freezing = ratio > th.freezing_ratio or log.outcome == TIMEOUT
    return RunClassification(
        collision=collision,
        discomfort=discomfort,
        freezing=freezing,
        ratio=ratio,
        min_sep=min_sep,
        robot_path_length=d_r,
        replan_times=list(log.replan_times()),
    )


def aggregate(results: Sequence[RunClassification]) -> MetricsReport:
    """Population statistics over per-run classifications (order-independent)."""
    if not results:
        raise ValueError("no runs to aggregate")
    n = len(results)
    pct = lambda flags: 100.0 * sum(flags) / n
    seps = np.array([r.min_sep for r in results if not math.isnan(r.min_sep)])
    paths = np.array([r.robot_path_length for r in results])
    replans = np.array([t for r in results for t in r.replan_times])
    return MetricsReport(
        runs=n,
        discomfort_pct=pct([r.discomfort for r in results]),
        collision_pct=pct([r.collision for r in results]),
        freezing_pct=pct([r.freezing for r in results]),
        max_ratio=max(r.ratio for r in results),
        mean_min_sep_m=float(seps.mean()) if seps.size else math.nan,
        sd_min_sep_m=float(seps.std()) if seps.size else math.nan,
        mean_path_m=float(paths.mean()),
        sd_path_m=float(paths.std()),
        mean_replan_s=float(replans.mean()) if replans.size else math.nan,
        sd_replan_s=float(replans.std()) if replans.size else math.nan,
    )
