"""Recorded-trajectory datasets and the partial-run extraction protocol.

Dataset files are plain text, one record per line: ``frame_id pedestrian_id x y``
(whitespace- or comma-separated). The frame period comes from a sidecar YAML
(``<file>.meta.yaml`` with a ``frame_period_s`` key) or defaults to 0.4 s.

A partial run is a roughly 10 m stretch of one pedestrian's recording; the
benchmark removes that pedestrian, hands its start and end to the robot, and
replays everyone else verbatim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import Decimal
from pathlib import Path

import numpy as np
import yaml

from .errors import ConfigError

__all__ = ["TrajectoryDataset", "PartialRun", "load_dataset", "extract_partials"]

DEFAULT_FRAME_PERIOD = 0.4

MIN_RUN_LENGTH = 8.0
TARGET_RUN_LENGTH = 10.0
MAX_RUN_LENGTH = 12.0


@dataclass
class TrajectoryDataset:
    """Per-pedestrian recorded frames and positions, sorted by frame.

    A frame index, built once from ``tracks``, lists the pedestrians recorded
    at each distinct frame id. ``frame_stride`` is the gcd of the steps
    between those ids: recordings often number frames 0, 10, 20, ..., and
    one stride is one ``frame_period``.
    """

    frame_period: float
    tracks: dict = field(default_factory=dict)  # ped_id -> (frames (k,), xy (k,2))

    def __post_init__(self):
        peds = self.pedestrians()
        counts = [len(self.tracks[p][0]) for p in peds]
        frames = np.concatenate([self.tracks[p][0] for p in peds]) if peds else np.zeros(0, int)
        owner = np.repeat(np.arange(len(peds)), counts)
        order = np.argsort(frames, kind="stable")  # pedestrians stay in id order
        ids, starts = np.unique(frames[order], return_index=True)
        groups = np.split(owner[order], starts[1:])
        self._present = {int(f): [peds[i] for i in g] for f, g in zip(ids, groups)}
        steps = [b - a for a, b in zip(ids.tolist(), ids[1:].tolist())]  # np.diff wraps past 2^63
        self.frame_stride = math.gcd(*steps) if steps else 1

    def pedestrians(self) -> list:
        return sorted(self.tracks)

    def position_at(self, ped_id: int, frame: int) -> np.ndarray | None:
        frames, xy = self.tracks[ped_id]
        idx = np.searchsorted(frames, frame)
        if idx < frames.size and frames[idx] == frame:
            return xy[idx]
        return None

    def present_at(self, frame: int) -> list:
        return list(self._present.get(frame, ()))


def load_dataset(path, frame_period: float | None = None) -> TrajectoryDataset:
    """Parse a dataset file; malformed records and ids that are not whole numbers
    (``780.0`` is 780) below 2^63 in magnitude, or negative for a pedestrian, raise
    ConfigError with the line number, as do an unreadable file and a bad period."""
    path = Path(path)
    if frame_period is None:
        frame_period = _sidecar_frame_period(path)
    if not (0 < frame_period < math.inf):
        raise ConfigError(f"{path}: frame period must be positive and finite, got {frame_period}")
    try:
        fh = path.open()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from None
    rows = []
    with fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            parts = text.replace(",", " ").split()
            if len(parts) != 4:
                raise ConfigError(f"{path}:{lineno}: expected 4 fields, got {len(parts)}")
            try:
                frame = _record_id("frame", parts[0], 1 - 2**63)
                # -1 is the robot's id in a replay, and seeds need ids >= -1
                ped = _record_id("pedestrian", parts[1], 0)
                x, y = float(parts[2]), float(parts[3])
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from None
            if not (np.isfinite(x) and np.isfinite(y)):
                raise ConfigError(f"{path}:{lineno}: non-finite position")
            rows.append((frame, ped, x, y))
    if not rows:
        raise ConfigError(f"{path}: dataset contains no records")

    by_ped: dict[int, list] = {}
    for frame, ped, x, y in rows:
        by_ped.setdefault(ped, []).append((frame, x, y))
    tracks = {}
    for ped, recs in by_ped.items():
        recs.sort(key=lambda r: r[0])
        frames = np.array([r[0] for r in recs], dtype=int)
        if np.any(frames[1:] <= frames[:-1]):  # np.diff would wrap past 2^63
            raise ConfigError(f"{path}: pedestrian {ped} has duplicate frames")
        xy = np.array([(r[1], r[2]) for r in recs], dtype=float)
        tracks[ped] = (frames, xy)
    return TrajectoryDataset(frame_period=float(frame_period), tracks=tracks)


def _record_id(kind: str, text: str, low: int) -> int:
    try:
        value = int(text)
    except ValueError:
        try:
            number = Decimal(text)  # exact: "780.0" is 780, "1e-400" is not whole
        except ArithmeticError:
            number = Decimal("NaN")
        whole = number.is_finite() and number == number.to_integral_value()
        value = int(number) if whole and abs(number) < 2**63 else 2**63
    if not low <= value < 2**63:
        raise ValueError(f"{kind} id {text} is not a whole number in [{low}, 2^63)")
    return value


def _sidecar_frame_period(path: Path) -> float:
    sidecar = path.with_suffix(path.suffix + ".meta.yaml")
    if not sidecar.exists():
        return DEFAULT_FRAME_PERIOD
    try:
        meta = yaml.safe_load(sidecar.read_text()) or {}
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {sidecar}: {exc}") from None
    if not isinstance(meta, dict):
        raise ConfigError(f"{sidecar}: top level must be a mapping")
    value = meta.get("frame_period_s", DEFAULT_FRAME_PERIOD)
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{sidecar}: frame_period_s must be a number, got {value!r}") from None


@dataclass(frozen=True)
class PartialRun:
    """A ~10 m stretch of one pedestrian's recording."""

    ped_id: int
    start_frame: int
    end_frame: int
    path: np.ndarray = field(repr=False)  # recorded positions, (k, 2)

    def __post_init__(self):
        arc = arc_length(self.path)
        if not (MIN_RUN_LENGTH <= arc <= MAX_RUN_LENGTH):
            raise ValueError(f"partial run arc length {arc:.2f} m outside [8, 12] m")

    @property
    def human_length(self) -> float:
        return arc_length(self.path)

    @property
    def start(self) -> np.ndarray:
        return self.path[0]

    @property
    def goal(self) -> np.ndarray:
        return self.path[-1]


def arc_length(positions: np.ndarray) -> float:
    positions = np.asarray(positions, dtype=float)
    if positions.ndim != 2 or positions.shape[0] < 2:
        return 0.0
    return float(np.sum(np.linalg.norm(np.diff(positions, axis=0), axis=1)))


def extract_partials(ds: TrajectoryDataset) -> list[PartialRun]:
    """Greedy non-overlapping ~10 m segments from every pedestrian's recording.

    Walking each track from the start, a segment closes as soon as its arc
    length reaches 10 m (kept when it lands within [8, 12] m); a trailing
    segment shorter than 10 m is kept when it is at least 8 m.
    """
    if not ds.tracks:
        raise ConfigError("empty dataset")
    partials = []
    for ped in ds.pedestrians():
        frames, xy = ds.tracks[ped]
        start = 0
        arc = 0.0
        for k in range(1, frames.size):
            arc += float(np.linalg.norm(xy[k] - xy[k - 1]))
            if arc >= TARGET_RUN_LENGTH:
                if arc <= MAX_RUN_LENGTH:
                    partials.append(
                        PartialRun(ped, int(frames[start]), int(frames[k]), xy[start : k + 1])
                    )
                # either way restart after the crossing frame
                start = k
                arc = 0.0
        if arc >= MIN_RUN_LENGTH:
            partials.append(
                PartialRun(ped, int(frames[start]), int(frames[-1]), xy[start:])
            )
    return partials
