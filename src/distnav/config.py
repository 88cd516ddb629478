"""Experiment configuration: defaults, YAML loading, and validation.

One structured file covers every section (planner, GP kernel, collision
kernel, solver, social-force parameters, scenario geometry, replay protocol,
metric thresholds, and the 1D evolution problem). Unknown keys are rejected
so typos fail loudly.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields, replace

import yaml

from .collision import CollisionKernel
from .engine import SolverConfig
from .errors import ConfigError, read_input
from .gp import KernelParams
from .metrics import Thresholds
from .planner import PlannerConfig
from .sfm import SfmParams
from .simulator import ReplayConfig, ScenarioConfig

__all__ = ["ExperimentConfig", "load_config", "default_config_dict", "dump_default_config"]

_MAX_SEED = 2**63 - 1


@dataclass(frozen=True)
class Evolve1dConfig:
    means: tuple = (-1.0, 0.0, 1.0)
    sigmas: tuple = (0.5, 0.5, 0.5)
    sweeps: int = 10
    grid_points: int = 2001
    span_sigmas: float = 8.0

    def __post_init__(self):
        if len(self.means) < 1 or len(self.means) != len(self.sigmas):
            raise ValueError("means and sigmas must be equal-length, non-empty")
        if any(s <= 0 for s in self.sigmas):
            raise ValueError("sigmas must be positive")
        if self.sweeps < 0 or self.grid_points < 3 or self.span_sigmas <= 0:
            raise ValueError("invalid evolve1d configuration")


@dataclass(frozen=True)
class ExperimentConfig:
    """Every section of one experiment. ``planner`` and ``scenario`` hold the
    shared sections from construction on: a field that ``_FED_FIELDS`` feeds
    always takes the top-level value, so ``cfg.planner`` is the planner that runs."""

    seed: int = 0
    samples_per_agent: int = 100
    out: str = "runs"
    gp: KernelParams = field(default_factory=KernelParams)
    collision: CollisionKernel = field(default_factory=CollisionKernel)
    solver: SolverConfig = field(default_factory=SolverConfig)
    planner: PlannerConfig = field(default_factory=PlannerConfig)
    sfm: SfmParams = field(default_factory=SfmParams)
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    replay: ReplayConfig = field(default_factory=ReplayConfig)
    thresholds: Thresholds = field(default_factory=Thresholds)
    evolve1d: Evolve1dConfig = field(default_factory=Evolve1dConfig)

    def __post_init__(self):
        if not (0 <= self.seed <= _MAX_SEED):
            raise ValueError(f"seed must be a 64-bit non-negative integer, got {self.seed}")
        for name, fed in _FED_FIELDS.items():
            section = replace(getattr(self, name), **{f: getattr(self, key) for f, key in fed.items()})
            object.__setattr__(self, name, section)


# a field with a default factory is a section, every other field a scalar key
_SECTION_TYPES = {
    f.name: f.default_factory for f in fields(ExperimentConfig) if f.default_factory is not MISSING
}
_SCALAR_KEYS = tuple(f.name for f in fields(ExperimentConfig) if f.name not in _SECTION_TYPES)
# section -> {field: the top-level key that feeds it}; a fed field is not settable in its section
_FED_FIELDS = {
    "planner": {
        "samples_per_agent": "samples_per_agent", "kernel": "gp", "collision": "collision", "solver": "solver"
    },
    "scenario": {"sfm": "sfm"},
}


def _settable(name: str, cls) -> list:
    return [f.name for f in fields(cls) if f.name not in _FED_FIELDS.get(name, {})]


_FIELD_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number"), str: ((str,), "a string")}


def _check_types(where: str, cls, data: dict) -> None:
    """An int field takes an int, a float field an int or a float, a str field
    a str, a tuple field a list of what its default's elements take; a bool
    is none of these."""
    for f in fields(cls):
        value = data.get(f.name)
        if isinstance(f.default, tuple) and f.default and f.name in data:
            accepted, kind = _FIELD_TYPES[type(f.default[0])]
            if type(value) not in (list, tuple) or any(type(v) not in accepted for v in value):
                raise ConfigError(f"{where}'{f.name}' must be a list, each element {kind}, got {value!r}")
        accepted, kind = _FIELD_TYPES.get(type(f.default), (None, None))
        if accepted and f.name in data and type(value) not in accepted:
            raise ConfigError(f"{where}'{f.name}' must be {kind}, got {value!r}")


def _check_finite(where: str, data: dict) -> None:
    """Every float given, alone or in a list, is finite: no field means
    anything by nan or inf."""
    for key, value in data.items():
        values = value if isinstance(value, (list, tuple)) else (value,)
        if any(type(v) is float and not math.isfinite(v) for v in values):
            raise ConfigError(f"{where}'{key}' must be finite, got {value!r}")


def _build_section(name: str, cls, data: dict):
    unknown = set(data) - set(_settable(name, cls))
    if unknown:
        raise ConfigError(f"unknown keys in section '{name}': {sorted(map(str, unknown))}")
    where = f"section '{name}': "
    _check_types(where, cls, data)
    coerced = {}
    for key, value in data.items():
        if isinstance(value, list):
            value = tuple(value)
        coerced[key] = value
    try:
        section = cls(**coerced)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid section '{name}': {exc}") from None
    # after the section's own checks, so that a bound they state is what a
    # non-finite value reports
    _check_finite(where, data)
    return section


def load_config(path=None, overrides: dict | None = None) -> ExperimentConfig:
    """Build an ExperimentConfig from an optional YAML file plus overrides.

    ``overrides`` maps top-level scalar keys (seed, samples_per_agent, out)
    or dotted section keys (e.g. ``scenario.n_pedestrians``) to values.
    """
    data: dict = {}
    if path is not None:
        try:
            loaded = yaml.safe_load(read_input(path))
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from None
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ConfigError(f"{path}: top level must be a mapping")
        data = loaded

    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if "." in key:
            section, sub = key.split(".", 1)
            target = data.setdefault(section, {})
            if not isinstance(target, dict):
                raise ConfigError(f"cannot set '{key}': '{section}' is not a mapping")
            target[sub] = value
        else:
            data[key] = value

    unknown = set(data) - set(_SECTION_TYPES) - set(_SCALAR_KEYS)
    if unknown:
        raise ConfigError(f"unknown top-level config keys: {sorted(map(str, unknown))}")

    kwargs = {key: data[key] for key in _SCALAR_KEYS if key in data}
    _check_types("", ExperimentConfig, kwargs)
    for name, cls in _SECTION_TYPES.items():
        section = data.get(name, {})
        if not isinstance(section, dict):
            raise ConfigError(f"section '{name}' must be a mapping")
        kwargs[name] = _build_section(name, cls, section)
    try:
        return ExperimentConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


def default_config_dict() -> dict:
    """Plain-dict rendering of every default, for print-config."""
    cfg = ExperimentConfig()
    out: dict = {k: getattr(cfg, k) for k in _SCALAR_KEYS}
    for name, cls in _SECTION_TYPES.items():
        section = getattr(cfg, name)
        values = {key: getattr(section, key) for key in _settable(name, cls)}
        out[name] = {key: list(v) if isinstance(v, tuple) else v for key, v in values.items()}
    return out


def dump_default_config() -> str:
    return yaml.safe_dump(default_config_dict(), sort_keys=False)
