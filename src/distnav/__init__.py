"""Coupled prediction and planning in distribution space for crowd navigation.

Agents' trajectory preferences are probability densities represented by
weighted samples; a sequential variational update jointly deforms them to
trade collision risk against deviation, with a provable per-sweep decrease
of the joint expected collision penalty.
"""

from .collision import (
    CollisionKernel,
    expected_penalty,
    joint_expected_penalty,
    pairwise_penalty,
    penalty_matrix,
)
from .engine import (
    PenaltyCache,
    SolveReport,
    SolverConfig,
    interaction_scores,
    select_critical,
    select_optimal,
    solve,
)
from .config import ExperimentConfig, load_config
from .dataset import PartialRun, TrajectoryDataset, extract_partials, load_dataset
from .errors import ConfigError, GridMismatchError, NumericalError
from .gp import (
    KernelParams,
    PreferenceGP,
    fit_preference,
    moments_1d,
    sample_trajectories,
)
from .grids import TimeGrid, Trajectory
from .metrics import MetricsReport, Thresholds, aggregate, classify_run
from .oracle import GridDensity, exact_gamma, exact_update, ks_distance
from .planner import PlannerConfig, ReplanResult, replan
from .runlog import RunLog, read_runlog, write_runlog
from .samples import SampleSet
from .sfm import SfmParams, step_sfm
from .simulator import (
    ReplayConfig,
    ScenarioConfig,
    human_baseline,
    run_interactive,
    run_replay,
)
from .world import AgentState

__version__ = "0.1.0"
