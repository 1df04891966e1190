"""Screening-guided black-box optimization of service configurations.

The package splits into a thin stack: discrete search spaces
(:mod:`confopt.space`), utility scoring (:mod:`confopt.utility`),
trajectory-based sensitivity screening with bound reduction
(:mod:`confopt.screening`), evaluation backends (:mod:`confopt.backends`),
ask/tell optimizers over a shared session protocol (:mod:`confopt.optim`),
an experiment harness with dataset replay (:mod:`confopt.harness`), and a
config-file driven CLI (:mod:`confopt.cli`).
"""

from importlib import resources
from pathlib import Path

from .backends import (
    Backend,
    ExternalBackend,
    ReplayBackend,
    ServiceModelSpec,
    ServiceSpec,
    SliResult,
    SyntheticBackend,
    load_service_model,
)
from .config import (
    BackendSettings,
    ConfigError,
    RunConfig,
    ScreeningSettings,
    build_backend,
    emit_config,
    emit_reduced_config,
    parse_config,
)
from .gp import SurrogateModel, expected_improvement, gp_fit
from .harness import (
    ComparisonReport,
    Dataset,
    RunTrace,
    SvbReport,
    collect_exhaustive,
    compare,
    load_dataset,
    run_optimization,
    screening_vs_standalone,
    write_comparison_csvs,
    write_dataset_csv,
    write_slo_cdf_csv,
    write_trace_csv,
)
from .optim import (
    OPTIMIZERS,
    Observation,
    OptimizerSession,
    SpaceExhausted,
    create_optimizer,
)
from .screening import (
    BoundReductionReport,
    ScreeningOutcome,
    ScreeningStats,
    TrajectoryPlan,
    generate_trajectories,
    reduce_bounds,
    run_screening,
    screening_report_csv,
    trajectory_delta,
)
from .space import Configuration, ParameterSpec, SearchSpace
from .utility import (
    CostWeights,
    SloSpec,
    UTILITY_FUNCTIONS,
    WorkloadSpec,
    allocation_cost,
    get_utility,
    slo_cost_utility,
)

__version__ = "0.1.0"


def bundled_path(name: str) -> Path:
    """Filesystem path of a data file shipped with the package.

    Known names: ``toystore.yaml`` (full-space run config),
    ``toystore-model.yaml`` (synthetic service model it points at), and
    ``toystore-reduced.yaml`` (the post-screening config for seed 0).
    """
    path = Path(str(resources.files("confopt").joinpath("data", name)))
    if not path.is_file():
        raise FileNotFoundError(f"no bundled data file named {name!r}")
    return path

__all__ = [
    "Backend",
    "BackendSettings",
    "BoundReductionReport",
    "ComparisonReport",
    "ConfigError",
    "Configuration",
    "CostWeights",
    "Dataset",
    "ExternalBackend",
    "OPTIMIZERS",
    "Observation",
    "OptimizerSession",
    "ParameterSpec",
    "ReplayBackend",
    "RunConfig",
    "RunTrace",
    "ScreeningOutcome",
    "ScreeningSettings",
    "ScreeningStats",
    "SearchSpace",
    "ServiceModelSpec",
    "ServiceSpec",
    "SliResult",
    "SloSpec",
    "SpaceExhausted",
    "SurrogateModel",
    "SvbReport",
    "SyntheticBackend",
    "TrajectoryPlan",
    "UTILITY_FUNCTIONS",
    "WorkloadSpec",
    "allocation_cost",
    "build_backend",
    "bundled_path",
    "collect_exhaustive",
    "compare",
    "create_optimizer",
    "emit_config",
    "emit_reduced_config",
    "expected_improvement",
    "generate_trajectories",
    "get_utility",
    "gp_fit",
    "load_dataset",
    "load_service_model",
    "parse_config",
    "reduce_bounds",
    "run_optimization",
    "run_screening",
    "screening_report_csv",
    "screening_vs_standalone",
    "slo_cost_utility",
    "trajectory_delta",
    "write_comparison_csvs",
    "write_dataset_csv",
    "write_slo_cdf_csv",
    "write_trace_csv",
]
