"""One-at-a-time factor screening and search-space bound reduction.

Morris-style screening walks ``r`` trajectories through the unit cube on a
``p``-level grid. Each trajectory starts at a random grid point and perturbs
every dimension exactly once, in random order, by the method's step
``delta = p / (2 (p - 1))``. The signed finite difference of the screened
metric across each step is that dimension's elementary effect sample.

Per-dimension statistics over the ``r`` samples:

* ``mu``, the mean effect (sign-sensitive, cancels under non-monotonicity),
* ``mu_star``, the mean absolute effect (overall influence),
* ``sigma``, the sample standard deviation (interactions / non-linearity).

Bound reduction then shrinks each parameter's range using two derived
thresholds around the SLO: a relaxed one (factor > 1) picks the new lower
bound as the smallest setting that ever met it, and a strict one
(factor < 1) caps the new upper bound, scaled by the parameter's min-max
normalized ``mu_star``. Influential parameters keep wide ranges; inert ones
collapse toward their cheapest workable setting.
"""

from __future__ import annotations

import csv
import io
import logging
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .fields import ConfigError
from .space import Configuration, ParameterSpec, SearchSpace

__all__ = [
    "TrajectoryPlan",
    "ScreeningStats",
    "ScreeningOutcome",
    "BoundReductionReport",
    "resolve_p",
    "trajectory_delta",
    "generate_trajectories",
    "screening_design",
    "elementary_effect",
    "trajectory_effects",
    "compute_stats",
    "run_screening",
    "reduce_bounds",
    "screening_report_csv",
]

logger = logging.getLogger(__name__)

#: Column order of the screening report CSV.
REPORT_HEADER = (
    "parameter",
    "mu",
    "mu_star",
    "sigma",
    "old_min",
    "old_max",
    "new_min",
    "new_max",
    "rho",
)


def resolve_p(space: SearchSpace, p: int | None = None) -> int:
    """The screening grid's level count: ``p`` when given, otherwise the
    parameters' common level count, which must then be uniform."""
    if p is not None:
        return p
    counts = {spec.level_count for spec in space.parameters}
    if len(counts) != 1:
        raise ConfigError(
            "parameter level counts differ; pass p explicitly "
            f"(saw counts {sorted(counts)})"
        )
    return counts.pop()


def trajectory_delta(p: int) -> float:
    """The screening step ``p / (2 (p - 1))`` for an even level count ``p``."""
    if p < 2:
        raise ValueError(f"level count p must be >= 2, got {p}")
    if p % 2 != 0:
        raise ValueError(f"level count p must be even, got {p}")
    return p / (2 * (p - 1))


def _check_r(r: int) -> None:
    if r < 1:
        raise ValueError(f"trajectory count r must be >= 1, got {r}")


def _check_relaxed_factor(relaxed_factor: float) -> None:
    if relaxed_factor < 1.0:
        raise ValueError(f"relaxed_factor must be >= 1, got {relaxed_factor}")


def _check_strict_factor(strict_factor: float) -> None:
    if not 0.0 < strict_factor <= 1.0:
        raise ValueError(f"strict_factor must be in (0, 1], got {strict_factor}")


#: The rule screening applies to each of its settings: a ValueError for a
#: value it refuses.
SETTING_CHECKS: dict[str, Callable[[float], object]] = {
    "r": _check_r,
    "p": trajectory_delta,
    "relaxed_factor": _check_relaxed_factor,
    "strict_factor": _check_strict_factor,
}


@dataclass(frozen=True, eq=False)
class TrajectoryPlan:
    """One planned trajectory: ``k + 1`` points differing in one coordinate each.

    ``points`` has shape ``(k + 1, k)``; row ``j`` and row ``j - 1`` differ
    only in dimension ``perturbed_dimension[j - 1]``, by exactly ``delta`` in
    magnitude.
    """

    points: np.ndarray
    perturbed_dimension: tuple[int, ...]
    delta: float

    def __post_init__(self) -> None:
        k = self.points.shape[1]
        if self.points.shape != (k + 1, k):
            raise ValueError(
                f"expected {k + 1} points of dimension {k}, got {self.points.shape}"
            )
        if sorted(self.perturbed_dimension) != list(range(k)):
            raise ValueError("each dimension must be perturbed exactly once")


def generate_trajectories(
    space: SearchSpace, r: int, p: int, seed: int
) -> list[TrajectoryPlan]:
    """Plan ``r`` random trajectories over a ``p``-level unit-cube grid.

    Starting points are uniform over all ``p**k`` grid points. The step
    direction is the one that keeps the coordinate inside ``[0, 1]``; with
    the canonical ``delta`` it is uniquely determined by the start level.
    Deterministic for a given seed. Total planned evaluations:
    ``r * (k + 1)``.
    """
    _check_r(r)
    delta = trajectory_delta(p)
    k = space.dimension
    half = p // 2
    rng = np.random.default_rng(seed)
    plans = []
    for _ in range(r):
        levels = rng.integers(0, p, size=k)
        order = rng.permutation(k)
        rows = np.empty((k + 1, k), dtype=np.int64)
        rows[0] = levels
        for step, dim in enumerate(order, start=1):
            levels = levels.copy()
            levels[dim] += half if levels[dim] < half else -half
            rows[step] = levels
        plans.append(
            TrajectoryPlan(
                points=rows / (p - 1),
                perturbed_dimension=tuple(int(d) for d in order),
                delta=delta,
            )
        )
    return plans


def screening_design(
    space: SearchSpace, r: int, p: int | None, seed: int
) -> list[tuple[TrajectoryPlan, list[Configuration]]]:
    """The screening design in evaluation order: each planned trajectory
    paired with its points snapped to the parameters' own grids.

    ``p`` defaults to the common level count (see :func:`resolve_p`).
    """
    plans = generate_trajectories(space, r, resolve_p(space, p), seed)
    return [(plan, [space.from_normalized(point) for point in plan.points]) for plan in plans]


def elementary_effect(y_after: float, y_before: float, signed_delta: float) -> float:
    """Finite difference of the metric across one trajectory step."""
    if signed_delta == 0:
        raise ValueError("signed_delta must be non-zero")
    return (y_after - y_before) / signed_delta


def trajectory_effects(plan: TrajectoryPlan, ys: Sequence[float]) -> np.ndarray:
    """Elementary effects along one trajectory, indexed by dimension;
    ``ys[j]`` is the metric at ``plan.points[j]``."""
    ee = np.empty(len(plan.perturbed_dimension))
    for step, dim in enumerate(plan.perturbed_dimension, start=1):
        signed = plan.points[step, dim] - plan.points[step - 1, dim]
        ee[dim] = elementary_effect(ys[step], ys[step - 1], signed)
    return ee


@dataclass(frozen=True, eq=False)
class ScreeningStats:
    """Per-parameter effect statistics over ``r`` trajectories.

    ``sigma`` needs at least two samples; with ``r == 1`` it is NaN.
    """

    names: tuple[str, ...]
    mu: np.ndarray
    mu_star: np.ndarray
    sigma: np.ndarray
    ee_samples: np.ndarray

    @property
    def r(self) -> int:
        return self.ee_samples.shape[0]

    def ranking(self) -> list[int]:
        """Parameter indices sorted by decreasing ``mu_star`` (stable)."""
        order = np.argsort(-self.mu_star, kind="stable")
        return [int(i) for i in order]


def compute_stats(
    ee_samples: Sequence[Sequence[float]] | np.ndarray,
    names: Sequence[str],
) -> ScreeningStats:
    """Aggregate an ``(r, k)`` matrix of elementary effect samples."""
    ee = np.asarray(ee_samples, dtype=float)
    if ee.ndim != 2:
        raise ValueError(f"expected an (r, k) matrix, got shape {ee.shape}")
    r, k = ee.shape
    if r < 1:
        raise ValueError("at least one trajectory of samples required")
    if len(names) != k:
        raise ValueError(f"expected {k} names, got {len(names)}")
    mu = ee.mean(axis=0)
    mu_star = np.abs(ee).mean(axis=0)
    if r >= 2:
        sigma = ee.std(axis=0, ddof=1)
    else:
        sigma = np.full(k, np.nan)
    return ScreeningStats(
        names=tuple(names), mu=mu, mu_star=mu_star, sigma=sigma, ee_samples=ee
    )


@dataclass(frozen=True, eq=False)
class ScreeningOutcome:
    """What a screening run produced: statistics and evaluations.

    ``evaluations`` pairs every evaluated configuration with its screened
    metric value, in evaluation order (trajectory by trajectory).
    """

    stats: ScreeningStats
    evaluations: tuple[tuple[Configuration, float], ...]


def run_screening(
    space: SearchSpace,
    objective: Callable[[Configuration], float],
    *,
    r: int = 10,
    p: int | None = None,
    seed: int = 0,
) -> ScreeningOutcome:
    """Evaluate the :func:`screening_design` and aggregate its effects.

    ``objective`` maps a grid configuration to the screened metric (for SLO
    work, the p99 latency) and is called once per design point, in order.
    Trajectory points are snapped to each parameter's own grid, so ``p``
    may differ from the parameter level counts; by default it is their
    common level count and must then be uniform across parameters (see
    :func:`resolve_p`).
    """
    design = screening_design(space, r, p, seed)
    evaluations: list[tuple[Configuration, float]] = []
    ee = np.empty((r, space.dimension), dtype=float)
    for row, (plan, configs) in enumerate(design):
        ys = [float(objective(c)) for c in configs]
        evaluations.extend(zip(configs, ys))
        ee[row] = trajectory_effects(plan, ys)
    return ScreeningOutcome(stats=compute_stats(ee, space.names), evaluations=tuple(evaluations))


@dataclass(frozen=True, eq=False)
class BoundReductionReport:
    """Result of shrinking a space from screening evidence."""

    original_space: SearchSpace
    reduced_space: SearchSpace
    rho: np.ndarray
    relaxed_slo: float
    strict_slo: float
    notes: tuple[str, ...]


def _snap_up(spec: ParameterSpec, target: float) -> int:
    """Smallest grid level at or above ``target`` (tolerant of float fuzz)."""
    index = math.ceil((target - spec.minimum) / spec.granularity - 1e-9)
    index = min(max(index, 0), spec.level_count - 1)
    return spec.value_at(index)


def reduce_bounds(
    space: SearchSpace,
    stats: ScreeningStats,
    evaluations: Sequence[tuple[Configuration, float]],
    slo_threshold: float,
    *,
    relaxed_factor: float = 1.25,
    strict_factor: float = 0.75,
) -> BoundReductionReport:
    """Shrink per-parameter bounds from screening evaluations.

    For each parameter the new lower bound is the smallest setting that
    appeared in any evaluation meeting the relaxed threshold. The new upper
    bound starts there and extends toward the largest setting meeting the
    strict threshold, scaled by ``rho``, the parameter's min-max normalized
    ``mu_star``, then snaps up to the grid. When every ``mu_star`` is equal
    the scaling is undefined and the upper bound is instead the smallest
    setting meeting the strict threshold.

    Fallbacks keep the result well-formed: a parameter with no relaxed
    evidence keeps its original bounds, one with no strict evidence keeps
    its original upper bound, and a crossed pair collapses to a single
    level. Every fallback is recorded in ``notes`` and logged.
    """
    if not evaluations:
        raise ValueError("at least one screening evaluation required")
    if stats.names != space.names:
        raise ValueError("statistics and space disagree on parameter names")
    _check_relaxed_factor(relaxed_factor)
    _check_strict_factor(strict_factor)
    relaxed_slo = relaxed_factor * slo_threshold
    strict_slo = strict_factor * slo_threshold

    k = space.dimension
    relaxed_sets: list[set[int]] = [set() for _ in range(k)]
    strict_sets: list[set[int]] = [set() for _ in range(k)]
    for config, y in evaluations:
        if y <= relaxed_slo:
            for i, v in enumerate(config.settings):
                relaxed_sets[i].add(v)
        if y <= strict_slo:
            for i, v in enumerate(config.settings):
                strict_sets[i].add(v)

    spread = float(stats.mu_star.max() - stats.mu_star.min())
    degenerate = spread == 0.0
    if degenerate:
        rho = np.ones(k)
    else:
        rho = (stats.mu_star - stats.mu_star.min()) / spread

    notes: list[str] = []
    reduced: list[ParameterSpec] = []
    for i, spec in enumerate(space.parameters):
        if not relaxed_sets[i]:
            notes.append(
                f"{spec.name}: no evaluation met the relaxed threshold "
                f"{relaxed_slo:g}; bounds kept"
            )
            reduced.append(spec)
            continue
        new_min = min(relaxed_sets[i])
        if not strict_sets[i]:
            notes.append(
                f"{spec.name}: no evaluation met the strict threshold "
                f"{strict_slo:g}; upper bound kept"
            )
            new_max = spec.maximum
        elif degenerate:
            new_max = min(strict_sets[i])
        else:
            target = new_min + (max(strict_sets[i]) - new_min) * float(rho[i])
            new_max = _snap_up(spec, target)
        if new_max < new_min:
            new_max = new_min
        if new_max == new_min:
            notes.append(f"{spec.name}: reduced to the single level {new_min}")
        reduced.append(ParameterSpec(spec.name, new_min, new_max, spec.granularity, spec.suffix))

    for note in notes:
        logger.warning("bound reduction: %s", note)
    return BoundReductionReport(
        original_space=space,
        reduced_space=SearchSpace(tuple(reduced)),
        rho=rho,
        relaxed_slo=relaxed_slo,
        strict_slo=strict_slo,
        notes=tuple(notes),
    )


def _sig6(value: float) -> str:
    return f"{value:.6g}"


def screening_report_csv(
    stats: ScreeningStats, reduction: BoundReductionReport
) -> str:
    """Render the screening report, one row per parameter.

    Rows are sorted by decreasing ``mu_star``; floats carry six significant
    digits.
    """
    if stats.names != reduction.original_space.names:
        raise ValueError("statistics and reduction disagree on parameter names")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(REPORT_HEADER)
    for i in stats.ranking():
        old = reduction.original_space.parameters[i]
        new = reduction.reduced_space.parameters[i]
        writer.writerow(
            [
                stats.names[i],
                _sig6(float(stats.mu[i])),
                _sig6(float(stats.mu_star[i])),
                _sig6(float(stats.sigma[i])),
                old.minimum,
                old.maximum,
                new.minimum,
                new.maximum,
                _sig6(float(reduction.rho[i])),
            ]
        )
    return out.getvalue()
