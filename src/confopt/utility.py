"""Scoring: workload and SLO descriptions, allocation cost, utility functions.

Utility is minimized. Any SLO violation scores worse than any satisfying
configuration: violations land in ``(1, inf)`` while satisfying ones score
their normalized allocation cost in ``[0, 1)``. The boundary ``sli == slo``
counts as satisfied.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .space import Configuration, SearchSpace

__all__ = [
    "WorkloadSpec",
    "SloSpec",
    "CostWeights",
    "allocation_cost",
    "slo_cost_utility",
    "UTILITY_FUNCTIONS",
    "get_utility",
]

#: Signature shared by registered utility functions:
#: (sli, slo_threshold, cost) -> utility.
UtilityFn = Callable[[float, float, float], float]


@dataclass(frozen=True)
class WorkloadSpec:
    """Load applied while measuring a configuration."""

    tenants: int
    rate_per_tenant: float | None = None

    def __post_init__(self) -> None:
        if self.tenants < 1:
            raise ValueError(f"tenants must be >= 1, got {self.tenants}")
        if self.rate_per_tenant is not None and self.rate_per_tenant <= 0:
            raise ValueError(
                f"rate_per_tenant must be positive, got {self.rate_per_tenant}"
            )


@dataclass(frozen=True)
class SloSpec:
    """An upper bound on a latency-style metric.

    ``metric`` names the SLI to compare; lower is better and values at or
    below ``threshold`` satisfy the objective.
    """

    threshold: float
    metric: str = "p99_latency_ms"

    def __post_init__(self) -> None:
        if self.threshold <= 0:
            raise ValueError(f"SLO threshold must be positive, got {self.threshold}")


@dataclass(frozen=True)
class CostWeights:
    """Relative prices of the parameters, e.g. CPU weighted above memory.

    Weights are non-negative with a positive sum; :meth:`normalized` rescales
    them to sum to one.
    """

    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.weights:
            raise ValueError("at least one weight required")
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be non-negative")
        if sum(self.weights) <= 0:
            raise ValueError("at least one weight must be positive")

    @classmethod
    def uniform(cls, dimension: int) -> "CostWeights":
        return cls((1.0,) * dimension)

    def normalized(self) -> np.ndarray:
        """The weights rescaled to sum to one, as a read-only array computed
        once per instance."""
        return self._normalized

    @functools.cached_property
    def _normalized(self) -> np.ndarray:
        raw = np.asarray(self.weights, dtype=float)
        normalized = raw / raw.sum()
        normalized.setflags(write=False)
        return normalized


def allocation_cost(
    config: Configuration | np.ndarray,
    space: SearchSpace,
    weights: CostWeights | None = None,
) -> float | np.ndarray:
    """Weighted mean of per-parameter normalized settings, in ``[0, 1]``.

    ``config`` is one configuration, or a settings matrix with one row per
    configuration, which gives one cost per row. ``space`` supplies the
    normalization bounds. Pass the original, pre-reduction space when
    scoring runs inside reduced bounds so costs stay comparable before and
    after screening. Pinned parameters contribute zero.

    A configuration is costed as a one-row matrix. Rows are summed with
    ``np.vecdot``, which gives each row what ``np.dot`` of its coordinates
    alone gives, however many rows there are. Only ``np.vecdot`` or a
    per-row ``np.dot`` will do: on the bundled toystore grid a BLAS gemv
    (``coords @ w``) differs in the last bit on about 40% of the rows, and
    a sequential numpy sum on about 18%.
    """
    if isinstance(config, Configuration):
        return float(allocation_cost(np.array([config.settings]), space, weights)[0])
    if weights is None:
        weights = CostWeights.uniform(space.dimension)
    w = weights.normalized()
    if w.shape != (space.dimension,):
        raise ValueError(
            f"expected {space.dimension} weights, got {w.shape[0]}"
        )
    return np.vecdot(space.level_coordinates(space.level_indices(config)), w)


def slo_cost_utility(
    sli: float,
    slo: float,
    cost: float,
    *,
    relative_violation: bool = False,
) -> float:
    """Penalize violations by their excess, price satisfying configs by cost.

    Returns ``1 + (sli - slo)`` when the SLI exceeds the threshold (strict),
    else ``cost``. The excess is in raw SLI units by default;
    ``relative_violation`` divides it by the threshold instead.
    """
    if slo <= 0:
        raise ValueError(f"SLO threshold must be positive, got {slo}")
    if not 0.0 <= cost <= 1.0:
        raise ValueError(f"cost must be within [0, 1], got {cost}")
    if sli > slo:
        excess = sli - slo
        if relative_violation:
            excess /= slo
        return 1.0 + excess
    return cost


def _slo_cost_relative(sli: float, slo: float, cost: float) -> float:
    return slo_cost_utility(sli, slo, cost, relative_violation=True)


#: Registered utility functions, selected by the config file's ``utilFunc``
#: key. ``teastore`` is accepted as an alias so existing tuning configs for
#: storefront-style deployments keep working.
UTILITY_FUNCTIONS: dict[str, UtilityFn] = {
    "slo-cost": slo_cost_utility,
    "slo-cost-relative": _slo_cost_relative,
    "teastore": slo_cost_utility,
}


def get_utility(name: str) -> UtilityFn:
    try:
        return UTILITY_FUNCTIONS[name]
    except KeyError:
        valid = ", ".join(sorted(UTILITY_FUNCTIONS))
        raise ValueError(f"unknown utility function {name!r}; valid: {valid}") from None
