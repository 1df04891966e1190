"""Discrete search spaces over service configuration parameters.

A space is an ordered list of integer-valued parameters, each with an
inclusive range and a step size. Optimizers work either on grid settings
directly or on normalized coordinates in the unit cube; this module owns
the mapping between the two.

Responsibilities
----------------
* Parameter and space validation (ranges, step divisibility, level counts).
* Exact space cardinality (Python integers, no overflow).
* Normalization to [0, 1] per dimension and snapping back to the grid.
* Deterministic enumeration in odometer order (last parameter fastest),
  and the integer *rank* of a configuration, its position in that order.
* Rendering settings to deployable strings ("750m") and to a canonical
  one-line text form used as a configuration key.

Non-responsibilities: sampling, scoring, persistence.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, Mapping, NoReturn, Sequence

import numpy as np

__all__ = [
    "ParameterSpec",
    "Configuration",
    "SearchSpace",
]


@dataclass(frozen=True)
class ParameterSpec:
    """One tunable parameter: an inclusive integer range walked in fixed steps.

    Parameters
    ----------
    name:
        Identifier used in config files, CSV headers and rendered maps.
    minimum, maximum:
        Inclusive bounds in the parameter's native unit (millicores, Mi, a
        categorical code, ...).
    granularity:
        Step between adjacent grid levels. Must divide ``maximum - minimum``.
    suffix:
        Unit suffix appended when rendering ("m", "Mi"). Empty for plain
        integers and categorical codes.
    allow_single_level:
        Permit ``minimum == maximum``. Off by default so hand-written specs
        with a degenerate range fail loudly; bound reduction opts in when it
        pins a parameter.
    """

    name: str
    minimum: int
    maximum: int
    granularity: int
    suffix: str = ""
    allow_single_level: bool = field(default=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("parameter name must be non-empty")
        if self.granularity <= 0:
            raise ValueError(
                f"parameter {self.name!r}: granularity must be positive, "
                f"got {self.granularity}"
            )
        if self.minimum > self.maximum:
            raise ValueError(
                f"parameter {self.name!r}: minimum {self.minimum} exceeds "
                f"maximum {self.maximum}"
            )
        if (self.maximum - self.minimum) % self.granularity != 0:
            raise ValueError(
                f"parameter {self.name!r}: range {self.maximum - self.minimum} "
                f"is not a multiple of granularity {self.granularity}"
            )
        if self.level_count < 2 and not self.allow_single_level:
            raise ValueError(
                f"parameter {self.name!r}: needs at least 2 grid levels, "
                f"got {self.level_count}"
            )

    @property
    def level_count(self) -> int:
        """Number of grid levels, ``(maximum - minimum) / granularity + 1``."""
        return (self.maximum - self.minimum) // self.granularity + 1

    def levels(self) -> range:
        """All grid settings, ascending."""
        return range(self.minimum, self.maximum + self.granularity, self.granularity)

    def value_at(self, index: int) -> int:
        if not 0 <= index < self.level_count:
            raise IndexError(
                f"parameter {self.name!r}: level index {index} out of range "
                f"[0, {self.level_count})"
            )
        return self.minimum + index * self.granularity

    def index_of(self, value: int) -> int:
        """Level index of an on-grid setting; raises for off-grid values."""
        offset = value - self.minimum
        if offset < 0 or value > self.maximum or offset % self.granularity != 0:
            raise ValueError(
                f"parameter {self.name!r}: {value} is not on the grid "
                f"[{self.minimum}, {self.maximum}] step {self.granularity}"
            )
        return offset // self.granularity

    def normalized(self, value: int) -> float:
        """Map an on-grid setting to [0, 1]. A pinned parameter maps to 0.0."""
        self.index_of(value)
        span = self.maximum - self.minimum
        if span == 0:
            return 0.0
        return (value - self.minimum) / span

    def from_normalized(self, coordinate: float) -> int:
        """Snap a unit-interval coordinate to the nearest grid setting.

        Exact midpoints between adjacent levels round down to the lower
        level, so snapping is deterministic and biased toward cheaper
        settings.
        """
        if not 0.0 <= coordinate <= 1.0:
            raise ValueError(
                f"parameter {self.name!r}: coordinate {coordinate} outside [0, 1]"
            )
        steps = self.level_count - 1
        if steps == 0:
            return self.minimum
        index = math.ceil(coordinate * steps - 0.5)
        index = min(max(index, 0), steps)
        return self.minimum + index * self.granularity

    def render(self, value: int) -> str:
        return f"{value}{self.suffix}"


@dataclass(frozen=True)
class Configuration:
    """A point on the grid: one integer setting per parameter, in space order."""

    settings: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.settings:
            raise ValueError("configuration must have at least one setting")


@dataclass(frozen=True)
class SearchSpace:
    """An ordered collection of parameters defining a finite grid."""

    parameters: tuple[ParameterSpec, ...]

    def __post_init__(self) -> None:
        if not self.parameters:
            raise ValueError("search space must have at least one parameter")
        names = [p.name for p in self.parameters]
        if len(set(names)) != len(names):
            seen = [n for n in names if names.count(n) > 1]
            raise ValueError(f"duplicate parameter names: {sorted(set(seen))}")

    @property
    def dimension(self) -> int:
        return len(self.parameters)

    @functools.cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.parameters)

    @functools.cached_property
    def size(self) -> int:
        """Exact number of grid configurations (arbitrary precision)."""
        return math.prod(p.level_count for p in self.parameters)

    @functools.cached_property
    def _digits(self) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
        """(stride, level count, levels) per parameter: in a rank, parameter
        ``i`` has level index ``rank // stride % count``."""
        stride, digits = self.size, []
        for p in self.parameters:
            stride //= p.level_count
            digits.append((stride, p.level_count, tuple(p.levels())))
        return tuple(digits)

    @functools.cached_property
    def _render_tables(self) -> tuple[dict[int, str], ...]:
        """Per parameter, each grid setting's rendered string."""
        return tuple({v: p.render(v) for v in p.levels()} for p in self.parameters)

    @functools.cached_property
    def _grid(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per parameter: minimum, granularity and level count."""
        return tuple(
            np.array([getattr(p, name) for p in self.parameters], dtype=np.int64)
            for name in ("minimum", "granularity", "level_count")
        )

    def _reject(self, config: Configuration) -> NoReturn:
        """Raise for a configuration the level tables miss: :meth:`validate`'s
        error, since the tables hold exactly the settings ``index_of`` accepts."""
        self.validate(config)
        raise ValueError(f"configuration {config.settings} is not on the grid")

    def parameter(self, name: str) -> ParameterSpec:
        for p in self.parameters:
            if p.name == name:
                return p
        raise KeyError(f"no parameter named {name!r}")

    def validate(self, config: Configuration) -> None:
        if len(config.settings) != self.dimension:
            raise ValueError(
                f"configuration has {len(config.settings)} settings, "
                f"space has {self.dimension} parameters"
            )
        for p, value in zip(self.parameters, config.settings):
            p.index_of(value)

    def contains(self, config: Configuration) -> bool:
        try:
            self.validate(config)
        except ValueError:
            return False
        return True

    def config_from_indices(self, indices: Sequence[int]) -> Configuration:
        return self.config_at(self.rank(indices))

    def config_at(self, rank: int) -> Configuration:
        """The configuration at position ``rank`` of :meth:`iter_configurations`."""
        if not 0 <= rank < self.size:
            raise IndexError(f"rank {rank} out of range [0, {self.size})")
        return Configuration(
            tuple([levels[rank // stride % count] for stride, count, levels in self._digits])
        )

    def rank(self, indices: Sequence[int]) -> int:
        """Enumeration position of the configuration at level ``indices``;
        the inverse of ``indices_of(config_at(rank))``."""
        if len(indices) != self.dimension:
            raise ValueError("one level index per parameter required")
        rank = 0
        for p, (stride, count, _), index in zip(self.parameters, self._digits, indices):
            if not 0 <= index < count:
                raise IndexError(f"parameter {p.name!r}: level index {index} out of range")
            rank += int(index) * stride
        return rank

    def indices_of(self, config: Configuration) -> tuple[int, ...]:
        self.validate(config)
        return tuple(
            p.index_of(v) for p, v in zip(self.parameters, config.settings)
        )

    def to_normalized(self, config: Configuration) -> np.ndarray:
        """Normalized coordinates of a grid configuration, shape ``(dimension,)``."""
        return self.level_coordinates(self.level_indices(np.array([config.settings])))[0]

    def level_indices(self, settings: np.ndarray) -> np.ndarray:
        """Level-index matrix of a settings matrix with one row per
        configuration; the first off-grid row raises :meth:`validate`'s
        error."""
        minimum, granularity, count = self._grid
        if settings.shape[1:] == (self.dimension,):
            indices, remainder = np.divmod(settings - minimum, granularity)
            off = remainder != 0, indices < 0, indices >= count
            if not any(map(np.count_nonzero, off)):
                return indices.astype(np.int64, copy=False)
            settings = settings[np.logical_or.reduce(off).any(axis=1)]
        self._reject(Configuration(tuple(settings[0].tolist())))

    def level_coordinates(self, indices: np.ndarray) -> np.ndarray:
        """Normalized coordinates of a level-index matrix, one row per
        configuration: index / (count - 1) is the correctly rounded value of
        the same quotient as :meth:`ParameterSpec.normalized`'s
        (value - minimum) / (maximum - minimum), and a pinned parameter
        reads 0 / 1."""
        return indices / np.maximum(self._grid[2] - 1, 1)

    @functools.cached_property
    def rendered_levels(self) -> tuple[tuple[str, ...], ...]:
        """Each parameter's rendered level texts, ascending."""
        return tuple(tuple(table.values()) for table in self._render_tables)

    def from_normalized(self, coordinates: Sequence[float]) -> Configuration:
        """Snap unit-cube coordinates to the nearest grid configuration.

        Round-trips exactly: ``from_normalized(to_normalized(c)) == c`` for
        every grid configuration ``c``.
        """
        coords = np.asarray(coordinates, dtype=float)
        if coords.shape != (self.dimension,):
            raise ValueError(
                f"expected {self.dimension} coordinates, got shape {coords.shape}"
            )
        return Configuration(
            tuple(p.from_normalized(c) for p, c in zip(self.parameters, coords))
        )

    def iter_settings(self) -> Iterator[tuple[int, ...]]:
        """Every configuration's settings tuple, in odometer order, last
        parameter fastest."""
        return itertools.product(*(p.levels() for p in self.parameters))

    def settings_block(self, start: int, stop: int) -> np.ndarray:
        """Settings matrix of the configurations at ranks ``start`` to
        ``stop - 1`` of :meth:`iter_settings`, one row each. A stride past
        ``stop`` leaves its level at 0, and is capped to fit in int64."""
        minimum, granularity, count = self._grid
        strides = [max(min(stride, stop), 1) for stride, _, _ in self._digits]
        return minimum + granularity * (np.arange(start, stop)[:, None] // strides % count)

    def iter_configurations(self) -> Iterator[Configuration]:
        """Every configuration, in :meth:`iter_settings` order."""
        return map(Configuration, self.iter_settings())

    def render(self, config: Configuration) -> dict[str, str]:
        """Deployable string per parameter, e.g. ``{"webCpu": "750m"}``."""
        settings = config.settings
        if len(settings) == len(self.parameters):
            try:
                return dict(zip(self.names, map(dict.__getitem__, self._render_tables, settings)))
            except KeyError:
                pass
        self._reject(config)

    def config_text(self, config: Configuration) -> str:
        """Canonical one-line form, ``name=value`` pairs without suffixes."""
        self.validate(config)
        return ",".join(
            f"{p.name}={v}" for p, v in zip(self.parameters, config.settings)
        )

    def normalized_levels(self) -> list[np.ndarray]:
        """Each parameter's levels in normalized coordinates, ascending."""
        return [
            np.array([p.normalized(v) for v in p.levels()], dtype=float)
            for p in self.parameters
        ]

    def normalized_grid(self) -> np.ndarray:
        """Normalized coordinates of every configuration, in enumeration order.

        Nothing in the package calls it any more: BO builds a
        ``gp.ProductGrid`` from ``normalized_levels()``. It stays only because
        perfbench's tracing patches it, until the benchmark change in ROADMAP
        direction 2 deletes it.
        """
        mesh = np.meshgrid(*self.normalized_levels(), indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=-1)
