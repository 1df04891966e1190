"""Ask/tell optimizer sessions over discrete configuration spaces.

One loop drives every strategy: ask for a batch of grid configurations,
measure them, tell the session the scored observations, repeat until the
budget runs out or the space is exhausted. Sessions are deterministic
functions of (space, budget, batch size, seed, told history).

Inside a session a configuration is its *rank*, its position in the
space's enumeration order: strategies propose ranks, and ``ask`` turns
them into :class:`Configuration` objects only for the batch it returns.

Strategies, by registry name:

* ``random``: uniform sampling without replacement.
* ``randominc``: full enumeration in a seed-shuffled dimension order.
* ``exhaustive``: full enumeration in canonical odometer order.
* ``bestconfig``: divide-and-diverge sampling with recursive bound shrink.
* ``bayesian-ei``: GP surrogate ranking candidates by expected improvement.
* ``moat``: the points of :func:`screening.screening_design`, in order;
  elementary effects come from :func:`screening.run_screening`.

Except for the two enumerators (whose whole point is a fixed visiting
order) and ``moat`` (whose trajectories may legitimately cross), a session
never proposes a configuration it was already told about.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
import operator
from abc import ABC, abstractmethod
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .fields import ConfigError
from .gp import (
    ProductGrid,
    SurrogateModel,
    expected_improvement,
    gp_fit,
    improvement_cutoff,
    one_blas_thread,
)
from .screening import screening_design
from .space import Configuration, SearchSpace

__all__ = [
    "Observation",
    "best_observation",
    "SpaceExhausted",
    "OptimizerSession",
    "RandomSearchSession",
    "RandomIncSession",
    "ExhaustiveSession",
    "BestConfigSession",
    "BayesianEISession",
    "MoatSession",
    "OPTIMIZERS",
    "check_optimizer",
    "check_optimizers",
    "create_optimizer",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Observation:
    """One scored evaluation, as fed back to a session."""

    config: Configuration
    slis: Mapping[str, float]
    utility: float
    feasible: bool
    eval_index: int
    failed: bool = False


def best_observation(observations: Iterable[Observation]) -> Observation:
    """The first observation attaining the minimum utility; earlier ones
    win ties. Consumes an iterator without holding it."""
    return min(observations, key=lambda obs: obs.utility)


class SpaceExhausted(RuntimeError):
    """No unevaluated configuration is left to propose."""


class OptimizerSession(ABC):
    """Shared ask/tell mechanics: budget, alternation, told history.

    Subclasses propose *ranks* (see :meth:`SearchSpace.config_at`), which
    ``ask`` turns into configurations; one that must not repeat itself
    claims each rank through :meth:`_fresh`, its only record of the past.

    ``ask`` returns at most ``batch_size`` configurations (fewer near the
    end of the budget or of the space) and must be followed by a ``tell``
    covering exactly the asked batch. The incumbent best is the first told
    observation at the minimum utility, so earlier observations win ties.
    """

    name = "base"

    def __init__(self, space: SearchSpace, budget: int, batch_size: int, seed: int):
        if budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.space = space
        self.budget = budget
        self.batch_size = batch_size
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.history: list[Observation] = []
        # Ranks of the told observations, in history order.
        self._told: list[int] = []
        # The asked batch's ranks (a multiset: moat may repeat one) and the
        # rank of each of its configurations.
        self._pending: list[int] = []
        self._rank_of: dict[tuple[int, ...], int] = {}
        self._counts = [p.level_count for p in space.parameters]
        # A level index's weight in the rank.
        self._strides = [math.prod(self._counts[d + 1 :]) for d in range(space.dimension)]
        self._asked: set[int] = set()

    @property
    def best_so_far(self) -> tuple[Configuration, float] | None:
        if not self.history:
            return None
        best = best_observation(self.history)
        return best.config, best.utility

    @property
    def told(self) -> int:
        return len(self.history)

    def ask(self) -> list[Configuration]:
        if self._pending:
            raise RuntimeError("previous batch has not been told yet")
        remaining = self.budget - self.told
        if remaining <= 0:
            raise RuntimeError(f"budget of {self.budget} evaluations exhausted")
        ranks = self._propose(min(self.batch_size, remaining))
        if not ranks:
            raise SpaceExhausted("every configuration has been evaluated")
        batch = [self.space.config_at(rank) for rank in ranks]
        self._pending = ranks
        self._rank_of = {config.settings: rank for config, rank in zip(batch, ranks)}
        return batch

    def tell(self, observations: Sequence[Observation]) -> None:
        outstanding = Counter(self._pending)
        told = []
        for obs in observations:
            rank = self._rank_of.get(obs.config.settings)
            if not outstanding[rank]:
                raise ValueError(
                    f"told about a configuration that was not asked: "
                    f"{self.space.config_text(obs.config)}"
                )
            outstanding[rank] -= 1
            told.append(rank)
        if outstanding.total():
            raise ValueError(
                f"{outstanding.total()} asked configurations missing from tell"
            )
        self._pending = []
        self._told.extend(told)
        self.history.extend(observations)
        self._after_tell(list(observations))

    def _after_tell(self, observations: list[Observation]) -> None:
        pass

    @abstractmethod
    def _propose(self, n: int) -> list[int]:
        """Return up to ``n`` ranks; none means the space is exhausted."""

    # -- shared helpers ------------------------------------------------------

    def _fresh(self, rank: int) -> bool:
        """Claim ``rank`` if it was never proposed; False if it was."""
        if rank in self._asked:
            return False
        self._asked.add(rank)
        return True

    def _scan_unseen(self, n: int, ranks: Iterable[int]) -> list[int]:
        """Deterministic fallback: claim the first ``n`` fresh ``ranks``."""
        return list(itertools.islice(filter(self._fresh, ranks), n))

    def _random_unseen(self, n: int) -> list[int]:
        """Up to ``n`` fresh ranks by rejection sampling, falling back to a
        scan when collisions dominate."""
        out: list[int] = []
        misses = 0
        while len(out) < n:
            rank = self.space.rank(self.rng.integers(self._counts))
            if not self._fresh(rank):
                misses += 1
                if misses >= 64:
                    out.extend(self._scan_unseen(n - len(out), range(self.space.size)))
                    break
                continue
            misses = 0
            out.append(rank)
        return out


class RandomSearchSession(OptimizerSession):
    """Uniform random sampling without replacement."""

    name = "random"

    def _propose(self, n: int) -> list[int]:
        return self._random_unseen(n)


class RandomIncSession(OptimizerSession):
    """Incremental enumeration in a seed-shuffled dimension order.

    Walks the whole grid exactly once, odometer style over the shuffled
    dimensions with the first shuffled dimension varying fastest, starting
    from the all-minimum configuration. Proposals follow this fixed stream,
    which is why the session is exempt from the fresh-proposal rule: the
    stream itself never repeats.
    """

    name = "randominc"

    def __init__(self, space: SearchSpace, budget: int, batch_size: int, seed: int):
        super().__init__(space, budget, batch_size, seed)
        self._order = [
            (self._counts[d], self._strides[d]) for d in self.rng.permutation(space.dimension)
        ]
        self._stream = map(self._decode, range(space.size))

    def _propose(self, n: int) -> list[int]:
        return list(itertools.islice(self._stream, n))

    def _decode(self, position: int) -> int:
        """Rank of the stream's ``position``-th configuration."""
        rank = 0
        for count, stride in self._order:
            position, digit = divmod(position, count)
            rank += digit * stride
        return rank


class ExhaustiveSession(RandomIncSession):
    """Canonical odometer enumeration, the identity digit order: a stream
    position is its own rank. Pair with a budget of ``space.size``."""

    name = "exhaustive"

    def _decode(self, position: int) -> int:
        return position


class BestConfigSession(OptimizerSession):
    """Divide-and-diverge sampling with recursive bound shrink.

    Each round stratifies every parameter's current range into one interval
    per sample (a latin hypercube over intervals) and draws one grid point
    inside each assigned interval. When a round improves the incumbent, the
    bounds shrink to the best sample's interval plus one adjacent interval
    on each side; otherwise they snap back to the full space.
    """

    name = "bestconfig"

    _REDRAWS = 20

    def __init__(self, space: SearchSpace, budget: int, batch_size: int, seed: int):
        super().__init__(space, budget, batch_size, seed)
        self._bounds = [(0, p.level_count - 1) for p in space.parameters]
        self._round_boundaries: list[list[int]] | None = None
        self._best_before: float | None = None

    @staticmethod
    def _chunk_boundaries(lo: int, hi: int, n: int) -> list[int]:
        length = hi - lo + 1
        return [lo + (j * length) // n for j in range(n + 1)]

    def _propose(self, n: int) -> list[int]:
        k = self.space.dimension
        boundaries = [
            self._chunk_boundaries(lo, hi, n) for lo, hi in self._bounds
        ]
        perms = [self.rng.permutation(n) for _ in range(k)]
        batch: list[int] = []
        for s in range(n):
            for _ in range(self._REDRAWS):
                indices = []
                for i in range(k):
                    cuts = boundaries[i]
                    j = int(perms[i][s])
                    lo_idx, hi_idx = cuts[j], cuts[j + 1] - 1
                    if hi_idx < lo_idx:
                        level = min(cuts[j], self._bounds[i][1])
                    else:
                        level = int(self.rng.integers(lo_idx, hi_idx + 1))
                    indices.append(level)
                rank = self.space.rank(indices)
                if self._fresh(rank):
                    batch.append(rank)
                    break
            else:
                bounded = itertools.product(*(range(lo, hi + 1) for lo, hi in self._bounds))
                found = self._scan_unseen(1, map(self.space.rank, bounded))
                found = found or self._scan_unseen(1, range(self.space.size))
                if not found:
                    break
                batch.extend(found)
        self._round_boundaries = boundaries
        return batch

    def _after_tell(self, observations: list[Observation]) -> None:
        if not observations or self._round_boundaries is None:
            return
        best_obs = best_observation(observations)
        improved = self._best_before is None or best_obs.utility < self._best_before
        if improved:
            self._best_before = best_obs.utility
            indices = self.space.indices_of(best_obs.config)
            n = len(self._round_boundaries[0]) - 1
            new_bounds = []
            for i, level in enumerate(indices):
                cuts = self._round_boundaries[i]
                j = int(np.searchsorted(cuts, level, side="right")) - 1
                j = min(max(j, 0), n - 1)
                lo = cuts[max(j - 1, 0)]
                hi = cuts[min(j + 2, n)] - 1
                new_bounds.append((lo, max(lo, hi)))
            self._bounds = new_bounds
        else:
            self._bounds = [(0, p.level_count - 1) for p in self.space.parameters]


class BayesianEISession(OptimizerSession):
    """GP surrogate over normalized inputs, candidates ranked by expected
    improvement.

    Before the first full batch of results arrives the session proposes
    seeded random configurations. Afterwards it fits the surrogate to the
    whole history each round and picks the batch with the highest expected
    improvement among the unclaimed points of a candidate set: the entire
    grid for spaces up to ``GRID_LIMIT`` configurations, otherwise 4096
    seeded random points plus every observed point's grid neighbors.
    Expected-improvement ties resolve by candidate generation order.

    On the grid the fit extends the previous round's model and predicts
    over the whole grid as a :class:`confopt.gp.ProductGrid`, built once in
    enumeration order. A round then pays only for the batch it was last
    told: one GEMM per weight row, O(b·n·N) over the kernel's per-axis
    factors, gives the mean and that batch's share of the variance, and the
    model carries N floats to the next round (see :mod:`confopt.gp`). Each
    round runs on one BLAS thread (:func:`confopt.gp.one_blas_thread`).

    A grid round scores EI only where it can reach the batch, and picks
    what scoring every unclaimed point would (:func:`_pick_on_grid`). The
    previous round's ``LEADERS`` best candidates that are still unclaimed
    give a floor τ, the n-th highest of their EIs, and no point whose
    improvement ``best − mean`` lies below
    :func:`confopt.gp.improvement_cutoff` of τ can reach it. Unclaimed points
    of highest improvement stand in for missing leaders, as in the first EI
    round. Only a τ too small to bound, or fewer than n unclaimed points,
    makes a round score every unclaimed point. ``scored`` records how many
    candidates each EI round scored.
    """

    name = "bayesian-ei"

    GRID_LIMIT = 100_000
    SAMPLED_CANDIDATES = 4096
    #: Best candidates of a grid round kept to bound the next round's pick.
    LEADERS = 64

    def __init__(self, space: SearchSpace, budget: int, batch_size: int, seed: int):
        super().__init__(space, budget, batch_size, seed)
        self._on_grid = space.size <= self.GRID_LIMIT
        self._inputs = np.empty((0, space.dimension))
        self._model: SurrogateModel | None = None
        # Grid rounds: which ranks no told batch holds, and the last round's
        # leaders (none before the first EI round).
        self._unclaimed = np.ones(space.size if self._on_grid else 0, dtype=bool)
        self._leaders = np.empty(0, dtype=np.intp)
        self.scored: list[int] = []

    @functools.cached_property
    def _grid(self) -> ProductGrid:
        return ProductGrid(self.space.normalized_levels())

    def _propose(self, n: int) -> list[int]:
        if self.told < self.batch_size:
            return self._random_unseen(n)
        with one_blas_thread():
            return self._propose_by_ei(n)

    def _propose_by_ei(self, n: int) -> list[int]:
        known = len(self._inputs)
        if self._on_grid:
            new = self._grid.at(self._told[known:])
            self._unclaimed[self._told[known:]] = False
        else:
            new = [self.space.to_normalized(o.config) for o in self.history[known:]]
        self._inputs = np.concatenate([self._inputs, new])
        targets = np.array([o.utility for o in self.history])
        prior = self._model if self._on_grid else None
        model = self._model = gp_fit(self._inputs, targets, prior=prior)
        del prior  # its sum of V² is freed once predict replaces it
        best = model.standardize(float(targets.min()))
        if self._on_grid:
            if len(self._asked) == self.space.size:
                return []
            mean, std = model.predict(self._grid)
            ranks, self._leaders, scored = _pick_on_grid(
                mean, std, best, self._unclaimed, self._leaders, n, self.LEADERS
            )
        else:
            candidates, points = self._candidates()
            if not candidates:  # a sampled set can miss what is left
                return self._random_unseen(n)
            mean, std = model.predict(points)
            ranks = np.asarray(candidates)[_top(expected_improvement(mean, std, best), n)]
            scored = len(candidates)
        self.scored.append(scored)
        # Every pick is unclaimed, so the filter keeps the whole pick.
        return [r for r in ranks.tolist() if self._fresh(r)]

    def _candidates(self) -> tuple[list[int], np.ndarray]:
        """Off the grid: the unclaimed sampled candidates' ranks and their
        coordinates."""
        counts = np.array(self._counts)
        dimension = len(counts)
        draws = self.rng.integers(self._counts, size=(self.SAMPLED_CANDIDATES, dimension))
        told = np.array([self.space.indices_of(o.config) for o in self.history])
        # Each told point's grid neighbours: one step down, then up, per axis.
        steps = np.stack([-np.eye(dimension, dtype=int), np.eye(dimension, dtype=int)], axis=1)
        neighbours = (told[:, None, None, :] + steps).reshape(-1, dimension)
        inside = ((neighbours >= 0) & (neighbours < counts)).all(axis=1)
        levels = np.concatenate([draws, neighbours[inside]])
        ranks = [sum(map(operator.mul, row, self._strides)) for row in levels.tolist()]
        # Keys keep each rank's first occurrence in order; a repeated rank
        # has the same levels wherever it occurs.
        positions = dict(zip(ranks, range(len(ranks))))
        kept = [(rank, i) for rank, i in positions.items() if rank not in self._asked]
        rows = levels[[i for _, i in kept]]
        return [rank for rank, _ in kept], self.space.level_coordinates(rows)


def _pick_on_grid(
    mean: np.ndarray,
    std: np.ndarray,
    best: float,
    unclaimed: np.ndarray,
    leaders: np.ndarray,
    n: int,
    keep: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """The ``n`` unclaimed grid positions of highest expected improvement,
    in ``_top``'s order over every unclaimed position; then the ``keep``
    best positions scored, which bound the next round as ``leaders`` bound
    this one; then the count of positions scored.

    τ is the n-th highest EI of the unclaimed ``leaders``, or, when fewer
    than n are unclaimed, of the ``max(n, keep)`` unclaimed positions of
    highest improvement ``best − mean`` (any n give a valid τ). When τ has
    a cutoff, only the unclaimed positions whose improvement reaches it are
    scored, with the leaders, in grid order; otherwise every unclaimed
    position is. A point left out has EI below τ, which at least n scored
    points reach, so the pick is the same.
    """
    gain = np.where(unclaimed, best - mean, -np.inf)
    if np.count_nonzero(unclaimed[leaders]) < n:
        leaders = _top(gain, max(n, keep))
    alive = leaders[unclaimed[leaders]]
    cutoff = None
    if len(alive) >= n:
        bound = expected_improvement(mean[alive], std[alive], best)
        cutoff = improvement_cutoff(float(np.partition(bound, len(alive) - n)[len(alive) - n]))
    if cutoff is None:
        # Scoring the whole grid holds less memory at once than gathering
        # its unclaimed points first.
        candidates = np.flatnonzero(unclaimed)
        ei = expected_improvement(mean, std, best)[candidates]
    else:
        scored = gain >= cutoff
        scored[alive] = True
        candidates = np.flatnonzero(scored)
        ei = expected_improvement(mean[candidates], std[candidates], best)
    order = _top(ei, max(n, keep))
    return candidates[order[:n]], candidates[order], len(candidates)


def _top(scores: np.ndarray, n: int) -> np.ndarray:
    """Positions of the ``n`` highest scores, earlier positions first among
    equals: the first ``n`` of a stable descending sort, found by
    partitioning at the n-th score and sorting only what reaches it."""
    keys = -scores
    if n < len(keys):
        cut = keys[np.argpartition(keys, n - 1)[n - 1]]
        picked = np.flatnonzero(keys <= cut)
    else:
        picked = np.arange(len(keys))
    return picked[np.argsort(keys[picked], kind="stable")[:n]]


class MoatSession(OptimizerSession):
    """The screening design behind the common ask/tell interface.

    The budget buys ``r = budget // (k + 1)`` whole trajectories; any
    remainder is left unspent. Proposals follow the points of
    :func:`screening.screening_design` in order, so a configuration
    revisited by a later trajectory is proposed again, which is the
    documented exception to the fresh-proposal rule. The session only
    proposes; elementary effects come from :func:`screening.run_screening`.
    """

    name = "moat"

    def __init__(
        self,
        space: SearchSpace,
        budget: int,
        batch_size: int,
        seed: int,
        *,
        p: int | None = None,
    ):
        super().__init__(space, budget, batch_size, seed)
        k = space.dimension
        r = budget // (k + 1)
        if r < 1:
            raise ConfigError(f"budget {budget} cannot fund one trajectory of {k + 1} evaluations")
        if budget % (k + 1):
            logger.info(
                "moat: spending %d of %d budgeted evaluations (%d trajectories)",
                r * (k + 1),
                budget,
                r,
            )
        self._stream = (
            space.rank(space.indices_of(config))
            for _, configs in screening_design(space, r, p, seed)
            for config in configs
        )

    def _propose(self, n: int) -> list[int]:
        return list(itertools.islice(self._stream, n))


OPTIMIZERS: dict[str, type[OptimizerSession]] = {
    cls.name: cls
    for cls in (
        RandomSearchSession,
        RandomIncSession,
        ExhaustiveSession,
        BestConfigSession,
        BayesianEISession,
        MoatSession,
    )
}


def check_optimizer(name: str) -> str:
    """``name`` in lower case, the key of a registered optimizer; any other
    name is a ConfigError that lists the registry."""
    if name.lower() not in OPTIMIZERS:
        valid = ", ".join(sorted(OPTIMIZERS))
        raise ConfigError(f"unknown optimizer {name!r}; valid names: {valid}")
    return name.lower()


def check_optimizers(names: Sequence[str]) -> list[str]:
    """The registry keys of ``names``: at least one, no two the same."""
    keys = list(map(check_optimizer, names))
    if not keys:
        raise ConfigError("at least one optimizer required")
    if len(set(keys)) != len(keys):
        raise ConfigError("duplicate optimizer names")
    return keys


def create_optimizer(
    name: str,
    space: SearchSpace,
    budget: int,
    batch_size: int,
    seed: int,
    **options,
) -> OptimizerSession:
    """Instantiate a registered optimizer (:func:`check_optimizer`)."""
    return OPTIMIZERS[check_optimizer(name)](space, budget, batch_size, seed, **options)
