"""Experiment harness: drive optimizers, collect datasets, compare strategies.

Everything here is built for byte-level reproducibility: a fixed base seed
derives per-run seeds as ``base_seed + run_index``, comparison runs are
merged in run-index order no matter how they were parallelized, and every
emitted file is a pure function of its inputs (no timestamps).
"""

from __future__ import annotations

import bisect
import csv
import functools
import hashlib
import itertools
import json
import logging
import math
import operator
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence, TextIO

import numpy as np

from .backends import Backend, Block, Measured, ReplayBackend, row_texts
from .fields import ConfigError, Fields
from .optim import (
    Observation,
    SpaceExhausted,
    best_observation,
    check_optimizers,
    create_optimizer,
)
from .screening import reduce_bounds, run_screening
from .space import Configuration, ParameterSpec, SearchSpace
from .utility import CostWeights, SloSpec, UtilityFn, WorkloadSpec, allocation_cost

__all__ = [
    "Evaluator",
    "RunTrace",
    "Dataset",
    "ComparisonReport",
    "SvbReport",
    "run_optimization",
    "sli_objective",
    "collect_exhaustive",
    "load_dataset",
    "compare",
    "screening_vs_standalone",
    "write_dataset_csv",
    "write_slo_cdf_csv",
    "write_trace_csv",
    "write_comparison_csvs",
    "write_svb_csv",
    "dataset_summary",
    "trace_summary",
    "comparison_summary",
    "svb_summary",
]

logger = logging.getLogger(__name__)

#: Largest space ``collect_exhaustive`` will walk.
EXHAUSTIVE_CAP = 100_000
#: Configurations measured per evaluation block, and dataset rows rendered
#: per block of lines.
_BLOCK_ROWS = 4096

_METRIC_COLUMNS = ("p99_latency_ms", "throughput_rps", "utility", "feasible", "failed")


def _fmt(value: float) -> str:
    return str(float(value))


def _bool(value: bool) -> str:
    return "true" if value else "false"


def failure_utility(slo: SloSpec) -> float:
    """Utility charged to failed evaluations: ``1 + 10 * threshold``,
    worse than any plausible measured violation."""
    return 1.0 + 10.0 * slo.threshold


def score_result(
    settings: np.ndarray,
    measured: Measured,
    utility_fn: UtilityFn,
    slo: SloSpec,
    cost_space: SearchSpace,
    weights: CostWeights | None,
    eval_index: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Score a run of measured rows, numbered from ``eval_index``, whose
    settings matrix is ``settings``: their utility, feasible and failed
    columns.

    Failures, and rows whose SLO metric is missing or not finite, score the
    fixed failure utility and are never feasible. Allocation costs come
    from one ``allocation_cost`` call over the measured rows, and
    ``utility_fn`` runs once per measured row.
    """
    failed = np.array([reason is not None for reason in measured.reasons], dtype=bool)
    sli = measured.metrics.get(slo.metric)
    if sli is None:
        sli = np.full(len(failed), math.nan)
    unusable = ~(failed | np.isfinite(sli))
    for row in np.flatnonzero(unusable).tolist():
        logger.warning(
            "evaluation %d returned %s=%s; scoring as failed",
            eval_index + row,
            slo.metric,
            sli[row],
        )
    failed |= unusable
    utility = np.full(len(failed), failure_utility(slo))
    ok = ~failed
    costs = allocation_cost(settings[ok], cost_space, weights)
    utility[ok] = [
        utility_fn(value, slo.threshold, cost)
        for value, cost in zip(sli[ok].tolist(), costs.tolist())
    ]
    return utility, ~failed & (utility < 1.0), failed


class Evaluator:
    """The one place a configuration of ``space`` becomes an observation.

    A measuring backend gets configurations as blocks (:class:`Block`) of
    up to ``_BLOCK_ROWS`` rows through its ``evaluate_many``
    (``Backend.evaluate_many`` for an object that only defines
    ``evaluate``); each run of rows it yields is scored against ``slo``
    with ``utility_fn`` as it arrives. ``cost_space`` supplies
    allocation-cost bounds when they differ from ``space`` (runs inside
    reduced bounds). A :class:`ReplayBackend` is not measured: the stored
    row is returned, matched to ``space`` by parameter name, so the scoring
    arguments are optional and a dataset whose parameters differ from the
    space's is rejected here.
    """

    def __init__(
        self,
        space: SearchSpace,
        backend: Backend | ReplayBackend,
        utility_fn: UtilityFn | None = None,
        slo: SloSpec | None = None,
        workload: WorkloadSpec | None = None,
        weights: CostWeights | None = None,
        cost_space: SearchSpace | None = None,
    ):
        self.space = space
        self.backend = backend
        self.utility_fn = utility_fn
        self.slo = slo
        self.workload = workload
        self.cost_space = cost_space or space
        self.weights = weights or CostWeights.uniform(self.cost_space.dimension)
        if isinstance(backend, ReplayBackend):
            self._stored_order = backend.stored_order(space)
            self._observe, self._columns = self._replay, self._replayed_columns
        else:
            if utility_fn is None or slo is None or workload is None:
                raise ValueError(
                    "utility_fn, slo and workload are required unless replaying a dataset"
                )
            self._evaluate_many = getattr(
                backend, "evaluate_many", functools.partial(Backend.evaluate_many, backend)
            )
            self._observe, self._columns = self._measure, self._measured_columns

    def evaluate(
        self, configs: Iterable[Configuration], eval_index: int = 1
    ) -> Iterator[Observation]:
        """Observations of ``configs`` in order, numbered from ``eval_index``."""
        return self._observe(configs, eval_index)

    def screening_value(self, obs: Observation) -> float:
        """The screened SLI of an observation; failures (and observations
        missing the metric) map to ten times the threshold so elementary
        effects stay finite."""
        if obs.failed or self.slo.metric not in obs.slis:
            return 10.0 * self.slo.threshold
        return float(obs.slis[self.slo.metric])

    def _scored(
        self, settings: np.ndarray, eval_index: int
    ) -> Iterator[tuple[slice, Measured, tuple[np.ndarray, ...]]]:
        """Measure and score a block of settings numbered from ``eval_index``:
        per run of rows the backend yields, its rows, measurement and scores."""
        levels = self.space.level_indices(settings)
        block = Block(self.space.names, levels, self.space.rendered_levels)
        done = 0
        for measured in self._evaluate_many(block, self.workload):
            rows = slice(done, done + len(measured.reasons))
            done = rows.stop
            if done > len(settings):
                break
            yield rows, measured, score_result(
                settings[rows],
                measured,
                self.utility_fn,
                self.slo,
                self.cost_space,
                self.weights,
                eval_index + rows.start,
            )
        if done != len(settings):
            raise ValueError(f"the backend measured {done} rows of a block of {len(settings)}")

    def _settings(self, config: Configuration) -> tuple[int, ...]:
        if len(config.settings) != self.space.dimension:
            self.space.validate(config)
        return config.settings

    def _measure(
        self, configs: Iterable[Configuration], eval_index: int
    ) -> Iterator[Observation]:
        pending = map(self._settings, configs)
        for chunk in iter(lambda: list(itertools.islice(pending, _BLOCK_ROWS)), []):
            for rows, measured, scores in self._scored(np.array(chunk), eval_index):
                records = zip(chunk[rows], *map(np.ndarray.tolist, scores))
                for row, (settings, utility, feasible, failed) in enumerate(records):
                    slis = measured.slis(row)
                    yield Observation(
                        Configuration(settings), slis, utility, feasible, eval_index, failed
                    )
                    eval_index += 1

    def _measured_columns(self, start: int = 0) -> Iterator["_Columns"]:
        """Dataset columns of the configurations from rank ``start`` on, one
        block per run of rows the backend yields; a replaying evaluator's
        ``_columns`` is ``_replayed_columns``."""
        size = self.space.size
        for first in range(start, size, _BLOCK_ROWS):
            settings = self.space.settings_block(first, min(first + _BLOCK_ROWS, size))
            for rows, measured, scores in self._scored(settings, first + 1):
                absent = np.full(rows.stop - rows.start, math.nan)
                metrics = (measured.metrics.get(name, absent) for name in _METRIC_COLUMNS[:2])
                yield _Columns(settings[rows], *metrics, *scores)

    def _replayed_columns(self, start: int = 0) -> Iterator["_Columns"]:
        """Blocks of up to ``_BLOCK_ROWS`` stored rows: the dataset's columns
        at the rank of each configuration from rank ``start`` on."""
        stored = [getattr(self.backend.dataset, name) for name in _Columns._fields[1:]]
        for first in range(start, self.space.size, _BLOCK_ROWS):
            settings = self.space.settings_block(first, min(first + _BLOCK_ROWS, self.space.size))
            ranks = []
            try:
                ranks.extend(map(self.backend.rank, settings[:, self._stored_order].tolist()))
            finally:  # the rows before a miss are yielded before its error is raised
                if ranks:
                    yield _Columns(settings[: len(ranks)], *(column[ranks] for column in stored))

    def _replay(
        self, configs: Iterable[Configuration], eval_index: int
    ) -> Iterator[Observation]:
        for index, config in enumerate(configs, eval_index):
            stored = self.backend.lookup(tuple([config.settings[i] for i in self._stored_order]))
            yield Observation(
                config, stored.slis, stored.utility, stored.feasible, index, stored.failed
            )


def sli_objective(
    evaluator: Evaluator, observations: list[Observation] | None = None
) -> Callable[[Configuration], float]:
    """Wrap an evaluator as a plain SLI function for screening.

    Each call evaluates one configuration and returns its screening value;
    the scored observation is appended to ``observations`` when given.
    """
    seen = [] if observations is None else observations

    def objective(config: Configuration) -> float:
        (obs,) = evaluator.evaluate([config], len(seen) + 1)
        seen.append(obs)
        return evaluator.screening_value(obs)

    return objective


# -- run traces --------------------------------------------------------------


@dataclass(eq=False)
class RunTrace:
    """One optimizer run: observations in evaluation order plus the
    non-increasing best-so-far utility curve."""

    optimizer: str
    seed: int
    observations: tuple[Observation, ...]
    best_utilities: np.ndarray
    found_optimal_at: int | None = None

    @property
    def best(self) -> Observation:
        return best_observation(self.observations)


def run_optimization(
    space: SearchSpace,
    optimizer: str,
    backend: Backend | ReplayBackend,
    budget: int,
    batch_size: int,
    seed: int,
    *,
    utility_fn: UtilityFn | None = None,
    slo: SloSpec | None = None,
    workload: WorkloadSpec | None = None,
    weights: CostWeights | None = None,
    cost_space: SearchSpace | None = None,
    optimum_settings: tuple[int, ...] | None = None,
    options: Mapping[str, object] | None = None,
) -> RunTrace:
    """Run one optimizer session to its budget (or space exhaustion).

    Every batch goes through one :class:`Evaluator` built from ``backend``
    and the scoring arguments. ``optimum_settings``, when known, drives
    ``found_optimal_at``. ``options`` go to the optimizer's constructor,
    such as ``p`` for ``moat``.
    """
    evaluator = Evaluator(space, backend, utility_fn, slo, workload, weights, cost_space)
    session = create_optimizer(optimizer, space, budget, batch_size, seed, **(options or {}))
    while session.told < budget:
        try:
            batch = session.ask()
        except SpaceExhausted:
            break
        session.tell(list(evaluator.evaluate(batch, session.told + 1)))
    observations = tuple(session.history)
    hits = (obs.eval_index for obs in observations if obs.config.settings == optimum_settings)
    return RunTrace(
        optimizer=session.name,
        seed=seed,
        observations=observations,
        best_utilities=np.minimum.accumulate([obs.utility for obs in observations]),
        found_optimal_at=next(hits, None),
    )


# -- datasets ----------------------------------------------------------------


class _Columns(NamedTuple):
    """Dataset columns, one entry per row in enumeration order: the
    settings matrix, the float metric and utility columns, where NaN marks
    an absent metric, and the boolean flag columns."""

    settings: np.ndarray
    p99: np.ndarray
    throughput: np.ndarray
    utility: np.ndarray
    feasible: np.ndarray
    failed: np.ndarray

    @classmethod
    def of(cls, observations: Sequence[Observation], dimension: int) -> "_Columns":
        """The columns of observations of a space of ``dimension`` parameters."""
        settings = np.array([obs.config.settings for obs in observations], np.int64)
        values = [
            [obs.slis.get(name, math.nan) for name in _METRIC_COLUMNS[:2]]
            + [obs.utility, obs.feasible, obs.failed]
            for obs in observations
        ]
        values = np.array(values, float).reshape(-1, 5).T
        return cls(settings.reshape(-1, dimension), *values[:3], *values[3:].astype(bool))

    @classmethod
    def concat(cls, blocks: Sequence["_Columns"]) -> "_Columns":
        return cls(*map(np.concatenate, zip(*blocks)))

    def records(self) -> Iterator[tuple]:
        """Every row's dataset CSV record."""
        flags = (map(_bool, column.tolist()) for column in self[4:])
        return zip(*self.settings.T.tolist(), *(column.tolist() for column in self[1:4]), *flags)

    def lines(self) -> Iterator[str]:
        """Every row's dataset CSV line, the text ``_row_format`` writes for
        its record: the settings cells from texts built once per distinct
        half-row, the float cells from ``_float_texts`` and the flag cells
        from ``_FLAG_TEXTS``."""
        half = (self.settings.shape[1] + 1) // 2
        parts = [part for part in np.hsplit(self.settings, [half]) if part.shape[1]]
        cells = map(_float_texts, self[1:4])
        flags = _FLAG_TEXTS[2 * self.feasible + self.failed].tolist()
        row_format = "%s" * len(parts) + "%s,%s,%s,%s\n"
        return map(row_format.__mod__, zip(*map(_cell_texts, parts), *cells, flags))

    def slice(self, start: int, stop: int) -> "_Columns":
        return _Columns(*(column[start:stop] for column in self))


#: A row's two flag cells, indexed by ``2 * feasible + failed``.
_FLAG_TEXTS = np.array(["false,false", "false,true", "true,false", "true,true"], dtype=object)


def _cell_texts(settings: np.ndarray) -> list[str]:
    """Per row of a settings matrix, the text ``"a,b,"`` of its cells, built
    once per distinct row."""
    return row_texts(settings, lambda row: "".join(f"{value}," for value in row))


def _float_texts(column: np.ndarray) -> list[str]:
    """Per entry of a float column, its ``repr``, called once per distinct
    bit pattern: ``-0.0`` stays apart from ``0.0``, and every NaN is
    ``nan``."""
    bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
    texts = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    return texts[inverse].tolist()


def _row_format(cells: str) -> str:
    """``%`` format of a CSV record, one conversion per cell, writing what
    csv.writer would at half its cost; no cell may need quoting. ``s`` takes
    an int or text, ``r`` a Python float, whose ``repr`` (and ``str``) is the
    text csv.writer and ``_fmt`` write; numpy 2's ``repr`` of an
    ``np.float64`` is not, so pass ``tolist()`` values."""
    return ",".join("%" + cell for cell in cells) + "\n"


def _dataset_columns(space: SearchSpace) -> tuple[list[str], str]:
    """A dataset CSV's header, and the ``_row_format`` cells of a record as
    ``_Columns`` gives it."""
    return [*space.names, *_METRIC_COLUMNS], "s" * space.dimension + "rrrss"


def _write_csv(handle: TextIO, header: Sequence[str], cells: str, records: Iterable[tuple]) -> None:
    """The one CSV writer: the header through csv.writer, since a parameter
    name may need quoting, then each record through ``_row_format(cells)``."""
    csv.writer(handle, lineterminator="\n").writerow(header)
    handle.writelines(map(_row_format(cells).__mod__, records))


class Dataset:
    """An exhaustively measured space: one row per configuration, in
    enumeration order, held as columns.

    ``settings_matrix`` holds each row's settings; ``p99``, ``throughput``
    and ``utility`` are float arrays, where NaN marks an absent metric;
    ``feasible`` and ``failed`` are boolean arrays. The optimum is the
    first row attaining the minimum utility. ``rows``, one
    :class:`Observation` per row numbered from 1, is built on first use; a
    replay backend reads the columns at a configuration's rank. ``_source``
    is the file and sidecar the dataset was loaded from and checked against,
    None for any other dataset; such a dataset's columns are read-only.
    """

    _source: tuple[Path, _Sidecar] | None = None

    def __init__(
        self, space: SearchSpace, rows: Sequence[Observation], slo: SloSpec | None = None
    ):
        rows = tuple(rows)
        _check_order(space, [obs.config.settings for obs in rows])
        columns = _Columns.of(rows, space.dimension)
        bad = _bad_row(columns)
        if bad is not None:
            raise ValueError(f"data row {bad[0] + 1}: {bad[1]}")
        self._fill(space, columns, slo)
        self.rows = rows
        self.optimum = rows[int(np.argmin(self.utility))]

    @classmethod
    def _from_columns(
        cls, space: SearchSpace, columns: _Columns, slo: SloSpec | None = None
    ) -> "Dataset":
        """A dataset of columns whose settings follow the space's
        enumeration order, as the reader and the collector produce them."""
        dataset = cls.__new__(cls)
        dataset._fill(space, columns, slo)
        return dataset

    def _fill(self, space: SearchSpace, columns: _Columns, slo: SloSpec | None) -> None:
        if len(columns.utility) != space.size:
            raise ValueError(
                f"dataset has {len(columns.utility)} rows for a space of "
                f"{space.size} configurations"
            )
        self.space = space
        self.slo = slo
        self.settings_matrix, self.p99, self.throughput = columns[:3]
        self.utility, self.feasible, self.failed = columns[3:]

    def _row(self, index: int) -> Observation:
        metrics = zip(_METRIC_COLUMNS, (self.p99[index].item(), self.throughput[index].item()))
        return Observation(
            Configuration(tuple(self.settings_matrix[index].tolist())),
            {name: value for name, value in metrics if not math.isnan(value)},
            self.utility[index].item(),
            bool(self.feasible[index]),
            index + 1,
            bool(self.failed[index]),
        )

    @functools.cached_property
    def rows(self) -> tuple[Observation, ...]:
        return tuple(map(self._row, range(len(self.utility))))

    @functools.cached_property
    def optimum(self) -> Observation:
        return self._row(int(np.argmin(self.utility)))

    @property
    def feasible_fraction(self) -> float:
        return np.count_nonzero(self.feasible) / len(self.feasible)

    @functools.cached_property
    def _replay(self) -> ReplayBackend:
        return ReplayBackend(self)

    def replay_backend(self) -> ReplayBackend:
        return self._replay


def _check_order(space: SearchSpace, settings: Sequence, where: str = "") -> None:
    """Raise ValueError unless the rows of ``settings``, a settings matrix or
    a list of settings tuples, are the first configurations of ``space`` in
    enumeration order, which also rules out duplicates and rows of another
    length. The rows before the first wrong one are in order, so that row
    is a duplicate when it is on the grid at a lower rank."""
    if len(settings) > space.size:
        raise ValueError(f"{where}{len(settings)} rows for a space of {space.size} configurations")
    expected = space.settings_block(0, len(settings))
    try:
        wrong = (np.asarray(settings, np.int64).reshape(expected.shape) != expected).any(axis=1)
    except ValueError:  # a row of another length: compare the rows as tuples
        wrong = np.array([tuple(a) != tuple(b) for a, b in zip(settings, expected.tolist())])
    if wrong.any():
        number = int(np.argmax(wrong))
        got = Configuration(tuple(np.asarray(settings[number]).tolist()))
        first = space.rank(space.indices_of(got)) if space.contains(got) else number
        why = f"a duplicate of data row {first + 1}" if first < number else (
            f"expected {tuple(expected[number].tolist())}; rows must follow enumeration order"
        )
        raise ValueError(f"{where}data row {number + 1} has settings {got.settings}, {why}")


def _bad_row(columns: _Columns) -> tuple[int, str] | None:
    """The index of the first row the dataset reader rejects for its
    values, and why: a utility that is not finite, then a failed row marked
    feasible. None when every row passes."""
    for problem, bad in (
        ("utility is not finite", ~np.isfinite(columns.utility)),
        ("a failed row is marked feasible", columns.failed & columns.feasible),
    ):
        if bad.any():
            return int(np.argmax(bad)), problem
    return None


def _parse_lines(lines: list[str], dtype: np.dtype) -> np.ndarray | None:
    """The records of dataset lines, one per line, by numpy's C text
    reader, or None when a line is malformed: settings cells must be
    integers, metric cells floats and flag cells ``true`` or ``false``, any
    of them quoted. ``np.loadtxt`` would skip a blank line and read a quoted
    cell across lines, so both are refused, and so is a NUL, which a text
    field drops from its end."""
    if "" in lines or "\r" in lines or "\0" in "".join(lines):
        return None
    try:
        records = np.loadtxt(lines, dtype, delimiter=",", comments=None, quotechar='"', ndmin=1)
    except ValueError:
        return None
    if len(records) != len(lines) or not np.isin(records["flags"], ("true", "false")).all():
        return None
    return records


def _read_dataset(
    path: Path, space: SearchSpace | None = None, source: str = "the configured space"
) -> tuple[SearchSpace, _Columns, int]:
    """Parse a dataset or ``.partial`` file into columns, and count the
    bytes of the torn final line it dropped (0 when none).

    The header goes through csv.reader, the data lines, one record each,
    through ``_parse_lines``. Only a malformed final line (an interrupted
    write) is dropped; any other, a non-finite utility or a failed row
    marked feasible is an error naming its line. With ``space`` the
    parameter columns must match its names, which come from ``source``;
    without it the space is inferred: per parameter the levels seen, on
    the greatest common step.
    The rows must follow the space's enumeration order, at most one per
    configuration. A NaN metric cell means the metric is absent.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            first_line = reader.line_num + 1
            body = handle.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if header is None:
        raise ValueError(f"{path}: empty dataset")
    k = len(header) - len(_METRIC_COLUMNS)
    if k < 1 or tuple(header[k:]) != _METRIC_COLUMNS:
        raise ValueError(
            f"{path}: expected parameter columns followed by {','.join(_METRIC_COLUMNS)}"
        )
    names = header[:k]
    if space is not None and tuple(names) != space.names:
        raise ValueError(
            f"{path}: parameter columns {names} do not match {source} {list(space.names)}"
        )
    dtype = np.dtype([("settings", "i8", (k,)), ("metrics", "f8", (3,)), ("flags", "U6", (2,))])
    *lines, final = body.removesuffix("\n").split("\n")
    records = _parse_lines(lines, dtype) if lines else np.empty(0, dtype)
    if records is None:  # name the first line that ends a rejected prefix
        bad = bisect.bisect_left(
            range(len(lines)), True, key=lambda n: _parse_lines(lines[: n + 1], dtype) is None
        )
        raise ValueError(f"{path}: line {first_line + bad}: malformed dataset row")
    tail = _parse_lines([final], dtype)  # None when the final line is torn
    parts = [records] if tail is None else [records, tail]
    settings, metrics, flags = (np.concatenate([p[name] for p in parts]) for name in dtype.names)
    columns = _Columns(settings, *metrics.T.copy(), *(flags == "true").T.copy())
    bad = _bad_row(columns)
    if bad is not None:
        raise ValueError(f"{path}: line {first_line + bad[0]}: {bad[1]}")
    if space is None:
        if not len(settings):
            raise ValueError(f"{path}: no data rows")
        specs = []
        for name, column in zip(names, settings.T):
            levels = np.unique(column).tolist()
            step = math.gcd(*np.diff(levels).tolist()) or 1
            specs.append((name, levels[0], levels[-1], step))
        try:  # a header name that is empty or repeated
            space = SearchSpace(tuple(ParameterSpec(*s) for s in specs))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    _check_order(space, settings, f"{path}: ")
    torn = 0 if tail is not None else len(final.encode("utf-8")) + body.endswith("\n")
    return space, columns, torn


def collect_exhaustive(
    space: SearchSpace,
    backend: Backend | ReplayBackend,
    utility_fn: UtilityFn,
    slo: SloSpec,
    workload: WorkloadSpec,
    *,
    weights: CostWeights | None = None,
    cost_space: SearchSpace | None = None,
    out_path: str | Path | None = None,
) -> Dataset:
    """Measure every configuration through one :class:`Evaluator`,
    optionally checkpointing to disk.

    With ``out_path`` the rows stream into ``<out_path>.partial``, flushed
    after each run of rows the backend yields and renamed to ``out_path``
    at the end. A restart validates an existing partial file as the reader
    does, cuts it after its last complete row (ending that row's line if it
    lacks a newline) and appends the rows it measures; the kept rows stay
    as they are on disk.
    """
    if space.size > EXHAUSTIVE_CAP:
        raise ValueError(
            f"space has {space.size} configurations, above the cap of "
            f"{EXHAUSTIVE_CAP}; screen first to reduce the bounds"
        )
    evaluator = Evaluator(space, backend, utility_fn, slo, workload, weights, cost_space)
    if out_path is None:
        return Dataset._from_columns(space, _Columns.concat(list(evaluator._columns())), slo)
    out_path = Path(out_path)
    partial_path = out_path.with_name(out_path.name + ".partial")
    header, cells = _dataset_columns(space)
    blocks = []
    if partial_path.exists():
        _, kept, torn = _read_dataset(partial_path, space)
        logger.info("resuming exhaustive collection: %d rows already measured", len(kept.utility))
        with open(partial_path, "rb+") as handle:
            end = handle.seek(-torn, os.SEEK_END)
            handle.truncate()
            handle.seek(end - 1)
            if handle.read(1) != b"\n":
                handle.write(b"\n")
        blocks.append(kept)
    else:
        with open(partial_path, "w", encoding="utf-8", newline="") as handle:
            _write_csv(handle, header, cells, ())
    done = len(blocks[0].utility) if blocks else 0
    with open(partial_path, "a", encoding="utf-8", newline="") as handle:
        for block in evaluator._columns(done):
            handle.writelines(block.lines())
            handle.flush()
            blocks.append(block)
    _sidecar_path(out_path).unlink(missing_ok=True)
    os.replace(partial_path, out_path)
    _write_sidecar(out_path, _Sidecar(space, space.size, _sha256(out_path)))
    return Dataset._from_columns(space, _Columns.concat(blocks), slo)


def load_dataset(path: str | Path, slo: SloSpec | None = None) -> Dataset:
    """Load a collected dataset.

    With a sidecar (see :func:`_read_sidecar`) the space is the grid it
    records, and the file must hold the rows it counts and hash to its
    sha256; without one the space is inferred from the rows. The optimum
    is recomputed from the stored utilities, so a hand-edited file cannot
    smuggle in a stale one. An error in the file's contents names the file.
    """
    path = Path(path)
    sidecar = _read_sidecar(path)
    source = f"the parameters {_sidecar_path(path)} records"
    space, columns, _ = _read_dataset(path, sidecar.space if sidecar else None, source)
    if sidecar is not None:
        _check_sidecar(path, sidecar, len(columns.utility))
    try:
        dataset = Dataset._from_columns(space, columns, slo)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if sidecar is not None:
        for column in columns:  # write_dataset_csv copies the file in their place
            column.flags.writeable = False
        dataset._source = path, sidecar
    return dataset


class _Sidecar(NamedTuple):
    """What a dataset file's sidecar records of it: the grid it was
    collected on, its row count and the sha256 of its bytes."""

    space: SearchSpace
    rows: int
    sha256: str


def _sidecar_path(path: Path) -> Path:
    """The sidecar of dataset file ``path``: ``dataset.json`` beside
    ``dataset.csv``."""
    return path.with_suffix(".json") if path.suffix != ".json" else Path(f"{path}.json")


def _sha256(path: Path) -> str:
    """The sha256 of a file's bytes, read a megabyte at a time."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(functools.partial(handle.read, 1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_sidecar(path: Path, sidecar: _Sidecar) -> None:
    """Write the sidecar of dataset file ``path``: JSON with each
    parameter's name, min, max and granularity in column order, the row
    count and the sha256, and no time or path, so that reruns write the
    same bytes."""
    parameters = [
        {"name": p.name, "min": p.minimum, "max": p.maximum, "granularity": p.granularity}
        for p in sidecar.space.parameters
    ]
    document = {"parameters": parameters, "rows": sidecar.rows, "sha256": sidecar.sha256}
    text = json.dumps(document, indent=2) + "\n"
    _sidecar_path(path).write_text(text, encoding="utf-8")


def _read_sidecar(path: Path) -> _Sidecar | None:
    """The sidecar of dataset file ``path``, None when it has none; a
    sidecar that is not what :func:`_write_sidecar` writes is an error
    naming it and the field. Keys it does not know are ignored."""
    sidecar = _sidecar_path(path)
    try:
        document = Fields(json.loads(sidecar.read_text(encoding="utf-8")), "")
        specs = []
        for i, raw in enumerate(document("parameters", list)):
            entry = Fields(raw, f"parameters[{i}]")
            bounds = (entry(key, int) for key in ("min", "max", "granularity"))
            specs.append(ParameterSpec(entry("name", str), *bounds))
        space = SearchSpace(tuple(specs))
        rows = document("rows", int)
        if rows != space.size:
            raise ValueError(f"rows: {rows} rows for a grid of {space.size} configurations")
        return _Sidecar(space, rows, document("sha256", str))
    except FileNotFoundError:
        return None
    except ValueError as exc:  # also text that is not UTF-8 or not JSON
        raise ValueError(f"{sidecar}: malformed dataset sidecar: {exc}") from None


def _check_sidecar(path: Path, sidecar: _Sidecar, rows: int) -> None:
    """Raise ValueError unless dataset file ``path``, read as ``rows``
    rows on its sidecar's grid, holds every row the sidecar counts and
    hashes to its sha256."""
    name = _sidecar_path(path)
    if rows < sidecar.rows:  # the reader refuses more rows than the grid has
        first = tuple(sidecar.space.settings_block(rows, rows + 1)[0].tolist())
        raise ValueError(
            f"{path}: {rows} data rows where {name} records {sidecar.rows}; data rows "
            f"{rows + 1} to {sidecar.rows} are missing, from settings {first}"
        )
    if _sha256(path) != sidecar.sha256:
        raise ValueError(
            f"{path}: the file changed after it was written: its sha256 differs from "
            f"the one {name} records; delete {name} if the edit was intended"
        )


# -- comparisons -------------------------------------------------------------


@dataclass(eq=False)
class OptimizerComparison:
    """Per-budget curves for one optimizer across all runs."""

    fraction_found_optimal: np.ndarray
    distance_q99: np.ndarray


@dataclass(eq=False)
class ComparisonReport:
    """Replay comparison of several optimizers on one dataset."""

    budget: int
    runs: int
    base_seed: int
    batch_size: int
    optimum_utility: float
    slo_line: float
    optimizers: dict[str, OptimizerComparison]


_WORKER_STATE: dict = {}


def _compare_init(dataset: Dataset, budget: int, batch_size: int, base_seed: int) -> None:
    _WORKER_STATE["args"] = (dataset, budget, batch_size, base_seed)


def _compare_chunk(
    task: tuple[str, int, int], args: tuple | None = None
) -> tuple[str, list, np.ndarray]:
    """Replay runs ``start..stop`` of one optimizer. ``args`` defaults to
    the state a pool worker's initializer stored."""
    optimizer, start, stop = task
    dataset, budget, batch_size, base_seed = args or _WORKER_STATE["args"]
    found = []  # per run, the sample that first evaluated the optimum, or budget + 1
    curves = np.empty((stop - start, budget))
    for offset, run_index in enumerate(range(start, stop)):
        trace = run_optimization(
            dataset.space,
            optimizer,
            dataset.replay_backend(),
            budget,
            batch_size,
            base_seed + run_index,
            optimum_settings=dataset.optimum.config.settings,
        )
        n = len(trace.best_utilities)
        curves[offset, :n] = trace.best_utilities
        curves[offset, n:] = trace.best_utilities[-1]
        found.append(trace.found_optimal_at or budget + 1)
    return optimizer, found, curves


def compare(
    dataset: Dataset,
    optimizer_names: Sequence[str],
    runs: int,
    budget: int,
    base_seed: int,
    *,
    batch_size: int = 6,
    workers: int = 1,
) -> ComparisonReport:
    """Replay every optimizer ``runs`` times and aggregate per-budget curves.

    For each sample count ``n`` the report carries the fraction of runs
    that had already evaluated the dataset optimum, and the nearest-rank
    99th percentile of the distance between the best utility so far and
    the optimum's utility. Run ``i`` uses seed ``base_seed + i``; results
    are merged in run order, so ``workers`` does not change a single output
    byte. Names that ``check_optimizers`` refuses are a ConfigError.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    optimizer_names = check_optimizers(optimizer_names)

    args = (dataset, budget, batch_size, base_seed)
    chunk = max(1, math.ceil(runs / (workers * 4)))
    tasks = [
        (name, start, min(start + chunk, runs))
        for name in optimizer_names
        for start in range(0, runs, chunk)
    ]
    if workers == 1:
        results = list(map(functools.partial(_compare_chunk, args=args), tasks))
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=workers, initializer=_compare_init, initargs=args
        ) as pool:
            results = list(pool.map(_compare_chunk, tasks))
    optimum_utility = dataset.optimum.utility
    samples = np.arange(1, budget + 1)
    q99_row = math.ceil(0.99 * runs) - 1  # nearest rank, counted from 1
    report: dict[str, OptimizerComparison] = {}
    # Tasks are ordered by optimizer, then by first run, so each optimizer's
    # chunks are consecutive and concatenate in run-index order.
    for name, chunks in itertools.groupby(results, operator.itemgetter(0)):
        _, found, curves = zip(*chunks)
        found = np.concatenate(found)
        distances = np.sort(np.abs(np.vstack(curves) - optimum_utility), axis=0)
        report[name] = OptimizerComparison(
            fraction_found_optimal=np.count_nonzero(found[:, None] <= samples, axis=0) / runs,
            distance_q99=distances[q99_row],
        )
    return ComparisonReport(
        budget=budget,
        runs=runs,
        base_seed=base_seed,
        batch_size=batch_size,
        optimum_utility=optimum_utility,
        slo_line=abs(1.0 - optimum_utility),
        optimizers=report,
    )


# -- screening versus standalone ---------------------------------------------


@dataclass(eq=False)
class SvbRepetition:
    """One matched-budget repetition of the reduction study."""

    repetition: int
    seed: int
    screening_evals: int
    reduced_space: SearchSpace
    reduced_size: int
    combined_best_config: Configuration
    combined_best_utility: float
    combined_in_reduced_bounds: bool
    combined_found_reduced_optimum: bool | None
    reduced_optimum_utility: float | None
    standalone_best_config: Configuration
    standalone_best_utility: float
    standalone_in_reduced_bounds: bool
    standalone_found_global_optimum: bool | None


@dataclass(eq=False)
class SvbReport:
    total_budget: int
    r: int
    repetitions: tuple[SvbRepetition, ...]


def screening_vs_standalone(
    space: SearchSpace,
    backend: Backend | ReplayBackend,
    utility_fn: UtilityFn,
    slo: SloSpec,
    workload: WorkloadSpec,
    *,
    total_budget: int,
    r: int = 10,
    p: int | None = None,
    batch_size: int = 6,
    repetitions: int = 1,
    base_seed: int = 0,
    weights: CostWeights | None = None,
    cost_space: SearchSpace | None = None,
    relaxed_factor: float = 1.25,
    strict_factor: float = 0.75,
    known_global_optimum: tuple[int, ...] | None = None,
) -> SvbReport:
    """Screening-plus-BO against standalone BO at the same total budget.

    Each repetition spends ``r * (k + 1)`` evaluations on screening, puts
    the remainder of ``total_budget`` into BO inside the reduced bounds,
    and separately gives standalone BO the full ``total_budget`` on the
    original space. Failed screening evaluations enter the elementary
    effects with an SLI of ten times the threshold. Every evaluation's
    allocation cost is normalized against ``cost_space`` (default:
    ``space``), inside the reduced bounds too.

    Per repetition the report records both best utilities, whether each
    best lies inside that repetition's reduced bounds, and (for reduced
    spaces up to ``EXHAUSTIVE_CAP``) whether the combined pipeline
    evaluated the reduced space's true optimum. When the caller knows the
    global optimum it can pass its settings to get the matching flag for
    standalone BO.
    """
    k = space.dimension
    screening_cost = r * (k + 1)
    if screening_cost > total_budget:
        # A ConfigError: the CLI's --budget and the config's r disagree.
        raise ConfigError(
            f"screening alone needs r·(k + 1) = {screening_cost} evaluations, "
            f"above the total budget {total_budget}"
        )
    scoring = dict(
        utility_fn=utility_fn,
        slo=slo,
        workload=workload,
        weights=weights,
        cost_space=cost_space or space,
    )
    evaluator = Evaluator(space, backend, **scoring)
    reps = []
    for rep in range(repetitions):
        seed = base_seed + rep
        combined: list[Observation] = []
        outcome = run_screening(
            space, sli_objective(evaluator, combined), r=r, p=p, seed=seed
        )
        reduction = reduce_bounds(
            space,
            outcome.stats,
            outcome.evaluations,
            slo.threshold,
            relaxed_factor=relaxed_factor,
            strict_factor=strict_factor,
        )
        reduced = reduction.reduced_space

        bo_budget = total_budget - screening_cost
        if bo_budget > 0:
            bo_trace = run_optimization(
                reduced,
                "bayesian-ei",
                backend,
                bo_budget,
                batch_size,
                seed + 1_000_003,
                **scoring,
            )
            combined.extend(bo_trace.observations)
        combined_best = best_observation(combined)

        # The reduced space's optimum is its first row at the minimum utility.
        reduced_utility = combined_found = None
        if reduced.size <= EXHAUSTIVE_CAP:
            optimum = collect_exhaustive(reduced, backend, **scoring).optimum
            reduced_utility = optimum.utility
            combined_found = any(o.config == optimum.config for o in combined)

        standalone_trace = run_optimization(
            space,
            "bayesian-ei",
            backend,
            total_budget,
            batch_size,
            seed + 2_000_003,
            optimum_settings=known_global_optimum,
            **scoring,
        )
        standalone_best = standalone_trace.best
        standalone_found = (
            standalone_trace.found_optimal_at is not None
            if known_global_optimum is not None
            else None
        )

        reps.append(
            SvbRepetition(
                repetition=rep,
                seed=seed,
                screening_evals=screening_cost,
                reduced_space=reduced,
                reduced_size=reduced.size,
                combined_best_config=combined_best.config,
                combined_best_utility=combined_best.utility,
                combined_in_reduced_bounds=reduced.contains(combined_best.config),
                combined_found_reduced_optimum=combined_found,
                reduced_optimum_utility=reduced_utility,
                standalone_best_config=standalone_best.config,
                standalone_best_utility=standalone_best.utility,
                standalone_in_reduced_bounds=reduced.contains(standalone_best.config),
                standalone_found_global_optimum=standalone_found,
            )
        )
    return SvbReport(total_budget=total_budget, r=r, repetitions=tuple(reps))


# -- emission ----------------------------------------------------------------


def write_dataset_csv(dataset: Dataset, path: str | Path) -> None:
    """The dataset's CSV. A dataset loaded from a file its sidecar verified
    is that file's bytes, copied, with the sidecar, when the copy still
    hashes as the sidecar records; any other is rendered ``_BLOCK_ROWS``
    rows at a time, and gets no sidecar. A sidecar already at ``path`` is
    removed first, so none outlives the file it describes."""
    path = Path(path)
    _sidecar_path(path).unlink(missing_ok=True)
    if dataset._source is not None:
        source, sidecar = dataset._source
        try:
            shutil.copyfile(source, path)
        except shutil.SameFileError:
            pass
        if _sha256(path) == sidecar.sha256:
            _write_sidecar(path, sidecar)
            return
    arrays = (getattr(dataset, name) for name in _Columns._fields[1:])
    columns = _Columns(dataset.settings_matrix, *arrays)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        _write_csv(handle, *_dataset_columns(dataset.space), ())
        for start in range(0, len(columns.utility), _BLOCK_ROWS):
            handle.writelines(columns.slice(start, start + _BLOCK_ROWS).lines())


def write_slo_cdf_csv(dataset: Dataset, path: str | Path) -> None:
    """Empirical CDF of p99 latency over successful evaluations."""
    measured = dataset.p99[~dataset.failed & ~np.isnan(dataset.p99)]
    # A stable sort orders ties as sorted() would.
    latencies = np.sort(measured, kind="stable")
    fractions = np.arange(1, len(latencies) + 1) / len(latencies)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        header = ("p99_latency_ms", "cumulative_fraction")
        _write_csv(handle, header, "rr", zip(latencies.tolist(), fractions.tolist()))


def write_trace_csv(trace: RunTrace, space: SearchSpace, path: str | Path) -> None:
    columns = _Columns.of(trace.observations, space.dimension)
    records = (
        (obs.eval_index, *record, best)
        for obs, record, best in zip(
            trace.observations, columns.records(), trace.best_utilities.tolist()
        )
    )
    header, cells = _dataset_columns(space)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        _write_csv(handle, ["eval_index", *header, "best_so_far"], f"s{cells}r", records)


def write_comparison_csvs(report: ComparisonReport, out_dir: str | Path) -> list[Path]:
    paths = []
    for name, result in report.optimizers.items():
        path = Path(out_dir) / f"compare_{name}.csv"
        records = zip(
            range(1, report.budget + 1),
            result.fraction_found_optimal.tolist(),
            result.distance_q99.tolist(),
        )
        with open(path, "w", encoding="utf-8", newline="") as handle:
            _write_csv(handle, ("n", "fraction_found_optimal", "distance_q99"), "srr", records)
        paths.append(path)
    return paths


#: ``screen_vs_bo.csv``'s columns, each the ``SvbRepetition`` attribute it holds.
_SVB_COLUMNS = (
    "repetition",
    "seed",
    "screening_evals",
    "reduced_size",
    "reduced_optimum_utility",
    "combined_best_utility",
    "combined_in_reduced_bounds",
    "combined_found_reduced_optimum",
    "standalone_best_utility",
    "standalone_in_reduced_bounds",
    "standalone_found_global_optimum",
)


def _svb_cell(value: object) -> object:
    """A study cell for ``%s``: a flag's text (told apart by type, since the
    integer 1 equals True), empty when unknown, else the number."""
    if isinstance(value, bool):
        return _bool(value)
    return "" if value is None else value


def write_svb_csv(report: SvbReport, path: str | Path) -> None:
    records = (
        tuple(_svb_cell(getattr(rep, name)) for name in _SVB_COLUMNS)
        for rep in report.repetitions
    )
    with open(path, "w", encoding="utf-8", newline="") as handle:
        _write_csv(handle, _SVB_COLUMNS, "s" * len(_SVB_COLUMNS), records)


def dataset_summary(dataset: Dataset) -> str:
    rows = len(dataset.utility)
    feasible = int(np.count_nonzero(dataset.feasible))
    lines = [
        f"configurations: {rows}",
        f"feasible: {feasible} ({_fmt(feasible / rows)})",
        f"failed: {np.count_nonzero(dataset.failed)}",
    ]
    if dataset.slo is not None:
        lines.append(f"slo: {dataset.slo.metric} <= {_fmt(dataset.slo.threshold)}")
    lines.append(f"optimum: {dataset.space.config_text(dataset.optimum.config)}")
    lines.append(f"optimum_utility: {_fmt(dataset.optimum.utility)}")
    return "\n".join(lines) + "\n"


def trace_summary(trace: RunTrace, space: SearchSpace) -> str:
    best = trace.best
    lines = [
        f"optimizer: {trace.optimizer}",
        f"seed: {trace.seed}",
        f"evaluations: {len(trace.observations)}",
        f"best: {space.config_text(best.config)}",
        f"best_utility: {_fmt(best.utility)}",
        f"found_optimal_at: "
        + (str(trace.found_optimal_at) if trace.found_optimal_at is not None else "unknown"),
    ]
    return "\n".join(lines) + "\n"


def comparison_summary(report: ComparisonReport) -> str:
    lines = [
        f"runs: {report.runs}",
        f"budget: {report.budget}",
        f"base_seed: {report.base_seed}",
        f"batch_size: {report.batch_size}",
        f"optimum_utility: {_fmt(report.optimum_utility)}",
        f"slo_line: {_fmt(report.slo_line)}",
    ]
    for name, result in report.optimizers.items():
        lines.append(
            f"{name}: fraction_found_optimal={_fmt(result.fraction_found_optimal[-1])} "
            f"distance_q99={_fmt(result.distance_q99[-1])}"
        )
    return "\n".join(lines) + "\n"


def svb_summary(report: SvbReport) -> str:
    reps = report.repetitions
    lines = [
        f"total_budget: {report.total_budget}",
        f"trajectories: {report.r}",
        f"repetitions: {len(reps)}",
    ]
    for name in ("combined_found_reduced_optimum", "standalone_found_global_optimum"):
        known = [getattr(r, name) for r in reps if getattr(r, name) is not None]
        if known:
            lines.append(f"{name}: {sum(known)}/{len(known)}")
    feasible = sum(1 for r in reps if r.standalone_best_utility < 1.0)
    lines.append(f"standalone_best_within_slo: {feasible}/{len(reps)}")
    for rep in reps:
        lines.append(
            f"rep {rep.repetition}: reduced_size={rep.reduced_size} "
            f"combined_best={_fmt(rep.combined_best_utility)} "
            f"standalone_best={_fmt(rep.standalone_best_utility)}"
        )
    return "\n".join(lines) + "\n"
