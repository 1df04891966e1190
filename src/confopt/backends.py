"""Experiment backends: how a configuration gets measured.

Measuring backends implement one contract: take a block of configurations
and a workload, return service-level indicators. Two are provided:

* synthetic, a closed-form queueing approximation of a small service chain,
  for fast offline studies;
* external, a child process speaking a one-line JSON protocol, for wiring
  in real load generators.

A :class:`Block` holds configurations as columns: a level-index matrix and
each parameter's rendered level texts, as the search space supplies them.
``Backend.evaluate_many`` measures a block and yields :class:`Measured`
runs of consecutive rows: one float column per metric, where NaN marks an
absent metric, and one failure reason per row. The synthetic backend
measures a whole block with numpy, from per-service latency tables over
the block's distinct (cpu, memory) level texts; the external one keeps the
default, one run of the child process per row, yielded as a one-row run
so that a caller can checkpoint every row.

Replay is not a measuring backend: :class:`ReplayBackend` reads the scored
rows of a collected dataset by rank, and ``harness.Evaluator`` returns them.

Backends are safe to call concurrently. The synthetic one seeds each
configuration's noise from a hash of the configuration itself, so results
do not depend on call order or on how the rows were batched.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import math
import operator
import re
import subprocess
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping, NamedTuple, Protocol, Sequence

import numpy as np
import yaml

from .fields import ConfigError, Fields, load_yaml
from .utility import WorkloadSpec

if TYPE_CHECKING:
    from .harness import Dataset
    from .optim import Observation
    from .space import SearchSpace

__all__ = [
    "SliResult",
    "Block",
    "Measured",
    "Backend",
    "ServiceSpec",
    "ServiceModelSpec",
    "load_service_model",
    "SyntheticBackend",
    "ReplayBackend",
    "ExternalBackend",
]

logger = logging.getLogger(__name__)

#: Utilization at or above which a service is considered saturated.
SATURATION_RHO = 0.98


@dataclass(frozen=True)
class SliResult:
    """Measured indicators for one evaluation, or a failure marker."""

    slis: Mapping[str, float] = field(default_factory=dict)
    failed: bool = False
    failure_reason: str | None = None


class Block(NamedTuple):
    """Configurations held as columns: row ``i`` sets parameter
    ``names[j]`` to the text ``texts[j][levels[i, j]]``."""

    names: tuple[str, ...]
    levels: np.ndarray
    texts: tuple[Sequence[str], ...]

    @classmethod
    def of(cls, params: Mapping[str, str]) -> "Block":
        """One rendered configuration as a one-row block."""
        return cls(
            tuple(params),
            np.zeros((1, len(params)), dtype=np.intp),
            tuple((text,) for text in params.values()),
        )

    def render(self, row: int) -> dict[str, str]:
        """Row ``row`` as a rendered parameter map."""
        return dict(zip(self.names, map(operator.getitem, self.texts, self.levels[row].tolist())))


class Measured(NamedTuple):
    """Indicators of consecutive rows of a block: one float column per
    metric, where NaN marks a metric a row lacks, and per row the reason it
    failed, or None when it did not."""

    metrics: dict[str, np.ndarray]
    reasons: list[str | None]

    @classmethod
    def of(cls, result: SliResult) -> "Measured":
        """One row's result; a failure without a reason gets an empty one."""
        reason = (result.failure_reason or "") if result.failed else None
        metrics = {name: np.array([value], dtype=float) for name, value in result.slis.items()}
        return cls(metrics, [reason])

    def slis(self, row: int) -> dict[str, float]:
        """Row ``row``'s metrics, without the ones it lacks."""
        values = [(name, column[row].item()) for name, column in self.metrics.items()]
        return {name: value for name, value in values if not math.isnan(value)}

    def result(self, row: int) -> SliResult:
        """Row ``row`` as an :class:`SliResult`."""
        reason = self.reasons[row]
        return SliResult(self.slis(row), reason is not None, reason)


class Backend(Protocol):
    """A measuring backend; see :class:`ReplayBackend` for stored rows.

    Subclasses define ``evaluate`` and inherit ``evaluate_many``. An object
    that only defines ``evaluate`` serves too: ``harness.Evaluator`` then
    applies this class's ``evaluate_many`` to it.
    """

    def evaluate(self, params: Mapping[str, str], workload: WorkloadSpec) -> SliResult:
        """Measure one rendered configuration under the given workload."""
        ...

    def evaluate_many(self, block: Block, workload: WorkloadSpec) -> Iterator[Measured]:
        """Measure a block's rows in order, yielding runs of consecutive
        rows that together cover the block, so that a caller keeps the rows
        measured before one that raises. This default measures one row at a
        time through ``evaluate`` and yields it as a one-row run."""
        for row in range(len(block.levels)):
            yield Measured.of(self.evaluate(block.render(row), workload))


_INT_PREFIX = re.compile(r"^[+-]?\d+")


def row_texts(matrix: np.ndarray, render: Callable[[list[int]], object]) -> list:
    """Per row of an integer matrix, ``render`` of the row's values, called
    once per distinct row: rows sorted together share the value of the
    first of them. The matrix needs at least one column."""
    order = np.lexsort(matrix.T)
    first = np.zeros(len(order), dtype=bool)
    first[:1] = True
    for column in matrix.T:
        column = column[order]
        first[1:] |= column[1:] != column[:-1]
    texts = [render(row) for row in matrix[order[first]].tolist()]
    distinct = np.empty(len(order), dtype=np.intp)
    distinct[order] = np.cumsum(first) - 1
    return np.array(texts, dtype=object)[distinct].tolist()


def _parse_quantity(name: str, rendered: str) -> int:
    """Integer prefix of a rendered value, e.g. ``"750m"`` -> 750."""
    match = _INT_PREFIX.match(rendered)
    if match is None:
        raise ValueError(f"parameter {name!r}: cannot parse quantity {rendered!r}")
    return int(match.group())


# -- synthetic ---------------------------------------------------------------


_SERVICE_FIELDS = ("base_ms", "cpu_demand_mc", "mem_working_set_mi")


def _require_finite(prefix: str, spec, names: Sequence[str]) -> None:
    for name in names:
        if not math.isfinite(getattr(spec, name)):
            raise ValueError(f"{prefix}{name} must be finite, got {getattr(spec, name)}")


@dataclass(frozen=True)
class ServiceSpec:
    """Steady-state behavior of one service in the chain."""

    name: str
    base_ms: float
    cpu_demand_mc: float
    mem_working_set_mi: float

    def __post_init__(self) -> None:
        _require_finite(f"service {self.name!r}: ", self, _SERVICE_FIELDS)
        if self.base_ms <= 0:
            raise ValueError(f"service {self.name!r}: base_ms must be positive")
        if self.cpu_demand_mc < 0:
            raise ValueError(f"service {self.name!r}: cpu_demand_mc must be >= 0")
        if self.mem_working_set_mi < 0:
            raise ValueError(
                f"service {self.name!r}: mem_working_set_mi must be >= 0"
            )


@dataclass(frozen=True)
class ServiceModelSpec:
    """A request chain of services plus the knobs shaping latency.

    End-to-end mean latency is the sum of per-service latencies; the p99
    estimate is ``p99_factor`` times the mean, optionally jittered by
    multiplicative lognormal noise with ``noise_sigma`` (zero disables the
    noise entirely, making evaluation bit-deterministic).
    """

    services: tuple[ServiceSpec, ...]
    chain: tuple[str, ...]
    p99_factor: float
    mem_penalty: float
    noise_sigma: float = 0.0

    def __post_init__(self) -> None:
        if not self.services:
            raise ValueError("at least one service required")
        names = {s.name for s in self.services}
        if len(names) != len(self.services):
            raise ValueError("duplicate service names")
        if not self.chain:
            raise ValueError("chain must name at least one service")
        unknown = [name for name in self.chain if name not in names]
        if unknown:
            raise ValueError(f"chain references unknown services: {unknown}")
        _require_finite("", self, ("p99_factor", "mem_penalty", "noise_sigma"))
        if self.p99_factor < 1:
            raise ValueError(f"p99_factor must be >= 1, got {self.p99_factor}")
        if self.mem_penalty < 0:
            raise ValueError(f"mem_penalty must be >= 0, got {self.mem_penalty}")
        if self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")

    def service(self, name: str) -> ServiceSpec:
        for s in self.services:
            if s.name == name:
                return s
        raise KeyError(f"no service named {name!r}")

    @property
    def saturation_latency_ms(self) -> float:
        """Latency assigned to a saturated service: ten times the chain's
        summed base latency."""
        return 10.0 * sum(self.service(n).base_ms for n in self.chain)


def load_service_model(path: str) -> ServiceModelSpec:
    """Read a :class:`ServiceModelSpec` from a YAML document. An error is a
    :class:`ConfigError` naming the file and, where there is one, the
    field by dotted path; a key the model does not know is an error."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = Fields(load_yaml(handle), "")
        services, specs = doc("services", dict), []
        for name in services.value:
            fields = services(name, dict)
            specs.append(ServiceSpec(name, *(fields(key, float) for key in _SERVICE_FIELDS)))
            fields.done(strict=True)
        chain = [doc.checked(item, str, f"chain[{i}]") for i, item in enumerate(doc("chain", list))]
        knobs = [doc(key, float) for key in ("p99_factor", "mem_penalty")]
        noise_sigma = doc("noise_sigma", float, 0.0)
        doc.done(strict=True)
        return ServiceModelSpec(tuple(specs), tuple(chain), *knobs, noise_sigma)
    except (ValueError, yaml.YAMLError) as exc:  # also text that is not UTF-8
        raise ConfigError(f"{path}: {exc}") from None


# Each configuration's noise is drawn from ``default_rng(entropy)``, whose
# seeding builds a ``SeedSequence``: O'Neill's seed_seq_fe hash of the
# entropy's 32-bit words, about 17 µs a row. ``_seed_states`` computes that
# hash for a whole block of entropies in uint32 arrays, word for word as
# numpy does, and ``_SeedState`` hands one row's result to ``PCG64``.

_POOL_SIZE = 4
#: 64-bit words ``PCG64`` asks its seed sequence for.
_STATE_WORDS = 4
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)


def _hash_steps(init: int, mult: int, count: int) -> np.ndarray:
    """The constants of ``count`` successive hash steps, shape (2, count, 1):
    a step xors with the running constant, advances it by ``mult`` and
    multiplies by the advanced value."""
    steps, const = [], init
    for _ in range(count):
        advanced = const * mult & 0xFFFFFFFF
        steps.append((const, advanced))
        const = advanced
    return np.array(steps, dtype=np.uint32).T[:, :, None]


_ENTROPY_STEPS = _hash_steps(0x43B0D7E5, 0x931E8875, _POOL_SIZE * _POOL_SIZE)
#: Steps hashing the entropy words into the pool.
_FILL_STEPS = _ENTROPY_STEPS[:, :_POOL_SIZE]
#: Steps hashing each source word into the other pool words, by source.
_MIX_STEPS = _ENTROPY_STEPS[:, _POOL_SIZE:].reshape(2, _POOL_SIZE, _POOL_SIZE - 1, 1)
#: Steps drawing the state's 32-bit output words.
_OUTPUT_STEPS = _hash_steps(0x8B51F9DD, 0x58F38DED, 2 * _STATE_WORDS)
_OTHER_WORDS = [[i for i in range(_POOL_SIZE) if i != src] for src in range(_POOL_SIZE)]


def _hashmix(words: np.ndarray, steps: np.ndarray) -> np.ndarray:
    words = (words ^ steps[0]) * steps[1]
    return words ^ (words >> 16)


def _seed_states(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(e).generate_state(4, np.uint64)`` for each 64-bit
    entropy ``e``, one row per entropy."""
    words = np.zeros((_POOL_SIZE, len(entropy)), dtype=np.uint32)
    # The entropy's 32-bit words, low word first; missing words hash as 0.
    words[:2] = np.asarray(entropy, dtype="<u8").view("<u4").reshape(-1, 2).T
    pool = _hashmix(words, _FILL_STEPS)
    for src, dst in enumerate(_OTHER_WORDS):
        mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * _hashmix(pool[src], _MIX_STEPS[:, src])
        pool[dst] = mixed ^ (mixed >> 16)
    # The output words cycle through the pool, and join in pairs, low
    # word first, into the state's 64-bit words.
    state = _hashmix(np.concatenate((pool, pool)), _OUTPUT_STEPS)
    return state.T.astype("<u4", order="C").view("<u8").astype(np.uint64, copy=False)


class _SeedState(np.random.bit_generator.ISeedSequence):
    """One row of :func:`_seed_states`, served to ``PCG64``, which asks its
    seed sequence for exactly ``generate_state(4, np.uint64)``."""

    __slots__ = ("_state",)

    def __init__(self, state: np.ndarray):
        self._state = state

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != _STATE_WORDS or dtype is not np.uint64:
            raise ValueError("a precomputed seed state holds 4 np.uint64 words")
        return self._state


def _lognormal_rows(states: np.ndarray, sigma: float) -> np.ndarray:
    """``default_rng(e).lognormal(0, sigma)`` for each row of seed states,
    one ``Generator`` per row: about 3-5 µs a row."""
    return np.fromiter(
        (
            np.random.Generator(np.random.PCG64(_SeedState(state))).lognormal(0.0, sigma)
            for state in states
        ),
        dtype=float,
        count=len(states),
    )


# The same draw for a block of rows in uint64 arrays. A ``PCG64`` seeded
# with state words (s0, s1, s2, s3) starts from state 0 with increment
# inc = 2 * (s2 * 2**64 + s3) + 1, takes an LCG step (multiplier
# ``_PCG_MULT``), adds initstate = s0 * 2**64 + s1 and takes another step;
# its first output is one more step and the XSL-RR output function. The
# 128-bit arithmetic runs on (hi, lo) uint64 limbs. numpy's normal sampler
# is a 256-layer ziggurat (Marsaglia & Tsang 2000): the low 8 bits of the
# word pick a layer, bit 8 the sign and the next 52 bits ``rabs``; when
# ``rabs < ki[layer]`` the draw is ``±rabs * wi[layer]`` and uses no other
# word, which covers about 98% of rows. The other rows, and layers whose
# table entries are not known, take ``_lognormal_rows``.

_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_HI = np.uint64(_PCG_MULT >> 64)
_MULT_LO = np.uint64(_PCG_MULT & 0xFFFFFFFFFFFFFFFF)
_LOW32 = np.uint64(0xFFFFFFFF)
_MULT_LO_0, _MULT_LO_1 = _MULT_LO & _LOW32, _MULT_LO >> np.uint64(32)
_ZIGGURAT_LAYERS = 256
_RABS_MASK = np.uint64(2**52 - 1)
#: Blocks of fewer rows take ``_lognormal_rows``: the array draw costs about
#: 90 µs a call however few rows it gets.
_KERNEL_MIN_ROWS = 32
#: Entropies on which the array draw is checked against ``_lognormal_rows``
#: before its first use.
_CHECK_ENTROPIES = np.arange(64, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)


def _pcg_step(
    hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One LCG step, state * ``_PCG_MULT`` + inc mod 2**128, on limbs. The
    high word of ``lo * _MULT_LO`` comes from products of 32-bit halves."""
    lo0, lo1 = lo & _LOW32, lo >> np.uint64(32)
    cross_a, cross_b = lo0 * _MULT_LO_1, lo1 * _MULT_LO_0
    mid = ((lo0 * _MULT_LO_0) >> np.uint64(32)) + (cross_a & _LOW32) + (cross_b & _LOW32)
    carry = lo1 * _MULT_LO_1 + (cross_a >> np.uint64(32)) + (cross_b >> np.uint64(32))
    hi = carry + (mid >> np.uint64(32)) + lo * _MULT_HI + hi * _MULT_LO
    lo = lo * _MULT_LO + inc_lo
    return hi + inc_hi + (lo < inc_lo), lo


def _pcg64_first_words(states: np.ndarray) -> np.ndarray:
    """The first 64-bit word of ``PCG64(_SeedState(s))`` for each row ``s``."""
    s0, s1, s2, s3 = states.T
    inc_hi = (s2 << np.uint64(1)) | (s3 >> np.uint64(63))
    inc_lo = (s3 << np.uint64(1)) | np.uint64(1)
    lo = inc_lo + s1
    hi, lo = _pcg_step(inc_hi + s0 + (lo < inc_lo), lo, inc_hi, inc_lo)
    hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
    word, rotation = hi ^ lo, hi >> np.uint64(58)
    return (word >> rotation) | (word << ((np.uint64(64) - rotation) & np.uint64(63)))


def _ziggurat_draw(bitgen: np.random.PCG64, word: int) -> tuple[float, bool]:
    """The standard normal numpy draws when ``bitgen``'s next word is
    ``word``, and whether the draw used that word alone. From state 0 with
    increment ``word``, a step reaches state ``word``, whose XSL-RR output
    is ``word`` itself (its high half is 0); a second word would step on."""
    state = {"state": 0, "inc": word}
    bitgen.state = {"bit_generator": "PCG64", "state": state, "has_uint32": 0, "uinteger": 0}
    value = np.random.Generator(bitgen).standard_normal()
    return value, bitgen.state["state"]["state"] == word


class _Ziggurat(NamedTuple):
    """numpy's ziggurat layer widths ``wi`` and acceptance bounds ``ki``,
    where a ``ki`` of 0 sends every draw of that layer to the per-row path.
    numpy keeps these tables private, so they are read off its sampler."""

    wi: np.ndarray
    ki: np.ndarray

    @classmethod
    def read(cls) -> "_Ziggurat":
        """``wi[i]`` is the draw whose word has layer ``i`` and ``rabs`` 1. For
        ``i >= 3``, ``floor(2**52 * wi[i-1] / wi[i]) - 2`` lies at or below
        numpy's ``ki[i]``, and is kept where a draw with ``rabs`` one below
        it uses one word. A ``ki`` too low sends more rows to the per-row
        path and changes no value."""
        bitgen = np.random.PCG64()
        wi = np.zeros(_ZIGGURAT_LAYERS)
        ki = np.zeros(_ZIGGURAT_LAYERS, dtype=np.uint64)
        known = [False] * _ZIGGURAT_LAYERS
        for layer in range(_ZIGGURAT_LAYERS):
            wi[layer], known[layer] = _ziggurat_draw(bitgen, 1 << 9 | layer)
        for layer in range(3, _ZIGGURAT_LAYERS):
            if known[layer - 1] and known[layer]:
                bound = math.floor(2.0**52 * (wi[layer - 1] / wi[layer])) - 2
                if 0 < bound <= 2**52 and _ziggurat_draw(bitgen, (bound - 1) << 9 | layer)[1]:
                    ki[layer] = bound
        return cls(wi, ki)

    def lognormal(self, states: np.ndarray, sigma: float) -> np.ndarray:
        """``_lognormal_rows(states, sigma)``, bit for bit: the layer's
        draw where the first word is accepted, the per-row draw elsewhere.
        ``exp`` is libm's through ``math.exp``, as numpy's sampler calls it."""
        words = _pcg64_first_words(states)
        layer = (words & np.uint64(0xFF)).astype(np.intp)
        rabs = (words >> np.uint64(9)) & _RABS_MASK
        normal = rabs.astype(float) * self.wi[layer]
        np.negative(normal, out=normal, where=(words & np.uint64(0x100)).astype(bool))
        # numpy draws exp(0.0 + sigma * x); adding 0.0 changes no exp.
        noise = np.fromiter(map(math.exp, (sigma * normal).tolist()), float, len(normal))
        rejected = np.flatnonzero(rabs >= self.ki[layer])
        noise[rejected] = _lognormal_rows(states[rejected], sigma)
        return noise


@functools.cache
def _ziggurat() -> _Ziggurat | None:
    """The tables, read once per process on first use, or None when the
    array draw differs from the per-row draw on ``_CHECK_ENTROPIES``."""
    tables = _Ziggurat.read()
    states = _seed_states(_CHECK_ENTROPIES)
    if not np.array_equal(tables.lognormal(states, 1.0), _lognormal_rows(states, 1.0)):
        logger.warning("array lognormal draw differs from numpy's; drawing noise per row")
        return None
    return tables


class SyntheticBackend(Backend):
    """Closed-form latency model of a service chain.

    Per service, utilization is ``tenants * cpu_demand_mc / cpu``; latency
    follows ``base_ms / (1 - rho)`` below saturation and jumps to the
    model's saturation latency at ``rho >= 0.98``. Memory below the working
    set inflates latency by ``1 + mem_penalty * (working_set / mem - 1)``;
    memory below half the working set fails the evaluation outright.
    """

    def __init__(self, model: ServiceModelSpec, seed: int = 0):
        self.model = model
        self.seed = seed
        self._chain = tuple(
            (name, model.service(name), f"{name}Cpu", f"{name}Memory") for name in model.chain
        )
        self._saturation_ms = model.saturation_latency_ms
        # Indexed by the chain position where a row stops; None: measured.
        self._reasons = np.array(
            [f"{name} out of memory" for name in model.chain] + [None], dtype=object
        )
        # (service, rendered cpu, rendered memory, tenants) -> the service's
        # latency in ms, or None when it runs out of memory. A grid repeats
        # each service's few settings across many configurations.
        self._latencies: dict[tuple[str, str, str, int], float | None] = {}
        # The (names, texts) of the last block whose noise was drawn, and
        # per parameter its "name=text" tokens, hashed into each row's seed.
        self._tokens: tuple[tuple, list[list[str]]] = ((), [])

    def evaluate(self, params: Mapping[str, str], workload: WorkloadSpec) -> SliResult:
        """Measure one configuration, as a one-row block."""
        (measured,) = self.evaluate_many(Block.of(params), workload)
        return measured.result(0)

    def evaluate_many(self, block: Block, workload: WorkloadSpec) -> Iterator[Measured]:
        """Measure a block in one run of rows. Each row walks the chain in
        order and stops at the first service that runs out of memory (a
        failure) or whose settings raise; the rows before the first row
        that raises are yielded before the error is raised."""
        rows, services = len(block.levels), len(self._chain)
        errors = []
        for position in range(services):
            pairs, latency, end, raised = self._latency_table(position, block, workload.tenants)
            errors.append((pairs, raised))
            if position:
                # Summed in chain order, as a row's services are walked.
                total_ms, ends = total_ms + latency[pairs], np.minimum(ends, end[pairs])
            else:
                total_ms, ends = latency[pairs], end[pairs]
        stop, raises = np.divmod(ends, 2)
        first = int(np.argmax(raises)) if np.count_nonzero(raises) else rows
        if first:
            stop, total_ms = stop[:first], total_ms[:first]
            p99 = self.model.p99_factor * total_ms
            ok = np.flatnonzero(stop == services)
            if self.model.noise_sigma > 0 and len(ok):
                p99[ok] *= self._noise(block, ok, workload)
            throughput = workload.tenants * 1000.0 / total_ms
            yield Measured(
                {"p99_latency_ms": p99, "throughput_rps": throughput},
                self._reasons[stop].tolist(),
            )
        if first < rows:
            pairs, raised = errors[ends[first] // 2]
            raise raised[int(pairs[first])]

    def _latency_table(
        self, position: int, block: Block, tenants: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[int, ValueError]]:
        """The latency of the chain's ``position``-th service over a block:
        each row's (cpu, memory) pair code, and per code the service's
        latency (NaN unless measured), the end code of a row that reaches
        the service and, for a pair that raises, the error. A row's end code
        is the lowest over its services: 2 * position + 1 where it raises,
        2 * position where it runs out of memory, and 2 * (chain length)
        where it is measured. ``_latency`` runs once per distinct pair the
        cache lacks."""
        service = self._chain[position]
        name, _, cpu_key, mem_key = service
        measured, out_of_memory, raises = 2 * len(self._chain), 2 * position, 2 * position + 1
        try:
            cpu, mem = block.names.index(cpu_key), block.names.index(mem_key)
        except ValueError:
            key = cpu_key if cpu_key not in block.names else mem_key
            error = ValueError(f"configuration is missing parameter {key!r}")
            pairs = np.zeros(len(block.levels), dtype=np.intp)
            return pairs, np.array([math.nan]), np.array([raises]), {0: error}
        cpu_texts, mem_texts = block.texts[cpu], block.texts[mem]
        pairs = block.levels[:, cpu] * len(mem_texts) + block.levels[:, mem]
        latency = np.empty(len(cpu_texts) * len(mem_texts))
        end = np.empty(len(latency), dtype=np.intp)
        raised = {}
        for code in set(pairs.tolist()):
            cpu_index, mem_index = divmod(code, len(mem_texts))
            key = (name, cpu_texts[cpu_index], mem_texts[mem_index], tenants)
            try:
                value = self._latencies[key]
            except KeyError:
                try:
                    value = self._latencies[key] = self._latency(service, *key[1:])
                except ValueError as exc:
                    raised[code] = exc
                    latency[code], end[code] = math.nan, raises
                    continue
            if value is None:
                latency[code], end[code] = math.nan, out_of_memory
            else:
                latency[code], end[code] = value, measured
        return pairs, latency, end, raised

    def _latency(
        self, service: tuple, cpu_text: str, mem_text: str, tenants: int
    ) -> float | None:
        _, spec, cpu_key, mem_key = service
        cpu = _parse_quantity(cpu_key, cpu_text)
        mem = _parse_quantity(mem_key, mem_text)
        if cpu <= 0:
            raise ValueError(f"parameter {cpu_key!r}: cpu must be positive")
        if mem <= 0:
            raise ValueError(f"parameter {mem_key!r}: memory must be positive")
        if spec.mem_working_set_mi > 0 and mem < 0.5 * spec.mem_working_set_mi:
            return None
        rho = tenants * spec.cpu_demand_mc / cpu
        if rho >= SATURATION_RHO:
            latency = self._saturation_ms
        else:
            latency = spec.base_ms / (1.0 - rho)
        if 0 < mem < spec.mem_working_set_mi:
            latency *= 1.0 + self.model.mem_penalty * (spec.mem_working_set_mi / mem - 1.0)
        return latency

    def _noise(self, block: Block, rows: np.ndarray, workload: WorkloadSpec) -> np.ndarray:
        """Lognormal noise factors of the given rows of a block. A row's
        entropy is a hash of the backend seed, the workload and the row's
        text, never of the call, so results are independent of evaluation
        order and of batching, and safe under concurrency. Every row gets
        ``default_rng(entropy).lognormal(0, noise_sigma)``, bit for bit:
        drawn in arrays from ``_KERNEL_MIN_ROWS`` rows on, one ``Generator``
        per row below that or when the array draw failed its self-check."""
        prefix = f"{self.seed}|{workload.tenants}|{workload.rate_per_tenant}|"
        layout = block.names, block.texts
        cached, tokens = self._tokens  # read once: another thread may swap it
        if cached != layout:
            tokens = [[f"{name}={text}" for text in texts] for name, texts in zip(*layout)]
            self._tokens = layout, tokens
        # A row's text is the prefix, then its tokens joined by commas; it is
        # encoded once per distinct first half of its levels, with the
        # prefix, and once per distinct second half. A measured row has at
        # least a service's cpu and memory, so neither half is empty.
        levels = block.levels[rows]
        half = levels.shape[1] // 2

        def head_text(row: list[int]) -> bytes:
            cells = map(operator.getitem, tokens, row)
            return "".join([prefix, *(f"{cell}," for cell in cells)]).encode("utf-8")

        def tail_text(row: list[int]) -> bytes:
            return ",".join(map(operator.getitem, tokens[half:], row)).encode("utf-8")

        heads = row_texts(levels[:, :half], head_text)
        tails = row_texts(levels[:, half:], tail_text)
        digests = b"".join(
            hashlib.sha256(head + tail).digest()[:8] for head, tail in zip(heads, tails)
        )
        states = _seed_states(np.frombuffer(digests, dtype=">u8"))
        tables = _ziggurat() if len(rows) >= _KERNEL_MIN_ROWS else None
        if tables is None:
            return _lognormal_rows(states, self.model.noise_sigma)
        return tables.lognormal(states, self.model.noise_sigma)


# -- replay ------------------------------------------------------------------


class ReplayBackend:
    """Exact lookup of previously measured and scored configurations.

    Built from a collected dataset (``Dataset.replay_backend``), whose row of
    a configuration is the one at its rank. Settings are in the dataset's
    parameter order; ``harness.Evaluator`` maps a search space onto it by
    name (:meth:`stored_order`). A miss, off the grid or of the wrong length,
    is a ``KeyError`` carrying the configuration's ``name=value`` text,
    never a silent re-measurement.
    """

    def __init__(self, dataset: "Dataset"):
        self.dataset, self.space = dataset, dataset.space
        self._shares = [  # per stored parameter, each level's share of the rank
            {level: i * stride for i, level in enumerate(levels)}
            for stride, _, levels in self.space._digits
        ]
        self._rows: dict[int, "Observation"] = {}  # built on first lookup

    def stored_order(self, space: "SearchSpace") -> tuple[int, ...]:
        """The position in ``space`` of each stored parameter, in stored order;
        a ``ValueError`` naming the difference when their parameters differ."""
        stored, names = self.space.names, space.names
        if set(stored) != set(names):
            raise ValueError(
                "replay dataset parameters differ from the search space: "
                f"only in the dataset {sorted(set(stored) - set(names))}, "
                f"only in the space {sorted(set(names) - set(stored))}"
            )
        return tuple(map(names.index, stored))

    def rank(self, settings: Sequence[int]) -> int:
        """The dataset row, which is the enumeration rank, of ``settings``."""
        if len(settings) == len(self._shares):
            try:
                return sum(map(dict.__getitem__, self._shares, settings))
            except KeyError:
                pass
        text = ",".join(f"{name}={value}" for name, value in zip(self.space.names, settings))
        raise KeyError(f"configuration not in dataset: {text}")

    def lookup(self, settings: tuple[int, ...]) -> "Observation":
        rank = self.rank(settings)
        return self._rows.get(rank) or self._rows.setdefault(rank, self.dataset._row(rank))


# -- external ----------------------------------------------------------------


def _check_command(command: Sequence[str]) -> None:
    if not command or not command[0]:
        raise ValueError("external backend needs a non-empty command")


def _check_timeout(timeout_s: float) -> None:
    if timeout_s <= 0:
        raise ValueError(f"timeout_s must be positive, got {timeout_s}")


def _check_retries(retries: int) -> None:
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")


#: The rule :class:`ExternalBackend` applies to each of its settings: a
#: ValueError for a value it refuses.
EXTERNAL_CHECKS: dict[str, Callable[[Any], None]] = {
    "command": _check_command,
    "timeout_s": _check_timeout,
    "retries": _check_retries,
}


class ExternalBackend(Backend):
    """Delegate measurement to a child process.

    Protocol: one UTF-8, newline-terminated JSON object per direction. The
    request carries ``params`` (rendered string map), ``tenants``,
    ``timeout_s`` and, when configured, ``rate_per_tenant``. The reply is a
    flat metric map such as ``{"p99_latency_ms": 850, "throughput_rps": 40}``.

    A nonzero exit status, malformed output (including a metric that is not
    a finite number) or a timeout counts as a failed attempt; after
    ``retries`` re-attempts the evaluation is reported as failed. A missing
    executable raises instead, since no retry can fix it.
    """

    def __init__(
        self,
        command: Sequence[str],
        *,
        timeout_s: float = 600,
        retries: int = 2,
    ):
        _check_command(command)
        _check_timeout(timeout_s)
        _check_retries(retries)
        self.command = tuple(command)
        self.timeout_s = timeout_s
        self.retries = retries

    def evaluate(self, params: Mapping[str, str], workload: WorkloadSpec) -> SliResult:
        request = {
            "params": dict(params),
            "tenants": workload.tenants,
            "timeout_s": self.timeout_s,
        }
        if workload.rate_per_tenant is not None:
            request["rate_per_tenant"] = workload.rate_per_tenant
        payload = (json.dumps(request) + "\n").encode("utf-8")
        reason = "no attempts made"
        for attempt in range(self.retries + 1):
            try:
                proc = subprocess.run(
                    list(self.command),
                    input=payload,
                    capture_output=True,
                    timeout=self.timeout_s,
                )
            except subprocess.TimeoutExpired:
                reason = "timeout"
                logger.warning("external runner timed out (attempt %d)", attempt + 1)
                continue
            if proc.returncode != 0:
                reason = f"exit status {proc.returncode}"
                logger.warning(
                    "external runner failed with %s (attempt %d)", reason, attempt + 1
                )
                continue
            slis = self._parse_reply(proc.stdout)
            if slis is None:
                reason = "malformed output"
                logger.warning("external runner produced malformed output (attempt %d)", attempt + 1)
                continue
            return SliResult(slis=slis)
        return SliResult(failed=True, failure_reason=reason)

    @staticmethod
    def _parse_reply(stdout: bytes) -> dict[str, float] | None:
        """The reply's metrics, or None when it is not a non-empty map of
        finite numbers: NaN, Infinity and overflowing literals such as
        1e400 parse as floats but are no measurement."""
        try:
            doc = Fields(json.loads(stdout.decode("utf-8")), "")
            return {key: doc(key, float) for key in doc.value} or None
        except ValueError:  # also text that is not UTF-8 or not JSON
            return None
