"""Experiment backends: how a configuration gets measured.

Measuring backends implement one contract: take a rendered parameter map
and a workload, return service-level indicators. Two are provided:

* synthetic, a closed-form queueing approximation of a small service chain,
  for fast offline studies;
* external, a child process speaking a one-line JSON protocol, for wiring
  in real load generators.

``Backend.evaluate_many`` measures a stream of configurations and yields
one result per configuration as it is measured. The synthetic backend
overrides it to seed a batch of rows' noise at once; the external one
keeps the default, one run of the child process per configuration.

Replay is not a measuring backend: :class:`ReplayBackend` looks up stored,
already scored rows of a collected dataset, and ``harness.Evaluator``
returns those rows instead of rendering and scoring anything.

Backends are safe to call concurrently. The synthetic one seeds each
configuration's noise from a hash of the configuration itself, so results
do not depend on call order or on how the rows were batched.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import math
import re
import subprocess
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Protocol, Sequence

import numpy as np
import yaml

from .utility import WorkloadSpec

if TYPE_CHECKING:
    from .optim import Observation
    from .space import SearchSpace

__all__ = [
    "SliResult",
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


class Backend(Protocol):
    """A measuring backend; see :class:`ReplayBackend` for stored rows.

    Subclasses define ``evaluate`` and inherit ``evaluate_many``. An object
    that only defines ``evaluate`` serves too: ``harness.Evaluator`` then
    applies this class's ``evaluate_many`` to it.
    """

    def evaluate(self, params: Mapping[str, str], workload: WorkloadSpec) -> SliResult:
        """Measure one rendered configuration under the given workload."""
        ...

    def evaluate_many(
        self, params_seq: Iterable[Mapping[str, str]], workload: WorkloadSpec
    ) -> Iterator[SliResult]:
        """Measure each rendered configuration in turn, lazily: a result is
        yielded as soon as it is measured, so a caller can keep the rows
        measured before a later one raises."""
        for params in params_seq:
            yield self.evaluate(params, workload)


_INT_PREFIX = re.compile(r"^[+-]?\d+")


def _parse_quantity(name: str, rendered: str) -> int:
    """Integer prefix of a rendered value, e.g. ``"750m"`` -> 750."""
    match = _INT_PREFIX.match(rendered)
    if match is None:
        raise ValueError(f"parameter {name!r}: cannot parse quantity {rendered!r}")
    return int(match.group())


# -- synthetic ---------------------------------------------------------------


_SERVICE_FIELDS = ("base_ms", "cpu_demand_mc", "mem_working_set_mi")
_MODEL_FIELDS = {"services", "chain", "p99_factor", "mem_penalty", "noise_sigma"}


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


def _number(value, field_path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{field_path}: expected a number, got {value!r}")
    return float(value)


def load_service_model(path: str) -> ServiceModelSpec:
    """Read a :class:`ServiceModelSpec` from a YAML document; every error
    names the file and, where there is one, the service and field."""
    with open(path, "r", encoding="utf-8") as handle:
        doc = yaml.safe_load(handle)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a mapping at top level")
    unknown = set(doc) - _MODEL_FIELDS
    if unknown:
        raise ValueError(f"{path}: unknown model fields: {sorted(unknown)}")
    missing = _MODEL_FIELDS - {"noise_sigma"} - set(doc)
    if missing:
        raise ValueError(f"{path}: missing model fields: {sorted(missing)}")
    if not isinstance(doc["services"], dict):
        raise ValueError(f"{path}: services: expected a mapping of service names to fields")
    chain = doc["chain"]
    if not isinstance(chain, list) or not all(isinstance(name, str) for name in chain):
        raise ValueError(f"{path}: chain: expected a list of service names, got {chain!r}")
    try:
        services = []
        for name, fields in doc["services"].items():
            if not isinstance(fields, dict) or set(fields) != set(_SERVICE_FIELDS):
                raise ValueError(f"service {name!r}: expected the fields {list(_SERVICE_FIELDS)}")
            numbers = {k: _number(v, f"service {name!r}: {k}") for k, v in fields.items()}
            services.append(ServiceSpec(name=name, **numbers))
        return ServiceModelSpec(
            services=tuple(services),
            chain=tuple(chain),
            p99_factor=_number(doc["p99_factor"], "p99_factor"),
            mem_penalty=_number(doc["mem_penalty"], "mem_penalty"),
            noise_sigma=_number(doc.get("noise_sigma", 0.0), "noise_sigma"),
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# Each configuration's noise is drawn from ``default_rng(entropy)``, whose
# seeding builds a ``SeedSequence``: O'Neill's seed_seq_fe hash of the
# entropy's 32-bit words, about 17 µs a row. ``_seed_states`` computes that
# hash for a whole batch of entropies in uint32 arrays, word for word as
# numpy does, and ``_SeedState`` hands one row's result to ``PCG64``.

#: Configurations whose noise seeds are derived in one pass; the dataset
#: reader's chunk in ``harness``.
_NOISE_CHUNK = 4096
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
        # (service, rendered cpu, rendered memory, tenants) -> the service's
        # latency in ms, or None when it runs out of memory. A grid repeats
        # each service's few settings across many configurations.
        self._latencies: dict[tuple[str, str, str, int], float | None] = {}

    def evaluate(
        self,
        params: Mapping[str, str],
        workload: WorkloadSpec,
        *,
        noise_seed: np.ndarray | None = None,
    ) -> SliResult:
        """Measure one configuration. ``noise_seed`` is the configuration's
        row of :meth:`_noise_seeds`, derived here when not given."""
        model = self.model
        total_ms = 0.0
        for service in self._chain:
            name, _, cpu_key, mem_key = service
            try:
                key = (name, params[cpu_key], params[mem_key], workload.tenants)
            except KeyError as exc:
                raise ValueError(f"configuration is missing parameter {exc.args[0]!r}") from None
            try:
                latency = self._latencies[key]
            except KeyError:
                latency = self._latencies[key] = self._latency(service, *key[1:])
            if latency is None:
                return SliResult(failed=True, failure_reason=f"{name} out of memory")
            total_ms += latency
        p99 = model.p99_factor * total_ms
        if model.noise_sigma > 0:
            if noise_seed is None:
                (noise_seed,) = self._noise_seeds([params], workload)
            rng = np.random.Generator(np.random.PCG64(_SeedState(noise_seed)))
            p99 *= float(rng.lognormal(mean=0.0, sigma=model.noise_sigma))
        throughput = workload.tenants * 1000.0 / total_ms
        return SliResult(slis={"p99_latency_ms": p99, "throughput_rps": throughput})

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

    def evaluate_many(
        self, params_seq: Iterable[Mapping[str, str]], workload: WorkloadSpec
    ) -> Iterator[SliResult]:
        """Measure each configuration in turn, deriving the noise seeds of
        up to ``_NOISE_CHUNK`` configurations at once. Seeding needs only
        the configurations' text, so a row that raises does so after every
        row before it has been yielded. Without noise nothing is batched
        and no configuration is read ahead."""
        if self.model.noise_sigma == 0:
            yield from super().evaluate_many(params_seq, workload)
            return
        rows = iter(params_seq)
        for chunk in iter(lambda: list(itertools.islice(rows, _NOISE_CHUNK)), []):
            for params, seed in zip(chunk, self._noise_seeds(chunk, workload)):
                yield self.evaluate(params, workload, noise_seed=seed)

    def _noise_seeds(
        self, params_seq: Sequence[Mapping[str, str]], workload: WorkloadSpec
    ) -> np.ndarray:
        """Noise seed words, one row per configuration. A configuration's
        entropy is a hash of the backend seed, the workload and the
        configuration's text, never of the call, so results are independent
        of evaluation order and safe under concurrency."""
        prefix = f"{self.seed}|{workload.tenants}|{workload.rate_per_tenant}|"
        digests = b"".join(
            hashlib.sha256(
                (prefix + ",".join(map("=".join, params.items()))).encode("utf-8")
            ).digest()[:8]
            for params in params_seq
        )
        return _seed_states(np.frombuffer(digests, dtype=">u8"))


# -- replay ------------------------------------------------------------------


class ReplayBackend:
    """Exact lookup of previously measured and scored configurations.

    Built from a collected dataset; see ``Dataset.replay_backend``. Rows are
    keyed by settings in the dataset's own parameter order;
    ``harness.Evaluator`` maps a search space onto that order by parameter
    name. A lookup miss is a hard error carrying the canonical configuration
    text, never a silent re-measurement.
    """

    def __init__(self, space: "SearchSpace", rows: Mapping[tuple[int, ...], "Observation"]):
        self.space = space
        self._rows = rows

    def lookup(self, settings: tuple[int, ...]) -> "Observation":
        try:
            return self._rows[settings]
        except KeyError:
            from .space import Configuration

            text = self.space.config_text(Configuration(settings))
            raise KeyError(f"configuration not in dataset: {text}") from None


# -- external ----------------------------------------------------------------


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
        if not command:
            raise ValueError("external backend needs a non-empty command")
        if timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {timeout_s}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
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
        try:
            doc = json.loads(stdout.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None
        if not isinstance(doc, dict) or not doc:
            return None
        slis = {}
        for key, value in doc.items():
            if not isinstance(key, str) or isinstance(value, bool) or not isinstance(value, (int, float)):
                return None
            try:
                slis[key] = float(value)
            except OverflowError:  # an integer beyond the float range
                return None
            # NaN, Infinity and overflowing literals such as 1e400 parse as
            # floats but are no measurement.
            if not math.isfinite(slis[key]):
                return None
        return slis
