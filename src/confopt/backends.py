"""Experiment backends: how a configuration gets measured.

Measuring backends implement one contract: take a rendered parameter map
and a workload, return service-level indicators. Two are provided:

* synthetic, a closed-form queueing approximation of a small service chain,
  for fast offline studies;
* external, a child process speaking a one-line JSON protocol, for wiring
  in real load generators.

Replay is not a measuring backend: :class:`ReplayBackend` looks up stored,
already scored rows of a collected dataset, and ``harness.Evaluator``
returns those rows instead of rendering and scoring anything.

Backends are safe to call concurrently; the synthetic one derives its noise
stream per call from the configuration itself, so results do not depend on
call order.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import re
import subprocess
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Protocol, Sequence

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
    """A measuring backend; see :class:`ReplayBackend` for stored rows."""

    def evaluate(self, params: Mapping[str, str], workload: WorkloadSpec) -> SliResult:
        """Measure one rendered configuration under the given workload."""
        ...


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


class SyntheticBackend:
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

    def evaluate(self, params: Mapping[str, str], workload: WorkloadSpec) -> SliResult:
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
            p99 *= self._noise(params, workload)
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

    def _noise(self, params: Mapping[str, str], workload: WorkloadSpec) -> float:
        # Seed per configuration, not per call, so results are independent
        # of evaluation order and safe under concurrency.
        text = ",".join(f"{k}={v}" for k, v in params.items())
        token = f"{self.seed}|{workload.tenants}|{workload.rate_per_tenant}|{text}"
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        rng = np.random.default_rng(int.from_bytes(digest[:8], "big"))
        return float(rng.lognormal(mean=0.0, sigma=self.model.noise_sigma))


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


class ExternalBackend:
    """Delegate measurement to a child process.

    Protocol: one UTF-8, newline-terminated JSON object per direction. The
    request carries ``params`` (rendered string map), ``tenants``,
    ``timeout_s`` and, when configured, ``rate_per_tenant``. The reply is a
    flat metric map such as ``{"p99_latency_ms": 850, "throughput_rps": 40}``.

    A nonzero exit status, malformed output or a timeout counts as a failed
    attempt; after ``retries`` re-attempts the evaluation is reported as
    failed. A missing executable raises instead, since no retry can fix it.
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
            slis[key] = float(value)
        return slis
