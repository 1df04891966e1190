"""Run-configuration files: parsing, validation, and emission.

The accepted document shape follows the established deployment-tuner
convention (``nbOfIterations``, ``slas`` with ``slos``/``nbOfTenants``/
``parameters``, ``optimizer``, ``utilFunc``, ``outputDir``), so existing
config files load unchanged. Deployment-only keys (``charts``,
``namespaceStrategy``, ``chartName``) are accepted and ignored with a
warning. Keys this artifact adds on top: ``backend``, ``seed``,
``screening``, ``costReference``, ``costWeights``, and ``ratePerTenant``.

Parsing is strict: unknown keys warn with their path, missing required
keys raise :class:`ConfigError` naming the path.
"""

from __future__ import annotations

import logging
import math
import os
import re
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .backends import (
    Backend,
    ExternalBackend,
    ReplayBackend,
    SyntheticBackend,
    load_service_model,
)
from .optim import OPTIMIZERS
from .screening import SETTING_CHECKS, BoundReductionReport, resolve_p
from .space import ParameterSpec, SearchSpace
from .utility import CostWeights, SloSpec, UTILITY_FUNCTIONS, WorkloadSpec

__all__ = [
    "ConfigError",
    "ScreeningSettings",
    "BackendSettings",
    "RunConfig",
    "parse_config",
    "build_backend",
    "emit_config",
    "emit_reduced_config",
    "dump_config",
    "LATENCY_SLO_KEY",
]

logger = logging.getLogger(__name__)

#: Latency-SLO key in the ``slos`` map. YAML reads it as the string "99th".
LATENCY_SLO_KEY = "99th"


class ConfigError(ValueError):
    """A configuration file failed validation. A number of more than 30
    digits in the message is shortened to its first and last three digits
    and its digit count."""

    def __init__(self, message: str):
        super().__init__(_LONG_NUMBER.sub(_shortened, message))


_LONG_NUMBER = re.compile(r"\d{31,}")


def _shortened(match: re.Match) -> str:
    digits = match[0]
    return f"{digits[:3]}...{digits[-3:]} ({len(digits)} digits)"


@dataclass(eq=False)
class ScreeningSettings:
    r: int = 10
    p: int | None = None
    relaxed_factor: float = 1.25
    strict_factor: float = 0.75


@dataclass(eq=False)
class BackendSettings:
    kind: str
    model: Path | None = None
    dataset: Path | None = None
    command: tuple[str, ...] | None = None
    timeout_s: float = 600.0
    retries: int = 2


@dataclass(eq=False)
class RunConfig:
    iterations: int
    samples_per_iteration: int
    sla_name: str
    slo: SloSpec
    throughput_target: float | None
    workload: WorkloadSpec
    space: SearchSpace
    optimizer: str
    util_func: str
    output_dir: Path
    seed: int = 0
    screening: ScreeningSettings = field(default_factory=ScreeningSettings)
    backend: BackendSettings | None = None
    cost_reference: SearchSpace | None = None
    cost_weights: CostWeights | None = None

    @property
    def budget(self) -> int:
        return self.iterations * self.samples_per_iteration


class _Fields:
    """One mapping of the config document, read one field at a time.

    Each read names its field by dotted path, fails when a required key is
    absent or the value has the wrong kind (a bool is not a number, an int
    passes as a float, a float must be finite) and records the key, so
    :meth:`done` can warn about every key that no read asked for.
    """

    def __init__(self, value, path: str):
        if not isinstance(value, dict):
            raise ConfigError(f"{path or 'document'}: expected a mapping")
        self.value, self.path, self.read = value, path, set()

    def at(self, key) -> str:
        return f"{self.path}.{key}" if self.path else str(key)

    def __call__(self, key: str, kind: type, *default, nullable: bool = False):
        """The value at ``key`` checked as ``kind`` (a mapping comes back as
        ``_Fields``), or the optional ``default`` when the key is absent, or
        null and ``nullable``."""
        self.read.add(key)
        value = self.value.get(key)
        if key not in self.value or (nullable and value is None):
            if not default:
                raise ConfigError(f"missing required key: {self.at(key)}")
            return default[0]
        return _checked(value, kind, self.at(key))

    def ignore(self, *keys: str) -> None:
        """Deployment-only keys: warned about when present, never read."""
        for key in keys:
            if key in self.value:
                logger.warning("ignoring deployment-only key: %s", self.at(key))
        self.read.update(keys)

    def done(self) -> None:
        for key in self.value:
            if key not in self.read:
                logger.warning("ignoring unknown key: %s", self.at(key))


def _checked(value, kind: type, path: str):
    if kind is dict:
        return _Fields(value, path)
    if kind is list:
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected a list")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        expected = {int: "an integer", float: "a number", str: "a string"}[kind]
        raise ConfigError(f"{path}: expected {expected}, got {value!r}")
    if kind is float:
        try:
            value = float(value)
        except OverflowError:
            raise ConfigError(
                f"{path}: expected a finite number, got an integer beyond the float range"
            ) from None
        if not math.isfinite(value):
            raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return value


def _parse_parameters(entries: list, path: str) -> SearchSpace:
    specs = []
    for i, raw in enumerate(entries):
        entry = _Fields(raw, f"{path}[{i}]")
        name = entry("name", str)
        box = entry("searchspace", dict)
        bounds = [box(key, int) for key in ("min", "max", "granularity")]
        suffix = entry("suffix", str, "", nullable=True)
        box.done()
        entry.done()
        try:
            specs.append(ParameterSpec(name, *bounds, suffix=suffix, allow_single_level=True))
        except ValueError as exc:
            raise ConfigError(f"{entry.path}: {exc}") from None
    if not specs:
        raise ConfigError(f"{path}: at least one parameter required")
    try:
        return SearchSpace(tuple(specs))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _parse_backend(raw: _Fields, source_dir: Path) -> BackendSettings:
    kind = raw("kind", str)
    if kind not in ("synthetic", "replay", "external"):
        raise ConfigError(
            f"{raw.at('kind')}: expected synthetic, replay or external, got {kind!r}"
        )
    settings = BackendSettings(kind=kind)
    if kind == "synthetic":
        settings.model = source_dir / raw("model", str)
    elif kind == "replay":
        settings.dataset = source_dir / raw("dataset", str)
    else:
        if isinstance(raw.value.get("command"), str):
            settings.command = (raw("command", str),)
        else:
            settings.command = tuple(
                _checked(part, str, f"{raw.at('command')}[{i}]")
                for i, part in enumerate(raw("command", list))
            )
        settings.timeout_s = raw("timeout_s", float, settings.timeout_s)
        settings.retries = raw("retries", int, settings.retries)
    raw.done()
    return settings


def _parse_screening(raw: _Fields) -> ScreeningSettings:
    settings = ScreeningSettings()
    settings.r = raw("r", int, settings.r)
    settings.p = raw("p", int, settings.p, nullable=True)
    settings.relaxed_factor = raw("relaxed_factor", float, settings.relaxed_factor)
    settings.strict_factor = raw("strict_factor", float, settings.strict_factor)
    raw.done()
    for name, check in SETTING_CHECKS.items():
        value = getattr(settings, name)
        if value is None:
            continue
        try:
            check(value)
        except ValueError as exc:
            raise ConfigError(f"{raw.at(name)}: {exc}") from None
    return settings


def parse_config(path: str | Path) -> RunConfig:
    """Parse and validate a run-configuration file.

    ``CONFOPT_OUT`` in the environment overrides ``outputDir``. Relative
    backend paths resolve against the config file's directory.
    """
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = yaml.safe_load(handle)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (yaml.YAMLError, ValueError) as exc:
        raise ConfigError(f"{path}: malformed document: {exc}") from None
    top = _Fields(document, "")
    top.ignore("charts", "namespaceStrategy")

    iterations = top("nbOfIterations", int)
    samples = top("nbOfSamplesPerIteration", int)
    if iterations < 1 or samples < 1:
        raise ConfigError(
            "nbOfIterations and nbOfSamplesPerIteration must be at least 1"
        )

    slas = top("slas", list)
    if len(slas) != 1:
        raise ConfigError(f"exactly one SLA is supported, got {len(slas)}")
    sla = _Fields(slas[0], "slas[0]")
    sla.ignore("chartName")
    sla_name = sla("name", str, "default")

    slos = sla("slos", dict)
    threshold = slos(LATENCY_SLO_KEY, float)
    throughput_target = slos("throughput", float, None)
    slos.done()

    tenants = sla("nbOfTenants", int)
    rate = sla("ratePerTenant", float, None)
    try:
        workload = WorkloadSpec(tenants=tenants, rate_per_tenant=rate)
        slo = SloSpec(threshold=threshold)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    space = _parse_parameters(sla("parameters", list), sla.at("parameters"))
    sla.done()

    optimizer = top("optimizer", str).lower()
    if optimizer not in OPTIMIZERS:
        raise ConfigError(
            f"unknown optimizer {optimizer!r}; valid names: "
            f"{', '.join(sorted(OPTIMIZERS))}"
        )
    util_func = top("utilFunc", str)
    if util_func not in UTILITY_FUNCTIONS:
        raise ConfigError(
            f"unknown utilFunc {util_func!r}; valid names: "
            f"{', '.join(sorted(UTILITY_FUNCTIONS))}"
        )
    top.read.add("outputDir")  # a known key, also when CONFOPT_OUT overrides it
    output_dir = Path(os.environ.get("CONFOPT_OUT") or top("outputDir", str))

    seed = top("seed", int, 0)
    if seed < 0:
        raise ConfigError(f"seed: expected a non-negative integer, got {seed}")
    screening = top("screening", dict, None)
    screening = ScreeningSettings() if screening is None else _parse_screening(screening)
    backend = top("backend", dict, None)
    if backend is not None:
        backend = _parse_backend(backend, path.parent)

    cost_reference = top("costReference", list, None)
    if cost_reference is not None:
        cost_reference = _parse_parameters(cost_reference, "costReference")
        if cost_reference.names != space.names:
            raise ConfigError(
                "costReference parameter names must match slas[0].parameters"
            )
    cost_weights = top("costWeights", dict, None)
    if cost_weights is not None:
        values = tuple(cost_weights(name, float) for name in space.names)
        cost_weights.done()
        try:
            cost_weights = CostWeights(values)
        except ValueError as exc:
            raise ConfigError(f"costWeights: {exc}") from None
    top.done()

    return RunConfig(
        iterations=iterations,
        samples_per_iteration=samples,
        sla_name=sla_name,
        slo=slo,
        throughput_target=throughput_target,
        workload=workload,
        space=space,
        optimizer=optimizer,
        util_func=util_func,
        output_dir=output_dir,
        seed=seed,
        screening=screening,
        backend=backend,
        cost_reference=cost_reference,
        cost_weights=cost_weights,
    )


def _load(field: str, path: Path, load):
    """``load(path)``; a file it cannot read or accept is a ConfigError
    that names the field and the path."""
    try:
        return load(path)
    except (OSError, ValueError, yaml.YAMLError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else str(exc).removeprefix(f"{path}: ")
        raise ConfigError(f"backend.{field}: {path}: {reason}") from None


def build_backend(config: RunConfig) -> Backend | ReplayBackend:
    """Instantiate the configured backend (ConfigError when absent)."""
    settings = config.backend
    if settings is None:
        raise ConfigError(
            "this command needs a backend block "
            "(backend: {kind: synthetic|replay|external, ...})"
        )
    if settings.kind == "synthetic":
        model = _load("model", settings.model, load_service_model)
        return SyntheticBackend(model, seed=config.seed)
    if settings.kind == "replay":
        from .harness import load_dataset

        backend = _load(
            "dataset",
            settings.dataset,
            lambda path: load_dataset(path, slo=config.slo).replay_backend(),
        )
        try:
            backend.stored_order(config.space)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        return backend
    return ExternalBackend(
        settings.command, timeout_s=settings.timeout_s, retries=settings.retries
    )


def _parameter_entries(space: SearchSpace) -> list[dict]:
    return [
        {
            "name": p.name,
            "searchspace": {
                "min": p.minimum,
                "max": p.maximum,
                "granularity": p.granularity,
            },
            "suffix": p.suffix,
        }
        for p in space.parameters
    ]


def emit_config(config: RunConfig, space: SearchSpace | None = None) -> dict:
    """Render a config back to its wire mapping (insertion order fixed)."""
    space = space if space is not None else config.space
    slos: dict = {LATENCY_SLO_KEY: config.slo.threshold}
    if config.throughput_target is not None:
        slos["throughput"] = config.throughput_target
    sla: dict = {"name": config.sla_name, "slos": slos, "nbOfTenants": config.workload.tenants}
    if config.workload.rate_per_tenant is not None:
        sla["ratePerTenant"] = config.workload.rate_per_tenant
    sla["parameters"] = _parameter_entries(space)

    document: dict = {
        "nbOfIterations": config.iterations,
        "nbOfSamplesPerIteration": config.samples_per_iteration,
        "slas": [sla],
        "optimizer": config.optimizer,
        "utilFunc": config.util_func,
        "outputDir": str(config.output_dir),
        "seed": config.seed,
        "screening": {
            "r": config.screening.r,
            "relaxed_factor": config.screening.relaxed_factor,
            "strict_factor": config.screening.strict_factor,
        },
    }
    if config.screening.p is not None:
        document["screening"]["p"] = config.screening.p
    if config.backend is not None:
        backend: dict = {"kind": config.backend.kind}
        if config.backend.kind == "synthetic":
            backend["model"] = str(config.backend.model.absolute())
        elif config.backend.kind == "replay":
            backend["dataset"] = str(config.backend.dataset.absolute())
        else:
            backend["command"] = list(config.backend.command)
            backend["timeout_s"] = config.backend.timeout_s
            backend["retries"] = config.backend.retries
        document["backend"] = backend
    if config.cost_reference is not None:
        document["costReference"] = _parameter_entries(config.cost_reference)
    if config.cost_weights is not None:
        document["costWeights"] = {
            name: weight
            for name, weight in zip(space.names, config.cost_weights.weights)
        }
    return document


def emit_reduced_config(config: RunConfig, reduction: BoundReductionReport) -> dict:
    """Wire mapping for the post-screening config: reduced bounds in
    ``parameters``, pre-reduction bounds carried as ``costReference`` so
    allocation costs stay comparable across the reduction, and the
    screening ``p`` the config resolves to, since the reduced space's level
    counts almost always differ."""
    document = emit_config(config, space=reduction.reduced_space)
    try:
        document["screening"]["p"] = resolve_p(config.space, config.screening.p)
    except ValueError:
        pass  # no p: this config cannot drive a screening either
    reference = config.cost_reference if config.cost_reference is not None else config.space
    document["costReference"] = _parameter_entries(reference)
    return document


def dump_config(document: dict, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        yaml.safe_dump(document, handle, sort_keys=False)
