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

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import yaml

from .backends import (
    EXTERNAL_CHECKS,
    Backend,
    ExternalBackend,
    ReplayBackend,
    SyntheticBackend,
    load_service_model,
)
from .fields import ConfigError, Fields, load_yaml
from .optim import check_optimizer
from .screening import SETTING_CHECKS, BoundReductionReport, resolve_p
from .space import ParameterSpec, SearchSpace
from .utility import CostWeights, SloSpec, WorkloadSpec, get_utility

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

#: Latency-SLO key in the ``slos`` map. YAML reads it as the string "99th".
LATENCY_SLO_KEY = "99th"


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

    @property
    def screening_p(self) -> int:
        """The screening level count: ``screening.p``, or else the
        parameters' common level count."""
        return _build("screening.p", resolve_p, self.space, self.screening.p)


def _parse_parameters(entries: list, path: str) -> SearchSpace:
    specs = []
    for i, raw in enumerate(entries):
        entry = Fields(raw, f"{path}[{i}]")
        name = entry("name", str)
        box = entry("searchspace", dict)
        bounds = [box(key, int) for key in ("min", "max", "granularity")]
        suffix = entry("suffix", str, "", nullable=True)
        box.done()
        entry.done()
        try:
            specs.append(ParameterSpec(name, *bounds, suffix=suffix))
        except ValueError as exc:
            raise ConfigError(f"{entry.path}: {exc}") from None
    if not specs:
        raise ConfigError(f"{path}: at least one parameter required")
    try:
        return SearchSpace(tuple(specs))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _parse_backend(raw: Fields, source_dir: Path) -> BackendSettings:
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
                raw.checked(part, str, f"{raw.at('command')}[{i}]")
                for i, part in enumerate(raw("command", list))
            )
        settings.timeout_s = raw("timeout_s", float, settings.timeout_s)
        settings.retries = raw("retries", int, settings.retries)
        _apply_checks(raw, settings, EXTERNAL_CHECKS)
    raw.done()
    return settings


def _parse_screening(raw: Fields) -> ScreeningSettings:
    settings = ScreeningSettings()
    settings.r = raw("r", int, settings.r)
    settings.p = raw("p", int, settings.p, nullable=True)
    settings.relaxed_factor = raw("relaxed_factor", float, settings.relaxed_factor)
    settings.strict_factor = raw("strict_factor", float, settings.strict_factor)
    raw.done()
    _apply_checks(raw, settings, SETTING_CHECKS)
    return settings


def _apply_checks(raw: Fields, settings: object, checks: dict[str, Callable]) -> None:
    """Run the rule a component applies to each of its settings, so that a
    value it would refuse is a config error naming the field."""
    for name, check in checks.items():
        value = getattr(settings, name)
        if value is not None:
            _build(raw.at(name), check, value)


def _build(path: str, build: Callable, *args):
    """``build(*args)``; a value it refuses is a config error naming ``path``."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def parse_config(path: str | Path) -> RunConfig:
    """Parse and validate a run-configuration file.

    ``CONFOPT_OUT`` in the environment overrides ``outputDir``. Relative
    backend paths resolve against the config file's directory.
    """
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = load_yaml(handle)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (yaml.YAMLError, ValueError) as exc:
        raise ConfigError(f"{path}: malformed document: {exc}") from None
    top = Fields(document, "")
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
    sla = Fields(slas[0], "slas[0]")
    sla.ignore("chartName")
    sla_name = sla("name", str, "default")

    slos = sla("slos", dict)
    threshold = slos(LATENCY_SLO_KEY, float)
    throughput_target = slos("throughput", float, None)
    slos.done()

    tenants = sla("nbOfTenants", int)
    rate = sla("ratePerTenant", float, None)
    _build(sla.at("nbOfTenants"), WorkloadSpec, tenants)  # alone, to name its field
    workload = _build(sla.at("ratePerTenant"), WorkloadSpec, tenants, rate)
    slo = _build(slos.at(LATENCY_SLO_KEY), SloSpec, threshold)

    space = _parse_parameters(sla("parameters", list), sla.at("parameters"))
    sla.done()

    optimizer = _build("optimizer", check_optimizer, top("optimizer", str))
    if optimizer == "moat" and iterations * samples <= space.dimension:
        message = f"a budget of {iterations * samples} cannot fund one moat trajectory"
        raise ConfigError(f"nbOfIterations: {message} of {space.dimension + 1} evaluations")
    util_func = top("utilFunc", str)
    _build("utilFunc", get_utility, util_func)
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
        for i, (reference, spec) in enumerate(zip(cost_reference.parameters, space.parameters)):
            try:  # the first two levels and the last on its grid cover them all
                for value in (*spec.levels()[:2], spec.maximum):
                    reference.index_of(value)
            except ValueError as exc:
                raise ConfigError(f"costReference[{i}]: misses a configured level: {exc}") from None
    cost_weights = top("costWeights", dict, None)
    if cost_weights is not None:
        values = tuple(cost_weights(name, float) for name in space.names)
        cost_weights.done()
        negative = [name for name, value in zip(space.names, values) if value < 0]
        path = cost_weights.at(negative[0]) if negative else "costWeights"
        cost_weights = _build(path, CostWeights, values)
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
    except OSError as exc:
        raise ConfigError(f"backend.{field}: {path}: {exc.strerror}") from None
    except ValueError as exc:  # its message names the file
        raise ConfigError(f"backend.{field}: {exc}") from None


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

        dataset = _load("dataset", settings.dataset, lambda p: load_dataset(p, slo=config.slo))
        backend = dataset.replay_backend()
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
        document["screening"]["p"] = config.screening_p
    except ConfigError:
        pass  # no p: this config cannot drive a screening either
    reference = config.cost_reference if config.cost_reference is not None else config.space
    document["costReference"] = _parameter_entries(reference)
    return document


def dump_config(document: dict, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        yaml.safe_dump(document, handle, sort_keys=False)
