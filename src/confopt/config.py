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
from .screening import BoundReductionReport, resolve_p
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

_IGNORED_TOP_KEYS = ("charts", "namespaceStrategy")
_IGNORED_SLA_KEYS = ("chartName",)


class ConfigError(ValueError):
    """A configuration file failed validation."""


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
    source_dir: Path = Path(".")

    @property
    def budget(self) -> int:
        return self.iterations * self.samples_per_iteration


def _require(mapping: dict, key: str, path: str):
    if key not in mapping:
        raise ConfigError(f"missing required key: {_join(path, key)}")
    return mapping[key]


def _join(path: str, key: str) -> str:
    return key if not path else f"{path}.{key}"


def _as_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path or 'document'}: expected a mapping")
    return value


def _as_list(value, path: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a list")
    return value


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return value


def _as_float(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return float(value)


def _as_str(value, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string, got {value!r}")
    return value


def _warn_unknown(mapping: dict, known: set[str], path: str) -> None:
    for key in mapping:
        if key not in known:
            logger.warning("ignoring unknown key: %s", _join(path, str(key)))


def _parse_parameter_list(entries, path: str) -> SearchSpace:
    specs = []
    for i, entry in enumerate(_as_list(entries, path)):
        entry_path = f"{path}[{i}]"
        entry = _as_mapping(entry, entry_path)
        _warn_unknown(entry, {"name", "searchspace", "suffix"}, entry_path)
        name = _as_str(_require(entry, "name", entry_path), f"{entry_path}.name")
        box_path = f"{entry_path}.searchspace"
        box = _as_mapping(_require(entry, "searchspace", entry_path), box_path)
        _warn_unknown(box, {"min", "max", "granularity"}, box_path)
        suffix = entry.get("suffix", "")
        if suffix is None:
            suffix = ""
        try:
            specs.append(
                ParameterSpec(
                    name=name,
                    minimum=_as_int(_require(box, "min", box_path), f"{box_path}.min"),
                    maximum=_as_int(_require(box, "max", box_path), f"{box_path}.max"),
                    granularity=_as_int(
                        _require(box, "granularity", box_path),
                        f"{box_path}.granularity",
                    ),
                    suffix=_as_str(suffix, f"{entry_path}.suffix"),
                    allow_single_level=True,
                )
            )
        except ValueError as exc:
            raise ConfigError(f"parameter {name!r}: {exc}") from None
    if not specs:
        raise ConfigError(f"{path}: at least one parameter required")
    try:
        return SearchSpace(tuple(specs))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _parse_backend(raw, path: str, source_dir: Path) -> BackendSettings:
    raw = _as_mapping(raw, path)
    kind = _as_str(_require(raw, "kind", path), f"{path}.kind")
    if kind not in ("synthetic", "replay", "external"):
        raise ConfigError(
            f"{path}.kind: expected synthetic, replay or external, got {kind!r}"
        )
    known = {"kind"}
    settings = BackendSettings(kind=kind)
    if kind == "synthetic":
        known.add("model")
        settings.model = source_dir / _as_str(
            _require(raw, "model", path), f"{path}.model"
        )
    elif kind == "replay":
        known.add("dataset")
        settings.dataset = source_dir / _as_str(
            _require(raw, "dataset", path), f"{path}.dataset"
        )
    else:
        known.update(("command", "timeout_s", "retries"))
        command = _require(raw, "command", path)
        if isinstance(command, str):
            settings.command = (command,)
        else:
            settings.command = tuple(
                _as_str(part, f"{path}.command[{i}]")
                for i, part in enumerate(_as_list(command, f"{path}.command"))
            )
        if "timeout_s" in raw:
            settings.timeout_s = _as_float(raw["timeout_s"], f"{path}.timeout_s")
        if "retries" in raw:
            settings.retries = _as_int(raw["retries"], f"{path}.retries")
    _warn_unknown(raw, known, path)
    return settings


def _parse_screening(raw, path: str) -> ScreeningSettings:
    raw = _as_mapping(raw, path)
    _warn_unknown(raw, {"r", "p", "relaxed_factor", "strict_factor"}, path)
    settings = ScreeningSettings()
    if "r" in raw:
        settings.r = _as_int(raw["r"], f"{path}.r")
    if "p" in raw and raw["p"] is not None:
        settings.p = _as_int(raw["p"], f"{path}.p")
    if "relaxed_factor" in raw:
        settings.relaxed_factor = _as_float(raw["relaxed_factor"], f"{path}.relaxed_factor")
    if "strict_factor" in raw:
        settings.strict_factor = _as_float(raw["strict_factor"], f"{path}.strict_factor")
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
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: malformed document: {exc}") from None
    document = _as_mapping(document, "")
    source_dir = path.parent

    for key in _IGNORED_TOP_KEYS:
        if key in document:
            logger.warning("ignoring deployment-only key: %s", key)

    iterations = _as_int(_require(document, "nbOfIterations", ""), "nbOfIterations")
    samples = _as_int(
        _require(document, "nbOfSamplesPerIteration", ""), "nbOfSamplesPerIteration"
    )
    if iterations < 1 or samples < 1:
        raise ConfigError(
            "nbOfIterations and nbOfSamplesPerIteration must be at least 1"
        )

    slas = _as_list(_require(document, "slas", ""), "slas")
    if len(slas) != 1:
        raise ConfigError(f"exactly one SLA is supported, got {len(slas)}")
    sla = _as_mapping(slas[0], "slas[0]")
    for key in _IGNORED_SLA_KEYS:
        if key in sla:
            logger.warning("ignoring deployment-only key: slas[0].%s", key)
    _warn_unknown(
        sla,
        {"name", "slos", "nbOfTenants", "ratePerTenant", "parameters"}
        | set(_IGNORED_SLA_KEYS),
        "slas[0]",
    )
    sla_name = _as_str(sla.get("name", "default"), "slas[0].name")

    slos = _as_mapping(_require(sla, "slos", "slas[0]"), "slas[0].slos")
    _warn_unknown(slos, {LATENCY_SLO_KEY, "throughput"}, "slas[0].slos")
    threshold = _as_float(
        _require(slos, LATENCY_SLO_KEY, "slas[0].slos"),
        f"slas[0].slos.{LATENCY_SLO_KEY}",
    )
    throughput_target = (
        _as_float(slos["throughput"], "slas[0].slos.throughput")
        if "throughput" in slos
        else None
    )

    tenants = _as_int(_require(sla, "nbOfTenants", "slas[0]"), "slas[0].nbOfTenants")
    rate = (
        _as_float(sla["ratePerTenant"], "slas[0].ratePerTenant")
        if "ratePerTenant" in sla
        else None
    )
    try:
        workload = WorkloadSpec(tenants=tenants, rate_per_tenant=rate)
        slo = SloSpec(threshold=threshold)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    space = _parse_parameter_list(_require(sla, "parameters", "slas[0]"), "slas[0].parameters")

    optimizer = _as_str(_require(document, "optimizer", ""), "optimizer").lower()
    if optimizer not in OPTIMIZERS:
        raise ConfigError(
            f"unknown optimizer {optimizer!r}; valid names: "
            f"{', '.join(sorted(OPTIMIZERS))}"
        )
    util_func = _as_str(_require(document, "utilFunc", ""), "utilFunc")
    if util_func not in UTILITY_FUNCTIONS:
        raise ConfigError(
            f"unknown utilFunc {util_func!r}; valid names: "
            f"{', '.join(sorted(UTILITY_FUNCTIONS))}"
        )
    output_dir = Path(
        os.environ.get("CONFOPT_OUT")
        or _as_str(_require(document, "outputDir", ""), "outputDir")
    )

    seed = _as_int(document.get("seed", 0), "seed")
    screening = (
        _parse_screening(document["screening"], "screening")
        if "screening" in document
        else ScreeningSettings()
    )
    backend = (
        _parse_backend(document["backend"], "backend", source_dir)
        if "backend" in document
        else None
    )

    cost_reference = None
    if "costReference" in document:
        cost_reference = _parse_parameter_list(document["costReference"], "costReference")
        if cost_reference.names != space.names:
            raise ConfigError(
                "costReference parameter names must match slas[0].parameters"
            )
    cost_weights = None
    if "costWeights" in document:
        raw_weights = _as_mapping(document["costWeights"], "costWeights")
        _warn_unknown(raw_weights, set(space.names), "costWeights")
        values = []
        for name in space.names:
            values.append(
                _as_float(
                    _require(raw_weights, name, "costWeights"), f"costWeights.{name}"
                )
            )
        try:
            cost_weights = CostWeights(tuple(values))
        except ValueError as exc:
            raise ConfigError(f"costWeights: {exc}") from None

    _warn_unknown(
        document,
        {
            "nbOfIterations",
            "nbOfSamplesPerIteration",
            "slas",
            "optimizer",
            "utilFunc",
            "outputDir",
            "seed",
            "screening",
            "backend",
            "costReference",
            "costWeights",
        }
        | set(_IGNORED_TOP_KEYS),
        "",
    )

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
        source_dir=source_dir,
    )


def build_backend(config: RunConfig) -> Backend | ReplayBackend:
    """Instantiate the configured backend (ConfigError when absent)."""
    settings = config.backend
    if settings is None:
        raise ConfigError(
            "this command needs a backend block "
            "(backend: {kind: synthetic|replay|external, ...})"
        )
    if settings.kind == "synthetic":
        try:
            model = load_service_model(settings.model)
        except OSError as exc:
            raise ConfigError(f"backend.model: {settings.model}: {exc.strerror}") from None
        except ValueError as exc:  # its messages start with the file name
            raise ConfigError(str(exc)) from None
        except yaml.YAMLError as exc:
            raise ConfigError(f"backend.model: {settings.model}: {exc}") from None
        return SyntheticBackend(model, seed=config.seed)
    if settings.kind == "replay":
        from .harness import load_dataset

        try:
            backend = load_dataset(settings.dataset, slo=config.slo).replay_backend()
        except OSError as exc:
            raise ConfigError(f"backend.dataset: {settings.dataset}: {exc.strerror}") from None
        except ValueError as exc:  # its messages start with the file name
            raise ConfigError(f"backend.dataset: {exc}") from None
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
