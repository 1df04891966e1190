from __future__ import annotations

import copy
import functools
import logging
import math
import operator
import re
import shutil
from pathlib import Path

import pytest
import yaml

from confopt import bundled_path
from confopt.backends import ExternalBackend, ReplayBackend, SyntheticBackend, load_service_model
from confopt.cli import main
from confopt.config import (
    ConfigError,
    build_backend,
    dump_config,
    emit_config,
    emit_reduced_config,
    parse_config,
)
from confopt.harness import collect_exhaustive, write_dataset_csv
from confopt.screening import reduce_bounds, run_screening
from confopt.space import ParameterSpec, SearchSpace
from confopt.utility import SloSpec, WorkloadSpec, get_utility


def base_document():
    """A full configuration in the wire layout, storefront flavored."""
    return {
        "nbOfIterations": 10,
        "nbOfSamplesPerIteration": 6,
        "charts": [{"name": "storefront", "chartdir": "./charts/storefront"}],
        "slas": [
            {
                "name": "checkout",
                "chartName": "storefront",
                "slos": {"throughput": 400, "99th": 1000.0},
                "nbOfTenants": 10,
                "parameters": [
                    {
                        "name": "webCpu",
                        "searchspace": {"min": 500, "max": 1125, "granularity": 125},
                        "suffix": "m",
                    },
                    {
                        "name": "webMemory",
                        "searchspace": {"min": 256, "max": 1024, "granularity": 256},
                        "suffix": "Mi",
                    },
                ],
            }
        ],
        "namespaceStrategy": "single",
        "optimizer": "bayesian-ei",
        "utilFunc": "slo-cost",
        "outputDir": "./results",
    }


def write_config(tmp_path, document, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(document, sort_keys=False))
    return path


@pytest.fixture(autouse=True)
def no_out_override(monkeypatch):
    monkeypatch.delenv("CONFOPT_OUT", raising=False)


class TestParse:
    def test_core_fields(self, tmp_path):
        config = parse_config(write_config(tmp_path, base_document()))
        assert config.iterations == 10
        assert config.samples_per_iteration == 6
        assert config.budget == 60
        assert config.sla_name == "checkout"
        assert config.slo.threshold == 1000.0
        assert config.slo.metric == "p99_latency_ms"
        assert config.throughput_target == 400.0
        assert config.workload.tenants == 10
        assert config.optimizer == "bayesian-ei"
        assert config.util_func == "slo-cost"
        assert config.output_dir == Path("./results")

    def test_space_parsed_with_suffixes(self, tmp_path):
        config = parse_config(write_config(tmp_path, base_document()))
        assert config.space.names == ("webCpu", "webMemory")
        cpu, mem = config.space.parameters
        assert (cpu.minimum, cpu.maximum, cpu.granularity) == (500, 1125, 125)
        assert cpu.suffix == "m"
        assert cpu.level_count == 6
        assert mem.suffix == "Mi"
        assert config.space.size == 24

    def test_operational_keys_warned_and_ignored(self, tmp_path, caplog):
        with caplog.at_level(logging.WARNING, logger="confopt.config"):
            parse_config(write_config(tmp_path, base_document()))
        text = caplog.text
        assert "charts" in text
        assert "namespaceStrategy" in text
        assert "chartName" in text

    def test_unknown_keys_warned_with_path(self, tmp_path, caplog):
        document = base_document()
        document["frobnicate"] = True
        document["slas"][0]["mystery"] = 1
        with caplog.at_level(logging.WARNING, logger="confopt.config"):
            parse_config(write_config(tmp_path, document))
        assert "frobnicate" in caplog.text
        assert "slas[0].mystery" in caplog.text

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="No such file|not found"):
            parse_config(tmp_path / "absent.yaml")

    def test_invalid_yaml(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("slas: [unclosed\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_integer_past_the_conversion_limit_is_a_malformed_document(self, tmp_path):
        path = write_config(tmp_path, base_document())
        path.write_text(path.read_text() + "seed: 1" + "0" * 5000 + "\n")
        with pytest.raises(ConfigError, match="malformed document: Exceeds the limit"):
            parse_config(path)

    def test_missing_key_names_full_path(self, tmp_path):
        document = base_document()
        del document["slas"][0]["slos"]["99th"]
        with pytest.raises(ConfigError, match=r"slas\[0\].slos.99th"):
            parse_config(write_config(tmp_path, document))

    def test_exactly_one_sla(self, tmp_path):
        document = base_document()
        document["slas"].append(dict(document["slas"][0]))
        with pytest.raises(ConfigError, match="exactly one SLA is supported, got 2"):
            parse_config(write_config(tmp_path, document))
        document["slas"] = []
        with pytest.raises(ConfigError, match="exactly one SLA"):
            parse_config(write_config(tmp_path, document))

    def test_bad_granularity_names_parameter(self, tmp_path):
        document = base_document()
        document["slas"][0]["parameters"][0]["searchspace"]["granularity"] = 0
        with pytest.raises(ConfigError, match="webCpu"):
            parse_config(write_config(tmp_path, document))

    def test_unknown_optimizer_lists_valid_names(self, tmp_path):
        document = base_document()
        document["optimizer"] = "gradient-descent"
        with pytest.raises(ConfigError, match="bestconfig") as excinfo:
            parse_config(write_config(tmp_path, document))
        assert "gradient-descent" in str(excinfo.value)

    def test_unknown_util_func_rejected(self, tmp_path):
        document = base_document()
        document["utilFunc"] = "profit"
        with pytest.raises(ConfigError, match="slo-cost"):
            parse_config(write_config(tmp_path, document))

    def test_optimizer_name_case_insensitive(self, tmp_path):
        document = base_document()
        document["optimizer"] = "Bayesian-EI"
        config = parse_config(write_config(tmp_path, document))
        assert config.optimizer == "bayesian-ei"

    def test_output_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CONFOPT_OUT", str(tmp_path / "elsewhere"))
        config = parse_config(write_config(tmp_path, base_document()))
        assert config.output_dir == tmp_path / "elsewhere"

    def test_iterations_must_be_positive_int(self, tmp_path):
        document = base_document()
        document["nbOfIterations"] = 0
        with pytest.raises(ConfigError, match="nbOfIterations"):
            parse_config(write_config(tmp_path, document))
        document["nbOfIterations"] = "ten"
        with pytest.raises(ConfigError, match="nbOfIterations"):
            parse_config(write_config(tmp_path, document))


class TestExtensions:
    def test_seed_and_screening_block(self, tmp_path):
        document = base_document()
        document["seed"] = 42
        document["screening"] = {"r": 5, "p": 4, "relaxed_factor": 1.5, "strict_factor": 0.5}
        config = parse_config(write_config(tmp_path, document))
        assert config.seed == 42
        assert config.screening.r == 5
        assert config.screening.p == 4
        assert config.screening.relaxed_factor == 1.5
        assert config.screening.strict_factor == 0.5

    def test_screening_defaults(self, tmp_path):
        config = parse_config(write_config(tmp_path, base_document()))
        assert config.screening.r == 10
        assert config.screening.p is None
        assert config.screening.relaxed_factor == 1.25
        assert config.screening.strict_factor == 0.75

    def test_synthetic_backend_path_resolved(self, tmp_path):
        document = base_document()
        document["backend"] = {"kind": "synthetic", "model": "model.yaml"}
        config = parse_config(write_config(tmp_path, document))
        assert config.backend.kind == "synthetic"
        assert config.backend.model == tmp_path / "model.yaml"

    def test_replay_backend_path_resolved(self, tmp_path):
        document = base_document()
        document["backend"] = {"kind": "replay", "dataset": "data/full.csv"}
        config = parse_config(write_config(tmp_path, document))
        assert config.backend.dataset == tmp_path / "data" / "full.csv"

    def test_external_backend_fields(self, tmp_path):
        document = base_document()
        document["backend"] = {
            "kind": "external",
            "command": ["./run-bench.sh", "--quick"],
            "timeout_s": 30,
            "retries": 1,
        }
        config = parse_config(write_config(tmp_path, document))
        assert config.backend.command == ("./run-bench.sh", "--quick")
        assert config.backend.timeout_s == 30.0
        assert config.backend.retries == 1

    def test_unknown_backend_kind(self, tmp_path):
        document = base_document()
        document["backend"] = {"kind": "quantum"}
        with pytest.raises(ConfigError, match="quantum"):
            parse_config(write_config(tmp_path, document))

    def test_rate_per_tenant(self, tmp_path):
        document = base_document()
        document["slas"][0]["ratePerTenant"] = 25.0
        config = parse_config(write_config(tmp_path, document))
        assert config.workload.rate_per_tenant == 25.0

    def test_cost_reference_must_match_names(self, tmp_path):
        document = base_document()
        document["costReference"] = [
            {
                "name": "webCpu",
                "searchspace": {"min": 500, "max": 2000, "granularity": 125},
                "suffix": "m",
            }
        ]
        with pytest.raises(ConfigError, match="costReference"):
            parse_config(write_config(tmp_path, document))

    @pytest.mark.parametrize(
        "searchspace, value",
        [
            ({"min": 625, "max": 2000, "granularity": 125}, 500),
            ({"min": 500, "max": 1000, "granularity": 125}, 1125),
            ({"min": 500, "max": 2000, "granularity": 250}, 625),
        ],
        ids=["min", "max", "granularity"],
    )
    def test_cost_reference_must_cover_every_level(self, tmp_path, searchspace, value):
        document = base_document()
        document["costReference"] = copy.deepcopy(document["slas"][0]["parameters"])
        document["costReference"][0]["searchspace"] = searchspace
        grid = f"[{searchspace['min']}, {searchspace['max']}] step {searchspace['granularity']}"
        message = (
            "costReference[0]: misses a configured level: "
            f"parameter 'webCpu': {value} is not on the grid {grid}"
        )
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(write_config(tmp_path, document))

    def test_cost_reference_may_cover_a_pinned_parameter_with_any_step(self, tmp_path):
        document = base_document()
        document["slas"][0]["parameters"][1]["searchspace"] = {
            "min": 512, "max": 512, "granularity": 100,
        }
        document["costReference"] = copy.deepcopy(base_document()["slas"][0]["parameters"])
        config = parse_config(write_config(tmp_path, document))
        assert config.cost_reference.parameters[1].granularity == 256

    def test_cost_reference_parsed(self, tmp_path):
        document = base_document()
        document["costReference"] = [
            {
                "name": "webCpu",
                "searchspace": {"min": 500, "max": 2000, "granularity": 125},
                "suffix": "m",
            },
            {
                "name": "webMemory",
                "searchspace": {"min": 256, "max": 2048, "granularity": 256},
                "suffix": "Mi",
            },
        ]
        config = parse_config(write_config(tmp_path, document))
        assert config.cost_reference.names == ("webCpu", "webMemory")
        assert config.cost_reference.parameters[0].maximum == 2000

    def test_cost_weights_follow_space_order(self, tmp_path):
        document = base_document()
        document["costWeights"] = {"webMemory": 1.0, "webCpu": 3.0}
        config = parse_config(write_config(tmp_path, document))
        assert config.cost_weights.weights == (3.0, 1.0)

    def test_cost_weights_must_cover_every_parameter(self, tmp_path):
        document = base_document()
        document["costWeights"] = {"webCpu": 3.0}
        with pytest.raises(ConfigError, match="webMemory"):
            parse_config(write_config(tmp_path, document))

    @pytest.mark.parametrize(
        "keys, value",
        [
            (("slas", 0, "slos", "99th"), float("nan")),
            (("slas", 0, "slos", "throughput"), float("inf")),
            (("slas", 0, "ratePerTenant"), float("nan")),
            (("costWeights", "webCpu"), float("-inf")),
            (("screening", "relaxed_factor"), float("nan")),
            (("screening", "strict_factor"), float("inf")),
            (("backend", "timeout_s"), float("nan")),
        ],
        ids=lambda case: case[-1] if isinstance(case, tuple) else repr(case),
    )
    def test_non_finite_numbers_rejected(self, tmp_path, keys, value):
        document = base_document()
        document["slas"][0]["ratePerTenant"] = 25.0
        document["costWeights"] = {"webCpu": 3.0, "webMemory": 1.0}
        document["screening"] = {"relaxed_factor": 1.5, "strict_factor": 0.5}
        document["backend"] = {"kind": "external", "command": ["./run-bench.sh"], "timeout_s": 30}
        parse_config(write_config(tmp_path, document))
        *parents, last = keys
        target = document
        for key in parents:
            target = target[key]
        target[last] = value
        path = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys).lstrip(".")
        message = f"{path}: expected a finite number, got {value!r}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(write_config(tmp_path, document))


EXTERNAL_BACKEND = {
    "kind": "external",
    "command": ["./bench", "--quick"],
    "timeout_s": 30.0,
    "retries": 1,
}


def full_document(backend=None):
    """``base_document`` with every optional block set."""
    document = base_document()
    document["slas"][0]["ratePerTenant"] = 2.5
    document["seed"] = 7
    document["screening"] = {"r": 4, "p": 4, "relaxed_factor": 1.5, "strict_factor": 0.5}
    document["backend"] = copy.deepcopy(backend or {"kind": "synthetic", "model": "model.yaml"})
    document["costReference"] = copy.deepcopy(document["slas"][0]["parameters"])
    document["costWeights"] = {"webCpu": 3.0, "webMemory": 1.0}
    return document


def leaf_paths(value, path=()):
    """The key path of every scalar in a document."""
    if isinstance(value, (dict, list)):
        for key, child in value.items() if isinstance(value, dict) else enumerate(value):
            yield from leaf_paths(child, (*path, key))
    else:
        yield path


#: Values that no field of the config or the service model takes.
FOREIGN_VALUES = [math.nan, math.inf, 10**400, None, True, ["x"], {"x": 1}]


def every_change(value):
    """Values of another kind or range, deletion and an unknown sibling key."""
    return ["x", -1, 0, 2.5, *FOREIGN_VALUES, "delete", "sibling"]


def one_leaf_mutations(document, changes=every_change):
    """Each scalar of the document in turn given each of ``changes(value)``:
    a new value, ``"delete"`` or ``"sibling"`` (an unknown sibling key).
    Yields its key path, the change and the mutated copy."""
    for keys in leaf_paths(document):
        *parents, last = keys
        value = functools.reduce(operator.getitem, keys, document)
        for change in changes(value):
            mutant = copy.deepcopy(document)
            target = functools.reduce(operator.getitem, parents, mutant)
            if change == "delete":
                del target[last]
            elif change == "sibling":
                if not isinstance(target, dict):
                    continue
                target["unknownKey"] = 1
            else:
                target[last] = change
            yield keys, change, mutant


def dotted(keys):
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys).lstrip(".")


class TestFieldReader:
    def test_every_read_key_is_known(self, tmp_path, caplog):
        for backend in (None, {"kind": "replay", "dataset": "full.csv"}, EXTERNAL_BACKEND):
            with caplog.at_level(logging.WARNING, logger="confopt.config"):
                parse_config(write_config(tmp_path, full_document(backend)))
        assert "unknown" not in caplog.text

    def test_unknown_keys_of_nested_mappings_warned_with_path(self, tmp_path, caplog):
        document = full_document(EXTERNAL_BACKEND)
        document["slas"][0]["parameters"][1]["searchspace"]["step"] = 1
        document["costReference"][0]["unit"] = "m"
        document["screening"]["trajectories"] = 3
        document["backend"]["model"] = "model.yaml"  # read only for a synthetic backend
        document["costWeights"]["dbCpu"] = 2.0
        with caplog.at_level(logging.WARNING, logger="confopt.config"):
            parse_config(write_config(tmp_path, document))
        for path in (
            "slas[0].parameters[1].searchspace.step",
            "costReference[0].unit",
            "screening.trajectories",
            "backend.model",
            "costWeights.dbCpu",
        ):
            assert f"ignoring unknown key: {path}\n" in caplog.text

    @pytest.mark.parametrize(
        "keys",
        [
            ("slas", 0, "slos", "99th"),
            ("slas", 0, "slos", "throughput"),
            ("slas", 0, "ratePerTenant"),
            ("costWeights", "webMemory"),
            ("screening", "relaxed_factor"),
            ("screening", "strict_factor"),
            ("backend", "timeout_s"),
        ],
        ids=dotted,
    )
    def test_integer_beyond_float_range_rejected(self, tmp_path, keys):
        document = full_document(EXTERNAL_BACKEND)
        *parents, last = keys
        functools.reduce(operator.getitem, parents, document)[last] = 10**400
        message = f"{dotted(keys)}: expected a finite number, got an integer beyond the float range"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(write_config(tmp_path, document))

    def test_parameter_errors_start_with_the_entry_path(self, tmp_path):
        document = full_document()
        document["costReference"][1]["searchspace"]["min"] = "x"
        message = "costReference[1].searchspace.min: expected an integer, got 'x'"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(write_config(tmp_path, document))
        document = full_document()
        document["slas"][0]["parameters"][0]["searchspace"]["granularity"] = 0
        message = "slas[0].parameters[0]: parameter 'webCpu': granularity must be positive, got 0"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(write_config(tmp_path, document))

    @pytest.mark.parametrize(
        "keys, value, message",
        [
            (("slas", 0, "slos", "99th"), 0, "SLO threshold must be positive, got 0.0"),
            (("slas", 0, "nbOfTenants"), 0, "tenants must be >= 1, got 0"),
            (("slas", 0, "ratePerTenant"), -1, "rate_per_tenant must be positive, got -1.0"),
            (("costWeights", "webMemory"), -1, "weights must be non-negative"),
        ],
        ids=lambda case: dotted(case) if isinstance(case, tuple) else None,
    )
    def test_values_the_slo_workload_and_weights_refuse_name_the_field(
        self, tmp_path, keys, value, message
    ):
        document = full_document()
        *parents, last = keys
        functools.reduce(operator.getitem, parents, document)[last] = value
        message = f"{dotted(keys)}: {message}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(write_config(tmp_path, document))

    def test_screening_p_resolves_or_names_the_field(self, tmp_path):
        document = full_document()
        assert parse_config(write_config(tmp_path, document)).screening_p == 4
        del document["screening"]["p"]
        config = parse_config(write_config(tmp_path, document))
        message = "screening.p: parameter level counts differ; pass p explicitly (saw counts [4, 6])"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            config.screening_p

    def test_negative_seed_rejected(self, tmp_path):
        document = full_document()
        document["seed"] = -1
        with pytest.raises(ConfigError, match="^seed: expected a non-negative integer, got -1$"):
            parse_config(write_config(tmp_path, document))

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("r", 0, "trajectory count r must be >= 1, got 0"),
            ("p", 3, "level count p must be even, got 3"),
            ("relaxed_factor", 0.5, "relaxed_factor must be >= 1, got 0.5"),
            ("strict_factor", 1.5, "strict_factor must be in (0, 1], got 1.5"),
        ],
    )
    def test_screening_values_screening_refuses_name_the_field(
        self, tmp_path, field, value, message
    ):
        document = full_document()
        document["screening"][field] = value
        message = f"screening.{field}: {message}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(write_config(tmp_path, document))

    @pytest.mark.parametrize(
        "keys, message",
        [
            (("seed",), "seed: expected a non-negative integer, got -100...000 (401 digits)"),
            (
                ("slas", 0, "parameters", 0, "searchspace", "max"),
                "slas[0].parameters[0]: parameter 'webCpu': minimum 500 exceeds "
                "maximum -100...000 (401 digits)",
            ),
        ],
        ids=["seed", "max"],
    )
    def test_a_huge_integer_is_shortened_in_the_message(self, tmp_path, keys, message):
        document = full_document()
        *parents, last = keys
        functools.reduce(operator.getitem, parents, document)[last] = -(10**400)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(write_config(tmp_path, document))

    @pytest.mark.parametrize("backend", [None, EXTERNAL_BACKEND], ids=["synthetic", "external"])
    def test_every_one_leaf_mutation_parses_or_is_a_config_error(
        self, tmp_path, monkeypatch, backend
    ):
        """Each scalar of the document in turn gets a value of another kind
        or range, is deleted, or gains an unknown sibling key: parsing
        either succeeds or raises ConfigError, never another exception.
        The file holds no text: YAML's reader hands each mutated document
        to the parser as it stands, which keeps the sweep well under a
        second (a YAML round trip costs some 7 ms a document)."""
        loaded = {}
        monkeypatch.setattr(yaml, "load", lambda handle, Loader: loaded["document"])
        path = tmp_path / "config.yaml"
        path.touch()
        escaped = []
        for keys, change, mutant in one_leaf_mutations(full_document(backend)):
            loaded["document"] = mutant
            try:
                parse_config(path)
            except ConfigError:
                pass
            except Exception as exc:  # noqa: BLE001 - the contract under test
                escaped.append(f"{dotted(keys)} <- {change!r:.20}: {exc!r}")
        assert escaped == []

    def test_every_one_leaf_mutation_of_the_service_model_names_the_field(
        self, tmp_path, monkeypatch
    ):
        """The bundled service model under the same sweep: loading returns
        a model or raises ConfigError naming the file and the field, never
        another exception. A value no model field takes is named by its
        dotted path; one the model's own checks refuse, by its key."""
        document = yaml.safe_load(bundled_path("toystore-model.yaml").read_text())
        loaded = {}
        monkeypatch.setattr(yaml, "load", lambda handle, Loader: loaded["document"])
        path = tmp_path / "model.yaml"
        path.touch()
        wrong = []
        for keys, change, mutant in one_leaf_mutations(document):
            loaded["document"] = mutant
            if change == "sibling":
                named = dotted((*keys[:-1], "unknownKey"))
            elif change in FOREIGN_VALUES:
                named = dotted(keys)
            else:
                named = next(key for key in reversed(keys) if isinstance(key, str))
            try:
                load_service_model(path)
            except ConfigError as exc:
                if not str(exc).startswith(f"{path}: ") or named not in str(exc):
                    wrong.append(f"{dotted(keys)} <- {change!r:.20}: {exc}")
            except Exception as exc:  # noqa: BLE001 - the contract under test
                wrong.append(f"{dotted(keys)} <- {change!r:.20}: {exc!r}")
        assert wrong == []


def kind_and_range_changes(value):
    """Deletion, a value of the other kind (a string for a number, a number
    for a string) and, for a number, 1, 0 and −1."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return ["delete", 1 if isinstance(value, str) else "x", *([1, 0, -1] if number else [])]


class TestCommandExitCodes:
    def test_every_one_leaf_mutation_of_the_bundled_config_exits_0_or_names_the_field(
        self, tmp_path, monkeypatch, capsys
    ):
        """``optimize``, ``screen`` and ``exhaustive`` on each one-leaf
        mutation of the bundled reduced toystore (192 configurations) exit
        0, or 1 with a message naming the mutated field's dotted path. A
        check across fields names one of them: a parameter's bounds are
        checked together (min ≤ max, a range that is a multiple of the
        granularity) and named by the parameter's entry path, and a level
        that ``costReference`` misses by its entry there. The config file
        holds no text: the reader hands it each mutated document as it
        stands."""
        self.sweep(tmp_path, monkeypatch, capsys, {})

    def test_every_one_leaf_mutation_of_a_moat_config_exits_0_or_names_the_field(
        self, tmp_path, monkeypatch, capsys
    ):
        """The same sweep with ``optimizer: moat``, whose budget must fund
        one trajectory of k + 1 = 9 evaluations: ``nbOfIterations: 1``
        (budget 6) is refused by name."""
        self.sweep(tmp_path, monkeypatch, capsys, {"optimizer": "moat"})

    def sweep(self, tmp_path, monkeypatch, capsys, overrides):
        config = tmp_path / "config.yaml"
        config.touch()
        shutil.copy(bundled_path("toystore-model.yaml"), tmp_path)
        document = yaml.safe_load(bundled_path("toystore-reduced.yaml").read_text())
        document.update(overrides)
        mutant = {}
        load = yaml.load
        monkeypatch.setattr(
            yaml,
            "load",
            lambda stream, Loader: mutant["document"]
            if stream.name == str(config)
            else load(stream, Loader=Loader),
        )
        wrong = []
        mutations = one_leaf_mutations(document, changes=kind_and_range_changes)
        for i, (keys, change, mutant["document"]) in enumerate(mutations):
            if keys[-2:-1] == ("searchspace",):
                named = (dotted(keys[:-2]), f"costReference[{keys[-3]}]")
            else:
                named = (dotted(keys),)
            for command in ("optimize", "screen", "exhaustive"):
                out = tmp_path / f"{i}-{command}"
                monkeypatch.setenv("CONFOPT_OUT", str(out))
                code = main([command, "--config", str(config)])
                last = capsys.readouterr().err.rstrip().rpartition("\n")[2]
                if code not in (0, 1) or code == 1 and not (
                    last.startswith("error: ") and any(path in last for path in named)
                ):
                    wrong.append(f"{command} {dotted(keys)} <- {change!r}: {code} {last}")
        assert wrong == []


class TestEmit:
    def test_round_trip(self, tmp_path):
        document = base_document()
        document["seed"] = 7
        document["backend"] = {"kind": "synthetic", "model": "model.yaml"}
        document["screening"] = {"r": 4}
        first = parse_config(write_config(tmp_path, document))
        again = tmp_path / "again.yaml"
        dump_config(emit_config(first), again)
        second = parse_config(again)
        assert second.space.names == first.space.names
        assert second.budget == first.budget
        assert second.slo.threshold == first.slo.threshold
        assert second.seed == first.seed
        assert second.optimizer == first.optimizer
        assert second.screening.r == first.screening.r
        assert [p.suffix for p in second.space.parameters] == ["m", "Mi"]

    @pytest.mark.parametrize(
        "backend",
        [
            {"kind": "synthetic", "model": "model.yaml"},
            {"kind": "replay", "dataset": "data/full.csv"},
            {"kind": "external", "command": ["./bench", "--fast"], "timeout_s": 30.0, "retries": 1},
        ],
        ids=["synthetic", "replay", "external"],
    )
    def test_round_trip_per_backend_kind(self, tmp_path, backend):
        """Every optional field survives parse -> emit -> dump -> parse, and
        a file path still names the same file from another directory."""
        document = base_document()
        document["slas"][0]["ratePerTenant"] = 2.5
        document["backend"] = backend
        document["costWeights"] = {"webCpu": 2.0, "webMemory": 0.5}
        (tmp_path / "src").mkdir()
        first = parse_config(write_config(tmp_path / "src", document))
        (tmp_path / "elsewhere").mkdir()
        again = tmp_path / "elsewhere" / "again.yaml"
        dump_config(emit_config(first), again)
        second = parse_config(again)
        assert second.workload.rate_per_tenant == 2.5
        assert second.throughput_target == first.throughput_target == 400
        assert second.cost_weights.weights == first.cost_weights.weights == (2.0, 0.5)
        assert second.backend.kind == backend["kind"]
        if "model" in backend:
            assert second.backend.model == tmp_path / "src" / "model.yaml"
        if "dataset" in backend:
            assert second.backend.dataset == tmp_path / "src" / "data" / "full.csv"
        if "command" in backend:
            assert second.backend.command == ("./bench", "--fast")
            assert (second.backend.timeout_s, second.backend.retries) == (30.0, 1)

    def test_emitted_document_uses_wire_key_names(self, tmp_path):
        config = parse_config(write_config(tmp_path, base_document()))
        document = emit_config(config)
        assert document["nbOfIterations"] == 10
        sla = document["slas"][0]
        assert sla["slos"]["99th"] == 1000.0
        assert sla["nbOfTenants"] == 10
        assert sla["parameters"][0]["searchspace"] == {
            "min": 500,
            "max": 1125,
            "granularity": 125,
        }

    def test_reduced_emit_keeps_cost_reference_and_reparses(self, tmp_path):
        import numpy as np

        from confopt.screening import BoundReductionReport

        config = parse_config(write_config(tmp_path, base_document()))
        reduced = SearchSpace(
            (
                ParameterSpec("webCpu", 750, 1000, 125, suffix="m"),
                ParameterSpec(
                    "webMemory", 512, 512, 256, suffix="Mi", allow_single_level=True
                ),
            )
        )
        reduction = BoundReductionReport(
            original_space=config.space,
            reduced_space=reduced,
            rho=np.array([1.0, 0.0]),
            relaxed_slo=1250.0,
            strict_slo=750.0,
            notes=(),
        )
        out = tmp_path / "reduced.yaml"
        dump_config(emit_reduced_config(config, reduction), out)
        back = parse_config(out)
        assert back.space.parameters[0].minimum == 750
        assert back.space.parameters[1].level_count == 1
        assert back.cost_reference is not None
        assert back.cost_reference.parameters[0].minimum == 500


class TestBuildBackend:
    def test_backend_block_required(self, tmp_path):
        config = parse_config(write_config(tmp_path, base_document()))
        with pytest.raises(ConfigError, match="backend"):
            build_backend(config)

    def test_synthetic(self, tmp_path):
        model = {
            "services": {
                "web": {
                    "base_ms": 50.0,
                    "cpu_demand_mc": 200.0,
                    "mem_working_set_mi": 256.0,
                }
            },
            "chain": ["web"],
            "p99_factor": 3.0,
            "mem_penalty": 1.5,
        }
        (tmp_path / "model.yaml").write_text(yaml.safe_dump(model))
        document = base_document()
        document["backend"] = {"kind": "synthetic", "model": "model.yaml"}
        config = parse_config(write_config(tmp_path, document))
        backend = build_backend(config)
        assert isinstance(backend, SyntheticBackend)

    def test_replay_requires_matching_dataset(self, tmp_path):
        space = SearchSpace(
            (
                ParameterSpec("webCpu", 500, 1125, 125, suffix="m"),
                ParameterSpec("webMemory", 256, 1024, 256, suffix="Mi"),
            )
        )

        from confopt.backends import Backend, SliResult

        class Flat(Backend):
            def evaluate(self, params, workload):
                return SliResult(slis={"p99_latency_ms": 900.0})

        dataset = collect_exhaustive(
            space,
            Flat(),
            get_utility("slo-cost"),
            SloSpec(threshold=1000.0),
            WorkloadSpec(tenants=10),
        )
        write_dataset_csv(dataset, tmp_path / "full.csv")
        document = base_document()
        document["backend"] = {"kind": "replay", "dataset": "full.csv"}
        config = parse_config(write_config(tmp_path, document))
        backend = build_backend(config)
        assert isinstance(backend, ReplayBackend)

    def test_replay_dataset_missing_parameter(self, tmp_path):
        space = SearchSpace((ParameterSpec("webCpu", 500, 1125, 125, suffix="m"),))

        from confopt.backends import Backend, SliResult

        class Flat(Backend):
            def evaluate(self, params, workload):
                return SliResult(slis={"p99_latency_ms": 900.0})

        dataset = collect_exhaustive(
            space,
            Flat(),
            get_utility("slo-cost"),
            SloSpec(threshold=1000.0),
            WorkloadSpec(tenants=10),
        )
        write_dataset_csv(dataset, tmp_path / "narrow.csv")
        document = base_document()
        document["backend"] = {"kind": "replay", "dataset": "narrow.csv"}
        config = parse_config(write_config(tmp_path, document))
        with pytest.raises(ConfigError, match="webMemory"):
            build_backend(config)

    def test_external(self, tmp_path):
        document = base_document()
        document["backend"] = {"kind": "external", "command": ["./bench"]}
        config = parse_config(write_config(tmp_path, document))
        backend = build_backend(config)
        assert isinstance(backend, ExternalBackend)


class TestReducedConfigFlow:
    def test_screen_then_emit_round_trips(self, tmp_path):
        """The full screen -> reduce -> emit -> parse -> screen pipeline
        holds together."""
        document = base_document()
        document["screening"] = {"r": 4, "p": 4}
        config = parse_config(write_config(tmp_path, document))

        def sli(config_):
            cpu, mem = config_.settings
            return 2000.0 - cpu - 0.2 * mem

        result = run_screening(config.space, sli, r=4, p=config.screening.p, seed=0)
        reduction = reduce_bounds(
            config.space, result.stats, result.evaluations, config.slo.threshold
        )
        out = tmp_path / "r.yaml"
        dump_config(emit_reduced_config(config, reduction), out)
        back = parse_config(out)
        assert back.space.size <= config.space.size
        assert back.budget == config.budget
        assert back.screening.p == 4
        again = run_screening(back.space, sli, r=back.screening.r, p=back.screening.p, seed=1)
        assert len(again.evaluations) == 4 * (back.space.dimension + 1)
