from __future__ import annotations

import copy
import csv
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from confopt import bundled_path
from confopt.cli import main

MODEL = {
    "services": {
        "web": {"base_ms": 40.0, "cpu_demand_mc": 30.0, "mem_working_set_mi": 256.0},
    },
    "chain": ["web"],
    "p99_factor": 3.0,
    "mem_penalty": 1.5,
}


def write_yaml(path, document):
    path.write_text(yaml.safe_dump(document, sort_keys=False))
    return path


def config_document(**overrides):
    document = {
        "nbOfIterations": 2,
        "nbOfSamplesPerIteration": 6,
        "slas": [
            {
                "name": "storefront",
                "slos": {"99th": 1000.0},
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
        "optimizer": "bayesian-ei",
        "utilFunc": "slo-cost",
        "outputDir": "./results",
        "seed": 3,
        "backend": {"kind": "synthetic", "model": "model.yaml"},
        "screening": {"r": 3, "p": 4},
    }
    document.update(overrides)
    return document


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.delenv("CONFOPT_OUT", raising=False)
    write_yaml(tmp_path / "model.yaml", MODEL)
    write_yaml(tmp_path / "config.yaml", config_document())
    return tmp_path


def run(monkeypatch, out, argv):
    monkeypatch.setenv("CONFOPT_OUT", str(out))
    return main(argv)


class TestExitCodes:
    def test_missing_config_file(self, workdir, monkeypatch, capsys):
        code = run(monkeypatch, workdir / "o", ["optimize", "--config", "nope.yaml"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_optimizer_in_config(self, workdir, monkeypatch, capsys):
        write_yaml(
            workdir / "bad.yaml", config_document(optimizer="hillclimb")
        )
        code = run(
            monkeypatch, workdir / "o", ["optimize", "--config", str(workdir / "bad.yaml")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "hillclimb" in err and "bayesian-ei" in err

    def test_unknown_subcommand_is_usage_error(self, workdir, monkeypatch):
        assert run(monkeypatch, workdir / "o", ["tune"]) == 1

    def test_no_arguments_is_usage_error(self, workdir, monkeypatch):
        assert run(monkeypatch, workdir / "o", []) == 1

    def test_help_exits_zero(self, workdir, monkeypatch):
        assert run(monkeypatch, workdir / "o", ["--help"]) == 0

    def test_runtime_failure_is_two(self, workdir, monkeypatch, capsys):
        document = config_document(
            backend={"kind": "external", "command": ["./no-such-runner"]}
        )
        write_yaml(workdir / "ext.yaml", document)
        code = run(
            monkeypatch, workdir / "o", ["optimize", "--config", str(workdir / "ext.yaml")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_service_model_is_config_error(self, workdir, monkeypatch, capsys):
        write_yaml(workdir / "model.yaml", MODEL | {"services": [MODEL["services"]["web"]]})
        out = workdir / "o"
        config = str(workdir / "config.yaml")
        assert run(monkeypatch, out, ["exhaustive", "--config", config]) == 1
        err = capsys.readouterr().err
        assert "model.yaml: services: expected a mapping" in err
        assert not any(out.glob("*.csv"))

    def test_unparsable_service_model_is_config_error(self, workdir, monkeypatch, capsys):
        (workdir / "model.yaml").write_text("services: [unclosed\n")
        out = workdir / "o"
        config = str(workdir / "config.yaml")
        assert run(monkeypatch, out, ["exhaustive", "--config", config]) == 1
        err = capsys.readouterr().err
        assert f"error: backend.model: {workdir / 'model.yaml'}: while parsing" in err
        assert not any(out.glob("*.csv"))

    def test_replay_dataset_with_a_wrong_header_is_config_error(
        self, workdir, monkeypatch, capsys
    ):
        (workdir / "data.csv").write_text("webCpu,webMemory,utility\n500,256,1.0\n")
        document = config_document(backend={"kind": "replay", "dataset": "data.csv"})
        config = write_yaml(workdir / "replay.yaml", document)
        out = workdir / "o"
        assert run(monkeypatch, out, ["exhaustive", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert f"error: backend.dataset: {workdir / 'data.csv'}: expected parameter columns" in err
        assert not any(out.glob("*.csv"))

    @pytest.mark.parametrize(
        "kind, field, name",
        [("synthetic", "model", "no-model.yaml"), ("replay", "dataset", "no-data.csv")],
        ids=["model", "dataset"],
    )
    def test_missing_backend_file_is_config_error(
        self, workdir, monkeypatch, capsys, kind, field, name
    ):
        document = config_document(backend={"kind": kind, field: name})
        config = write_yaml(workdir / "missing.yaml", document)
        out = workdir / "o"
        assert run(monkeypatch, out, ["optimize", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert f"backend.{field}: {workdir / name}: No such file or directory" in err
        assert not any(out.glob("*.csv"))

    @pytest.mark.parametrize(
        "kind, field, name",
        [("synthetic", "model", "model.yaml"), ("replay", "dataset", "data.csv")],
        ids=["model", "dataset"],
    )
    def test_backend_file_that_is_not_utf8_is_config_error(
        self, workdir, monkeypatch, capsys, kind, field, name
    ):
        (workdir / name).write_bytes(b"services: \xff\xfe\n")
        document = config_document(backend={"kind": kind, field: name})
        config = write_yaml(workdir / "binary.yaml", document)
        out = workdir / "o"
        assert run(monkeypatch, out, ["exhaustive", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert f"error: backend.{field}: {workdir / name}: 'utf-8' codec can't decode" in err
        assert not any(out.glob("*.csv"))

    def test_negative_seed_in_config_is_config_error(self, workdir, monkeypatch, capsys):
        config = write_yaml(workdir / "seed.yaml", config_document(seed=-1))
        out = workdir / "o"
        assert run(monkeypatch, out, ["optimize", "--config", str(config)]) == 1
        assert "error: seed: expected a non-negative integer, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["screen", "--config", "config.yaml"],
            ["optimize", "--config", "config.yaml"],
            ["screen-vs-bo", "--config", "config.yaml", "--budget", "12"],
            ["compare", "--dataset", "dataset.csv"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_negative_seed_flag_is_usage_error(self, workdir, monkeypatch, capsys, argv):
        out = workdir / "o"
        assert run(monkeypatch, out, [*argv, "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert "argument --seed: expected a non-negative integer, got '-1'" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["compare", "--dataset", "dataset.csv", "--runs", "0"], "--runs"),
            (["compare", "--dataset", "dataset.csv", "--budget", "0"], "--budget"),
            (["compare", "--dataset", "dataset.csv", "--batch", "0"], "--batch"),
            (["screen-vs-bo", "--config", "config.yaml", "--budget", "12", "--repetitions", "0"],
             "--repetitions"),
            (["screen-vs-bo", "--config", "config.yaml", "--budget", "0"], "--budget"),
        ],
        ids=lambda case: case if isinstance(case, str) else None,
    )
    def test_count_flag_below_one_is_usage_error(self, workdir, monkeypatch, capsys, argv, flag):
        out = workdir / "o"
        assert run(monkeypatch, out, argv) == 1
        assert f"argument {flag}: expected a positive integer, got '0'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["exhaustive", "optimize", "screen"])
    def test_model_number_beyond_float_range_is_config_error(
        self, workdir, monkeypatch, capsys, command
    ):
        web = MODEL["services"]["web"] | {"base_ms": 10**400}
        write_yaml(workdir / "model.yaml", MODEL | {"services": {"web": web}})
        out = workdir / "o"
        assert run(monkeypatch, out, [command, "--config", str(workdir / "config.yaml")]) == 1
        message = (
            f"error: backend.model: {workdir / 'model.yaml'}: services.web.base_ms: expected a "
            "finite number, got an integer beyond the float range\n"
        )
        assert capsys.readouterr().err.endswith(message)
        assert not any(out.glob("*.csv"))

    def test_unknown_model_key_is_config_error(self, workdir, monkeypatch, capsys):
        write_yaml(workdir / "model.yaml", MODEL | {"latency": "fast"})
        out = workdir / "o"
        assert run(monkeypatch, out, ["exhaustive", "--config", str(workdir / "config.yaml")]) == 1
        err = capsys.readouterr().err
        assert f"error: backend.model: {workdir / 'model.yaml'}: unknown key: latency\n" in err

    @pytest.mark.parametrize("command", ["optimize", "exhaustive", "screen"])
    def test_cost_reference_that_misses_a_level_is_config_error(
        self, workdir, monkeypatch, capsys, command
    ):
        """A reference starting one step above the space's minimum cannot
        cost the space's lowest ``webCpu`` level."""
        reference = copy.deepcopy(config_document()["slas"][0]["parameters"])
        reference[0]["searchspace"] |= {"min": 625, "max": 2000}
        config = write_yaml(workdir / "ref.yaml", config_document(costReference=reference))
        out = workdir / "o"
        assert run(monkeypatch, out, [command, "--config", str(config)]) == 1
        message = (
            "error: costReference[0]: misses a configured level: "
            "parameter 'webCpu': 500 is not on the grid [625, 2000] step 125\n"
        )
        assert capsys.readouterr().err.endswith(message)
        assert not out.exists()

    def test_replay_parameter_mismatch_is_config_error(self, workdir, monkeypatch, capsys):
        """A dataset holding a parameter the config lacks is a configuration
        error whose message names that parameter."""
        data = workdir / "data"
        config = str(workdir / "config.yaml")
        assert run(monkeypatch, data, ["exhaustive", "--config", config]) == 0
        document = config_document(backend={"kind": "replay", "dataset": "data/dataset.csv"})
        document["slas"][0]["parameters"] = document["slas"][0]["parameters"][:1]
        config = write_yaml(workdir / "narrow.yaml", document)
        assert run(monkeypatch, workdir / "o", ["optimize", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert "replay dataset parameters differ" in err
        assert "only in the dataset ['webMemory']" in err

    @pytest.mark.parametrize(
        "command, document, path",
        [
            (
                "exhaustive",
                config_document(
                    slas=[config_document()["slas"][0] | {"slos": {"99th": float("nan")}}]
                ),
                "slas[0].slos.99th",
            ),
            (
                "screen",
                config_document(screening={"r": 3, "p": 4, "relaxed_factor": float("nan")}),
                "screening.relaxed_factor",
            ),
        ],
        ids=["exhaustive-slo", "screen-relaxed-factor"],
    )
    def test_non_finite_number_is_config_error(
        self, workdir, monkeypatch, capsys, command, document, path
    ):
        write_yaml(workdir / "nan.yaml", document)
        out = workdir / "o"
        assert run(monkeypatch, out, [command, "--config", str(workdir / "nan.yaml")]) == 1
        assert f"{path}: expected a finite number, got nan" in capsys.readouterr().err
        assert not any(out.glob("*.csv"))

    def test_compare_rejects_unknown_optimizer_name(self, workdir, monkeypatch, capsys):
        out = workdir / "data"
        assert run(
            monkeypatch, out, ["exhaustive", "--config", str(workdir / "config.yaml")]
        ) == 0
        code = run(
            monkeypatch,
            workdir / "cmp",
            [
                "compare",
                "--dataset",
                str(out / "dataset.csv"),
                "--optimizers",
                "random,annealing",
                "--runs",
                "2",
                "--budget",
                "4",
            ],
        )
        assert code == 1
        assert "annealing" in capsys.readouterr().err

    def test_moat_budget_below_one_trajectory_is_config_error(self, workdir, monkeypatch, capsys):
        """A ``moat`` budget below k + 1 = 3 evaluations funds no trajectory:
        ``optimize`` refuses the config and ``compare`` the budget, both
        with exit 1. ``compare`` cannot pass ``p``, so over unequal level
        counts it refuses a budget that does fund one."""
        config = write_yaml(workdir / "moat.yaml", config_document(
            optimizer="moat", nbOfIterations=1, nbOfSamplesPerIteration=2
        ))
        assert run(monkeypatch, workdir / "o", ["optimize", "--config", str(config)]) == 1
        assert capsys.readouterr().err.endswith(
            "error: nbOfIterations: a budget of 2 cannot fund one moat trajectory of 3 "
            "evaluations\n"
        )
        assert not (workdir / "o").exists()
        data = workdir / "data"
        assert run(monkeypatch, data, ["exhaustive", "--config", str(workdir / "config.yaml")]) == 0
        compare = ["compare", "--dataset", str(data / "dataset.csv"), "--optimizers", "moat"]
        assert run(monkeypatch, workdir / "cmp", [*compare, "--runs", "2", "--budget", "2"]) == 1
        assert capsys.readouterr().err.endswith(
            "error: budget 2 cannot fund one trajectory of 3 evaluations\n"
        )
        assert run(monkeypatch, workdir / "cmp", [*compare, "--runs", "2", "--budget", "3"]) == 1
        assert "error: parameter level counts differ" in capsys.readouterr().err


class TestScreen:
    def test_outputs(self, workdir, monkeypatch, capsys):
        out = workdir / "screen-out"
        code = run(
            monkeypatch, out, ["screen", "--config", str(workdir / "config.yaml")]
        )
        assert code == 0
        assert (out / "screening_report.csv").exists()
        assert (out / "reduced-config.yaml").exists()
        assert "reduced space:" in capsys.readouterr().out
        with open(out / "screening_report.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "parameter",
            "mu",
            "mu_star",
            "sigma",
            "old_min",
            "old_max",
            "new_min",
            "new_max",
            "rho",
        ]
        assert len(rows) == 3

    def test_reduced_config_parses_and_shrinks(self, workdir, monkeypatch):
        out = workdir / "screen-out"
        run(monkeypatch, out, ["screen", "--config", str(workdir / "config.yaml")])
        from confopt.config import parse_config

        monkeypatch.delenv("CONFOPT_OUT")
        reduced = parse_config(out / "reduced-config.yaml")
        assert reduced.space.size <= 24
        assert reduced.cost_reference is not None

    def test_reduced_config_runs_where_it_is_written(self, workdir, monkeypatch):
        """A reduced config written away from a relatively named source
        config still finds the backend's model."""
        monkeypatch.chdir(workdir)
        out = workdir / "runs" / "screen-out"
        assert run(monkeypatch, out, ["screen", "--config", "config.yaml"]) == 0
        reduced = yaml.safe_load((out / "reduced-config.yaml").read_text())
        assert reduced["backend"]["model"] == str(workdir / "model.yaml")
        monkeypatch.chdir(out)
        argv = ["optimize", "--config", "reduced-config.yaml"]
        assert run(monkeypatch, workdir / "o", argv) == 0

    def test_reduced_config_screens_again(self, workdir, monkeypatch):
        """The emitted config records the p its screening used, so a space
        whose level counts differ after reduction can be screened again."""
        document = config_document(screening={"r": 3})
        document["slas"][0]["parameters"][0]["searchspace"]["max"] = 875
        write_yaml(workdir / "uniform.yaml", document)
        out = workdir / "screen-out"
        assert run(monkeypatch, out, ["screen", "--config", str(workdir / "uniform.yaml")]) == 0
        reduced = yaml.safe_load((out / "reduced-config.yaml").read_text())
        assert reduced["screening"]["p"] == 4
        write_yaml(workdir / "reduced.yaml", reduced)
        again = workdir / "screen-again"
        assert run(monkeypatch, again, ["screen", "--config", str(workdir / "reduced.yaml")]) == 0

    def test_seed_flag_changes_plan(self, workdir, monkeypatch):
        out_a = workdir / "a"
        out_b = workdir / "b"
        run(monkeypatch, out_a, ["screen", "--config", str(workdir / "config.yaml"), "--seed", "1"])
        run(monkeypatch, out_b, ["screen", "--config", str(workdir / "config.yaml"), "--seed", "3"])
        a = (out_a / "screening_report.csv").read_bytes()
        b = (out_b / "screening_report.csv").read_bytes()
        assert a != b


class TestOptimize:
    def test_outputs_and_determinism(self, workdir, monkeypatch, capsys):
        out_a = workdir / "a"
        out_b = workdir / "b"
        config = str(workdir / "config.yaml")
        assert run(monkeypatch, out_a, ["optimize", "--config", config]) == 0
        assert run(monkeypatch, out_b, ["optimize", "--config", config]) == 0
        for out in (out_a, out_b):
            assert (out / "trace.csv").exists()
            assert (out / "summary.txt").exists()
        assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()
        assert (out_a / "summary.txt").read_bytes() == (
            out_b / "summary.txt"
        ).read_bytes()
        stdout = capsys.readouterr().out
        assert "best_utility" in stdout

    def test_trace_has_budget_rows(self, workdir, monkeypatch):
        out = workdir / "o"
        run(monkeypatch, out, ["optimize", "--config", str(workdir / "config.yaml")])
        with open(out / "trace.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 12  # 2 iterations x 6 samples
        assert "best_so_far" in rows[0]

    def test_moat_gets_the_configured_p(self, workdir, monkeypatch):
        # The reduced toystore has mixed level counts; only screening.p
        # (4 here) lets the moat design fit them.
        document = yaml.safe_load(bundled_path("toystore-reduced.yaml").read_text())
        document["optimizer"] = "moat"
        document["backend"]["model"] = str(bundled_path("toystore-model.yaml"))
        config = write_yaml(workdir / "moat.yaml", document)
        out = workdir / "o"
        assert run(monkeypatch, out, ["optimize", "--config", str(config)]) == 0
        with open(out / "trace.csv", newline="") as fh:
            assert len(list(csv.DictReader(fh))) == 144  # 16 trajectories of 9

    def test_seed_override_changes_proposals(self, workdir, monkeypatch):
        config = str(workdir / "config.yaml")
        out_a, out_b = workdir / "a", workdir / "b"
        run(monkeypatch, out_a, ["optimize", "--config", config, "--seed", "11"])
        run(monkeypatch, out_b, ["optimize", "--config", config, "--seed", "12"])
        assert (out_a / "trace.csv").read_bytes() != (out_b / "trace.csv").read_bytes()


    @pytest.mark.parametrize("command", ["optimize", "exhaustive", "screen"])
    def test_screening_value_screening_refuses_is_config_error(
        self, workdir, monkeypatch, capsys, command
    ):
        write_yaml(workdir / "bad.yaml", config_document(screening={"r": 0, "p": 4}))
        out = workdir / "o"
        assert run(monkeypatch, out, [command, "--config", str(workdir / "bad.yaml")]) == 1
        err = capsys.readouterr().err
        assert "error: screening.r: trajectory count r must be >= 1, got 0" in err
        assert not any(out.glob("*.csv"))

    @pytest.mark.parametrize("command", ["optimize", "exhaustive", "screen"])
    @pytest.mark.parametrize(
        "field, value, reason",
        [
            ("command", [], "external backend needs a non-empty command"),
            ("command", "", "external backend needs a non-empty command"),
            ("timeout_s", 0, "timeout_s must be positive, got 0.0"),
            ("retries", -1, "retries must be >= 0, got -1"),
        ],
        ids=["command", "empty-program", "timeout_s", "retries"],
    )
    def test_external_setting_the_backend_refuses_is_config_error(
        self, workdir, monkeypatch, capsys, command, field, value, reason
    ):
        backend = {"kind": "external", "command": ["./no-such-runner"], field: value}
        write_yaml(workdir / "bad.yaml", config_document(backend=backend))
        out = workdir / "o"
        assert run(monkeypatch, out, [command, "--config", str(workdir / "bad.yaml")]) == 1
        assert capsys.readouterr().err.endswith(f"error: backend.{field}: {reason}\n")
        assert not any(out.glob("*.csv"))


class TestExhaustiveAndReport:
    def test_dataset_then_report(self, workdir, monkeypatch):
        data = workdir / "data"
        config = str(workdir / "config.yaml")
        assert run(monkeypatch, data, ["exhaustive", "--config", config]) == 0
        assert (data / "dataset.csv").exists()
        assert (data / "summary.txt").exists()
        with open(data / "dataset.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "webCpu",
            "webMemory",
            "p99_latency_ms",
            "throughput_rps",
            "utility",
            "feasible",
            "failed",
        ]
        assert len(rows) == 25

        rep = workdir / "rep"
        code = run(
            monkeypatch,
            rep,
            ["report", "--in", str(data / "dataset.csv")],
        )
        assert code == 0
        assert (rep / "dataset.csv").exists()
        assert (rep / "slo_cdf.csv").exists()
        assert (rep / "summary.txt").exists()
        with open(rep / "slo_cdf.csv", newline="") as fh:
            cdf = list(csv.DictReader(fh))
        assert float(cdf[-1]["cumulative_fraction"]) == 1.0

    def test_exhaustive_reruns_identical(self, workdir, monkeypatch):
        config = str(workdir / "config.yaml")
        out_a, out_b = workdir / "a", workdir / "b"
        run(monkeypatch, out_a, ["exhaustive", "--config", config])
        run(monkeypatch, out_b, ["exhaustive", "--config", config])
        assert (out_a / "dataset.csv").read_bytes() == (
            out_b / "dataset.csv"
        ).read_bytes()

    def test_sidecar_bytes_are_pinned_across_reruns_and_report(self, workdir, monkeypatch):
        config = str(workdir / "config.yaml")
        for name in ("a", "b"):
            assert run(monkeypatch, workdir / name, ["exhaustive", "--config", config]) == 0
            report = ["report", "--in", str(workdir / name / "dataset.csv")]
            assert run(monkeypatch, workdir / f"{name}-report", report) == 0
        digest = hashlib.sha256((workdir / "a" / "dataset.csv").read_bytes()).hexdigest()
        expected = (
            '{\n  "parameters": [\n'
            '    {\n      "name": "webCpu",\n      "min": 500,\n      "max": 1125,\n'
            '      "granularity": 125\n    },\n'
            '    {\n      "name": "webMemory",\n      "min": 256,\n      "max": 1024,\n'
            '      "granularity": 256\n    }\n  ],\n'
            f'  "rows": 24,\n  "sha256": "{digest}"\n}}\n'
        )
        for name in ("a", "b", "a-report", "b-report"):
            assert (workdir / name / "dataset.json").read_text() == expected, name
            assert (workdir / name / "dataset.csv").read_bytes() == (
                workdir / "a" / "dataset.csv"
            ).read_bytes()

    def test_report_copies_a_sidecar_dataset_without_rendering(self, workdir, monkeypatch):
        from confopt import harness

        data, rep = workdir / "data", workdir / "rep"
        config = str(workdir / "config.yaml")
        assert run(monkeypatch, data, ["exhaustive", "--config", config]) == 0

        def no_rendering(*args):
            raise AssertionError("a dataset line was rendered")

        monkeypatch.setattr(harness._Columns, "lines", no_rendering)
        monkeypatch.setattr(harness, "_float_texts", no_rendering)
        assert run(monkeypatch, rep, ["report", "--in", str(data / "dataset.csv")]) == 0
        for name in ("dataset.csv", "dataset.json"):
            assert (rep / name).read_bytes() == (data / name).read_bytes()
        # Into the directory it reads from, the copy leaves both files as they were.
        before = {name: (data / name).read_bytes() for name in ("dataset.csv", "dataset.json")}
        assert run(monkeypatch, data, ["report", "--in", str(data / "dataset.csv")]) == 0
        assert {name: (data / name).read_bytes() for name in before} == before

    def test_report_renders_a_dataset_without_a_sidecar(self, workdir, monkeypatch):
        data, rep = workdir / "data", workdir / "rep"
        config = str(workdir / "config.yaml")
        assert run(monkeypatch, data, ["exhaustive", "--config", config]) == 0
        (data / "dataset.json").unlink()
        (rep / "dataset.json").parent.mkdir()
        (rep / "dataset.json").write_text("stale")
        assert run(monkeypatch, rep, ["report", "--in", str(data / "dataset.csv")]) == 0
        assert (rep / "dataset.csv").read_bytes() == (data / "dataset.csv").read_bytes()
        assert not (rep / "dataset.json").exists()

    def test_stale_sidecar_is_a_runtime_error_naming_it(self, workdir, monkeypatch, capsys):
        data = workdir / "data"
        config = str(workdir / "config.yaml")
        assert run(monkeypatch, data, ["exhaustive", "--config", config]) == 0
        path = data / "dataset.csv"
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert run(monkeypatch, workdir / "rep", ["report", "--in", str(path)]) == 2
        sidecar = data / "dataset.json"
        assert f"delete {sidecar} if the edit was intended" in capsys.readouterr().err


def oom_toystore_config(tmp_path, **overrides):
    """A noisy toystore config at 3 levels per parameter whose ``rec``
    service runs out of memory at its lowest memory level."""
    model = yaml.safe_load(bundled_path("toystore-model.yaml").read_text())
    model["services"]["rec"]["mem_working_set_mi"] = 640.0
    model["noise_sigma"] = 0.1
    write_yaml(tmp_path / "model.yaml", model)
    document = yaml.safe_load(bundled_path("toystore.yaml").read_text())
    for parameter in document["slas"][0]["parameters"]:
        box = parameter["searchspace"]
        box["granularity"] = (box["max"] - box["min"]) // 2
    document["backend"]["model"] = "model.yaml"
    document.update(overrides)
    return str(write_yaml(tmp_path / "config.yaml", document))


class TestPinnedDatasetBytes:
    """sha256 of every file ``exhaustive`` and ``report`` write for a noisy
    toystore grid (3 levels per parameter) where a third of the
    configurations run out of memory. The digests come from a known-good
    run; regenerating them would defeat the test."""

    DIGESTS = {
        "fresh/dataset.csv": "878d5528f71752e91d6392254316aadc9c8b0c4aa75f252eababf070c5cea59f",
        "fresh/summary.txt": "fe0759c341db823be8110e89e6e2e5bc573458f11d1dc2ad9f0fad77b57d1d68",
        "report/dataset.csv": "878d5528f71752e91d6392254316aadc9c8b0c4aa75f252eababf070c5cea59f",
        "report/slo_cdf.csv": "ddd9aaa19bedd7353dcc257c49c086a13311c004859d021c93c32ea1a360c9ea",
        "report/summary.txt": "6c7d768d00ceb5caa31a0641719a4c4b2204333a5bfe969f923645c4db04b683",
    }

    def test_exhaustive_report_and_resume(self, tmp_path, monkeypatch):
        config = oom_toystore_config(tmp_path)
        fresh, report, resume = tmp_path / "fresh", tmp_path / "report", tmp_path / "resume"
        assert run(monkeypatch, fresh, ["exhaustive", "--config", config]) == 0
        assert run(monkeypatch, report, ["report", "--in", str(fresh / "dataset.csv")]) == 0
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in self.DIGESTS
        }
        assert digests == self.DIGESTS

        lines = (fresh / "dataset.csv").read_bytes().splitlines(keepends=True)
        keep = len(lines) // 2
        resume.mkdir()
        torn = b"".join(lines[:keep]) + lines[keep][: len(lines[keep]) // 2]
        (resume / "dataset.csv.partial").write_bytes(torn)
        assert run(monkeypatch, resume, ["exhaustive", "--config", config]) == 0
        assert (resume / "dataset.csv").read_bytes() == (fresh / "dataset.csv").read_bytes()
        assert not (resume / "dataset.csv.partial").exists()


class TestPinnedArtifactBytes:
    """sha256 of the other CSVs and summaries the CLI writes, on the grid of
    :class:`TestPinnedDatasetBytes`: an ``optimize`` trace with failed rows
    (``nan`` metric cells), ``compare`` curves, and a ``screen-vs-bo`` table
    with no known optimum (both flag values and empty cells). The digests
    come from a known-good run; regenerating them would defeat the test."""

    DIGESTS = {
        "optimize/trace.csv": "5fd5fb3ba13c5c7195d0ffc7bc6f1e348fb21ab19f29a4f8c88f93909b8bedf6",
        "optimize/summary.txt": "017decd26ec65a9a1fe9c969d685066d3bd2deea35e6c676ce03be497d01d47c",
        "compare/compare_random.csv": "32253213332a24709a8c1c344db89d66da2d882919a2cf6ef6cd250ad9203753",
        "compare/compare_bestconfig.csv": "42b0f30c60091fa37de62bda4b14f2e8c367182be0a4a05f089812ad658b5c20",
        "compare/summary.txt": "832db395461c5cfe75605473c408b1e56be46e49822495f920736384a2d59a1a",
        "svb/screen_vs_bo.csv": "e35622b3f397ae4496f93e0a24be914935490d4ce0a7e409d1908beb111dbd32",
        "svb/summary.txt": "d48b5e18a2c07f537f38cbb2f6ce3737ca3e2d77dbff5d6f10fb17e13c29fd3a",
    }

    def test_optimize_compare_and_screen_vs_bo(self, tmp_path, monkeypatch):
        config = oom_toystore_config(tmp_path, nbOfIterations=3, screening={"r": 2, "p": 4})
        assert run(monkeypatch, tmp_path / "optimize", ["optimize", "--config", config]) == 0
        assert run(monkeypatch, tmp_path / "data", ["exhaustive", "--config", config]) == 0
        compare = [
            "compare",
            "--dataset",
            str(tmp_path / "data" / "dataset.csv"),
            "--optimizers",
            "random,bestconfig",
            "--runs",
            "5",
            "--budget",
            "12",
        ]
        assert run(monkeypatch, tmp_path / "compare", compare) == 0
        svb = ["screen-vs-bo", "--config", config, "--budget", "45", "--repetitions", "2"]
        assert run(monkeypatch, tmp_path / "svb", svb) == 0

        trace = (tmp_path / "optimize" / "trace.csv").read_text()
        assert ",nan,nan," in trace and ",false,true," in trace
        table = (tmp_path / "svb" / "screen_vs_bo.csv").read_text()
        assert ",true," in table and ",false," in table and table.endswith(",\n")
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in self.DIGESTS
        }
        assert digests == self.DIGESTS


class TestCompare:
    @pytest.fixture()
    def dataset(self, workdir, monkeypatch):
        data = workdir / "data"
        run(monkeypatch, data, ["exhaustive", "--config", str(workdir / "config.yaml")])
        return data / "dataset.csv"

    def test_outputs(self, workdir, monkeypatch, dataset):
        out = workdir / "cmp"
        code = run(
            monkeypatch,
            out,
            [
                "compare",
                "--dataset",
                str(dataset),
                "--optimizers",
                "random,bayesian-ei",
                "--runs",
                "4",
                "--budget",
                "6",
                "--seed",
                "0",
            ],
        )
        assert code == 0
        assert (out / "compare_random.csv").exists()
        assert (out / "compare_bayesian-ei.csv").exists()
        assert (out / "summary.txt").exists()
        with open(out / "compare_random.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "fraction_found_optimal", "distance_q99"]
        assert len(rows) == 7

    def test_workers_do_not_change_bytes(self, workdir, monkeypatch, dataset):
        args = [
            "compare",
            "--dataset",
            str(dataset),
            "--optimizers",
            "random",
            "--runs",
            "6",
            "--budget",
            "5",
        ]
        out_a, out_b = workdir / "serial", workdir / "parallel"
        assert run(monkeypatch, out_a, args + ["--workers", "1"]) == 0
        assert run(monkeypatch, out_b, args + ["--workers", "3"]) == 0
        assert (out_a / "compare_random.csv").read_bytes() == (
            out_b / "compare_random.csv"
        ).read_bytes()

    def test_omitting_optimizers_runs_all(self, workdir, monkeypatch, dataset):
        out = workdir / "cmp_all"
        code = run(
            monkeypatch,
            out,
            ["compare", "--dataset", str(dataset), "--runs", "2", "--budget", "4"],
        )
        assert code == 0
        csvs = sorted(p.name for p in out.glob("compare_*.csv"))
        assert csvs == [
            "compare_bayesian-ei.csv",
            "compare_bestconfig.csv",
            "compare_exhaustive.csv",
            "compare_random.csv",
            "compare_randominc.csv",
        ]


class TestScreenVsBo:
    def test_outputs(self, workdir, monkeypatch):
        out = workdir / "svb"
        code = run(
            monkeypatch,
            out,
            [
                "screen-vs-bo",
                "--config",
                str(workdir / "config.yaml"),
                "--budget",
                "15",
                "--repetitions",
                "2",
                "--seed",
                "0",
            ],
        )
        assert code == 0
        assert (out / "screen_vs_bo.csv").exists()
        assert (out / "summary.txt").exists()
        with open(out / "screen_vs_bo.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert rows[0]["repetition"] == "0"
        assert rows[0]["screening_evals"] == "9"  # r=3 trajectories x (2+1)

    def test_budget_below_the_screening_cost_is_config_error(self, workdir, monkeypatch, capsys):
        argv = ["screen-vs-bo", "--config", str(workdir / "config.yaml"), "--budget"]
        assert run(monkeypatch, workdir / "svb", [*argv, "8"]) == 1
        message = "screening alone needs r·(k + 1) = 9 evaluations, above the total budget 8"
        assert capsys.readouterr().err.endswith(f"error: {message}\n")
        assert not (workdir / "svb" / "screen_vs_bo.csv").exists()
        assert run(monkeypatch, workdir / "svb", [*argv, "-3"]) == 1
        assert "argument --budget: expected a positive integer, got '-3'" in capsys.readouterr().err

    def test_costs_follow_cost_reference(self, workdir, monkeypatch):
        """Every utility the study and ``optimize`` report is one that
        ``exhaustive`` gives the same configuration, so all three normalize
        costs against ``costReference`` rather than the configured bounds
        and weigh them with ``costWeights``."""
        reference = [
            {"name": "webCpu", "searchspace": {"min": 250, "max": 2000, "granularity": 125}},
            {"name": "webMemory", "searchspace": {"min": 256, "max": 2048, "granularity": 256}},
        ]
        document = config_document(
            costReference=reference, costWeights={"webCpu": 3.0, "webMemory": 0.5}
        )
        config = str(write_yaml(workdir / "ref.yaml", document))
        assert run(monkeypatch, workdir / "ex", ["exhaustive", "--config", config]) == 0
        argv = ["screen-vs-bo", "--config", config, "--budget", "15", "--repetitions", "2"]
        assert run(monkeypatch, workdir / "svb", argv) == 0
        assert run(monkeypatch, workdir / "opt", ["optimize", "--config", config]) == 0
        with open(workdir / "ex" / "dataset.csv", newline="") as fh:
            utilities = {row["utility"] for row in csv.DictReader(fh)}
        with open(workdir / "svb" / "screen_vs_bo.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        reported = [
            row[key]
            for row in rows
            for key in ("reduced_optimum_utility", "combined_best_utility", "standalone_best_utility")
        ]
        with open(workdir / "opt" / "trace.csv", newline="") as fh:
            traced = [row["utility"] for row in csv.DictReader(fh)]
        assert len(traced) == 12
        assert all(float(u) < 1.0 for u in reported)  # feasible, so cost-scored
        assert set(reported) <= utilities
        assert set(traced) <= utilities


#: Runs every command in a fresh interpreter in which importing scipy
#: fails, also in the workers ``compare --workers 2`` forks, and checks
#: that no command tried to.
SCIPY_BLOCKED = """
import os, sys

class NoScipy:
    tried = []

    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            self.tried.append(name)
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, NoScipy())
from confopt.cli import main

def run(out, argv):
    os.environ["CONFOPT_OUT"] = out
    assert main(argv) == 0, argv

compare = ["compare", "--dataset", "data/dataset.csv", "--optimizers", "random,bayesian-ei",
           "--runs", "4", "--budget", "8"]
for out, argv in [
    ("data", ["exhaustive", "--config", "config.yaml"]),
    ("rep", ["report", "--in", "data/dataset.csv"]),
    ("scr", ["screen", "--config", "config.yaml"]),
    ("opt", ["optimize", "--config", "config.yaml"]),
    ("svb", ["screen-vs-bo", "--config", "config.yaml", "--budget", "15"]),
    ("cmp1", [*compare, "--workers", "1"]),
    ("cmp2", [*compare, "--workers", "2"]),
]:
    run(out, argv)
assert NoScipy.tried == [], NoScipy.tried
"""


def test_no_command_imports_scipy(workdir):
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_BLOCKED],
        cwd=workdir,
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (workdir / "cmp1" / "summary.txt").read_bytes() == (
        workdir / "cmp2" / "summary.txt"
    ).read_bytes()
