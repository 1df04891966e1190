"""The benchmark's tracing hooks still reach the code paths they time.

``perfbench/tracing.py`` replaces module-level names (``harness.score_result``,
``harness.allocation_cost``, ``SyntheticBackend.evaluate``,
``ReplayBackend.lookup``, ``optim.gp_fit``, ``OptimizerSession.ask`` and
others) with timing wrappers. A refactor that stops calling through one of
those names would leave its layer reading zero; these tests fail on that at
unit-test speed.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from confopt import backends, bundled_path, cli, gp, harness, optim
from confopt.backends import ServiceModelSpec, ServiceSpec, SyntheticBackend
from confopt.space import ParameterSpec, SearchSpace
from confopt.utility import SloSpec, WorkloadSpec, get_utility

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODEL = ServiceModelSpec(
    services=(ServiceSpec("web", 40.0, 30.0, 256.0),),
    chain=("web",),
    p99_factor=3.0,
    mem_penalty=1.5,
)


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_record_calls_and_are_restored():
    tracing = load_tracing()
    originals = {
        "score_result": harness.score_result,
        "allocation_cost": harness.allocation_cost,
        "run_optimization": harness.run_optimization,
        "evaluate": SyntheticBackend.evaluate,
        "lookup": backends.ReplayBackend.lookup,
    }
    space = SearchSpace(
        (
            ParameterSpec("webCpu", 500, 875, 125, "m"),
            ParameterSpec("webMemory", 256, 512, 256, "Mi"),
        )
    )
    tracer = tracing.Tracer()
    inst = tracing.instrument(tracer)
    try:
        backend = SyntheticBackend(MODEL)
        dataset = harness.collect_exhaustive(
            space,
            backend,
            get_utility("slo-cost"),
            SloSpec(threshold=1000.0),
            WorkloadSpec(tenants=4),
        )
        harness.run_optimization(space, "random", dataset.replay_backend(), 4, 2, 0)
        # Collection measures blocks through evaluate_many; a single
        # configuration still goes through the traced evaluate.
        backend.evaluate(space.render(space.config_at(0)), WorkloadSpec(tenants=4))
    finally:
        inst.remove()
    for name in (
        "harness.score_result",
        "utility.allocation_cost",
        "backends.synthetic",
        "backends.replay",
    ):
        assert tracer.calls[name] > 0, name
    assert tracer.calls["backends.synthetic"] == 1
    assert tracer.calls["backends.replay"] == 4
    assert harness.score_result is originals["score_result"]
    assert harness.allocation_cost is originals["allocation_cost"]
    assert harness.run_optimization is originals["run_optimization"]
    assert SyntheticBackend.evaluate is originals["evaluate"]
    assert backends.ReplayBackend.lookup is originals["lookup"]


def test_traced_optimizer_layers_record_calls():
    """A bayesian-ei run reaches the gp and optim hooks the study times."""
    tracing = load_tracing()
    originals = {
        "gp_fit": optim.gp_fit,
        "expected_improvement": optim.expected_improvement,
        "predict": gp.SurrogateModel.predict,
        "ask": optim.OptimizerSession.ask,
        "tell": optim.OptimizerSession.tell,
    }
    space = SearchSpace(
        (
            ParameterSpec("webCpu", 500, 875, 125, "m"),
            ParameterSpec("webMemory", 256, 1024, 256, "Mi"),
        )
    )
    dataset = harness.collect_exhaustive(
        space,
        SyntheticBackend(MODEL),
        get_utility("slo-cost"),
        SloSpec(threshold=1000.0),
        WorkloadSpec(tenants=4),
    )
    budget = 9
    tracer = tracing.Tracer()
    inst = tracing.instrument(tracer)
    try:
        harness.run_optimization(space, "bayesian-ei", dataset.replay_backend(), budget, 3, 0)
    finally:
        inst.remove()
    for name in (
        "gp.gp_fit",
        "gp.predict",
        "gp.expected_improvement",
        "optim.ask.bayesian-ei",
        "optim.tell",
    ):
        assert tracer.calls[name] > 0, name
    assert tracer.counts["optim.proposals"] == budget
    assert optim.gp_fit is originals["gp_fit"]
    assert optim.expected_improvement is originals["expected_improvement"]
    assert gp.SurrogateModel.predict is originals["predict"]
    assert optim.OptimizerSession.ask is originals["ask"]
    assert optim.OptimizerSession.tell is originals["tell"]


def test_traced_dataset_layers_record_one_call_per_command(tmp_path, monkeypatch):
    """CLI ``exhaustive``, ``report`` and a resumed ``exhaustive`` reach the
    dataset layers the exhaustive-io workload times, once per command."""
    tracing = load_tracing()
    config = str(bundled_path("toystore-reduced.yaml"))
    fresh, report, resume = tmp_path / "fresh", tmp_path / "report", tmp_path / "resume"

    def traced_calls(out, argv):
        monkeypatch.setenv("CONFOPT_OUT", str(out))
        tracer = tracing.Tracer()
        inst = tracing.instrument(tracer)
        try:
            assert cli.main(argv) == 0
        finally:
            inst.remove()
        return tracer.calls

    calls = traced_calls(fresh, ["exhaustive", "--config", config])
    assert calls["harness.collect_exhaustive"] == 1
    calls = traced_calls(report, ["report", "--in", str(fresh / "dataset.csv")])
    assert calls["harness.load_dataset"] == 1
    assert calls["harness.write_dataset_csv"] == 1
    lines = (fresh / "dataset.csv").read_bytes().splitlines(keepends=True)
    resume.mkdir()
    keep = len(lines) // 2
    (resume / "dataset.csv.partial").write_bytes(b"".join(lines[:keep]) + lines[keep][:10])
    calls = traced_calls(resume, ["exhaustive", "--config", config])
    assert calls["harness.collect_exhaustive"] == 1
    dataset = (fresh / "dataset.csv").read_bytes()
    assert (report / "dataset.csv").read_bytes() == dataset
    assert (resume / "dataset.csv").read_bytes() == dataset


def test_traced_screening_layers_record_every_repetition():
    """A screening-vs-standalone study reaches the screening hooks through
    the harness names the full-grid-study workload patches."""
    tracing = load_tracing()
    originals = {
        "run_screening": harness.run_screening,
        "reduce_bounds": harness.reduce_bounds,
        "run_optimization": harness.run_optimization,
    }
    space = SearchSpace(
        (
            ParameterSpec("webCpu", 500, 875, 125, "m"),
            ParameterSpec("webMemory", 256, 1024, 256, "Mi"),
        )
    )
    repetitions, r = 2, 3
    tracer = tracing.Tracer()
    inst = tracing.instrument(tracer)
    try:
        harness.screening_vs_standalone(
            space,
            SyntheticBackend(MODEL),
            get_utility("slo-cost"),
            SloSpec(threshold=1000.0),
            WorkloadSpec(tenants=4),
            total_budget=12,
            r=r,
            batch_size=3,
            repetitions=repetitions,
        )
    finally:
        inst.remove()
    assert tracer.calls["screening.run_screening"] == repetitions
    assert tracer.counts["screening.evals"] == repetitions * r * (space.dimension + 1)
    assert tracer.calls["screening.reduce_bounds"] == repetitions
    assert tracer.calls["harness.run_optimization"] == 2 * repetitions
    for name, original in originals.items():
        assert getattr(harness, name) is original, name
