"""The benchmark's tracing hooks still reach the code paths they time.

``perfbench/tracing.py`` replaces module-level names (``harness.score_result``,
``harness.allocation_cost``, ``SyntheticBackend.evaluate``,
``ReplayBackend.lookup`` and others) with timing wrappers. A refactor that
stops calling through one of those names would leave its layer reading zero;
this test fails on that at unit-test speed.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from confopt import backends, harness
from confopt.backends import ServiceModelSpec, ServiceSpec, SyntheticBackend
from confopt.space import ParameterSpec, SearchSpace
from confopt.utility import SloSpec, WorkloadSpec, get_utility

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
    model = ServiceModelSpec(
        services=(ServiceSpec("web", 40.0, 30.0, 256.0),),
        chain=("web",),
        p99_factor=3.0,
        mem_penalty=1.5,
    )
    tracer = tracing.Tracer()
    inst = tracing.instrument(tracer)
    try:
        dataset = harness.collect_exhaustive(
            space,
            SyntheticBackend(model),
            get_utility("slo-cost"),
            SloSpec(threshold=1000.0),
            WorkloadSpec(tenants=4),
        )
        harness.run_optimization(space, "random", dataset.replay_backend(), 4, 2, 0)
    finally:
        inst.remove()
    for name in (
        "harness.score_result",
        "utility.allocation_cost",
        "backends.synthetic",
        "backends.replay",
    ):
        assert tracer.calls[name] > 0, name
    assert tracer.calls["backends.synthetic"] == space.size
    assert tracer.calls["backends.replay"] == 4
    assert harness.score_result is originals["score_result"]
    assert harness.allocation_cost is originals["allocation_cost"]
    assert harness.run_optimization is originals["run_optimization"]
    assert SyntheticBackend.evaluate is originals["evaluate"]
    assert backends.ReplayBackend.lookup is originals["lookup"]
