from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confopt import bundled_path, harness
from confopt.backends import (
    Backend,
    Measured,
    ServiceModelSpec,
    ServiceSpec,
    SliResult,
    SyntheticBackend,
)
from confopt.harness import (
    Dataset,
    Evaluator,
    collect_exhaustive,
    compare,
    dataset_summary,
    failure_utility,
    load_dataset,
    run_optimization,
    score_result,
    screening_vs_standalone,
    sli_objective,
    write_comparison_csvs,
    write_dataset_csv,
    write_slo_cdf_csv,
    write_trace_csv,
)
from confopt.config import build_backend, parse_config
from confopt.fields import ConfigError
from confopt.optim import Observation
from confopt.space import Configuration, ParameterSpec, SearchSpace
from confopt.utility import SloSpec, WorkloadSpec, get_utility

SLO = SloSpec(threshold=1000.0)
WORKLOAD = WorkloadSpec(tenants=4)
UTILITY = get_utility("slo-cost")


def make_space(level_counts, granularity=125, minimum=500):
    return SearchSpace(
        tuple(
            ParameterSpec(
                f"svc{i}Cpu", minimum, minimum + (n - 1) * granularity, granularity
            )
            for i, n in enumerate(level_counts)
        )
    )


class SurfaceBackend(Backend):
    """Latency falls as resources rise; optionally fails a chosen config."""

    def __init__(self, space, fail_settings=None):
        self.space = space
        self.fail_settings = fail_settings
        self.calls = 0

    def evaluate(self, params, workload):
        self.calls += 1
        config = Configuration(tuple(int(params[p.name]) for p in self.space.parameters))
        if config.settings == self.fail_settings:
            return SliResult(slis={}, failed=True, failure_reason="oom")
        x = self.space.to_normalized(config)
        latency = 1400.0 - 600.0 * float(np.mean(x))
        return SliResult(
            slis={"p99_latency_ms": latency, "throughput_rps": 1000.0 / latency}
        )


def surface_dataset(level_counts=(3, 3), fail_settings=None):
    space = make_space(level_counts)
    backend = SurfaceBackend(space, fail_settings)
    return collect_exhaustive(space, backend, UTILITY, SLO, WORKLOAD), backend


def score_one(config, result, space, eval_index=1):
    """``score_result`` of a one-row block: its utility, feasible and
    failed values."""
    scores = score_result(
        np.array([config.settings]), Measured.of(result), UTILITY, SLO, space, None, eval_index
    )
    return tuple(column.item() for column in scores)


class TestScoring:
    def test_failed_result_scores_failure_utility(self):
        space = make_space([3, 3])
        result = SliResult(slis={}, failed=True, failure_reason="oom")
        utility, feasible, failed = score_one(Configuration((500, 500)), result, space, 7)
        assert failed and not feasible
        assert utility == failure_utility(SLO) == 1.0 + 10.0 * 1000.0

    def test_missing_metric_counts_as_failed(self):
        space = make_space([3, 3])
        result = SliResult(slis={"throughput_rps": 10.0})
        utility, _, failed = score_one(Configuration((500, 500)), result, space)
        assert failed
        assert utility == failure_utility(SLO)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_metric_counts_as_failed(self, value, caplog):
        space = make_space([3, 3])
        result = SliResult(slis={"p99_latency_ms": value})
        utility, feasible, failed = score_one(Configuration((500, 500)), result, space, 4)
        assert failed and not feasible
        assert utility == failure_utility(SLO)
        assert f"evaluation 4 returned p99_latency_ms={value}" in caplog.text

    def test_satisfied_scores_allocation_cost(self):
        space = make_space([3, 3])
        result = SliResult(slis={"p99_latency_ms": 900.0})
        utility, feasible, _ = score_one(Configuration((500, 500)), result, space)
        assert utility == 0.0 and feasible

    def test_block_rows_are_scored_in_order_and_numbered(self, caplog):
        """One call scores a mixed run of rows: a row's warning carries its
        own evaluation number."""
        space = make_space([3, 3])
        settings = np.array([(500, 500), (625, 750), (750, 750), (500, 625)])
        measured = Measured(
            {"p99_latency_ms": np.array([900.0, 1100.0, np.nan, np.inf])},
            [None, None, "oom", None],
        )
        utility, feasible, failed = score_result(settings, measured, UTILITY, SLO, space, None, 10)
        assert utility.tolist() == [0.0, 101.0, failure_utility(SLO), failure_utility(SLO)]
        assert feasible.tolist() == [True, False, False, False]
        assert failed.tolist() == [False, False, True, True]
        assert "evaluation 13 returned p99_latency_ms=inf" in caplog.text
        assert "evaluation 12" not in caplog.text

    def test_sli_objective_maps_failure_to_penalty(self):
        space = make_space([2, 2])

        class FailingBackend(Backend):
            def evaluate(self, params, workload):
                return SliResult(slis={}, failed=True, failure_reason="boom")

        evaluator = Evaluator(space, FailingBackend(), UTILITY, SLO, WORKLOAD)
        observations = []
        objective = sli_objective(evaluator, observations)
        assert objective(Configuration((500, 500))) == 10.0 * SLO.threshold
        assert [o.failed for o in observations] == [True]


class TestRunOptimization:
    def test_exhaustive_run_matches_brute_force(self):
        space = make_space([3, 3])
        backend = SurfaceBackend(space)
        trace = run_optimization(
            space,
            "exhaustive",
            backend,
            space.size,
            4,
            seed=0,
            utility_fn=UTILITY,
            slo=SLO,
            workload=WORKLOAD,
        )
        assert len(trace.observations) == space.size
        # cheapest configuration that still satisfies the latency bound
        assert trace.best.config.settings == (625, 750)
        expected = min(
            score_one(c, SurfaceBackend(space).evaluate(space.render(c), WORKLOAD), space)[0]
            for c in space.iter_configurations()
        )
        assert trace.best.utility == expected

    def test_best_curve_non_increasing_and_indexed(self):
        space = make_space([3, 3])
        backend = SurfaceBackend(space)
        trace = run_optimization(
            space,
            "random",
            backend,
            9,
            3,
            seed=1,
            utility_fn=UTILITY,
            slo=SLO,
            workload=WORKLOAD,
        )
        assert np.all(np.diff(trace.best_utilities) <= 0)
        assert [o.eval_index for o in trace.observations] == list(range(1, 10))

    def test_found_optimal_at_is_one_based_first_hit(self):
        space = make_space([3, 3])
        backend = SurfaceBackend(space)
        trace = run_optimization(
            space,
            "exhaustive",
            backend,
            space.size,
            3,
            seed=0,
            utility_fn=UTILITY,
            slo=SLO,
            workload=WORKLOAD,
            optimum_settings=(750, 750),
        )
        assert trace.found_optimal_at == space.size  # odometer ends at all-max

    @pytest.mark.parametrize(
        "optimizer, level_counts, budget, seed, off_grid",
        [
            # 15 evaluations visit 8 of 16 configurations, one of them 3 times
            ("moat", (4, 4), 15, 1, None),
            # the budget exceeds the space, so the run stops at exhaustion
            ("exhaustive", (3, 3), 20, 0, (875, 500)),
        ],
    )
    def test_trace_is_derived_from_the_observations(
        self, optimizer, level_counts, budget, seed, off_grid
    ):
        """The best curve is the running minimum of the observed utilities,
        and ``found_optimal_at`` is the evaluation number of the optimum's
        first visit, None when it is never visited."""
        space = make_space(level_counts)
        found = {}
        for target in [*space.iter_settings(), *([off_grid] if off_grid else [])]:
            trace = run_optimization(
                space,
                optimizer,
                SurfaceBackend(space),
                budget,
                4,
                seed,
                utility_fn=UTILITY,
                slo=SLO,
                workload=WORKLOAD,
                optimum_settings=target,
            )
            visited = [obs.config.settings for obs in trace.observations]
            running, best = [], math.inf
            for obs in trace.observations:
                best = min(best, obs.utility)
                running.append(best)
            assert trace.best_utilities.tolist() == running
            first = [obs.eval_index for obs in trace.observations if obs.config.settings == target]
            assert trace.found_optimal_at == (first[0] if first else None)
            found[target] = trace.found_optimal_at
        assert len(visited) == min(budget, space.size)
        assert None in found.values()  # both runs leave a target unvisited
        if optimizer == "moat":
            assert len(set(visited)) == 8 and max(map(visited.count, visited)) == 3

    def test_failed_evaluation_recorded_not_fatal(self):
        space = make_space([3, 3])
        backend = SurfaceBackend(space, fail_settings=(500, 500))
        trace = run_optimization(
            space,
            "exhaustive",
            backend,
            space.size,
            9,
            seed=0,
            utility_fn=UTILITY,
            slo=SLO,
            workload=WORKLOAD,
        )
        failed = [o for o in trace.observations if o.failed]
        assert len(failed) == 1
        assert failed[0].utility == failure_utility(SLO)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_sli_is_a_failure_not_a_crash(self, value):
        """A NaN p99 on the cheapest configuration once scored as a free
        feasible optimum; an infinite one crashed the GP fit."""
        space = make_space([4, 4])
        cheapest = (500, 500)

        class NonFiniteBackend(SurfaceBackend):
            def evaluate(self, params, workload):
                if (int(params["svc0Cpu"]), int(params["svc1Cpu"])) == cheapest:
                    return SliResult(slis={"p99_latency_ms": value})
                return super().evaluate(params, workload)

        trace = run_optimization(
            space,
            "bayesian-ei",
            NonFiniteBackend(space),
            space.size,
            4,
            0,
            utility_fn=UTILITY,
            slo=SLO,
            workload=WORKLOAD,
        )
        assert len(trace.observations) == space.size
        (bad,) = [o for o in trace.observations if o.config.settings == cheapest]
        assert bad.failed and not bad.feasible
        assert bad.utility == failure_utility(SLO)
        assert trace.best.config.settings != cheapest

    def test_replay_backend_skips_scoring_machinery(self):
        dataset, _ = surface_dataset()
        trace = run_optimization(
            dataset.space, "random", dataset.replay_backend(), 6, 3, seed=4
        )
        assert len(trace.observations) == 6
        for o in trace.observations:
            assert o.utility == dataset.replay_backend().lookup(o.config.settings).utility

    def test_replay_leaves_the_rows_unbuilt(self):
        """A replay run reads the stored columns at the ranks it asks for;
        the dataset's ``rows`` tuple is never built."""
        dataset, _ = surface_dataset()
        trace = run_optimization(dataset.space, "random", dataset.replay_backend(), 4, 2, seed=1)
        assert len(trace.observations) == 4
        assert "rows" not in dataset.__dict__

    def test_replay_matches_parameters_by_name(self):
        space = make_space([4, 4])
        rows = tuple(
            Observation(config=c, slis={}, utility=0.01 * i, feasible=True, eval_index=i + 1)
            for i, c in enumerate(space.iter_configurations())
        )
        dataset = Dataset(space=space, rows=rows)
        swapped = SearchSpace(tuple(reversed(space.parameters)))
        trace = run_optimization(
            swapped, "exhaustive", dataset.replay_backend(), swapped.size, 4, seed=0
        )
        assert len(trace.observations) == 16
        for obs in trace.observations:
            cpu1, cpu0 = obs.config.settings
            assert obs.utility == dataset.replay_backend().lookup((cpu0, cpu1)).utility

    def test_replay_rejects_other_parameters(self):
        dataset, _ = surface_dataset()
        other = SearchSpace(
            (dataset.space.parameters[0], ParameterSpec("dbMemory", 256, 512, 256))
        )
        with pytest.raises(ValueError, match=r"\['svc1Cpu'\].*\['dbMemory'\]"):
            Evaluator(other, dataset.replay_backend())

    def test_non_replay_requires_scoring_arguments(self):
        space = make_space([2, 2])
        with pytest.raises(ValueError, match="utility"):
            run_optimization(space, "random", SurfaceBackend(space), 4, 2, seed=0)

    def test_deterministic_across_repeats(self):
        dataset, _ = surface_dataset()
        traces = [
            run_optimization(
                dataset.space, "bayesian-ei", dataset.replay_backend(), 8, 4, seed=9
            )
            for _ in range(2)
        ]
        assert [o.config.settings for o in traces[0].observations] == [
            o.config.settings for o in traces[1].observations
        ]


#: Settings of a 2x2 space's four rows that break enumeration order, and
#: the reader's message for the first bad row.
ORDER_CASES = {
    "out-of-order": (
        [(625, 625), (625, 500), (500, 625), (500, 500)],
        "data row 1 has settings (625, 625), expected (500, 500); "
        "rows must follow enumeration order",
    ),
    "duplicate": (
        [(500, 500), (500, 625), (500, 625), (625, 625)],
        "data row 3 has settings (500, 625), a duplicate of data row 2",
    ),
    "off-grid": (
        [(500, 500), (9, 9), (625, 500), (625, 625)],
        "data row 2 has settings (9, 9), expected (500, 625); rows must follow enumeration order",
    ),
}


def rows_at(settings):
    """Rows with the given settings, each scored alike."""
    return [
        Observation(Configuration(tuple(s)), {}, 0.5, True, i + 1) for i, s in enumerate(settings)
    ]


def built_from_rows(space, settings, tmp_path):
    return lambda: Dataset(space, rows_at(settings)), ""


def loaded_from_a_file(space, settings, tmp_path):
    """A dataset file collected with its sidecar, whose settings cells then
    become ``settings``."""
    path = tmp_path / "dataset.csv"
    collect_exhaustive(space, SurfaceBackend(space), UTILITY, SLO, WORKLOAD, out_path=path)
    header, *lines = path.read_text().splitlines(keepends=True)
    cells = [line.split(",", space.dimension)[-1] for line in lines]
    path.write_text(header + "".join(f"{a},{b},{rest}" for (a, b), rest in zip(settings, cells)))
    return lambda: load_dataset(path), f"{path}: "


class TestDataset:
    def test_row_count_must_match_space(self):
        space = make_space([2, 2])
        rows = tuple(
            Observation(
                config=c, slis={}, utility=0.5, feasible=True, eval_index=i + 1
            )
            for i, c in enumerate(space.iter_configurations())
        )
        Dataset(space=space, rows=rows)
        with pytest.raises(ValueError, match="rows"):
            Dataset(space=space, rows=rows[:3])

    def test_duplicates_rejected(self):
        space = make_space([2, 2])
        rows = tuple(
            Observation(
                config=Configuration((500, 500)),
                slis={},
                utility=0.5,
                feasible=True,
                eval_index=i,
            )
            for i in range(4)
        )
        with pytest.raises(ValueError, match="duplicate"):
            Dataset(space=space, rows=rows)

    def test_rows_out_of_enumeration_order_rejected(self):
        """A dataset built from reordered rows would write a file its own
        reader rejects."""
        space = make_space([2, 2])
        rows = tuple(
            Observation(config=c, slis={}, utility=0.5, feasible=True, eval_index=i + 1)
            for i, c in enumerate(space.iter_configurations())
        )
        with pytest.raises(
            ValueError, match=re.escape("data row 1 has settings (625, 625), expected (500, 500)")
        ):
            Dataset(space=space, rows=rows[::-1])

    @pytest.mark.parametrize("case", ORDER_CASES)
    @pytest.mark.parametrize("source", [built_from_rows, loaded_from_a_file])
    def test_rows_and_files_share_one_order_check(self, source, case, tmp_path):
        """``Dataset(space, rows)`` and the reader word an order error alike."""
        settings, message = ORDER_CASES[case]
        build, where = source(make_space([2, 2]), settings, tmp_path)
        with pytest.raises(ValueError, match=re.escape(where + message)):
            build()

    @pytest.mark.parametrize(
        "settings, number, got, want",
        [
            ([(500, 500), (500, 625, 1), (625, 500), (625, 625)], 2, "(500, 625, 1)", "(500, 625)"),
            ([(500,), (625,), (500,), (625,)], 1, "(500,)", "(500, 500)"),
        ],
        ids=["one-long-row", "every-row-short"],
    )
    def test_rows_of_another_length_are_out_of_order(self, settings, number, got, want):
        """A row with the wrong number of settings is named as out of
        order; it is not reshaped into other rows."""
        message = f"data row {number} has settings {got}, expected {want}; rows must follow"
        with pytest.raises(ValueError, match=re.escape(message)):
            Dataset(make_space([2, 2]), rows_at(settings))

    def test_rows_off_the_grid_rejected(self):
        """Rows off the space's grid would write a file that loads silently as
        another space."""
        space = make_space([2, 2])
        rows = tuple(
            Observation(
                config=Configuration((9, 9 + i)), slis={}, utility=0.5, feasible=True,
                eval_index=i + 1,
            )
            for i in range(4)
        )
        with pytest.raises(
            ValueError, match=re.escape("data row 1 has settings (9, 9), expected (500, 500)")
        ):
            Dataset(space=space, rows=rows)

    @pytest.mark.parametrize("utility", [math.nan, math.inf, -math.inf])
    def test_non_finite_utility_rejected(self, utility):
        """A NaN utility in row 3 of a 2x2 space once became the optimum,
        and the file written from it failed to load."""
        space = make_space([2, 2])
        rows = tuple(
            Observation(
                config=c, slis={}, utility=utility if i == 2 else 0.5, feasible=i != 2,
                eval_index=i + 1,
            )
            for i, c in enumerate(space.iter_configurations())
        )
        with pytest.raises(ValueError, match=re.escape("data row 3: utility is not finite")):
            Dataset(space=space, rows=rows)

    def test_failed_row_marked_feasible_rejected(self):
        space = make_space([2, 2])
        rows = tuple(
            Observation(
                config=c, slis={}, utility=0.5, feasible=True, eval_index=i + 1, failed=i == 1
            )
            for i, c in enumerate(space.iter_configurations())
        )
        with pytest.raises(
            ValueError, match=re.escape("data row 2: a failed row is marked feasible")
        ):
            Dataset(space=space, rows=rows)

    def test_optimum_is_first_row_at_minimum(self):
        space = make_space([2, 2])
        utilities = [0.9, 0.2, 0.2, 0.5]
        rows = tuple(
            Observation(
                config=c, slis={}, utility=u, feasible=u < 1, eval_index=i + 1
            )
            for i, (c, u) in enumerate(zip(space.iter_configurations(), utilities))
        )
        dataset = Dataset(space=space, rows=rows)
        assert dataset.optimum.eval_index == 2

    def test_feasible_fraction(self):
        dataset, _ = surface_dataset()
        expected = sum(1 for o in dataset.rows if o.feasible) / dataset.space.size
        assert dataset.feasible_fraction == expected

    def test_rows_are_built_on_first_use_as_the_evaluator_scores_them(self):
        space = make_space([3, 3])
        backend = SurfaceBackend(space, fail_settings=(625, 625))
        dataset = collect_exhaustive(space, backend, UTILITY, SLO, WORKLOAD)
        dataset_summary(dataset)
        assert not {"settings", "rows", "_replay"} & set(vars(dataset))
        evaluator = Evaluator(space, backend, UTILITY, SLO, WORKLOAD)
        assert dataset.rows == tuple(evaluator.evaluate(space.iter_configurations()))
        assert dataset.optimum == min(dataset.rows, key=lambda obs: obs.utility)

    def test_rows_and_columns_describe_the_same_dataset(self):
        dataset, _ = surface_dataset(fail_settings=(500, 625))
        rebuilt = Dataset(dataset.space, dataset.rows, SLO)
        assert np.array_equal(rebuilt.settings_matrix, dataset.settings_matrix)
        for name in ("p99", "throughput", "utility", "feasible", "failed"):
            np.testing.assert_array_equal(getattr(rebuilt, name), getattr(dataset, name))
        assert rebuilt.optimum is rebuilt.rows[int(np.argmin(dataset.utility))]


class TestCollectExhaustive:
    def test_cap_enforced(self):
        space = make_space([50, 50, 50])
        with pytest.raises(ValueError, match="screen first"):
            collect_exhaustive(space, SurfaceBackend(space), UTILITY, SLO, WORKLOAD)

    def test_rows_follow_enumeration_order(self):
        dataset, backend = surface_dataset()
        assert backend.calls == dataset.space.size
        assert [o.config.settings for o in dataset.rows] == [
            c.settings for c in dataset.space.iter_configurations()
        ]

    def test_checkpoint_file_finalized_atomically(self, tmp_path):
        space = make_space([3, 3])
        out = tmp_path / "dataset.csv"
        collect_exhaustive(
            space,
            SurfaceBackend(space),
            UTILITY,
            SLO,
            WORKLOAD,
            out_path=out,
        )
        assert out.exists()
        assert not out.with_name("dataset.csv.partial").exists()
        with open(out, newline="") as fh:
            assert len(list(csv.reader(fh))) == space.size + 1

    def test_resume_skips_measured_rows(self, tmp_path):
        space = make_space([3, 3])
        out = tmp_path / "dataset.csv"
        backend = SurfaceBackend(space)

        class Interrupted(RuntimeError):
            pass

        class QuittingBackend(Backend):
            def __init__(self, inner, quit_after):
                self.inner, self.quit_after = inner, quit_after

            def evaluate(self, params, workload):
                if self.inner.calls >= self.quit_after:
                    raise Interrupted
                return self.inner.evaluate(params, workload)

        with pytest.raises(Interrupted):
            collect_exhaustive(
                space,
                QuittingBackend(backend, 5),
                UTILITY,
                SLO,
                WORKLOAD,
                out_path=out,
            )
        assert out.with_name("dataset.csv.partial").exists()
        resumed_backend = SurfaceBackend(space)
        dataset = collect_exhaustive(
            space,
            resumed_backend,
            UTILITY,
            SLO,
            WORKLOAD,
            out_path=out,
        )
        assert resumed_backend.calls == space.size - 5
        assert len(dataset.rows) == space.size
        reloaded = load_dataset(out, slo=SLO)
        assert [o.utility for o in reloaded.rows] == [o.utility for o in dataset.rows]

    def test_error_partway_through_a_noise_chunk_keeps_earlier_rows(self, tmp_path):
        """Rows measured before a row that raises reach the partial file
        even though their whole block was measured, and its noise seeded,
        together; a resume completes the file byte for byte."""
        model = ServiceModelSpec(
            services=(ServiceSpec("web", 50.0, 500.0, 600.0), ServiceSpec("db", 20.0, 100.0, 0.0)),
            chain=("web", "db"),
            p99_factor=3.0,
            mem_penalty=1.5,
            noise_sigma=0.2,
        )
        space = SearchSpace(
            (
                ParameterSpec("webCpu", 750, 1250, 250, "m"),
                ParameterSpec("webMemory", 200, 600, 200, "Mi"),
                ParameterSpec("dbCpu", 250, 500, 250, "m"),
                ParameterSpec("dbMemory", 256, 512, 256, "Mi"),
            )
        )
        broken_row = 20

        class BrokenRow(SyntheticBackend):
            """Row 20 of every block sets dbCpu to an extra level, "0m"."""

            def evaluate_many(self, block, workload):
                db_cpu = block.names.index("dbCpu")
                texts = list(block.texts)
                texts[db_cpu] = (*texts[db_cpu], "0m")
                levels = block.levels.copy()
                levels[broken_row, db_cpu] = len(texts[db_cpu]) - 1
                return super().evaluate_many(block._replace(levels=levels, texts=tuple(texts)), workload)

        reference = tmp_path / "reference.csv"
        collect_exhaustive(space, SyntheticBackend(model), UTILITY, SLO, WORKLOAD, out_path=reference)
        expected = reference.read_bytes()
        out = tmp_path / "dataset.csv"
        with pytest.raises(ValueError, match="cpu must be positive"):
            collect_exhaustive(space, BrokenRow(model), UTILITY, SLO, WORKLOAD, out_path=out)
        partial = out.with_name("dataset.csv.partial").read_bytes()
        assert partial.splitlines() == expected.splitlines()[: 1 + broken_row]
        collect_exhaustive(space, SyntheticBackend(model), UTILITY, SLO, WORKLOAD, out_path=out)
        assert out.read_bytes() == expected

    def test_blocks_hold_at_most_the_readers_chunk(self, monkeypatch):
        """Collection hands a block backend blocks of ``_BLOCK_ROWS`` rows,
        the last one shorter, whose rows follow enumeration order."""
        monkeypatch.setattr(harness, "_BLOCK_ROWS", 4)
        space = make_space([3, 3])
        sizes = []

        class Recording(SurfaceBackend):
            def evaluate_many(self, block, workload):
                sizes.append(len(block.levels))
                return super().evaluate_many(block, workload)

        dataset = collect_exhaustive(space, Recording(space), UTILITY, SLO, WORKLOAD)
        reference, _ = surface_dataset()
        assert sizes == [4, 4, 1]
        assert dataset.rows == reference.rows

    def test_per_row_backend_checkpoints_every_row(self, tmp_path):
        """A backend measuring one row at a time has each row on disk before
        it measures the next: the file is flushed after every run of rows
        the backend yields."""
        space = make_space([3, 4])
        out = tmp_path / "dataset.csv"
        partial = out.with_name("dataset.csv.partial")
        on_disk = []

        class Watching(SurfaceBackend):
            def evaluate(self, params, workload):
                on_disk.append(len(partial.read_bytes().splitlines()) - 1)
                return super().evaluate(params, workload)

        collect_exhaustive(space, Watching(space), UTILITY, SLO, WORKLOAD, out_path=out)
        assert on_disk == list(range(space.size))

    def test_duck_typed_backend_collects(self):
        """A backend that defines only ``evaluate``, without subclassing
        ``Backend``, is measured one configuration at a time."""
        space = make_space([3, 3])

        class Duck:
            def __init__(self):
                self.inner = SurfaceBackend(space)

            def evaluate(self, params, workload):
                return self.inner.evaluate(params, workload)

        duck = Duck()
        dataset = collect_exhaustive(space, duck, UTILITY, SLO, WORKLOAD)
        reference, _ = surface_dataset()
        assert duck.inner.calls == space.size
        assert dataset.rows == reference.rows

    def test_replay_collection_resumes_to_the_same_file(self, tmp_path):
        """Collecting a dataset through its own replay backend, one stored
        row at a time, writes its file again, also from a torn partial."""
        dataset, _ = surface_dataset(fail_settings=(625, 625))
        expected = tmp_path / "expected.csv"
        write_dataset_csv(dataset, expected)
        lines = expected.read_bytes().splitlines(keepends=True)
        out = tmp_path / "dataset.csv"
        out.with_name("dataset.csv.partial").write_bytes(b"".join(lines[:4]) + lines[4][:5])
        replayed = collect_exhaustive(
            dataset.space, dataset.replay_backend(), UTILITY, SLO, WORKLOAD, out_path=out
        )
        assert out.read_bytes() == expected.read_bytes()
        assert replayed.rows == dataset.rows

    def test_replay_miss_keeps_the_rows_before_it(self, tmp_path, monkeypatch):
        """Replayed rows are written in blocks; the rows before a lookup
        miss reach the partial file before the miss, the ``KeyError`` of a
        configuration outside the stored space, is raised."""
        monkeypatch.setattr(harness, "_BLOCK_ROWS", 4)
        dataset, _ = surface_dataset((3, 3), fail_settings=(625, 625))
        expected = tmp_path / "expected.csv"
        write_dataset_csv(dataset, expected)
        wider = make_space([4, 3])  # its last three configurations are not stored
        out = tmp_path / "dataset.csv"
        with pytest.raises(
            KeyError, match="configuration not in dataset: svc0Cpu=875,svc1Cpu=500"
        ):
            collect_exhaustive(
                wider, dataset.replay_backend(), UTILITY, SLO, WORKLOAD, out_path=out
            )
        partial = out.with_name("dataset.csv.partial")
        assert partial.read_bytes() == expected.read_bytes()

    def test_replay_collection_builds_no_observation(self, monkeypatch):
        """Replay collection takes the stored columns at each rank: it
        builds no ``Configuration`` and no ``Observation``."""
        dataset, _ = surface_dataset(fail_settings=(625, 625))
        backend = dataset.replay_backend()

        def refuse(*args, **kwargs):
            raise AssertionError("replay collection built a row object")

        monkeypatch.setattr(harness, "Observation", refuse)
        monkeypatch.setattr(harness, "Configuration", refuse)
        replayed = collect_exhaustive(dataset.space, backend, UTILITY, SLO, WORKLOAD)
        for name in ("settings_matrix", "p99", "throughput", "utility", "feasible", "failed"):
            np.testing.assert_array_equal(getattr(replayed, name), getattr(dataset, name))

    def test_replay_collection_of_a_reversed_sub_box(self, monkeypatch):
        """Collecting a reduced sub-box whose parameters are in the reverse
        order, as ``screen-vs-bo`` does over a replay, gives the full
        dataset's rows at those settings, across block boundaries."""
        monkeypatch.setattr(harness, "_BLOCK_ROWS", 3)
        dataset, _ = surface_dataset((4, 3), fail_settings=(625, 625))
        full = {obs.config.settings: obs for obs in dataset.rows}
        sub = SearchSpace(
            (ParameterSpec("svc1Cpu", 625, 750, 125), ParameterSpec("svc0Cpu", 625, 875, 125))
        )
        replayed = collect_exhaustive(sub, dataset.replay_backend(), UTILITY, SLO, WORKLOAD)
        assert [obs.config.settings for obs in replayed.rows] == list(sub.iter_settings())
        assert any(obs.failed for obs in replayed.rows)
        for obs in replayed.rows:
            stored = full[obs.config.settings[::-1]]
            assert (obs.slis, obs.utility, obs.feasible, obs.failed) == (
                stored.slis, stored.utility, stored.feasible, stored.failed
            )

    def test_short_evaluate_many_is_an_error(self):
        space = make_space([3, 3])

        class Short(SurfaceBackend):
            def evaluate_many(self, block, workload):
                return iter([Measured.of(self.evaluate(block.render(0), workload))])

        with pytest.raises(ValueError, match="measured 1 rows of a block of 9"):
            collect_exhaustive(space, Short(space), UTILITY, SLO, WORKLOAD)

    def test_long_evaluate_many_is_an_error(self):
        space = make_space([2, 2])

        class Long(SurfaceBackend):
            def evaluate_many(self, block, workload):
                yield Measured({"p99_latency_ms": np.full(8, 900.0)}, [None] * 8)

        evaluator = Evaluator(space, Long(space), UTILITY, SLO, WORKLOAD)
        with pytest.raises(ValueError, match="the backend measured 8 rows of a block of 4"):
            list(evaluator.evaluate(space.iter_configurations()))

    def test_configuration_of_the_wrong_length_is_an_error(self):
        space = make_space([2, 2])
        evaluator = Evaluator(space, SurfaceBackend(space), UTILITY, SLO, WORKLOAD)
        with pytest.raises(ValueError, match="configuration has 1 settings, space has 2"):
            list(evaluator.evaluate([Configuration((500,))]))

    def test_resume_discards_torn_final_line(self, tmp_path):
        space = make_space([3, 3])
        out = tmp_path / "dataset.csv"
        collect_exhaustive(
            space, SurfaceBackend(space), UTILITY, SLO, WORKLOAD, out_path=out
        )
        partial = out.with_name("dataset.csv.partial")
        text = out.read_text()
        lines = text.splitlines(keepends=True)
        partial.write_text("".join(lines[:5]) + lines[5][: len(lines[5]) // 2])
        out.unlink()
        backend = SurfaceBackend(space)
        dataset = collect_exhaustive(
            space, backend, UTILITY, SLO, WORKLOAD, out_path=out
        )
        # four clean rows survived; the torn fifth was re-measured
        assert backend.calls == space.size - 4
        assert len(dataset.rows) == space.size


    def test_oversize_partial_rejected_before_finalizing(self, tmp_path):
        wide = make_space([3, 2])
        out = tmp_path / "dataset.csv"
        collect_exhaustive(wide, SurfaceBackend(wide), UTILITY, SLO, WORKLOAD, out_path=out)
        partial = out.with_name("dataset.csv.partial")
        out.rename(partial)
        kept = partial.read_bytes()
        narrow = make_space([2, 2])
        backend = SurfaceBackend(narrow)
        with pytest.raises(
            ValueError, match=re.escape(f"{partial}: 6 rows for a space of 4 configurations")
        ):
            collect_exhaustive(narrow, backend, UTILITY, SLO, WORKLOAD, out_path=out)
        assert backend.calls == 0
        assert partial.read_bytes() == kept
        assert not out.exists()


class TestDatasetCsv:
    def test_round_trip(self, tmp_path):
        dataset, _ = surface_dataset(fail_settings=(500, 500))
        path = tmp_path / "dataset.csv"
        write_dataset_csv(dataset, path)
        reloaded = load_dataset(path, slo=SLO)
        assert reloaded.space.names == dataset.space.names
        for orig, back in zip(dataset.rows, reloaded.rows):
            assert back.config.settings == orig.config.settings
            assert back.utility == orig.utility
            assert back.feasible == orig.feasible
            assert back.failed == orig.failed

    def test_failed_rows_serialize_nan_metrics(self, tmp_path):
        dataset, _ = surface_dataset(fail_settings=(625, 625))
        path = tmp_path / "dataset.csv"
        write_dataset_csv(dataset, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        failed = [r for r in rows if r["failed"] == "true"]
        assert len(failed) == 1
        assert failed[0]["p99_latency_ms"] == "nan"
        assert failed[0]["feasible"] == "false"

    def test_space_inference_recovers_grid(self, tmp_path):
        space = SearchSpace(
            (
                ParameterSpec("webCpu", 500, 1125, 125),
                ParameterSpec("webMemory", 256, 1024, 256),
            )
        )
        backend = SurfaceBackend(space)
        dataset = collect_exhaustive(space, backend, UTILITY, SLO, WORKLOAD)
        path = tmp_path / "dataset.csv"
        write_dataset_csv(dataset, path)
        reloaded = load_dataset(path)
        specs = {s.name: s for s in reloaded.space.parameters}
        assert (specs["webCpu"].minimum, specs["webCpu"].maximum) == (500, 1125)
        assert specs["webCpu"].granularity == 125
        assert specs["webMemory"].granularity == 256

    def test_malformed_tail_is_dropped(self, tmp_path):
        dataset, _ = surface_dataset()
        path = tmp_path / "dataset.csv"
        write_dataset_csv(dataset, path)
        with open(path, "a") as fh:
            fh.write("500.0,not-a-number\n")
        # a torn trailing line does not poison an otherwise complete file
        assert len(load_dataset(path).rows) == dataset.space.size

    def test_malformed_row_in_a_later_chunk_names_its_line(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "_BLOCK_ROWS", 4)
        dataset, _ = surface_dataset()
        path = tmp_path / "dataset.csv"
        write_dataset_csv(dataset, path)
        lines = path.read_text().splitlines(keepends=True)
        lines[6] = lines[6].replace(",true,", ",maybe,")  # data row 6, in the second chunk
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 7: malformed dataset row")):
            load_dataset(path)

    def test_torn_final_line_alone_in_its_chunk_is_dropped(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "_BLOCK_ROWS", 4)
        dataset, _ = surface_dataset()
        out = tmp_path / "dataset.csv"
        write_dataset_csv(dataset, out)
        finished = out.read_bytes()
        lines = finished.splitlines(keepends=True)
        # The header, two full chunks of 4 rows, then half of row 9.
        torn = b"".join(lines[:9]) + lines[9][: len(lines[9]) // 2]
        out.unlink()
        out.with_name("dataset.csv.partial").write_bytes(torn)
        backend = SurfaceBackend(dataset.space)
        resumed = collect_exhaustive(dataset.space, backend, UTILITY, SLO, WORKLOAD, out_path=out)
        assert backend.calls == 1  # 8 rows kept
        assert out.read_bytes() == finished
        assert np.array_equal(resumed.settings_matrix, dataset.settings_matrix)

    def test_corrupt_inner_row_names_file_and_line(self, tmp_path):
        space = SearchSpace(
            (
                ParameterSpec("webCpu", 500, 875, 125),
                ParameterSpec("webMemory", 256, 768, 256),
            )
        )
        dataset = collect_exhaustive(space, SurfaceBackend(space), UTILITY, SLO, WORKLOAD)
        path = tmp_path / "dataset.csv"
        write_dataset_csv(dataset, path)
        lines = path.read_text().splitlines(keepends=True)
        lines[9] = "625,768,not-a-number\n"  # data row 9, after the header
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 10:")):
            load_dataset(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("row", [1, 9])
    def test_non_finite_utility_names_file_and_line(self, tmp_path, cell, row):
        dataset, _ = surface_dataset()
        path = tmp_path / "dataset.csv"
        write_dataset_csv(dataset, path)
        lines = path.read_text().splitlines(keepends=True)
        cells = lines[row].split(",")
        cells[-3] = cell
        lines[row] = ",".join(cells)
        path.write_text("".join(lines))
        with pytest.raises(
            ValueError, match=re.escape(f"{path}: line {row + 1}: utility is not finite")
        ):
            load_dataset(path)

    def test_failed_row_marked_feasible_names_file_and_line(self, tmp_path):
        dataset, _ = surface_dataset(fail_settings=(625, 625))
        path = tmp_path / "dataset.csv"
        write_dataset_csv(dataset, path)
        lines = path.read_text().splitlines(keepends=True)
        row = next(i for i, line in enumerate(lines) if line.endswith(",false,true\n"))
        lines[row] = lines[row].replace(",false,true\n", ",true,true\n")
        path.write_text("".join(lines))
        message = re.escape(f"{path}: line {row + 1}: a failed row is marked feasible")
        with pytest.raises(ValueError, match=message):
            load_dataset(path)
        # A checkpoint is read by the same code, before anything is measured.
        partial = tmp_path / "out.csv.partial"
        partial.write_text("".join(lines))
        backend = SurfaceBackend(dataset.space)
        message = re.escape(f"{partial}: line {row + 1}: a failed row is marked feasible")
        with pytest.raises(ValueError, match=message):
            collect_exhaustive(
                dataset.space, backend, UTILITY, SLO, WORKLOAD, out_path=tmp_path / "out.csv"
            )
        assert backend.calls == 0

    def test_reordered_rows_rejected(self, tmp_path):
        space = make_space([2, 2])
        utilities = [0.9, 0.5, 0.2, 0.2]  # tied optima at (625, 500) and (625, 625)
        rows = tuple(
            Observation(config=c, slis={}, utility=u, feasible=True, eval_index=i + 1)
            for i, (c, u) in enumerate(zip(space.iter_configurations(), utilities))
        )
        path = tmp_path / "dataset.csv"
        write_dataset_csv(Dataset(space=space, rows=rows), path)
        assert load_dataset(path).optimum.config.settings == (625, 500)
        header, *data = path.read_text().splitlines(keepends=True)
        path.write_text(header + "".join(reversed(data)))
        with pytest.raises(
            ValueError, match=re.escape(f"{path}: data row 1 ") + ".*enumeration order"
        ):
            load_dataset(path)

    def test_incomplete_file_rejected(self, tmp_path):
        dataset, _ = surface_dataset()
        path = tmp_path / "dataset.csv"
        write_dataset_csv(dataset, path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-2]))
        with pytest.raises(ValueError, match="rows"):
            load_dataset(path)

    def test_slo_cdf_covers_successful_rows(self, tmp_path):
        dataset, _ = surface_dataset(fail_settings=(500, 500))
        path = tmp_path / "slo_cdf.csv"
        write_slo_cdf_csv(dataset, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == dataset.space.size - 1
        latencies = [float(r["p99_latency_ms"]) for r in rows]
        fractions = [float(r["cumulative_fraction"]) for r in rows]
        assert latencies == sorted(latencies)
        assert fractions[-1] == 1.0
        assert all(f2 >= f1 for f1, f2 in zip(fractions, fractions[1:]))


class TestDatasetReaderRules:
    """The cell and line syntax the dataset reader accepts, and what it
    rejects or drops, on a 3x3 dataset whose data row ``i`` is line
    ``i + 1``."""

    @staticmethod
    def written(tmp_path, space=None):
        space = space or make_space([3, 3])
        dataset = collect_exhaustive(space, SurfaceBackend(space), UTILITY, SLO, WORKLOAD)
        path = tmp_path / "dataset.csv"
        write_dataset_csv(dataset, path)
        return dataset, path, path.read_text().splitlines(keepends=True)

    @staticmethod
    def resume(dataset, partial_text, tmp_path):
        """Finish ``partial_text`` as a ``.partial`` file; the finished
        file's bytes and the rows measured for it."""
        out = tmp_path / "out.csv"
        out.with_name("out.csv.partial").write_bytes(partial_text.encode("utf-8"))
        backend = SurfaceBackend(dataset.space)
        collect_exhaustive(dataset.space, backend, UTILITY, SLO, WORKLOAD, out_path=out)
        return out.read_bytes(), backend.calls

    def test_crlf_line_endings_load(self, tmp_path):
        dataset, path, lines = self.written(tmp_path)
        path.write_bytes("".join(lines).replace("\n", "\r\n").encode("utf-8"))
        assert load_dataset(path).rows == dataset.rows

    @pytest.mark.parametrize("blank", ["\n", "\r\n", "   \n"], ids=["empty", "crlf", "spaces"])
    def test_inner_blank_line_is_malformed(self, tmp_path, blank):
        _, path, lines = self.written(tmp_path)
        lines.insert(4, blank)
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 5: malformed dataset row")):
            load_dataset(path)

    def test_quoted_cells_load(self, tmp_path):
        dataset, path, lines = self.written(tmp_path)
        quoted = ('"' + line.rstrip("\n").replace(",", '","') + '"\n' for line in lines)
        path.write_text("".join(quoted))
        assert load_dataset(path).rows == dataset.rows

    @pytest.mark.parametrize("flag", [" false", "false ", "False", "0", '"false" '])
    def test_flag_cells_are_exactly_true_or_false(self, tmp_path, flag):
        _, path, lines = self.written(tmp_path)
        cells = lines[2].rstrip("\n").split(",")
        cells[-1] = flag
        lines[2] = ",".join(cells) + "\n"
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 3: malformed dataset row")):
            load_dataset(path)

    def test_underscore_in_a_settings_cell_is_malformed(self, tmp_path):
        _, path, lines = self.written(tmp_path, make_space([2, 2], granularity=500))
        assert lines[2].startswith("500,1000,")
        lines[2] = lines[2].replace("500,1000,", "500,1_000,", 1)
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 3: malformed dataset row")):
            load_dataset(path)

    def test_malformed_final_line_ending_in_a_newline_is_dropped(self, tmp_path):
        dataset, path, lines = self.written(tmp_path)
        finished = "".join(lines)
        torn = "".join(lines[:-1]) + "750,750,oops\n"
        path.write_text(torn)
        with pytest.raises(ValueError, match="dataset has 8 rows for a space of 9"):
            load_dataset(path)
        assert self.resume(dataset, torn, tmp_path) == (finished.encode("utf-8"), 1)

    def test_header_only_file(self, tmp_path):
        dataset, path, lines = self.written(tmp_path)
        path.write_text(lines[0])
        with pytest.raises(ValueError, match=re.escape(f"{path}: no data rows")):
            load_dataset(path)
        finished = "".join(lines).encode("utf-8")
        assert self.resume(dataset, lines[0], tmp_path) == (finished, dataset.space.size)

    def test_header_without_a_newline_resumes(self, tmp_path):
        dataset, _, lines = self.written(tmp_path)
        finished = "".join(lines).encode("utf-8")
        header = lines[0].rstrip("\n")
        assert self.resume(dataset, header, tmp_path) == (finished, dataset.space.size)

    def test_resume_keeps_crlf_rows_and_a_quoted_header_as_they_are(self, tmp_path):
        dataset, _, lines = self.written(tmp_path)
        header = '"' + lines[0].rstrip("\n").replace(",", '","') + '"\n'
        kept = (header + "".join(lines[1:5])).replace("\n", "\r\n")
        torn = lines[5][: len(lines[5]) // 2]
        finished, calls = self.resume(dataset, kept + torn, tmp_path)
        assert calls == dataset.space.size - 4
        assert finished == (kept + "".join(lines[5:])).encode("utf-8")
        assert load_dataset(tmp_path / "out.csv").rows == dataset.rows

    def test_order_is_checked_in_an_inferred_space_past_int64(self, tmp_path):
        """Ten rows whose 20 parameters each take ten values infer a space of
        10**20 configurations; the order check still names the row."""
        names = [f"p{i}" for i in range(20)]
        rows = (",".join([str(r)] * 20) + ",1.0,1.0,0.5,true,false\n" for r in range(10))
        path = tmp_path / "dataset.csv"
        path.write_text(",".join(names + list(harness._METRIC_COLUMNS)) + "\n" + "".join(rows))
        with pytest.raises(ValueError, match=re.escape(f"{path}: data row 2 has settings (1,")):
            load_dataset(path)

    def test_complete_final_line_without_a_newline_is_kept(self, tmp_path):
        dataset, _, lines = self.written(tmp_path)
        finished = "".join(lines)
        partial = "".join(lines[:6]).removesuffix("\n")
        assert self.resume(dataset, partial, tmp_path) == (finished.encode("utf-8"), 4)


class TableBackend(Backend):
    """Replies with a fixed result per configuration, in enumeration order."""

    def __init__(self, space, results):
        self.space = space
        self.table = dict(zip((c.settings for c in space.iter_configurations()), results))
        self.calls = 0

    def evaluate(self, params, workload):
        self.calls += 1
        return self.table[tuple(int(params[name]) for name in self.space.names)]


@st.composite
def measured_spaces(draw):
    """A space of 1-3 parameters and one backend result per configuration:
    measured, measured without throughput, out of memory, or with a p99 that
    is not finite (scored as failed, throughput kept)."""
    specs = []
    for i in range(draw(st.integers(min_value=1, max_value=3))):
        minimum = draw(st.integers(min_value=0, max_value=1000))
        granularity = draw(st.integers(min_value=1, max_value=200))
        steps = draw(st.integers(min_value=0, max_value=3))
        specs.append(ParameterSpec(f"p{i}", minimum, minimum + granularity * steps, granularity))
    space = SearchSpace(tuple(specs))
    latency = st.floats(min_value=1.0, max_value=5000.0)
    throughput = st.floats(min_value=0.1, max_value=1e4)
    result = st.one_of(
        st.builds(
            lambda p99, rps: SliResult({"p99_latency_ms": p99, "throughput_rps": rps}),
            latency,
            throughput,
        ),
        latency.map(lambda p99: SliResult({"p99_latency_ms": p99, "throughput_rps": math.nan})),
        st.just(SliResult(failed=True, failure_reason="oom")),
        st.builds(
            lambda p99, rps: SliResult({"p99_latency_ms": p99, "throughput_rps": rps}),
            st.sampled_from([math.nan, math.inf]),
            throughput,
        ),
    )
    return space, draw(st.lists(result, min_size=space.size, max_size=space.size))


#: Floats whose text is easy to get wrong: signed zeros, subnormals, the
#: extreme doubles and the magnitudes where ``repr`` turns to exponents.
EDGE_FLOATS = (
    -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    -1.7976931348623157e308, 1e16, 1e15, 9999999999999998.0, 0.1,
)


@st.composite
def float_datasets(draw):
    """A dataset whose metric cells are any floats, NaN and infinities
    included, and whose utilities are any finite floats."""
    levels = st.lists(st.integers(min_value=2, max_value=4), min_size=1, max_size=2)
    space = make_space(draw(levels))
    finite = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGE_FLOATS)
    )
    metric = st.one_of(finite, st.sampled_from([math.nan, math.inf, -math.inf]))
    rows = []
    for index, config in enumerate(space.iter_configurations(), 1):
        failed = draw(st.booleans())
        feasible = not failed and draw(st.booleans())
        slis = {"p99_latency_ms": draw(metric), "throughput_rps": draw(metric)}
        rows.append(Observation(config, slis, draw(finite), feasible, index, failed))
    return Dataset(space, rows)


class TestDatasetCodecProperties:
    @given(float_datasets())
    @settings(max_examples=60, deadline=None)
    def test_read_back_is_bit_equal_to_python_parsing(self, dataset):
        """The reader's columns equal, bit for bit, what csv.reader with
        ``int()``, ``float()`` and the flag texts makes of the written file."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "dataset.csv"
            write_dataset_csv(dataset, path)
            loaded = load_dataset(path)
            with open(path, newline="", encoding="utf-8") as handle:
                _, *records = csv.reader(handle)
        k = dataset.space.dimension
        columns = list(zip(*records))
        settings = np.array([[int(cell) for cell in record[:k]] for record in records])
        assert np.array_equal(loaded.settings_matrix, settings)
        for name, cells in zip(("p99", "throughput", "utility"), columns[k : k + 3]):
            oracle = np.array([float(cell) for cell in cells])
            assert np.array_equal(getattr(loaded, name).view(np.uint64), oracle.view(np.uint64))
        for name, cells in zip(("feasible", "failed"), columns[k + 3 :]):
            flags = [{"true": True, "false": False}[cell] for cell in cells]
            assert getattr(loaded, name).tolist() == flags

    @given(measured_spaces())
    @settings(max_examples=60, deadline=None)
    def test_write_load_write_is_identity(self, drawn):
        space, results = drawn
        dataset = collect_exhaustive(space, TableBackend(space, results), UTILITY, SLO, WORKLOAD)
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "first.csv", Path(tmp) / "second.csv"
            write_dataset_csv(dataset, first)
            write_dataset_csv(load_dataset(first, slo=SLO), second)
            assert second.read_bytes() == first.read_bytes()

    @given(measured_spaces(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_resume_from_any_cut_restores_the_file(self, drawn, data):
        space, results = drawn
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "dataset.csv"
            collect_exhaustive(
                space, TableBackend(space, results), UTILITY, SLO, WORKLOAD, out_path=out
            )
            finished = out.read_bytes()
            header_end = finished.index(b"\n") + 1
            cut = data.draw(st.integers(min_value=header_end, max_value=len(finished)))
            out.unlink()
            partial = out.with_name("dataset.csv.partial")
            partial.write_bytes(finished[:cut])
            backend = TableBackend(space, results)
            collect_exhaustive(space, backend, UTILITY, SLO, WORKLOAD, out_path=out)
            assert out.read_bytes() == finished
            assert not partial.exists()
        # A row is kept whole when the cut keeps everything before its newline.
        row_ends = [i for i in range(header_end, len(finished)) if finished[i : i + 1] == b"\n"]
        kept = sum(1 for end in row_ends if end <= cut)
        assert backend.calls == space.size - kept


def record_lines(columns):
    """The reference rendering: each record through ``_row_format``."""
    row_format = harness._row_format("s" * columns.settings.shape[1] + "rrrss")
    return [row_format % record for record in columns.records()]


#: Float cells whose text is easy to get wrong, NaN (an absent metric) first.
EDGE_CELLS = (math.nan, -0.0, 0.0, 1e16, 9999999999999998.0, 1e-05, 5e-324, 0.1 + 0.2)
#: Settings cells: negative, zero and multi-digit values.
EDGE_SETTINGS = (-1250, -1, 0, 7, 10, 125, 999_999, 2**40)


def edge_columns(rows, dimension):
    """Columns cycling through the edge cells and all four flag pairs, with
    settings that repeat within each half of a row."""
    index = np.arange(rows)
    codes = index[:, None] // 3 + index[:, None] * np.arange(dimension)
    settings = np.array(EDGE_SETTINGS)[codes % len(EDGE_SETTINGS)]
    cells = np.array(EDGE_CELLS)
    return harness._Columns(
        settings,
        cells[index % 8],
        cells[(index + 3) % 8],
        cells[(index + 5) % 8],
        index % 4 >= 2,
        index % 2 == 1,
    )


class TestDatasetLines:
    @pytest.mark.parametrize("dimension", [1, 2, 3, 6])
    def test_lines_match_the_record_format_on_edge_values(self, dimension):
        columns = edge_columns(48, dimension)
        lines = list(columns.lines())
        assert lines == record_lines(columns)
        flags ={tuple(line.rstrip("\n").split(",")[-2:]) for line in lines}
        assert flags == {("false", "false"), ("false", "true"), ("true", "false"), ("true", "true")}
        assert "nan" in lines[0] and "5e-324" in "".join(lines)

    @pytest.mark.parametrize("rows", [0, 1, 2])
    def test_small_blocks(self, rows):
        columns = edge_columns(9, 4).slice(7 - rows, 7)
        assert list(columns.lines()) == record_lines(columns)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_lines_match_the_record_format(self, data):
        """Any int64 settings, drawn often from a few values so that rows
        repeat, any floats and any flags."""
        k = data.draw(st.integers(min_value=1, max_value=5))
        rows = data.draw(st.integers(min_value=0, max_value=40))
        cell = st.one_of(st.sampled_from(EDGE_SETTINGS), st.integers(-(2**63), 2**63 - 1))
        settings_ = data.draw(st.lists(cell, min_size=rows * k, max_size=rows * k))
        floats = data.draw(st.lists(st.floats(), min_size=rows * 3, max_size=rows * 3))
        flags = data.draw(st.lists(st.booleans(), min_size=rows * 2, max_size=rows * 2))
        columns = harness._Columns(
            np.array(settings_, dtype=np.int64).reshape(rows, k),
            *np.array(floats, dtype=float).reshape(3, rows),
            *np.array(flags, dtype=bool).reshape(2, rows),
        )
        assert list(columns.lines()) == record_lines(columns)

    def test_written_blocks_join_to_one_rendering(self, tmp_path, monkeypatch):
        dataset, _ = surface_dataset((3, 5), fail_settings=(625, 750))
        whole = tmp_path / "whole.csv"
        write_dataset_csv(dataset, whole)
        monkeypatch.setattr(harness, "_BLOCK_ROWS", 4)
        blocks = tmp_path / "blocks.csv"
        write_dataset_csv(dataset, blocks)
        assert blocks.read_bytes() == whole.read_bytes()
        columns = harness._Columns(
            dataset.settings_matrix, dataset.p99, dataset.throughput, dataset.utility,
            dataset.feasible, dataset.failed,
        )
        header = ",".join([*dataset.space.names, *harness._METRIC_COLUMNS]) + "\n"
        assert whole.read_text() == header + "".join(record_lines(columns))


#: NaNs with other payloads and signs, by their bit patterns.
NAN_BITS = st.integers(min_value=1, max_value=2**52 - 1).flatmap(
    lambda payload: st.sampled_from([0x7FF0 << 48 | payload, 0xFFF0 << 48 | payload])
)


class TestFloatTexts:
    @given(
        st.lists(
            st.one_of(
                st.floats(),
                st.sampled_from(EDGE_FLOATS),
                NAN_BITS.map(lambda bits: np.array(bits, np.uint64).view(np.float64).item()),
            ),
            max_size=60,
        ).flatmap(lambda values: st.lists(st.sampled_from(values or [0.0]), max_size=120))
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_repr_of_each_value(self, values):
        """Values drawn again from a drawn pool, so that they repeat."""
        column = np.array(values, dtype=float)
        assert harness._float_texts(column) == [repr(value) for value in column.tolist()]

    def test_signed_zeros_subnormals_and_nans(self):
        nans = np.array([0x7FF8 << 48, 0xFFF8 << 48, 0x7FF0 << 48 | 1], np.uint64).view(np.float64)
        column = np.array([0.0, -0.0, 0.0, 5e-324, -5e-324, 1e16, 1e16, *nans])
        assert harness._float_texts(column) == [
            "0.0", "-0.0", "0.0", "5e-324", "-5e-324", "1e+16", "1e+16", "nan", "nan", "nan",
        ]


def reduced_toystore_collection(tmp_path):
    """The bundled reduced toystore config's 192-row dataset, collected to
    ``tmp_path / "dataset.csv"`` with its sidecar."""
    config = parse_config(bundled_path("toystore-reduced.yaml"))
    path = tmp_path / "dataset.csv"
    collect_exhaustive(
        config.space,
        build_backend(config),
        get_utility(config.util_func),
        config.slo,
        config.workload,
        weights=config.cost_weights,
        cost_space=config.cost_reference,
        out_path=path,
    )
    return config, path


class TestDatasetSidecar:
    def test_collection_records_grid_rows_and_digest(self, tmp_path):
        config, path = reduced_toystore_collection(tmp_path)
        document = json.loads((tmp_path / "dataset.json").read_text())
        assert document == {
            "parameters": [
                {"name": p.name, "min": p.minimum, "max": p.maximum, "granularity": p.granularity}
                for p in config.space.parameters
            ],
            "rows": 192,
            "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
        }

    def test_the_grid_comes_from_the_sidecar(self, tmp_path):
        """A single-level parameter keeps its granularity, which inference
        cannot see, and ``report`` keeps the sidecar."""
        _, path = reduced_toystore_collection(tmp_path)
        pinned = SearchSpace(
            (ParameterSpec("a", 500, 500, 125),)
            + make_space([2, 3]).parameters
        )
        out = tmp_path / "pinned.csv"
        collect_exhaustive(pinned, SurfaceBackend(pinned), UTILITY, SLO, WORKLOAD, out_path=out)
        assert load_dataset(out).space == pinned
        assert load_dataset(path).space.parameters[3].granularity == 256  # authMemory
        (tmp_path / "pinned.json").unlink()
        assert load_dataset(out).space.parameters[0].granularity == 1

    def test_truncated_dataset_names_the_missing_rows(self, tmp_path):
        """Cut after its first ``webCpu`` level, the file would read as a
        complete space of 64 configurations without its sidecar."""
        _, path = reduced_toystore_collection(tmp_path)
        lines = path.read_bytes().splitlines(keepends=True)
        first_level = [line.split(b",")[0] for line in lines[1:]].count(lines[1].split(b",")[0])
        assert first_level == 64
        path.write_bytes(b"".join(lines[: 1 + first_level]))
        message = (
            f"{path}: 64 data rows where {tmp_path / 'dataset.json'} records 192; "
            "data rows 65 to 192 are missing, from settings "
            "(1000, 256, 500, 256, 750, 256, 500, 256)"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_dataset(path)
        (tmp_path / "dataset.json").unlink()
        assert load_dataset(path).space.size == 64

    def test_crlf_resave_under_a_stale_sidecar_names_it(self, tmp_path):
        _, path = reduced_toystore_collection(tmp_path)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        sidecar = tmp_path / "dataset.json"
        message = (
            f"{path}: the file changed after it was written: its sha256 differs from the one "
            f"{sidecar} records; delete {sidecar} if the edit was intended"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_dataset(path)
        sidecar.unlink()
        assert len(load_dataset(path).utility) == 192

    @pytest.mark.parametrize(
        "edit, reason",
        [
            (lambda doc: "not json", "Expecting value: line 1 column 1 (char 0)"),
            (lambda doc: json.dumps(doc["parameters"]), "document: expected a mapping"),
            (
                lambda doc: json.dumps({**doc, "rows": "192"}),
                "rows: expected an integer, got '192'",
            ),
            (
                lambda doc: json.dumps({**doc, "parameters": [{**doc["parameters"][0], "min": 1.5}]}),
                "parameters[0].min: expected an integer, got 1.5",
            ),
            (
                lambda doc: json.dumps({k: v for k, v in doc.items() if k != "sha256"}),
                "missing required key: sha256",
            ),
            (
                lambda doc: json.dumps({**doc, "parameters": [{**doc["parameters"][0], "max": 0}]}),
                "parameter 'webCpu': minimum 750 exceeds maximum 0",
            ),
            (
                lambda doc: json.dumps({**doc, "rows": 191}),
                "rows: 191 rows for a grid of 192 configurations",
            ),
        ],
        ids=["text", "list", "text-rows", "float-min", "no-digest", "crossed-bounds", "rows"],
    )
    def test_malformed_sidecar_names_it(self, tmp_path, edit, reason):
        _, path = reduced_toystore_collection(tmp_path)
        sidecar = tmp_path / "dataset.json"
        sidecar.write_text(edit(json.loads(sidecar.read_text())))
        message = f"{sidecar}: malformed dataset sidecar: {reason}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as excinfo:
            load_dataset(path)
        assert type(excinfo.value) is ValueError  # report and compare exit 2 on it

    def test_sidecar_that_is_not_utf8_names_it(self, tmp_path):
        _, path = reduced_toystore_collection(tmp_path)
        sidecar = tmp_path / "dataset.json"
        sidecar.write_bytes(b"\xff\xfe")
        message = f"{sidecar}: malformed dataset sidecar: 'utf-8' codec can't decode"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            load_dataset(path)

    def test_sidecar_keys_it_does_not_know_are_ignored(self, tmp_path):
        _, path = reduced_toystore_collection(tmp_path)
        sidecar = tmp_path / "dataset.json"
        sidecar.write_text(json.dumps(json.loads(sidecar.read_text()) | {"note": "x"}))
        assert len(load_dataset(path).utility) == 192

    def test_parameter_renamed_in_the_sidecar_names_it(self, tmp_path):
        config, path = reduced_toystore_collection(tmp_path)
        sidecar = tmp_path / "dataset.json"
        document = json.loads(sidecar.read_text())
        document["parameters"][0]["name"] = "renamed"
        sidecar.write_text(json.dumps(document))
        names = list(config.space.names)
        message = (
            f"{path}: parameter columns {names} do not match the parameters {sidecar} "
            f"records {['renamed', *names[1:]]}"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_dataset(path)

    def test_old_sidecar_is_gone_before_the_new_file_replaces_the_old(self, tmp_path, monkeypatch):
        """A crash between the rename and the new sidecar leaves no sidecar,
        never one that disagrees with the file."""
        space = make_space([3, 3])
        out = tmp_path / "dataset.csv"
        collect_exhaustive(space, SurfaceBackend(space), UTILITY, SLO, WORKLOAD, out_path=out)
        replace = os.replace

        def replace_then_crash(source, target):
            replace(source, target)
            raise KeyboardInterrupt

        monkeypatch.setattr(harness.os, "replace", replace_then_crash)
        other = SurfaceBackend(space, fail_settings=(500, 500))
        with pytest.raises(KeyboardInterrupt):
            collect_exhaustive(space, other, UTILITY, SLO, WORKLOAD, out_path=out)
        assert not (tmp_path / "dataset.json").exists()
        assert load_dataset(out).failed[0]

    def test_a_source_changed_after_loading_is_rendered(self, tmp_path):
        space = make_space([3, 3])
        path = tmp_path / "dataset.csv"
        collect_exhaustive(space, SurfaceBackend(space), UTILITY, SLO, WORKLOAD, out_path=path)
        finished = path.read_bytes()
        dataset = load_dataset(path)
        path.write_bytes(finished.replace(b"\n", b"\r\n"))
        out = tmp_path / "out.csv"
        write_dataset_csv(dataset, out)
        assert out.read_bytes() == finished
        assert not (tmp_path / "out.json").exists()

    def test_columns_of_a_checked_dataset_are_read_only(self, tmp_path):
        """``write_dataset_csv`` copies the file, so the columns may not change."""
        space = make_space([2, 2])
        path = tmp_path / "dataset.csv"
        collect_exhaustive(space, SurfaceBackend(space), UTILITY, SLO, WORKLOAD, out_path=path)
        dataset = load_dataset(path)
        with pytest.raises(ValueError, match="read-only"):
            dataset.utility[0] = 0.0
        (tmp_path / "dataset.json").unlink()
        load_dataset(path).utility[0] = 0.0

    def test_sidecar_of_a_json_named_dataset_does_not_overwrite_it(self, tmp_path):
        space = make_space([2, 2])
        path = tmp_path / "data.json"
        collect_exhaustive(space, SurfaceBackend(space), UTILITY, SLO, WORKLOAD, out_path=path)
        assert (tmp_path / "data.json.json").exists()
        assert len(load_dataset(path).utility) == 4


class TestCompare:
    def test_curves_monotone(self):
        dataset, _ = surface_dataset((4, 4))
        report = compare(dataset, ["random", "bayesian-ei"], 20, 12, base_seed=0)
        for comparison in report.optimizers.values():
            assert np.all(np.diff(comparison.fraction_found_optimal) >= 0)
            assert np.all(np.diff(comparison.distance_q99) <= 0)

    def test_exhaustive_budget_always_finds_optimum(self):
        dataset, _ = surface_dataset()
        report = compare(
            dataset, ["exhaustive"], 5, dataset.space.size, base_seed=0
        )
        assert report.optimizers["exhaustive"].fraction_found_optimal[-1] == 1.0
        assert report.optimizers["exhaustive"].distance_q99[-1] == 0.0

    def test_parallel_equals_serial(self, tmp_path):
        dataset, _ = surface_dataset((4, 4))
        serial = compare(dataset, ["random", "randominc"], 12, 10, base_seed=3)
        assert not harness._WORKER_STATE  # the serial path keeps no dataset behind
        parallel = compare(
            dataset, ["random", "randominc"], 12, 10, base_seed=3, workers=3
        )
        (tmp_path / "serial").mkdir()
        (tmp_path / "parallel").mkdir()
        serial_paths = write_comparison_csvs(serial, tmp_path / "serial")
        parallel_paths = write_comparison_csvs(parallel, tmp_path / "parallel")
        for a, b in zip(serial_paths, parallel_paths):
            assert a.read_bytes() == b.read_bytes()

    def test_argument_validation(self):
        dataset, _ = surface_dataset()
        with pytest.raises(ValueError, match="runs"):
            compare(dataset, ["random"], 0, 5, 0)
        with pytest.raises(ValueError, match="budget"):
            compare(dataset, ["random"], 5, 0, 0)
        with pytest.raises(ValueError, match=re.escape("workers must be >= 1, got 0")):
            compare(dataset, ["random"], 5, 5, 0, workers=0)
        with pytest.raises(ValueError, match="duplicate"):
            compare(dataset, ["random", "random"], 5, 5, 0)

    def test_csv_shape(self, tmp_path):
        dataset, _ = surface_dataset()
        report = compare(dataset, ["random"], 6, 5, base_seed=0)
        (path,) = write_comparison_csvs(report, tmp_path)
        assert path.name == "compare_random.csv"
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "fraction_found_optimal", "distance_q99"]
        assert len(rows) == 6
        assert [int(r[0]) for r in rows[1:]] == [1, 2, 3, 4, 5]


class TestTraceCsv:
    def test_columns_and_best_so_far(self, tmp_path):
        dataset, _ = surface_dataset()
        trace = run_optimization(
            dataset.space, "random", dataset.replay_backend(), 6, 3, seed=0
        )
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, dataset.space, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6
        best = [float(r["best_so_far"]) for r in rows]
        assert best == sorted(best, reverse=True) or np.all(np.diff(best) <= 0)
        assert [int(r["eval_index"]) for r in rows] == list(range(1, 7))


class TestScreeningVsStandalone:
    @staticmethod
    def run(space, total_budget=30, repetitions=2, r=3):
        backend = SurfaceBackend(space)
        return screening_vs_standalone(
            space,
            backend,
            UTILITY,
            SLO,
            WORKLOAD,
            total_budget=total_budget,
            r=r,
            repetitions=repetitions,
            base_seed=0,
        )

    def test_budget_split(self):
        space = make_space([6, 6], granularity=125)
        report = self.run(space)
        assert report.total_budget == 30
        for rep in report.repetitions:
            assert rep.screening_evals == 3 * (space.dimension + 1)

    def test_screening_cost_must_fit_budget(self):
        space = make_space([6, 6])
        message = "screening alone needs r·(k + 1) = 9 evaluations, above the total budget 8"
        with pytest.raises(ConfigError, match=re.escape(message)):
            self.run(space, total_budget=8, r=3)

    def test_reduced_space_is_subset(self):
        space = make_space([6, 6])
        report = self.run(space)
        for rep in report.repetitions:
            assert rep.reduced_size <= space.size
            for spec, orig in zip(rep.reduced_space.parameters, space.parameters):
                assert spec.minimum >= orig.minimum
                assert spec.maximum <= orig.maximum

    def test_flags_consistent_with_configs(self):
        space = make_space([6, 6])
        report = self.run(space)
        for rep in report.repetitions:
            assert rep.combined_in_reduced_bounds == rep.reduced_space.contains(
                rep.combined_best_config
            )
            assert rep.standalone_in_reduced_bounds == rep.reduced_space.contains(
                rep.standalone_best_config
            )
            if rep.reduced_optimum_utility is not None:
                assert rep.combined_best_utility >= rep.reduced_optimum_utility or (
                    not rep.combined_in_reduced_bounds
                )
