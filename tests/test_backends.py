from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
import stat
import textwrap

import numpy as np
import pytest
import yaml
from hypothesis import given
from hypothesis import strategies as st

from confopt import backends, harness
from confopt.backends import (
    Block,
    ExternalBackend,
    Measured,
    ReplayBackend,
    ServiceModelSpec,
    ServiceSpec,
    SliResult,
    SyntheticBackend,
    load_service_model,
)
from confopt.config import ConfigError
from confopt.harness import Dataset, Evaluator
from confopt.optim import Observation
from confopt.space import Configuration, ParameterSpec, SearchSpace
from confopt.utility import WorkloadSpec


def one_service_model(**overrides):
    fields = dict(base_ms=50.0, cpu_demand_mc=500.0, mem_working_set_mi=0.0)
    fields.update(overrides)
    return ServiceModelSpec(
        services=(ServiceSpec(name="web", **fields),),
        chain=("web",),
        p99_factor=3.0,
        mem_penalty=1.5,
    )


WORKLOAD = WorkloadSpec(tenants=1)


class TestServiceModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            ServiceSpec("s", base_ms=0.0, cpu_demand_mc=1.0, mem_working_set_mi=1.0)
        with pytest.raises(ValueError):
            ServiceModelSpec(services=(), chain=("a",), p99_factor=3.0, mem_penalty=0.0)
        with pytest.raises(ValueError):
            ServiceModelSpec(
                services=(ServiceSpec("a", 1.0, 1.0, 1.0),),
                chain=("missing",),
                p99_factor=3.0,
                mem_penalty=0.0,
            )

    def test_load_from_yaml(self, tmp_path):
        path = tmp_path / "model.yaml"
        path.write_text(
            textwrap.dedent(
                """
                services:
                  web:
                    base_ms: 40.0
                    cpu_demand_mc: 150.0
                    mem_working_set_mi: 600.0
                chain: [web]
                p99_factor: 3.0
                mem_penalty: 1.5
                """
            )
        )
        model = load_service_model(path)
        assert model.service("web").base_ms == 40.0
        assert model.noise_sigma == 0.0

    def test_load_rejects_unknown_fields(self, tmp_path):
        path = tmp_path / "model.yaml"
        path.write_text(
            yaml.safe_dump(
                {
                    "services": {"web": {"base_ms": 1.0, "cpu_demand_mc": 1.0, "mem_working_set_mi": 0.0}},
                    "chain": ["web"],
                    "p99_factor": 3.0,
                    "mem_penalty": 0.0,
                    "bogus": 1,
                }
            )
        )
        with pytest.raises(ValueError, match="bogus"):
            load_service_model(path)

    @staticmethod
    def write_model(tmp_path, web=None, **top):
        """A one-service model file with the web service's fields and the
        top-level fields overridden."""
        document = {
            "services": {
                "web": {"base_ms": 40.0, "cpu_demand_mc": 1.0, "mem_working_set_mi": 0.0}
                | (web or {})
            },
            "chain": ["web"],
            "p99_factor": 3.0,
            "mem_penalty": 1.5,
        } | top
        path = tmp_path / "model.yaml"
        path.write_text(yaml.safe_dump(document))
        return path

    def assert_load_fails(self, path, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_service_model(path)

    def test_services_must_be_a_mapping(self, tmp_path):
        path = self.write_model(tmp_path, services=[{"web": {"base_ms": 40.0}}])
        self.assert_load_fails(path, "services: expected a mapping")

    def test_chain_must_be_a_list_of_names(self, tmp_path):
        path = self.write_model(tmp_path, chain="web")
        self.assert_load_fails(path, "chain: expected a list")
        path = self.write_model(tmp_path, chain=["web", 1])
        self.assert_load_fails(path, "chain[1]: expected a string, got 1")

    def test_non_finite_service_field_rejected(self, tmp_path):
        path = self.write_model(tmp_path, web={"base_ms": float("nan")})
        self.assert_load_fails(path, "services.web.base_ms: expected a finite number, got nan")

    def test_non_finite_model_field_rejected(self, tmp_path):
        path = self.write_model(tmp_path, p99_factor=float("inf"))
        self.assert_load_fails(path, "p99_factor: expected a finite number, got inf")

    def test_non_numeric_field_names_service_and_field(self, tmp_path):
        path = self.write_model(tmp_path, web={"base_ms": "fast"})
        self.assert_load_fails(path, "services.web.base_ms: expected a number, got 'fast'")

    def test_integer_beyond_float_range_names_the_field(self, tmp_path):
        path = self.write_model(tmp_path, web={"cpu_demand_mc": 10**400})
        self.assert_load_fails(
            path,
            "services.web.cpu_demand_mc: expected a finite number, "
            "got an integer beyond the float range",
        )

    def test_unknown_and_missing_service_fields_name_their_path(self, tmp_path):
        path = self.write_model(tmp_path, web={"speed": 1.0})
        self.assert_load_fails(path, "unknown key: services.web.speed")
        path = self.write_model(tmp_path, mem_penalty=None)
        self.assert_load_fails(path, "mem_penalty: expected a number, got None")
        path.write_text(path.read_text().replace("chain:", "chains:"))
        self.assert_load_fails(path, "missing required key: chain")

    def test_a_value_the_model_refuses_names_the_service_once(self, tmp_path):
        path = self.write_model(tmp_path, web={"base_ms": 0})
        self.assert_load_fails(path, "service 'web': base_ms must be positive")

    @pytest.mark.parametrize("field", ["base_ms", "cpu_demand_mc", "mem_working_set_mi"])
    def test_service_spec_rejects_non_finite(self, field):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            one_service_model(**{field: float("inf")})

    @pytest.mark.parametrize("field", ["p99_factor", "mem_penalty", "noise_sigma"])
    def test_model_spec_rejects_non_finite(self, field):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            dataclasses.replace(one_service_model(), **{field: float("nan")})


class TestSyntheticBackend:
    def test_single_service_formula(self):
        """cpu=1000, demand=500, one tenant: rho=0.5, latency 100, p99 300."""
        backend = SyntheticBackend(one_service_model())
        result = backend.evaluate({"webCpu": "1000m", "webMemory": "512Mi"}, WORKLOAD)
        assert not result.failed
        assert result.slis["p99_latency_ms"] == pytest.approx(300.0)
        assert result.slis["throughput_rps"] == pytest.approx(10.0)

    def test_saturation_threshold(self):
        model = one_service_model()
        backend = SyntheticBackend(model)
        # tenants * 500 / 505 = 0.990... >= 0.98 -> saturated
        result = backend.evaluate({"webCpu": "505m", "webMemory": "512Mi"}, WORKLOAD)
        assert result.slis["p99_latency_ms"] == pytest.approx(
            3.0 * model.saturation_latency_ms
        )

    def test_memory_pressure_multiplier(self):
        model = one_service_model(mem_working_set_mi=600.0)
        backend = SyntheticBackend(model)
        ok = backend.evaluate({"webCpu": "1000m", "webMemory": "600Mi"}, WORKLOAD)
        squeezed = backend.evaluate({"webCpu": "1000m", "webMemory": "400Mi"}, WORKLOAD)
        # multiplier = 1 + 1.5 * (600/400 - 1) = 1.75
        assert squeezed.slis["p99_latency_ms"] == pytest.approx(
            ok.slis["p99_latency_ms"] * 1.75
        )

    def test_out_of_memory_fails(self):
        model = one_service_model(mem_working_set_mi=600.0)
        backend = SyntheticBackend(model)
        result = backend.evaluate({"webCpu": "1000m", "webMemory": "200Mi"}, WORKLOAD)
        assert result.failed
        assert "out of memory" in result.failure_reason

    def test_missing_parameter_is_an_error(self):
        backend = SyntheticBackend(one_service_model())
        with pytest.raises(ValueError, match="webMemory"):
            backend.evaluate({"webCpu": "1000m"}, WORKLOAD)

    def test_latency_monotone_in_allocations(self):
        model = one_service_model(mem_working_set_mi=600.0)
        backend = SyntheticBackend(model)
        last = float("inf")
        for cpu in (600, 800, 1000, 1200):
            p99 = backend.evaluate(
                {"webCpu": f"{cpu}m", "webMemory": "400Mi"}, WORKLOAD
            ).slis["p99_latency_ms"]
            assert p99 < last
            last = p99
        last = float("inf")
        for mem in (320, 400, 480, 600):
            p99 = backend.evaluate(
                {"webCpu": "1000m", "webMemory": f"{mem}Mi"}, WORKLOAD
            ).slis["p99_latency_ms"]
            assert p99 < last
            last = p99

    def test_deterministic_without_noise(self):
        backend = SyntheticBackend(one_service_model(), seed=5)
        a = backend.evaluate({"webCpu": "1000m", "webMemory": "512Mi"}, WORKLOAD)
        b = backend.evaluate({"webCpu": "1000m", "webMemory": "512Mi"}, WORKLOAD)
        assert a.slis == b.slis

    def test_cached_service_latencies_match_a_fresh_backend(self):
        """A service's latency is reused only for the same settings and
        tenant count; failures repeat, and invalid settings raise each time."""
        model = one_service_model(mem_working_set_mi=600.0)
        warm = SyntheticBackend(model)
        cases = [
            ({"webCpu": "1000m", "webMemory": "400Mi"}, 1),
            ({"webCpu": "1000m", "webMemory": "400Mi"}, 2),
            ({"webCpu": "1000m", "webMemory": "200Mi"}, 1),
            ({"webCpu": "1000m", "webMemory": "400Mi"}, 1),
            ({"webCpu": "1000m", "webMemory": "200Mi"}, 1),
        ]
        for params, tenants in cases:
            workload = WorkloadSpec(tenants=tenants)
            assert warm.evaluate(params, workload) == SyntheticBackend(model).evaluate(
                params, workload
            )
        for _ in range(2):
            with pytest.raises(ValueError, match="cpu must be positive"):
                warm.evaluate({"webCpu": "0m", "webMemory": "400Mi"}, WORKLOAD)

    def test_noise_is_per_config_deterministic(self):
        model = ServiceModelSpec(
            services=(ServiceSpec("web", 50.0, 500.0, 0.0),),
            chain=("web",),
            p99_factor=3.0,
            mem_penalty=0.0,
            noise_sigma=0.3,
        )
        backend = SyntheticBackend(model, seed=1)
        params = {"webCpu": "1000m", "webMemory": "512Mi"}
        first = backend.evaluate(params, WORKLOAD).slis["p99_latency_ms"]
        # unaffected by interleaved evaluations of other configs
        backend.evaluate({"webCpu": "800m", "webMemory": "512Mi"}, WORKLOAD)
        assert backend.evaluate(params, WORKLOAD).slis["p99_latency_ms"] == first
        other_seed = SyntheticBackend(model, seed=2)
        assert other_seed.evaluate(params, WORKLOAD).slis["p99_latency_ms"] != first


NOISY_MODEL = ServiceModelSpec(
    services=(ServiceSpec("web", 50.0, 500.0, 600.0), ServiceSpec("db", 20.0, 100.0, 0.0)),
    chain=("web", "db"),
    p99_factor=3.0,
    mem_penalty=1.5,
    noise_sigma=0.2,
)


def reference_result(backend, params, workload):
    """A result with the noise drawn as before seeds were batched: one
    ``default_rng`` per configuration, seeded from its token's hash."""
    noiseless = SyntheticBackend(dataclasses.replace(backend.model, noise_sigma=0.0))
    result = noiseless.evaluate(params, workload)
    if result.failed:
        return result
    text = ",".join(f"{k}={v}" for k, v in params.items())
    token = f"{backend.seed}|{workload.tenants}|{workload.rate_per_tenant}|{text}"
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "big"))
    noise = float(rng.lognormal(mean=0.0, sigma=backend.model.noise_sigma))
    return SliResult(
        slis={
            "p99_latency_ms": result.slis["p99_latency_ms"] * noise,
            "throughput_rps": result.slis["throughput_rps"],
        }
    )


def noisy_rows(count):
    """``count`` distinct configurations of NOISY_MODEL; every fourth runs
    web out of memory."""
    return [
        {
            "webCpu": f"{600 + i}m",
            "webMemory": "200Mi" if i % 4 == 3 else f"{300 + i % 7 * 100}Mi",
            "dbCpu": "500m",
            "dbMemory": "256Mi",
        }
        for i in range(count)
    ]


class TestNoiseSeeds:
    def assert_seed_states(self, entropies):
        states = backends._seed_states(np.array(entropies, dtype=np.uint64))
        assert states.shape == (len(entropies), 4) and states.dtype == np.uint64
        for entropy, state in zip(entropies, states):
            expected = np.random.SeedSequence(entropy).generate_state(4, np.uint64)
            assert np.array_equal(state, expected), entropy

    def test_seed_states_match_seed_sequence_at_the_word_edges(self):
        self.assert_seed_states([0, 1, 2**32 - 1, 2**32, 2**64 - 1])

    @given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=20))
    def test_seed_states_match_seed_sequence(self, entropies):
        self.assert_seed_states(entropies)

    @pytest.mark.parametrize(
        "count", [0, 1, 6, harness._BLOCK_ROWS + 5], ids=["empty", "single", "batch", "chunks"]
    )
    def test_evaluate_many_matches_per_row_default_rng(self, count):
        backend = SyntheticBackend(NOISY_MODEL, seed=7)
        workload = WorkloadSpec(tenants=2, rate_per_tenant=1.5)
        rows = noisy_rows(count)
        results = measured_results(backend.evaluate_many(block_of(rows), workload))
        assert results == [reference_result(backend, params, workload) for params in rows]
        if count > 3:
            assert results[3].failure_reason == "web out of memory"

    def test_one_backend_alternating_between_block_layouts(self):
        """The noise tokens built for one block layout are not reused for
        another: blocks of different texts, and of the same texts again,
        each match the per-row reference."""
        backend = SyntheticBackend(NOISY_MODEL, seed=5)
        for rows in (noisy_rows(6), noisy_rows(9)[3:], noisy_rows(6)):
            results = measured_results(backend.evaluate_many(block_of(rows), WORKLOAD))
            assert results == [reference_result(backend, params, WORKLOAD) for params in rows]

    def test_tokens_swapped_during_the_layout_check_are_not_used(self):
        """A call hashes its rows with the tokens of the layout it checked,
        even when another call swaps the cache in between. Here comparing a
        text column with the cached one stands in for the second thread:
        it installs the tokens of a layout that lists every text in reverse."""
        block = block_of(noisy_rows(6))
        reversed_block = block._replace(texts=tuple(texts[::-1] for texts in block.texts))
        other = SyntheticBackend(NOISY_MODEL, seed=5)
        list(other.evaluate_many(reversed_block, WORKLOAD))
        backend = SyntheticBackend(NOISY_MODEL, seed=5)
        list(backend.evaluate_many(block, WORKLOAD))

        class Swapping(tuple):
            __hash__ = tuple.__hash__

            def __eq__(self, texts):
                backend._tokens = other._tokens
                return tuple.__eq__(self, texts)

        swapping = block._replace(texts=(Swapping(block.texts[0]), *block.texts[1:]))
        fresh = SyntheticBackend(NOISY_MODEL, seed=5).evaluate_many(block, WORKLOAD)
        assert [r.slis.get("p99_latency_ms") for r in measured_results(fresh)] == [
            r.slis.get("p99_latency_ms")
            for r in measured_results(backend.evaluate_many(swapping, WORKLOAD))
        ]

    def test_evaluate_alone_matches_per_row_default_rng(self):
        backend = SyntheticBackend(NOISY_MODEL, seed=3)
        for params in noisy_rows(8):
            assert backend.evaluate(params, WORKLOAD) == reference_result(
                backend, params, WORKLOAD
            )

    def test_evaluate_many_yields_rows_before_an_error(self):
        rows = noisy_rows(5)
        rows[2] = rows[2] | {"dbCpu": "0m"}
        results = SyntheticBackend(NOISY_MODEL).evaluate_many(block_of(rows), WORKLOAD)
        assert measured_results([next(results)]) == [
            reference_result(SyntheticBackend(NOISY_MODEL), params, WORKLOAD)
            for params in rows[:2]
        ]
        with pytest.raises(ValueError, match="cpu must be positive"):
            next(results)

    def test_a_row_that_fails_first_does_not_raise(self):
        """A row stops at the first service in the chain that runs out of
        memory or raises, as a row measured alone does: web out of memory
        hides db's invalid cpu, and row 0's error is raised before any row
        is yielded."""
        rows = noisy_rows(4)
        rows[3] = rows[3] | {"dbCpu": "0m"}
        backend = SyntheticBackend(NOISY_MODEL)
        results = measured_results(backend.evaluate_many(block_of(rows), WORKLOAD))
        assert [r.failure_reason for r in results] == [None, None, None, "web out of memory"]
        rows[0] = rows[0] | {"dbCpu": "0m"}
        with pytest.raises(ValueError, match="cpu must be positive"):
            next(SyntheticBackend(NOISY_MODEL).evaluate_many(block_of(rows), WORKLOAD))

    def test_missing_parameter_raises_at_the_first_row_reaching_its_service(self):
        rows = [{k: v for k, v in params.items() if k != "dbMemory"} for params in noisy_rows(6)]
        results = SyntheticBackend(NOISY_MODEL).evaluate_many(block_of(rows[3:]), WORKLOAD)
        # Row 3 runs web out of memory before db is reached.
        assert measured_results([next(results)])[0].failure_reason == "web out of memory"
        with pytest.raises(ValueError, match="configuration is missing parameter 'dbMemory'"):
            next(results)

    def test_noise_is_drawn_only_for_measured_rows(self, monkeypatch):
        hashed = []
        original = backends._seed_states

        def recording(entropy):
            hashed.append(len(entropy))
            return original(entropy)

        monkeypatch.setattr(backends, "_seed_states", recording)
        rows = noisy_rows(8)
        list(SyntheticBackend(NOISY_MODEL).evaluate_many(block_of(rows), WORKLOAD))
        assert hashed == [6]


def per_row_lognormal(states, sigma):
    """The noise as numpy draws it: one seeded Generator per row."""
    return np.array(
        [
            np.random.Generator(np.random.PCG64(backends._SeedState(state))).lognormal(0.0, sigma)
            for state in states
        ]
    )


@pytest.fixture
def fresh_ziggurat():
    """The array draw's tables and self-check run again, before and after."""
    backends._ziggurat.cache_clear()
    yield
    backends._ziggurat.cache_clear()


class TestNoiseKernel:
    def test_first_words_match_pcg64_at_the_word_edges(self):
        top = 2**64 - 1
        states = np.array(
            [[0, 0, 0, 0], [top] * 4, [top, 0, top, 0], [0, top, 0, top], [1, 2**63, 3, 2**63 - 1]],
            dtype=np.uint64,
        )
        expected = [np.random.PCG64(backends._SeedState(s)).random_raw() for s in states]
        assert backends._pcg64_first_words(states).tolist() == expected

    @pytest.mark.parametrize("sigma", [0.1, 0.2, 1.0])
    def test_array_draw_is_bit_equal_to_numpy(self, sigma):
        """200,000 random entropies per sigma; some rows take the per-row
        draw, both for a rejected first word and for a layer without
        tables."""
        entropies = np.random.default_rng(int(sigma * 10)).integers(
            0, 2**64, size=200_000, dtype=np.uint64
        )
        states = backends._seed_states(entropies)
        tables = backends._ziggurat()
        assert tables is not None
        drawn = tables.lognormal(states, sigma).view(np.uint64)
        assert np.array_equal(drawn, per_row_lognormal(states, sigma).view(np.uint64))
        words = backends._pcg64_first_words(states)
        layer = (words & np.uint64(0xFF)).astype(np.intp)
        rejected = ((words >> np.uint64(9)) & backends._RABS_MASK) >= tables.ki[layer]
        assert 0 < np.count_nonzero(rejected & (layer >= 3)) < 0.05 * len(states)
        assert np.count_nonzero(layer < 3) > 0 and rejected[layer < 3].all()

    def test_tables_bound_numpy_acceptance_tightly(self):
        """Every layer from 3 on has a bound, at most 3 below numpy's: a
        draw one below it uses one word, a draw 3 above it does not."""
        tables = backends._ziggurat()
        assert tables.ki[:3].tolist() == [0, 0, 0] and (tables.ki[3:] > 0).all()
        bitgen = np.random.PCG64()
        for layer, bound in enumerate(tables.ki.tolist()[3:], start=3):
            value, one_word = backends._ziggurat_draw(bitgen, (bound - 1) << 9 | layer)
            assert one_word and value == (bound - 1) * tables.wi[layer]
            assert not backends._ziggurat_draw(bitgen, (bound + 3) << 9 | layer)[1]

    def test_small_blocks_draw_per_row(self, monkeypatch):
        """Blocks of fewer than 32 measured rows never use the tables."""
        used = []
        original = backends._ziggurat
        monkeypatch.setattr(backends, "_ziggurat", lambda: used.append(1) or original())
        backend = SyntheticBackend(NOISY_MODEL, seed=11)
        for count, measured in ((41, 31), (42, 32)):
            rows = noisy_rows(count)
            results = measured_results(backend.evaluate_many(block_of(rows), WORKLOAD))
            assert sum(not r.failed for r in results) == measured
            assert results == [reference_result(backend, params, WORKLOAD) for params in rows]
        assert used == [1]

    def test_failed_self_check_draws_every_row_per_row(self, monkeypatch, caplog, fresh_ziggurat):
        """A wrong table entry that the self-check meets turns the array
        draw off for the process; every value stays numpy's."""
        read = backends._Ziggurat.read

        def wrong_entry():
            tables = read()
            words = backends._pcg64_first_words(backends._seed_states(backends._CHECK_ENTROPIES))
            layers = (words & np.uint64(0xFF)).astype(np.intp).tolist()
            rabs = ((words >> np.uint64(9)) & backends._RABS_MASK).tolist()
            # The layer of the first check row the array draw accepts.
            layer = next(layer for layer, r in zip(layers, rabs) if r < tables.ki[layer])
            tables.wi[layer] *= 1.0 + 2.0**-40
            return tables

        monkeypatch.setattr(backends._Ziggurat, "read", staticmethod(wrong_entry))
        backend = SyntheticBackend(NOISY_MODEL, seed=4)
        rows = noisy_rows(200)
        with caplog.at_level("WARNING", logger="confopt.backends"):
            results = measured_results(backend.evaluate_many(block_of(rows), WORKLOAD))
        assert results == [reference_result(backend, params, WORKLOAD) for params in rows]
        assert backends._ziggurat() is None
        assert "drawing noise per row" in caplog.text


def block_of(rows):
    """Rendered configurations, all with the same parameters, as a block."""
    names = tuple(rows[0]) if rows else ("webCpu",)
    texts = tuple(tuple(dict.fromkeys(params[name] for params in rows)) for name in names)
    levels = np.array(
        [[texts[j].index(params[name]) for j, name in enumerate(names)] for params in rows],
        dtype=np.intp,
    ).reshape(len(rows), len(names))
    return Block(names, levels, texts)


def measured_results(runs):
    """Every row of the runs ``evaluate_many`` yields, as an SliResult."""
    return [measured.result(row) for measured in runs for row in range(len(measured.reasons))]


class TestBlock:
    def test_render_and_one_row_block(self):
        block = block_of(noisy_rows(3))
        assert [block.render(row) for row in range(3)] == noisy_rows(3)
        params = noisy_rows(1)[0]
        assert Block.of(params).render(0) == params

    @pytest.mark.parametrize(
        "result",
        [
            SliResult({"p99_latency_ms": 12.5, "throughput_rps": 3.0}),
            SliResult({"error_rate": 0.25}),
            SliResult(failed=True, failure_reason="timeout"),
        ],
    )
    def test_measured_round_trips_a_result(self, result):
        assert Measured.of(result).result(0) == result


class TestReplayBackend:
    @pytest.fixture
    def space(self):
        return SearchSpace(
            (ParameterSpec("webCpu", 500, 625, 125, "m"),
             ParameterSpec("webMemory", 512, 640, 128, "Mi"))
        )

    def rows_for(self, space):
        return [
            Observation(
                config=config,
                slis={"p99_latency_ms": 100.0 + i, "throughput_rps": 50.0},
                utility=0.1 * i,
                feasible=True,
                eval_index=i + 1,
            )
            for i, config in enumerate(space.iter_configurations())
        ]

    def backend_for(self, space, rows=None):
        return Dataset(space, rows or self.rows_for(space)).replay_backend()

    def test_lookup_verbatim(self, space):
        backend = self.backend_for(space)
        assert backend.lookup((625, 512)).slis["p99_latency_ms"] == 102.0

    def test_missing_config_is_hard_error(self, space):
        """A dataset holds every configuration of its grid, so a missing
        configuration is one its grid does not reach."""
        narrow = SearchSpace((space.parameters[0], ParameterSpec("webMemory", 384, 512, 128, "Mi")))
        backend = self.backend_for(narrow)
        with pytest.raises(KeyError, match="webCpu=625,webMemory=640"):
            backend.lookup((625, 640))

    @pytest.mark.parametrize(
        "settings, text",
        [
            ((750, 512), "webCpu=750,webMemory=512"),
            ((625,), "webCpu=625"),
            ((625, 512, 512), "webCpu=625,webMemory=512"),
        ],
        ids=["off-grid", "too-few", "too-many"],
    )
    def test_off_grid_lookup_is_a_key_error(self, space, settings, text):
        """A miss off the stored grid, or with one setting too few or too
        many, is a ``KeyError`` naming the configuration, not the grid's
        validation error, and never reads another row."""
        backend = self.backend_for(space)
        with pytest.raises(KeyError, match=f"configuration not in dataset: {text}"):
            backend.lookup(settings)

    def test_stored_order_maps_space_positions(self, space):
        backend = self.backend_for(space)
        assert backend.stored_order(space) == (0, 1)
        permuted = SearchSpace(tuple(reversed(space.parameters)))
        assert backend.stored_order(permuted) == (1, 0)

    def test_stored_order_rejects_other_parameters(self, space):
        backend = self.backend_for(space)
        narrow = SearchSpace(space.parameters[:1])
        only = r"only in the dataset \['webMemory'\], only in the space \[\]"
        with pytest.raises(ValueError, match=only):
            backend.stored_order(narrow)
        wide = SearchSpace((*space.parameters, ParameterSpec("dbCpu", 500, 625, 125, "m")))
        only = r"only in the dataset \[\], only in the space \['dbCpu'\]"
        with pytest.raises(ValueError, match=only):
            backend.stored_order(wide)

    def test_replayed_failure(self, space):
        rows = self.rows_for(space)
        failed_config = Configuration((500, 512))
        rows[0] = Observation(
            config=failed_config,
            slis={},
            utility=10001.0,
            feasible=False,
            eval_index=1,
            failed=True,
        )
        backend = self.backend_for(space, rows)
        (obs,) = Evaluator(space, backend).evaluate([failed_config])
        assert obs.failed and obs.utility == 10001.0


def write_stub(tmp_path, body):
    path = tmp_path / "runner.py"
    path.write_text("#!/usr/bin/env python3\n" + textwrap.dedent(body))
    path.chmod(path.stat().st_mode | stat.S_IXUSR)
    return path


class TestExternalBackend:
    def test_round_trip(self, tmp_path):
        stub = write_stub(
            tmp_path,
            """
            import json, sys
            request = json.loads(sys.stdin.readline())
            assert request["tenants"] == 4
            assert request["params"]["webCpu"] == "750m"
            assert isinstance(request["timeout_s"], int)
            print(json.dumps({"p99_latency_ms": 850, "throughput_rps": 40}))
            """,
        )
        backend = ExternalBackend(["python3", str(stub)], timeout_s=30)
        result = backend.evaluate({"webCpu": "750m"}, WorkloadSpec(tenants=4))
        assert not result.failed
        assert result.slis == {"p99_latency_ms": 850.0, "throughput_rps": 40.0}

    @pytest.mark.parametrize(
        "reply",
        [
            '{"p99_latency_ms": NaN, "throughput_rps": 40}',
            '{"p99_latency_ms": 850, "throughput_rps": Infinity}',
            '{"p99_latency_ms": -Infinity}',
            '{"p99_latency_ms": 1e400}',
            '{"p99_latency_ms": 1' + "0" * 400 + "}",
            '{"p99_latency_ms": 1' + "0" * 5000 + "}",
            "{}",
        ],
        ids=[
            "nan", "infinity", "minus-infinity", "overflowing-float", "overflowing-int",
            "int-past-the-conversion-limit", "empty",
        ],
    )
    def test_non_finite_metrics_are_malformed(self, tmp_path, reply):
        """A reply whose metric is not a finite number is retried, then fails."""
        counter = tmp_path / "attempts"
        stub = write_stub(
            tmp_path,
            f"""
            import pathlib
            path = pathlib.Path({str(counter)!r})
            path.write_text(path.read_text() + "x")
            print({reply!r})
            """,
        )
        counter.write_text("")
        backend = ExternalBackend(["python3", str(stub)], timeout_s=30, retries=1)
        result = backend.evaluate({"webCpu": "750m"}, WorkloadSpec(tenants=4))
        assert result.failed
        assert result.failure_reason == "malformed output"
        assert counter.read_text() == "xx"

    def test_fractional_timeout_forwarded(self, tmp_path):
        stub = write_stub(
            tmp_path,
            """
            import json, sys
            request = json.loads(sys.stdin.readline())
            print(json.dumps({"timeout_s": request["timeout_s"]}))
            """,
        )
        backend = ExternalBackend(["python3", str(stub)], timeout_s=5.5)
        assert backend.evaluate({}, WORKLOAD).slis == {"timeout_s": 5.5}

    def test_rate_per_tenant_forwarded(self, tmp_path):
        stub = write_stub(
            tmp_path,
            """
            import json, sys
            request = json.loads(sys.stdin.readline())
            print(json.dumps({"rate": request["rate_per_tenant"]}))
            """,
        )
        backend = ExternalBackend(["python3", str(stub)], timeout_s=30)
        result = backend.evaluate({}, WorkloadSpec(tenants=1, rate_per_tenant=2.5))
        assert result.slis == {"rate": 2.5}

    def test_nonzero_exit_retries_then_fails(self, tmp_path):
        counter = tmp_path / "attempts"
        stub = write_stub(
            tmp_path,
            f"""
            import pathlib, sys
            path = pathlib.Path({str(counter)!r})
            path.write_text(path.read_text() + "x" if path.exists() else "x")
            sys.exit(1)
            """,
        )
        counter.write_text("")
        backend = ExternalBackend(["python3", str(stub)], timeout_s=30, retries=2)
        result = backend.evaluate({}, WORKLOAD)
        assert result.failed
        assert result.failure_reason == "exit status 1"
        assert counter.read_text().count("x") == 3

    def test_malformed_output_fails(self, tmp_path):
        stub = write_stub(tmp_path, "print('not json')\n")
        backend = ExternalBackend(["python3", str(stub)], timeout_s=30, retries=0)
        result = backend.evaluate({}, WORKLOAD)
        assert result.failed
        assert result.failure_reason == "malformed output"

    def test_non_numeric_metrics_are_malformed(self, tmp_path):
        stub = write_stub(
            tmp_path,
            """
            import json
            print(json.dumps({"p99_latency_ms": "fast"}))
            """,
        )
        backend = ExternalBackend(["python3", str(stub)], timeout_s=30, retries=0)
        assert backend.evaluate({}, WORKLOAD).failed

    def test_timeout(self, tmp_path):
        stub = write_stub(tmp_path, "import time\ntime.sleep(30)\n")
        backend = ExternalBackend(["python3", str(stub)], timeout_s=1, retries=0)
        result = backend.evaluate({}, WORKLOAD)
        assert result.failed
        assert result.failure_reason == "timeout"

    def test_missing_executable_raises(self):
        backend = ExternalBackend(["/nonexistent/runner"], timeout_s=5)
        with pytest.raises(FileNotFoundError):
            backend.evaluate({}, WORKLOAD)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ExternalBackend([])
        with pytest.raises(ValueError):
            ExternalBackend(["x"], timeout_s=0)
        with pytest.raises(ValueError):
            ExternalBackend(["x"], retries=-1)
