from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confopt import bundled_path
from confopt.config import parse_config
from confopt.space import Configuration, ParameterSpec, SearchSpace
from confopt.utility import (
    CostWeights,
    SloSpec,
    UTILITY_FUNCTIONS,
    WorkloadSpec,
    allocation_cost,
    get_utility,
    slo_cost_utility,
)


@pytest.fixture
def space():
    return SearchSpace(
        (
            ParameterSpec("aCpu", 500, 1125, 125, "m"),
            ParameterSpec("aMemory", 512, 1152, 128, "Mi"),
            ParameterSpec("bCpu", 500, 1125, 125, "m"),
            ParameterSpec("bMemory", 512, 1152, 128, "Mi"),
        )
    )


class TestSpecs:
    def test_workload_validation(self):
        assert WorkloadSpec(tenants=10).tenants == 10
        with pytest.raises(ValueError):
            WorkloadSpec(tenants=0)
        with pytest.raises(ValueError):
            WorkloadSpec(tenants=1, rate_per_tenant=0.0)

    def test_slo_validation(self):
        slo = SloSpec(threshold=1000.0)
        assert slo.metric == "p99_latency_ms"
        with pytest.raises(ValueError):
            SloSpec(threshold=0.0)

    def test_cost_weights(self):
        weights = CostWeights((2.0, 0.0, 2.0, 0.0))
        assert tuple(weights.normalized()) == (0.5, 0.0, 0.5, 0.0)
        assert CostWeights.uniform(4).weights == (1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            CostWeights((0.0, 0.0))
        with pytest.raises(ValueError):
            CostWeights((1.0, -0.5))


    def test_normalized_weights_are_computed_once_and_read_only(self):
        weights = CostWeights((2.0, 0.0, 2.0, 0.0))
        assert weights.normalized() is weights.normalized()
        with pytest.raises(ValueError, match="read-only"):
            weights.normalized()[0] = 1.0
        assert tuple(weights.normalized()) == (0.5, 0.0, 0.5, 0.0)


class TestAllocationCost:
    def test_extremes(self, space):
        at_min = Configuration((500, 512, 500, 512))
        at_max = Configuration((1125, 1152, 1125, 1152))
        assert allocation_cost(at_min, space) == 0.0
        assert allocation_cost(at_max, space) == 1.0

    def test_half_min_half_max(self, space):
        config = Configuration((500, 512, 1125, 1152))
        assert allocation_cost(config, space) == pytest.approx(0.5)

    def test_weighted(self, space):
        config = Configuration((1125, 512, 500, 512))
        weights = CostWeights((1.0, 0.0, 0.0, 0.0))
        assert allocation_cost(config, space, weights) == 1.0

    def test_monotone_in_each_setting(self, space):
        base = Configuration((750, 768, 750, 768))
        cost = allocation_cost(base, space)
        for i, spec in enumerate(space.parameters):
            bumped = list(base.settings)
            bumped[i] += spec.granularity
            assert allocation_cost(Configuration(tuple(bumped)), space) > cost

    def test_original_bounds_survive_reduction(self, space):
        """Costing against the full space keeps scores comparable after
        the bounds shrink."""
        reduced = SearchSpace(
            (
                ParameterSpec("aCpu", 500, 750, 125, "m"),
                ParameterSpec("aMemory", 512, 768, 128, "Mi"),
                ParameterSpec("bCpu", 500, 625, 125, "m"),
                ParameterSpec("bMemory", 512, 640, 128, "Mi"),
            )
        )
        config = Configuration((750, 768, 625, 640))
        full_cost = allocation_cost(config, space)
        assert full_cost < allocation_cost(config, reduced)
        assert full_cost == pytest.approx((0.4 + 0.4 + 0.2 + 0.2) / 4)


class TestBlockCosts:
    @pytest.mark.parametrize(
        "configs, costs",
        [
            ("toystore.yaml", "toystore.yaml"),
            ("toystore-reduced.yaml", "toystore-reduced.yaml"),
            ("toystore-reduced.yaml", "toystore.yaml"),
        ],
        ids=["full-grid", "reduced-bounds", "reduced-in-full-bounds"],
    )
    def test_block_costs_equal_per_row_costs_bit_for_bit(self, configs, costs):
        """Every row of a settings matrix costs what the configuration
        costs alone, and what ``np.dot`` of its ``ParameterSpec.normalized``
        coordinates gave before costs were computed a block at a time; the
        reduced bounds pin a parameter to one level."""
        space = parse_config(str(bundled_path(configs))).space
        cost_config = parse_config(str(bundled_path(costs)))
        cost_space, weights = cost_config.space, cost_config.cost_weights
        settings = list(space.iter_settings())
        block = allocation_cost(np.array(settings), cost_space, weights)
        per_row = np.array([allocation_cost(Configuration(s), cost_space, weights) for s in settings])
        w = weights.normalized()
        params = cost_space.parameters
        dot = np.array([np.dot(w, [p.normalized(v) for p, v in zip(params, s)]) for s in settings])
        assert block.shape == (space.size,)
        assert np.array_equal(block.view(np.uint64), per_row.view(np.uint64))
        assert np.array_equal(block.view(np.uint64), dot.view(np.uint64))

    def test_off_grid_row_raises_the_configurations_error(self, space):
        settings = np.array([(500, 512, 500, 512), (500, 513, 500, 512)])
        with pytest.raises(ValueError, match="'aMemory': 513 is not on the grid"):
            allocation_cost(settings, space)


class TestUtility:
    def test_violation_branch(self):
        assert slo_cost_utility(1200.0, 1000.0, 0.3) == 201.0

    def test_satisfying_branch_ignores_sli(self):
        assert slo_cost_utility(900.0, 1000.0, 0.37) == 0.37
        assert slo_cost_utility(100.0, 1000.0, 0.37) == 0.37

    def test_threshold_is_inclusive(self):
        assert slo_cost_utility(1000.0, 1000.0, 0.8) == 0.8

    def test_relative_violation(self):
        assert slo_cost_utility(1200.0, 1000.0, 0.3, relative_violation=True) == (
            pytest.approx(1.2)
        )

    def test_input_validation(self):
        with pytest.raises(ValueError):
            slo_cost_utility(900.0, -1.0, 0.5)
        with pytest.raises(ValueError):
            slo_cost_utility(900.0, 1000.0, 1.5)

    @given(
        sli=st.floats(min_value=0.0, max_value=5000.0),
        cost=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=200)
    def test_branches_never_overlap(self, sli, cost):
        utility = slo_cost_utility(sli, 1000.0, cost)
        if sli > 1000.0:
            assert utility > 1.0
        else:
            assert 0.0 <= utility <= 1.0
            assert utility == cost

    def test_registry(self):
        assert get_utility("slo-cost") is slo_cost_utility
        assert get_utility("teastore") is slo_cost_utility
        assert "slo-cost-relative" in UTILITY_FUNCTIONS
        assert get_utility("slo-cost-relative")(1200.0, 1000.0, 0.3) == pytest.approx(1.2)
        with pytest.raises(ValueError, match="slo-cost"):
            get_utility("nope")

