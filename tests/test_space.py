from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confopt.space import Configuration, ParameterSpec, SearchSpace


def cpu_spec(name="cpu"):
    return ParameterSpec(name, 500, 1125, 125, "m")


def mem_spec(name="mem"):
    return ParameterSpec(name, 512, 1152, 128, "Mi")


class TestParameterSpec:
    def test_level_counts(self):
        assert cpu_spec().level_count == 6
        assert mem_spec().level_count == 6
        assert list(cpu_spec().levels()) == [500, 625, 750, 875, 1000, 1125]

    def test_degenerate_range_rejected(self):
        with pytest.raises(ValueError):
            ParameterSpec("x", 0, 0, 1)

    def test_degenerate_range_opt_in(self):
        pinned = ParameterSpec("x", 640, 640, 128, allow_single_level=True)
        assert pinned.level_count == 1
        assert pinned.normalized(640) == 0.0

    @pytest.mark.parametrize(
        "minimum,maximum,granularity",
        [(500, 1125, 0), (500, 1125, -125), (1125, 500, 125), (500, 1100, 125)],
    )
    def test_invalid_grids_rejected(self, minimum, maximum, granularity):
        with pytest.raises(ValueError):
            ParameterSpec("x", minimum, maximum, granularity)

    def test_index_value_round_trip(self):
        spec = cpu_spec()
        for i, level in enumerate(spec.levels()):
            assert spec.value_at(i) == level
            assert spec.index_of(level) == i

    def test_off_grid_value_rejected(self):
        with pytest.raises(ValueError):
            cpu_spec().index_of(600)

    def test_render(self):
        assert cpu_spec().render(750) == "750m"
        assert mem_spec().render(640) == "640Mi"
        assert ParameterSpec("mode", 1, 3, 1).render(2) == "2"


class TestNormalization:
    def test_bounds_and_interior(self):
        spec = cpu_spec()
        assert spec.normalized(500) == 0.0
        assert spec.normalized(1125) == 1.0
        assert spec.normalized(750) == pytest.approx(0.4)

    def test_from_normalized_nearest(self):
        spec = cpu_spec()
        # 0.49 * 5 = 2.45, nearest index 2
        assert spec.from_normalized(0.49) == 750
        assert spec.from_normalized(0.0) == 500
        assert spec.from_normalized(1.0) == 1125

    def test_midpoint_rounds_down(self):
        spec = cpu_spec()
        # 0.1 * 5 = 0.5 sits exactly between indices 0 and 1
        assert spec.from_normalized(0.1) == 500
        assert spec.from_normalized(0.3) == 625

    def test_out_of_cube_rejected(self):
        with pytest.raises(ValueError):
            cpu_spec().from_normalized(1.01)
        with pytest.raises(ValueError):
            cpu_spec().from_normalized(-0.01)

    def test_monotone_per_dimension(self):
        spec = mem_spec()
        values = [spec.normalized(v) for v in spec.levels()]
        assert values == sorted(values)
        assert len(set(values)) == len(values)


@st.composite
def small_spaces(draw):
    k = draw(st.integers(min_value=1, max_value=4))
    specs = []
    for i in range(k):
        minimum = draw(st.integers(min_value=0, max_value=1000))
        granularity = draw(st.integers(min_value=1, max_value=200))
        steps = draw(st.integers(min_value=1, max_value=5))
        specs.append(
            ParameterSpec(f"p{i}", minimum, minimum + granularity * steps, granularity)
        )
    return SearchSpace(tuple(specs))


class TestSearchSpace:
    def test_size_exact(self):
        space = SearchSpace(tuple(cpu_spec(f"c{i}") for i in range(14)))
        assert space.size == 6**14 == 78_364_164_096

    def test_small_sizes(self):
        assert SearchSpace((ParameterSpec("a", 0, 1, 1),)).size == 2
        assert SearchSpace(tuple(cpu_spec(f"c{i}") for i in range(4))).size == 1296

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            SearchSpace((cpu_spec("a"), mem_spec("a")))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SearchSpace(())

    def test_enumeration_odometer_order(self):
        space = SearchSpace(
            (ParameterSpec("a", 0, 1, 1), ParameterSpec("b", 10, 20, 10))
        )
        configs = [c.settings for c in space.iter_configurations()]
        assert configs == [(0, 10), (0, 20), (1, 10), (1, 20)]

    def test_enumeration_single_param(self):
        space = SearchSpace((ParameterSpec("a", 0, 2, 1),))
        assert [c.settings for c in space.iter_configurations()] == [(0,), (1,), (2,)]

    def test_enumeration_distinct_and_complete(self):
        space = SearchSpace((cpu_spec("a"), mem_spec("b"), ParameterSpec("c", 0, 2, 1)))
        seen = {c.settings for c in space.iter_configurations()}
        assert len(seen) == space.size == 108

    def test_validate_rejects_bad_configs(self):
        space = SearchSpace((cpu_spec(), mem_spec()))
        with pytest.raises(ValueError):
            space.validate(Configuration((500,)))
        with pytest.raises(ValueError):
            space.validate(Configuration((501, 512)))
        assert space.contains(Configuration((500, 512)))
        assert not space.contains(Configuration((500, 513)))

    def test_render_and_text(self):
        space = SearchSpace((cpu_spec("webCpu"), mem_spec("webMemory")))
        config = Configuration((750, 640))
        assert space.render(config) == {"webCpu": "750m", "webMemory": "640Mi"}
        assert space.config_text(config) == "webCpu=750,webMemory=640"

    def test_render_and_to_normalized_raise_the_validation_error(self):
        space = SearchSpace((cpu_spec(), mem_spec()))
        for settings in ((500,), (500, 512, 0), (501, 512), (500, 1280)):
            config = Configuration(settings)
            with pytest.raises(ValueError) as expected:
                space.validate(config)
            for method in (space.render, space.to_normalized):
                with pytest.raises(ValueError, match=re.escape(str(expected.value))):
                    method(config)

    def test_level_tables_match_the_parameter_arithmetic(self):
        pinned = ParameterSpec("pin", 3, 3, 1, allow_single_level=True)
        space = SearchSpace((cpu_spec("webCpu"), pinned, mem_spec("webMemory")))
        for config in space.iter_configurations():
            pairs = list(zip(space.parameters, config.settings))
            assert space.render(config) == {p.name: p.render(v) for p, v in pairs}
            assert space.to_normalized(config).tolist() == [p.normalized(v) for p, v in pairs]

    def test_normalized_grid_matches_enumeration(self):
        space = SearchSpace((cpu_spec("a"), ParameterSpec("b", 0, 2, 1)))
        grid = space.normalized_grid()
        expected = np.array(
            [space.to_normalized(c) for c in space.iter_configurations()]
        )
        assert np.array_equal(grid, expected)

    @given(small_spaces())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_everywhere(self, space):
        for rank, config in enumerate(space.iter_configurations()):
            coords = space.to_normalized(config)
            assert np.all(coords >= 0.0) and np.all(coords <= 1.0)
            assert space.from_normalized(coords) == config
            assert space.config_at(rank) == config
            assert space.rank(space.indices_of(config)) == rank
        for rank in (-1, space.size):
            with pytest.raises(IndexError):
                space.config_at(rank)

    @given(small_spaces(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_settings_block_is_a_slice_of_the_enumeration(self, space, data):
        start = data.draw(st.integers(min_value=0, max_value=space.size))
        stop = data.draw(st.integers(min_value=start, max_value=space.size))
        block = space.settings_block(start, stop)
        assert block.shape == (stop - start, space.dimension) and block.dtype == np.int64
        assert list(map(tuple, block.tolist())) == list(space.iter_settings())[start:stop]

    @given(small_spaces(), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_snapping_always_on_grid(self, space, rnd):
        coords = np.array([rnd.random() for _ in space.parameters])
        config = space.from_normalized(coords)
        space.validate(config)
