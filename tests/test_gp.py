from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from confopt import gp
from confopt.gp import (
    DEFAULT_JITTER,
    ProductGrid,
    expected_improvement,
    gp_fit,
    improvement_cutoff,
    one_blas_thread,
)


def grid_inputs(n, k=2, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random((n, k))


class TestFit:
    def test_single_point_interpolation(self):
        inputs = np.array([[0.3, 0.7]])
        model = gp_fit(inputs, np.array([42.0]))
        mean, std = model.predict(inputs)
        assert mean[0] == pytest.approx(model.standardize(42.0), abs=10 * DEFAULT_JITTER)
        assert std[0] ** 2 <= 10 * DEFAULT_JITTER

    def test_training_points_reproduced(self):
        # structured grid keeps the Gram matrix well conditioned, so the
        # jitter-induced residual stays below 10x the jitter
        g = np.linspace(0.0, 1.0, 4)
        xx, yy = np.meshgrid(g, g)
        inputs = np.column_stack([xx.ravel(), yy.ravel()])
        targets = np.sin(inputs[:, 0] * 3) + inputs[:, 1] ** 2
        model = gp_fit(inputs, targets)
        mean, _ = model.predict(inputs)
        standardized = (targets - model.target_mean) / model.target_std
        assert np.max(np.abs(mean - standardized)) <= 10 * DEFAULT_JITTER

    def test_far_from_data_reverts_to_prior(self):
        # with length scale 0.3, a point many scales away carries no signal
        inputs = np.zeros((3, 2))
        inputs[1] = 0.01
        inputs[2] = 0.02
        model = gp_fit(inputs, np.array([5.0, 6.0, 7.0]))
        mean, std = model.predict(np.array([[50.0, 50.0]]))
        assert mean[0] == pytest.approx(0.0, abs=1e-12)
        assert std[0] ** 2 == pytest.approx(1.0, rel=1e-9)

    def test_duplicate_inputs_equal_targets(self):
        inputs = np.array([[0.5, 0.5], [0.5, 0.5], [0.1, 0.9]])
        model = gp_fit(inputs, np.array([1.0, 1.0, 3.0]))
        mean, _ = model.predict(np.array([[0.5, 0.5]]))
        assert mean[0] == pytest.approx(model.standardize(1.0), abs=1e-3)

    def test_duplicate_inputs_conflicting_targets(self):
        """Jitter escalation must absorb an inconsistent Gram matrix."""
        inputs = np.array([[0.5], [0.5]])
        model = gp_fit(inputs, np.array([0.0, 2.0]))
        mean, _ = model.predict(np.array([[0.5]]))
        assert mean[0] == pytest.approx(model.standardize(1.0), abs=1e-2)

    def test_constant_targets_no_nan(self):
        inputs = grid_inputs(5)
        model = gp_fit(inputs, np.full(5, 3.3))
        mean, std = model.predict(inputs)
        assert np.all(np.isfinite(mean))
        assert np.all(np.isfinite(std))
        assert model.target_std == 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_targets_rejected(self, bad):
        with pytest.raises(ValueError, match=r"targets must be finite.*\[1\]"):
            gp_fit(np.array([[0.0], [0.5], [1.0]]), np.array([1.0, bad, 2.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_inputs_rejected(self, bad):
        inputs = np.array([[0.1, 0.2], [bad, 0.3], [0.5, 0.5], [0.7, bad]])
        with pytest.raises(ValueError, match=r"inputs must be finite.*\[1, 3\]"):
            gp_fit(inputs, np.array([1.0, 2.0, 3.0, 4.0]))

    def test_empty_training_rejected(self):
        with pytest.raises(ValueError):
            gp_fit(np.empty((0, 2)), np.empty(0))

    def test_fewer_targets_than_inputs_rejected(self):
        with pytest.raises(ValueError, match="3 inputs but 2 targets"):
            gp_fit(grid_inputs(3), np.array([1.0, 2.0]))

    def test_every_jitter_escalation_failing_raises(self, monkeypatch):
        tried = []

        def never_positive_definite(base, inputs, eps):
            tried.append(eps)
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(gp, "_extended_factor", never_positive_definite)
        with pytest.raises(
            np.linalg.LinAlgError, match="not positive definite even with jitter 0.001"
        ):
            gp_fit(grid_inputs(3), np.array([1.0, 2.0, 3.0]))
        assert tried == pytest.approx([DEFAULT_JITTER * 10.0**i for i in range(4)])


@pytest.mark.parametrize("rows", [(6, 500), (40, 6), (1, 1)], ids=["wide", "tall", "single"])
def test_kernel_in_place_equals_the_expression_bit_for_bit(rows):
    rng = np.random.default_rng(15)
    a, b = rng.random((rows[0], 3)), rng.random((rows[1], 3))
    sq = np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :] - 2.0 * (a @ b.T)
    expected = gp.DEFAULT_SIGNAL_VARIANCE * np.exp(
        -np.maximum(sq, 0.0) / (2.0 * gp.DEFAULT_LENGTH_SCALE**2)
    )
    assert np.array_equal(gp._kernel(a, b), expected)


class TestExpectedImprovement:
    def test_no_uncertainty_no_improvement(self):
        assert expected_improvement(np.array([1.2]), np.array([0.0]), best=1.0)[0] == 0.0
        assert expected_improvement(np.array([1.0]), np.array([0.0]), best=1.0)[0] == 0.0

    def test_no_uncertainty_certain_improvement(self):
        ei = expected_improvement(np.array([0.4]), np.array([0.0]), best=1.0)
        assert ei[0] == pytest.approx(0.6)

    def test_known_value(self):
        # z = (1.0 - 0.5)/0.5 = 1: EI = 0.5 * cdf(1) + 0.5 * pdf(1)
        ei = expected_improvement(np.array([0.5]), np.array([0.5]), best=1.0)
        assert ei[0] == pytest.approx(0.5416577352938431, abs=1e-12)

    def test_at_the_incumbent(self):
        ei = expected_improvement(np.array([1.0]), np.array([1.0]), best=1.0)
        assert ei[0] == pytest.approx(0.3989422804014327, abs=1e-12)

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(4)
        mean = rng.normal(scale=50, size=2000)
        std = np.abs(rng.normal(scale=10, size=2000))
        std[::7] = 0.0
        ei = expected_improvement(mean, std, best=float(rng.normal()))
        assert np.all(ei >= 0.0)

    def test_increasing_in_stddev_when_losing(self):
        stddevs = np.linspace(0.01, 5.0, 40)
        ei = expected_improvement(np.full(40, 2.0), stddevs, best=1.0)
        assert np.all(np.diff(ei) > 0)

    @staticmethod
    def unit_range():
        """Means and spreads whose z = (1 − mean) / stddev spans [−8, 8]."""
        z = np.concatenate([np.linspace(-8.0, 8.0, 321), [-8.0, 0.0, 8.0]])
        stddev = np.random.default_rng(5).uniform(0.05, 4.0, size=len(z))
        mean = 1.0 - z * stddev
        improvement = 1.0 - mean
        return mean, stddev, improvement, improvement / stddev

    def test_equals_the_scipy_stats_closed_form_bit_for_bit(self):
        """Φ is the standard library's ½·erfc(−z/√2) and φ is
        ``scipy.stats.norm``'s expression."""
        mean, stddev, improvement, z = self.unit_range()
        cdf = np.array([0.5 * math.erfc(-x / math.sqrt(2.0)) for x in z])
        expected = improvement * cdf + stddev * stats.norm.pdf(z)
        got = expected_improvement(mean, stddev, best=1.0)
        assert np.array_equal(got, np.maximum(expected, 0.0))

    def test_phi_is_scipy_stats_to_rounding(self):
        """On z in [−8, 8] the libm Φ differs from ``scipy.stats.norm.cdf``
        (Cephes ``ndtr``) in the last bits of about 45% of points, by at
        most 1.27e-14 relative (106 ulp), measured on 100,001 points."""
        *_, z = self.unit_range()
        dense = np.linspace(-8.0, 8.0, 100_001)
        for points in (z, dense):
            np.testing.assert_allclose(
                gp._normal_cdf(points), stats.norm.cdf(points), rtol=2e-14, atol=0
            )

    def test_a_point_scores_the_same_bits_in_any_subset(self):
        """A point's EI does not depend on the array it is scored in: its
        length (SIMD bodies and tails), its offset or its gathering. So
        scoring a subset of the grid ranks it as scoring the whole would."""
        rng = np.random.default_rng(6)
        mean = rng.normal(size=512)
        std = rng.uniform(0.0, 1.0, size=512)
        std[::9] = 0.0
        full = expected_improvement(mean, std, best=0.3).view(np.int64)
        for length in range(1, 71):
            for start in rng.integers(0, 512 - length, size=6):
                part = slice(start, start + length)
                got = expected_improvement(mean[part], std[part], best=0.3)
                assert np.array_equal(got.view(np.int64), full[part])
            picked = np.sort(rng.choice(512, length, replace=False))
            got = expected_improvement(mean[picked], std[picked], best=0.3)
            assert np.array_equal(got.view(np.int64), full[picked])


class TestImprovementCutoff:
    @settings(max_examples=500, deadline=None)
    @given(
        exponent=st.floats(-99.9, 6.0),
        below=st.one_of(st.just(0.0), st.floats(0.0, 50.0)),
        spread=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    )
    def test_an_improvement_below_the_cutoff_scores_below_the_ei(self, exponent, below, spread):
        ei = 10.0**exponent
        cutoff = improvement_cutoff(ei)
        assert cutoff is not None
        # Just below the cutoff, or further below; the mean is 0, so the
        # improvement is exactly ``best``.
        improvement = np.nextafter(cutoff, -np.inf) - below
        with np.errstate(over="ignore"):  # a subnormal spread sends z to ±inf
            score = expected_improvement(np.array([0.0]), np.array([spread]), best=improvement)
        assert score[0] < ei
        # The cutoff is tight: at spread 1 the cutoff itself nearly reaches ei.
        at_cutoff = expected_improvement(np.array([0.0]), np.array([1.0]), best=cutoff)
        assert at_cutoff[0] >= ei * (1.0 - 2e-6)

    @pytest.mark.parametrize("ei", [0.0, -1.0, 1e-101, float("nan"), float("inf")])
    def test_no_cutoff_for_an_ei_too_small_or_not_finite(self, ei):
        assert improvement_cutoff(ei) is None


def assert_same_posterior(model, reference, points, tol):
    mean, std = model.predict(points)
    ref_mean, ref_std = reference.predict(points)
    assert np.max(np.abs(mean - ref_mean)) <= tol
    assert np.max(np.abs(std - ref_std)) <= tol


# Input counts of successive fits, each extending the one before.
EXTENSION_SEQUENCES = pytest.mark.parametrize(
    "ends",
    [list(range(1, 13)), [6, 12, 18, 24, 30], [2, 3, 9, 16, 17, 29]],
    ids=["block-1", "block-6", "uneven"],
)


def assert_c_ordered_lower_inverse(model):
    """``model._inverse`` is C-contiguous, so its rows feed the grid GEMM
    unstrided, lower-triangular, and the inverse of the Cholesky factor."""
    inverse, n = model._inverse, len(model.inputs)
    assert inverse.flags.c_contiguous
    assert not np.triu(inverse, 1).any()
    gram = gp._kernel(model.inputs, model.inputs) + model.jitter * np.eye(n)
    assert np.abs(inverse @ np.linalg.cholesky(gram) - np.eye(n)).max() < 1e-9


class TestIncrementalPosterior:
    """A fit extending its prior must be the fresh fit, up to rounding."""

    @EXTENSION_SEQUENCES
    def test_extension_keeps_a_c_ordered_lower_inverse(self, ends):
        rng = np.random.default_rng(7)
        inputs = rng.random((ends[-1], 3))
        targets = np.sin(4 * inputs[:, 0]) + inputs[:, 1] * inputs[:, 2]
        model = None
        for end in ends:
            model = gp_fit(inputs[:end], targets[:end], prior=model)
            assert_c_ordered_lower_inverse(model)

    def test_near_duplicates_keep_the_inverse_lower(self):
        """Near-duplicate inputs make Cholesky columns outweigh their
        diagonals, where inverting by pivoted LU leaves rounding above it."""
        rng = np.random.default_rng(3)
        pairs = np.repeat(rng.random((12, 3)), 2, axis=0)
        inputs = pairs + rng.normal(scale=1e-3, size=pairs.shape)
        targets = inputs.sum(axis=1)
        model = None
        for end in (6, 12, 18, 24):
            model = gp_fit(inputs[:end], targets[:end], prior=model)
            assert_c_ordered_lower_inverse(model)
            assert_c_ordered_lower_inverse(gp_fit(inputs[:end], targets[:end]))

    @EXTENSION_SEQUENCES
    def test_extension_matches_fresh_fit(self, ends):
        rng = np.random.default_rng(7)
        inputs = rng.random((ends[-1], 3))
        targets = np.sin(4 * inputs[:, 0]) + inputs[:, 1] * inputs[:, 2]
        points = rng.random((500, 3))
        model = None
        for end in ends:
            model = gp_fit(inputs[:end], targets[:end], prior=model)
            assert model.jitter == DEFAULT_JITTER
            assert_same_posterior(model, gp_fit(inputs[:end], targets[:end]), points, 1e-9)

    @EXTENSION_SEQUENCES
    def test_running_mean_at_utility_scale_matches_fresh_fit(self, ends):
        """Targets of mean ~500 and spread ~100: the mean must not cancel
        where the standardized mean subtracts the target mean."""
        rng = np.random.default_rng(12)
        inputs = rng.random((ends[-1], 3))
        targets = 500.0 + 100.0 * rng.standard_normal(ends[-1])
        points = rng.random((400, 3))
        model = None
        for end in ends:
            model = gp_fit(inputs[:end], targets[:end], prior=model)
            assert_same_posterior(model, gp_fit(inputs[:end], targets[:end]), points, 1e-9)

    def test_no_points_predicts_nothing(self):
        inputs = grid_inputs(4)
        model = gp_fit(inputs, inputs.sum(axis=1))
        mean, std = model.predict(np.empty((0, 2)))
        assert mean.shape == std.shape == (0,)

    @staticmethod
    def near_duplicates():
        rng = np.random.default_rng(1)
        base = rng.random((6, 2))
        inputs = np.vstack([base, base[:3] + 1e-9])
        return inputs, np.arange(9.0), rng.random((40, 2))

    @staticmethod
    def indefinite_at_the_default_jitter(patch):
        """Make every Cholesky factorization of a fit at ``DEFAULT_JITTER``
        raise, as where rounding leaves near-duplicate rows' kernel matrix
        indefinite, whatever the BLAS kernel's rounding."""
        extended_factor, cholesky = gp._extended_factor, np.linalg.cholesky
        jitter = []

        def recording(prior, inputs, eps):
            jitter[:] = [eps]
            return extended_factor(prior, inputs, eps)

        def indefinite(matrix):
            if jitter == [DEFAULT_JITTER]:
                raise np.linalg.LinAlgError("Matrix is not positive definite")
            return cholesky(matrix)

        patch.setattr(gp, "_extended_factor", recording)
        patch.setattr(np.linalg, "cholesky", indefinite)

    def test_duplicate_inputs_fall_back_to_a_fresh_fit(self, monkeypatch):
        inputs, targets, points = self.near_duplicates()
        prior = gp_fit(inputs[:6], targets[:6])
        assert prior.jitter == DEFAULT_JITTER
        prior.predict(points)
        with monkeypatch.context() as patch:
            self.indefinite_at_the_default_jitter(patch)
            model = gp_fit(inputs, targets, prior=prior)
            fresh = gp_fit(inputs, targets)
        assert fresh.jitter > DEFAULT_JITTER
        assert model.jitter == fresh.jitter
        assert_same_posterior(model, fresh, points, 0.0)

    def test_escalated_prior_is_not_extended(self, monkeypatch):
        inputs, targets, points = self.near_duplicates()
        with monkeypatch.context() as patch:
            self.indefinite_at_the_default_jitter(patch)
            prior = gp_fit(inputs, targets)
        assert prior.jitter > DEFAULT_JITTER
        more = np.vstack([inputs, inputs[:2] + 0.5])
        more_targets = np.arange(11.0)
        model = gp_fit(more, more_targets, prior=prior)
        assert_same_posterior(model, gp_fit(more, more_targets), points, 0.0)

    def test_non_prefix_prior_is_ignored(self):
        rng = np.random.default_rng(9)
        inputs = rng.random((10, 2))
        targets = inputs[:, 0] - inputs[:, 1]
        points = rng.random((60, 2))
        prior = gp_fit(inputs[1:6], targets[1:6])
        prior.predict(points)
        model = gp_fit(inputs, targets, prior=prior)
        assert_same_posterior(model, gp_fit(inputs, targets), points, 0.0)


def unit_levels(*counts):
    """Evenly spaced levels on [0, 1] per axis; a single level reads 0.0."""
    return [np.linspace(0.0, 1.0, count) if count > 1 else np.zeros(1) for count in counts]


def assert_grid_matches_points(model, grid, tol=1e-12):
    """The grid posterior is the array posterior at the enumerated points.
    Variances, not deviations, are compared: near a training point the
    square root turns a 1e-16 difference of variances into about 1e-12."""
    mean, std = model.predict(grid)
    ref_mean, ref_std = model.predict(grid.at(range(len(grid))))
    assert mean.shape == std.shape == (len(grid),)
    assert np.max(np.abs(mean - ref_mean)) <= tol
    assert np.max(np.abs(std**2 - ref_std**2)) <= tol


def grid_history(grid, count, seed):
    """``count`` distinct grid points and utility-scale targets."""
    rng = np.random.default_rng(seed)
    inputs = grid.at(rng.permutation(len(grid))[:count])
    return inputs, 500.0 + 100.0 * rng.standard_normal(count)


class TestProductGrid:
    """Predicting on a ProductGrid must equal predicting at its points."""

    def test_points_enumerate_the_product_in_row_major_order(self):
        levels = unit_levels(4, 1, 3, 4, 5, 2)
        grid = ProductGrid(levels)
        mesh = np.meshgrid(*levels, indexing="ij")
        assert len(grid) == 480
        assert np.array_equal(grid.at(range(480)), np.stack([m.ravel() for m in mesh], -1))
        assert np.array_equal(grid.at([7, 0]), grid.at(range(480))[[7, 0]])

    @pytest.mark.parametrize(
        "counts, halves",
        [((4, 1, 3, 4, 5, 2), (12, 40)), ((4,) * 8, (256, 256)), ((9,), (1, 9))],
        ids=["pinned", "toystore", "one-axis"],
    )
    def test_factors_multiply_to_the_kernel(self, counts, halves):
        grid = ProductGrid(unit_levels(*counts))
        inputs, _ = grid_history(grid, 5, seed=1)
        left, right = grid.factors(inputs)
        assert (left.shape[1], right.shape[1]) == halves
        product = (left[:, :, None] * right[:, None, :]).reshape(5, -1)
        kernel = gp._kernel(inputs, grid.at(range(len(grid))))
        assert np.max(np.abs(product - kernel)) <= 1e-14

    @pytest.mark.parametrize(
        "counts, observed",
        # On one axis, inputs much closer than the length scale make the mean
        # weights large, and the rounding of any kernel evaluation with them.
        [((4, 1, 3, 4, 5, 2), 24), ((9,), 4), ((4,) * 8, 36)],
        ids=["pinned", "one-axis", "toystore"],
    )
    def test_rounds_hand_the_running_sum_on(self, counts, observed):
        grid = ProductGrid(unit_levels(*counts))
        inputs, targets = grid_history(grid, observed, seed=2)
        step = observed // 4
        model = None
        for end in range(step, observed + 1, step):
            prior = model
            model = gp_fit(inputs[:end], targets[:end], prior=prior)
            if prior is not None:
                assert model._grid_variance is prior._grid_variance
                assert model._grid_variance.rows == end - step
            assert_grid_matches_points(model, grid)
            assert model._grid_variance.rows == end
            assert model._grid_variance.sq_sum.shape == (len(grid),)
        assert_same_posterior(model, gp_fit(inputs, targets), grid, 1e-9)

    def test_successor_with_other_leading_targets_gets_their_posterior(self):
        """The running sum depends on the inputs only: a successor rescoring
        the prior's observations takes it over and predicts its own mean."""
        grid = ProductGrid(unit_levels(5, 4, 3))
        inputs, targets = grid_history(grid, 12, seed=7)
        for changed in (0, 4):
            prior = gp_fit(inputs[:6], targets[:6])
            prior.predict(grid)
            rescored = targets.copy()
            rescored[changed] += 37.0
            model = gp_fit(inputs, rescored, prior=prior)
            assert model._grid_variance is prior._grid_variance
            assert_grid_matches_points(model, grid)
            assert_same_posterior(model, gp_fit(inputs, rescored), grid, 1e-9)

    def test_jitter_escalated_prior_restarts_the_sum(self, monkeypatch):
        grid = ProductGrid(unit_levels(4, 1, 3, 4, 5, 2))
        inputs, targets = grid_history(grid, 20, seed=3)
        real = gp._extended_factor

        def indefinite_at_the_default_jitter(prior, rows, eps):
            if eps == DEFAULT_JITTER:
                raise np.linalg.LinAlgError("not positive definite")
            return real(prior, rows, eps)

        with monkeypatch.context() as patch:
            patch.setattr(gp, "_extended_factor", indefinite_at_the_default_jitter)
            prior = gp_fit(inputs[:10], targets[:10])
        assert prior.jitter == 10 * DEFAULT_JITTER
        assert_grid_matches_points(prior, grid)
        model = gp_fit(inputs, targets, prior=prior)
        assert model.jitter == DEFAULT_JITTER and model._grid_variance is None
        assert_grid_matches_points(model, grid)
        assert_same_posterior(model, gp_fit(inputs, targets), grid, 0.0)

    def test_non_prefix_prior_restarts_the_sum(self):
        grid = ProductGrid(unit_levels(5, 4, 3))
        inputs, targets = grid_history(grid, 12, seed=4)
        prior = gp_fit(inputs[1:7], targets[1:7])
        prior.predict(grid)
        model = gp_fit(inputs, targets, prior=prior)
        assert model._grid_variance is None
        assert_grid_matches_points(model, grid)
        assert_same_posterior(model, gp_fit(inputs, targets), grid, 0.0)

    def test_another_grid_object_restarts_the_sum(self):
        first = ProductGrid(unit_levels(6, 5))
        second = ProductGrid([axis**2 for axis in unit_levels(6, 5)])
        inputs, targets = grid_history(first, 14, seed=5)
        prior = gp_fit(inputs[:7], targets[:7])
        prior.predict(first)
        model = gp_fit(inputs, targets, prior=prior)
        assert_grid_matches_points(model, second)
        assert model._grid_variance.grid is second
        assert_grid_matches_points(model, first)
        assert model._grid_variance.rows == 14

    def test_prior_predicts_after_its_successor(self):
        """A successor sums into arrays of its own: the prior's sum stays
        whole, so the prior still predicts its own posterior."""
        grid = ProductGrid(unit_levels(4, 3, 5))
        inputs, targets = grid_history(grid, 12, seed=6)
        prior = gp_fit(inputs[:6], targets[:6])
        before = prior.predict(grid)
        gp_fit(inputs, targets, prior=prior).predict(grid)
        after = prior.predict(grid)
        assert np.array_equal(before[0], after[0]) and np.array_equal(before[1], after[1])
        assert_grid_matches_points(prior, grid)

    def test_many_new_rows_are_summed_in_gemm_sized_blocks(self):
        """A fresh model on many inputs adds V's rows in several batched
        GEMMs; their sum is the single-pass posterior."""
        grid = ProductGrid(unit_levels(6, 6, 5))
        inputs, targets = grid_history(grid, 3 * gp._ROWS_PER_GEMM + 2, seed=8)
        assert_grid_matches_points(gp_fit(inputs, targets), grid)


class FakeOpenBlas:
    """A library's thread-count getter and setter, recording every set."""

    def __init__(self, count):
        self.count = count
        self.sets = []

    def get(self):
        return self.count

    def set(self, count):
        self.sets.append(count)
        self.count = count


class TestOneBlasThread:
    def test_caps_every_library_and_restores_its_count(self, monkeypatch):
        libraries = [FakeOpenBlas(2), FakeOpenBlas(4)]
        controls = tuple((lib.get, lib.set) for lib in libraries)
        monkeypatch.setattr(gp, "_openblas_thread_controls", lambda: controls)
        with one_blas_thread():
            assert [lib.count for lib in libraries] == [1, 1]
        assert [lib.count for lib in libraries] == [2, 4]
        with pytest.raises(ZeroDivisionError), one_blas_thread():
            1 / 0
        assert [lib.sets for lib in libraries] == [[1, 2, 1, 2], [1, 4, 1, 4]]

    def test_does_nothing_without_openblas(self, monkeypatch):
        real = gp._openblas_thread_controls()
        before = [get() for get, _ in real]
        monkeypatch.setattr(gp, "_openblas_thread_controls", lambda: ())
        with one_blas_thread():
            assert [get() for get, _ in real] == before
            fitted = gp_fit(grid_inputs(5), np.arange(5.0))
        assert [get() for get, _ in real] == before
        assert fitted.jitter == DEFAULT_JITTER

    def test_lookup_finds_no_library_in_maps_without_openblas(self, monkeypatch, tmp_path):
        maps = tmp_path / "maps"
        maps.write_text(
            "7f0000000000-7f0000001000 r-xp 00000000 08:01 42   /usr/lib/libmkl_rt.so.2\n"
            "7ffd00000000-7ffd00021000 rw-p 00000000 00:00 0    [stack]\n"
            "7ffd00100000-7ffd00102000 r-xp 00000000 00:00 0\n"
        )
        monkeypatch.setattr(gp, "_MAPS", str(maps))
        assert gp._openblas_thread_controls.__wrapped__() == ()
        monkeypatch.setattr(gp, "_MAPS", str(tmp_path / "missing"))
        assert gp._openblas_thread_controls.__wrapped__() == ()


#: Notes the OpenBLAS libraries numpy maps, runs a BO round's GP work on
#: one BLAS thread, and prints how many of numpy's thread getters the
#: cached controls hold.
NUMPY_BLAS_CONTROLLED = """
import ctypes, os
import numpy as np
from confopt import gp
with open(gp._MAPS, encoding="utf-8") as maps:
    fields = [line.split(maxsplit=5) for line in maps]
paths = {f[5].strip() for f in fields if len(f) == 6 and "openblas" in os.path.basename(f[5])}
grid = gp.ProductGrid([np.linspace(0.0, 1.0, 4)] * 3)
model = gp.gp_fit(grid.at([0, 21, 42, 63]), [1.0, 0.5, 2.0, 1.5])
with gp.one_blas_thread():
    mean, std = model.predict(grid)
    gp.expected_improvement(mean, std, model.standardize(0.5))
address = lambda function: ctypes.cast(function, ctypes.c_void_p).value
controlled = {address(getter) for getter, _ in gp._openblas_thread_controls()}
getters = [
    getattr(ctypes.CDLL(path), name.replace("_set_", "_get_"), None)
    for path in paths
    for name in gp._OPENBLAS_SETTERS
]
numpy_getters = {address(getter) for getter in getters if getter is not None}
print(len(numpy_getters), len(numpy_getters & controlled))
"""


def test_a_bo_round_controls_numpys_openblas():
    """numpy's OpenBLAS is the only BLAS the surrogate calls: the controls
    a fresh interpreter's BO round caches cap numpy's OpenBLAS."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_BLAS_CONTROLLED],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    found, controlled = map(int, proc.stdout.split())
    if not found:
        pytest.skip("no OpenBLAS mapped into the process")
    assert controlled == found
