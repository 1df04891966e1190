from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from confopt import gp
from confopt.gp import (
    DEFAULT_JITTER,
    expected_improvement,
    gp_fit,
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


@pytest.mark.parametrize("rows", [(6, 500), (40, 6), (1, 1)], ids=["wide", "tall", "single"])
def test_kernel_in_place_equals_the_expression_bit_for_bit(rows):
    rng = np.random.default_rng(15)
    a, b = rng.random((rows[0], 3)), rng.random((rows[1], 3))
    sq = np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :] - 2.0 * (a @ b.T)
    expected = gp.DEFAULT_SIGNAL_VARIANCE * np.exp(
        -np.maximum(sq, 0.0) / (2.0 * gp.DEFAULT_LENGTH_SCALE**2)
    )
    out = np.empty((rows[0] + 2, rows[1]))[1:-1]
    assert np.array_equal(gp._kernel(a, b), expected)
    assert gp._kernel(a, b, gp._row_norms(b), out=out) is out
    assert np.array_equal(out, expected)


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

    def test_equals_the_scipy_stats_closed_form_bit_for_bit(self):
        z = np.concatenate([np.linspace(-8.0, 8.0, 321), [-8.0, 0.0, 8.0]])
        stddev = np.random.default_rng(5).uniform(0.05, 4.0, size=len(z))
        mean = 1.0 - z * stddev
        improvement = 1.0 - mean
        z = improvement / stddev
        expected = improvement * stats.norm.cdf(z) + stddev * stats.norm.pdf(z)
        got = expected_improvement(mean, stddev, best=1.0)
        assert np.array_equal(got, np.maximum(expected, 0.0))


def read_only(array):
    array.setflags(write=False)
    return array


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


class TestIncrementalPosterior:
    """A fit extending its prior must be the fresh fit, up to rounding."""

    @EXTENSION_SEQUENCES
    def test_extension_matches_fresh_fit(self, ends):
        rng = np.random.default_rng(7)
        inputs = rng.random((ends[-1], 3))
        targets = np.sin(4 * inputs[:, 0]) + inputs[:, 1] * inputs[:, 2]
        points = read_only(rng.random((500, 3)))
        model = None
        for end in ends:
            model = gp_fit(inputs[:end], targets[:end], prior=model)
            assert model.jitter == DEFAULT_JITTER
            assert_same_posterior(model, gp_fit(inputs[:end], targets[:end]), points, 1e-9)

    @EXTENSION_SEQUENCES
    def test_running_mean_at_utility_scale_matches_fresh_fit(self, ends):
        """Targets of mean ~500 and spread ~100: the running sums must not
        cancel where the standardized mean subtracts the target mean."""
        rng = np.random.default_rng(12)
        inputs = rng.random((ends[-1], 3))
        targets = 500.0 + 100.0 * rng.standard_normal(ends[-1])
        points = read_only(rng.random((400, 3)))
        model = None
        for end in ends:
            model = gp_fit(inputs[:end], targets[:end], prior=model)
            assert_same_posterior(model, gp_fit(inputs[:end], targets[:end]), points, 1e-9)

    def test_successor_with_other_leading_targets_gets_the_fresh_posterior(self):
        rng = np.random.default_rng(13)
        inputs = rng.random((12, 2))
        targets = 500.0 + 100.0 * rng.standard_normal(12)
        points = read_only(rng.random((70, 2)))
        prior = gp_fit(inputs[:6], targets[:6])
        prior.predict(points)
        for changed in (0, 4):  # the offset target, then a later one
            rescored = targets.copy()
            rescored[changed] += 37.0
            model = gp_fit(inputs, rescored, prior=prior)
            assert model._basis is not None
            assert_same_posterior(model, gp_fit(inputs, rescored), points, 1e-9)
            prior = gp_fit(inputs[:6], targets[:6])
            prior.predict(points)

    def test_growth_blocked_by_a_view_leaves_the_model_usable(self):
        rng = np.random.default_rng(15)
        inputs = rng.random((11, 2))
        targets = 500.0 + 100.0 * rng.standard_normal(11)
        points = read_only(rng.random((40, 2)))
        prior = gp_fit(inputs[:5], targets[:5])
        prior.predict(points)
        view = prior._basis.rows
        model = gp_fit(inputs, targets, prior=prior)
        with pytest.raises(BufferError):
            model.predict(points)
        assert model._basis.rows.shape == (5, 40) and model._basis.filled == 5
        del view
        assert_same_posterior(model, gp_fit(inputs, targets), points, 1e-9)
        assert model._basis.filled == 11

    def test_no_points_predicts_nothing(self):
        inputs = grid_inputs(4)
        model = gp_fit(inputs, inputs.sum(axis=1))
        mean, std = model.predict(read_only(np.empty((0, 2))))
        assert mean.shape == std.shape == (0,)

    def test_extension_takes_over_the_basis(self):
        rng = np.random.default_rng(8)
        inputs = rng.random((12, 2))
        targets = inputs.sum(axis=1)
        points = read_only(rng.random((50, 2)))
        prior = gp_fit(inputs[:6], targets[:6])
        prior.predict(points)
        basis = prior._basis
        assert basis is not None and basis.filled == 6
        memory = basis.memory
        model = gp_fit(inputs, targets, prior=prior)
        model.predict(points)
        assert model._basis is basis and basis.filled == 12
        assert basis.memory is memory and basis.rows.shape == (12, 50)

    @staticmethod
    def near_duplicates():
        # Far from the origin the expanded squared distance loses about
        # ten digits, so near-duplicate rows make the new corner of the
        # kernel matrix indefinite at the default jitter.
        rng = np.random.default_rng(1)
        base = 1e5 + 3.0 * rng.random((6, 2))
        inputs = np.vstack([base, base[:3] + 1e-9])
        return inputs, np.arange(9.0), read_only(1e5 + 3.0 * rng.random((40, 2)))

    def test_duplicate_inputs_fall_back_to_a_fresh_fit(self):
        inputs, targets, points = self.near_duplicates()
        prior = gp_fit(inputs[:6], targets[:6])
        assert prior.jitter == DEFAULT_JITTER
        prior.predict(points)
        model = gp_fit(inputs, targets, prior=prior)
        fresh = gp_fit(inputs, targets)
        assert fresh.jitter > DEFAULT_JITTER
        assert model.jitter == fresh.jitter
        assert_same_posterior(model, fresh, points, 0.0)

    def test_escalated_prior_is_not_extended(self):
        inputs, targets, points = self.near_duplicates()
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
        points = read_only(rng.random((60, 2)))
        prior = gp_fit(inputs[1:6], targets[1:6])
        prior.predict(points)
        model = gp_fit(inputs, targets, prior=prior)
        assert_same_posterior(model, gp_fit(inputs, targets), points, 0.0)

    def test_second_points_array_starts_a_new_basis(self):
        rng = np.random.default_rng(10)
        inputs = rng.random((14, 2))
        targets = np.cos(3 * inputs[:, 0]) + inputs[:, 1]
        first = read_only(rng.random((80, 2)))
        second = read_only(rng.random((30, 2)))
        prior = gp_fit(inputs[:7], targets[:7])
        prior.predict(first)
        model = gp_fit(inputs, targets, prior=prior)
        model.predict(first)
        fresh = gp_fit(inputs, targets)
        assert_same_posterior(model, fresh, second, 1e-9)
        assert_same_posterior(model, fresh, first, 1e-9)

    def test_prior_predicts_after_its_successor_extended_the_basis(self):
        rng = np.random.default_rng(11)
        inputs = rng.random((12, 3))
        targets = inputs @ np.array([1.0, -2.0, 0.5])
        points = read_only(rng.random((90, 3)))
        prior = gp_fit(inputs[:6], targets[:6])
        before = prior.predict(points)
        successor = gp_fit(inputs, targets, prior=prior)
        successor.predict(points)
        after = prior.predict(points)
        fresh = gp_fit(inputs[:6], targets[:6]).predict(points)
        for got in (before, after):
            assert np.max(np.abs(got[0] - fresh[0])) <= 1e-9
            assert np.max(np.abs(got[1] - fresh[1])) <= 1e-9


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


def test_importing_the_cli_leaves_scipy_stats_unloaded():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", "import confopt.cli, sys; assert 'scipy.stats' not in sys.modules"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
