from __future__ import annotations

import numpy as np
import pytest

from confopt.gp import (
    DEFAULT_JITTER,
    expected_improvement,
    gp_fit,
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

    def test_empty_training_rejected(self):
        with pytest.raises(ValueError):
            gp_fit(np.empty((0, 2)), np.empty(0))


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
