"""Gaussian process surrogate and the expected improvement acquisition.

Deliberately small: an isotropic squared-exponential kernel with fixed
hyperparameters tuned for normalized inputs, targets standardized to zero
mean and unit variance before fitting. No hyperparameter optimization, no
gradients; the surrogate only has to rank a few thousand grid candidates
per iteration, deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg, stats

__all__ = [
    "SurrogateModel",
    "gp_fit",
    "expected_improvement",
]

#: Kernel length scale in normalized coordinates.
DEFAULT_LENGTH_SCALE = 0.3
#: Prior signal variance after target standardization.
DEFAULT_SIGNAL_VARIANCE = 1.0
#: Initial diagonal jitter; escalated tenfold up to three times when the
#: kernel matrix resists factorization.
DEFAULT_JITTER = 1e-6
_JITTER_ESCALATIONS = 3


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, clipped against negative fuzz."""
    sq = (
        np.sum(a * a, axis=1)[:, None]
        + np.sum(b * b, axis=1)[None, :]
        - 2.0 * (a @ b.T)
    )
    return np.maximum(sq, 0.0)


@dataclass(eq=False)
class SurrogateModel:
    """A fitted GP posterior over standardized targets.

    ``predict`` returns means and standard deviations in standardized
    units; use :meth:`standardize` to move reference values (such as the
    incumbent best) into the same units.
    """

    inputs: np.ndarray
    target_mean: float
    target_std: float
    jitter: float
    _factor: tuple[np.ndarray, bool]
    _alpha: np.ndarray

    def standardize(self, value: float) -> float:
        return (value - self.target_mean) / self.target_std

    def predict(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        cross = DEFAULT_SIGNAL_VARIANCE * np.exp(
            -_sq_dists(points, self.inputs) / (2.0 * DEFAULT_LENGTH_SCALE**2)
        )
        mean = cross @ self._alpha
        solved = linalg.cho_solve(self._factor, cross.T)
        variance = DEFAULT_SIGNAL_VARIANCE - np.einsum("ij,ji->i", cross, solved)
        std = np.sqrt(np.maximum(variance, 0.0))
        return mean, std


def gp_fit(inputs: np.ndarray, targets: np.ndarray) -> SurrogateModel:
    """Fit the surrogate to observed (normalized input, raw target) pairs.

    Targets are standardized internally; a constant target vector gets unit
    scale so standardization never divides by zero. Duplicate inputs are
    fine, the jitter absorbs the resulting rank deficiency.
    """
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    targets = np.asarray(targets, dtype=float).reshape(-1)
    n = inputs.shape[0]
    if n == 0:
        raise ValueError("at least one observation required")
    if targets.shape[0] != n:
        raise ValueError(
            f"{n} inputs but {targets.shape[0]} targets"
        )
    if not np.isfinite(targets).all():
        bad = np.flatnonzero(~np.isfinite(targets)).tolist()
        raise ValueError(f"targets must be finite; non-finite at rows {bad}")

    mean = float(targets.mean())
    std = float(targets.std())
    if std == 0.0:
        std = 1.0
    y = (targets - mean) / std

    kernel = DEFAULT_SIGNAL_VARIANCE * np.exp(
        -_sq_dists(inputs, inputs) / (2.0 * DEFAULT_LENGTH_SCALE**2)
    )
    eps = DEFAULT_JITTER
    factor = None
    for _ in range(_JITTER_ESCALATIONS + 1):
        try:
            factor = linalg.cho_factor(
                kernel + eps * np.eye(n), lower=True, check_finite=False
            )
            break
        except linalg.LinAlgError:
            eps *= 10.0
    if factor is None:
        raise linalg.LinAlgError(
            f"kernel matrix not positive definite even with jitter {eps / 10.0:g}"
        )
    alpha = linalg.cho_solve(factor, y)
    return SurrogateModel(
        inputs=inputs,
        target_mean=mean,
        target_std=std,
        jitter=eps,
        _factor=factor,
        _alpha=alpha,
    )


def expected_improvement(
    mean: np.ndarray, stddev: np.ndarray, best: float
) -> np.ndarray:
    """Expected improvement below ``best`` for a minimization problem.

    With predictive spread the usual closed form applies:
    ``(best - mean) * Phi(z) + stddev * phi(z)`` with
    ``z = (best - mean) / stddev``. At zero spread it degenerates to
    ``max(best - mean, 0)``. Always non-negative.
    """
    mean = np.asarray(mean, dtype=float)
    stddev = np.asarray(stddev, dtype=float)
    improvement = best - mean
    safe = np.where(stddev > 0, stddev, 1.0)
    z = improvement / safe
    ei = np.where(
        stddev > 0,
        improvement * stats.norm.cdf(z) + stddev * stats.norm.pdf(z),
        np.maximum(improvement, 0.0),
    )
    return np.maximum(ei, 0.0)
