"""Gaussian process surrogate and the expected improvement acquisition.

Deliberately small: an isotropic squared-exponential kernel with fixed
hyperparameters tuned for normalized inputs, targets standardized to zero
mean and unit variance before fitting. No hyperparameter optimization, no
gradients; the surrogate only has to rank grid candidates once per round,
deterministically.

The posterior is incremental (Rasmussen & Williams, *GPML* 2006, Alg. 2.1
and §A.3). A fit handed the previous round's model as ``prior`` extends
its lower Cholesky factor L by the new rows only: the block
``L⁻¹K(X_old, X_new)`` and a Cholesky of the b×b Schur complement. A model
keeps ``V = L⁻¹K(X, points)`` for the one read-only ``points`` array it
last predicted on and passes it to the model that extends it, so a round
that tells b new observations to a model of n and predicts N points costs
O(b·n·N) for the new rows of V and O(n·N) for the mean, instead of a fresh
O(n²·N) solve. V holds n·N floats: 75 MB at n = 144 on a 65,536-point grid.
It grows in place by the new rows only, so it never holds more rows than
the model has inputs.

That work is a few large, memory-bound BLAS calls on b new rows per round,
which BLAS threads only slow down. :func:`one_blas_thread` runs a round on
one OpenBLAS thread, so results and speed do not depend on the core count.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np
from scipy import linalg, special

__all__ = [
    "SurrogateModel",
    "gp_fit",
    "expected_improvement",
    "one_blas_thread",
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


def _kernel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return DEFAULT_SIGNAL_VARIANCE * np.exp(
        -_sq_dists(a, b) / (2.0 * DEFAULT_LENGTH_SCALE**2)
    )


def _solve_lower(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    return linalg.solve_triangular(factor, rhs, lower=True, check_finite=False)


#: The maps of this process's address space, one mapped file per line (Linux).
_MAPS = "/proc/self/maps"
#: Thread-count setters of the OpenBLAS builds in use: upstream's, scipy's
#: wheel's and numpy's wheel's. Each getter is named alike with ``get``.
_OPENBLAS_SETTERS = (
    "openblas_set_num_threads",
    "scipy_openblas_set_num_threads",
    "scipy_openblas_set_num_threads64_",
)


@functools.cache
def _openblas_thread_controls() -> tuple[tuple[Callable[[], int], Callable[[int], None]], ...]:
    """The thread-count getter and setter of every OpenBLAS library mapped
    into this process; none without ``/proc/self/maps`` or without OpenBLAS
    (MKL, Accelerate). Looked up once: the first call comes after numpy
    and scipy.linalg, which load every BLAS in use, were imported."""
    try:
        with open(_MAPS, encoding="utf-8") as maps:
            fields = [line.split(maxsplit=5) for line in maps]
    except OSError:
        return ()
    paths = sorted(
        {f[5].strip() for f in fields if len(f) == 6 and "openblas" in os.path.basename(f[5])}
    )
    controls = []
    for path in paths:
        try:
            library = ctypes.CDLL(path)
        except OSError:  # the mapped file was replaced or deleted
            continue
        for name in _OPENBLAS_SETTERS:
            setter = getattr(library, name, None)
            getter = getattr(library, name.replace("_set_", "_get_"), None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                controls.append((getter, setter))
                break
    return tuple(controls)


@contextlib.contextmanager
def one_blas_thread() -> Iterator[None]:
    """Run the body on one thread in every OpenBLAS library of the process,
    then restore each library's thread count, also when the body raises.
    Does nothing where no OpenBLAS is found."""
    controls = _openblas_thread_controls()
    saved = [getter() for getter, _ in controls]
    for _, setter in controls:
        setter(1)
    try:
        yield
    finally:
        for (_, setter), count in zip(controls, saved):
            setter(count)


@dataclass(eq=False)
class _Basis:
    """``V = L⁻¹K(X, points)`` for one ``points`` array, one row per input,
    and the running column sums of V².

    ``rows`` never leaves this class as a view (readers take the array
    itself), so no view of it is alive when ``extend`` grows it in place
    with ``resize(refcheck=False)``. That is a ``realloc``, which on Linux
    moves a large buffer's pages with ``mremap`` instead of copying them,
    so a large V is never resident twice."""

    points: np.ndarray
    rows: np.ndarray
    sq_sum: np.ndarray

    @property
    def filled(self) -> int:
        """Number of inputs V covers."""
        return len(self.rows)

    def extend(self, factor: np.ndarray, inputs: np.ndarray) -> None:
        """Append the rows of V for the inputs past the first m:
        ``V[m:n] = L[m:n,m:n]⁻¹ (K(X[m:n], points) − L[m:n,:m] V[:m])``."""
        m, n = self.filled, len(inputs)
        block = _kernel(inputs[m:], self.points)
        block -= factor[m:, :m] @ self.rows
        self.rows.resize((n, len(self.points)), refcheck=False)
        # A right-side solve of V[m:n]ᵀ L[m:n,m:n]ᵀ = blockᵀ on the
        # transposed, uncopied layout: LAPACK's left-side solve would walk
        # the N columns of a Fortran copy of the block.
        new = linalg.blas.dtrsm(
            1.0, factor[m:, m:], block.T, side=1, lower=1, trans_a=1, overwrite_b=1
        ).T
        self.rows[m:] = new
        self.sq_sum += np.einsum("ij,ij->j", new, new)


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
    _factor: np.ndarray
    _weights: np.ndarray
    _basis: _Basis | None = None

    def standardize(self, value: float) -> float:
        return (value - self.target_mean) / self.target_std

    def predict(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and standard deviation at ``points``.

        The basis V is kept between calls only for a read-only array, and
        only while the next call passes that same array object; any other
        array gets a basis computed from zero rows.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        basis = self._basis
        if basis is None or basis.points is not points:
            basis = _Basis(points, np.empty((0, len(points))), np.zeros(len(points)))
        basis.extend(self._factor, self.inputs)
        self._basis = None if points.flags.writeable else basis
        mean = self._weights @ basis.rows
        std = np.sqrt(np.maximum(DEFAULT_SIGNAL_VARIANCE - basis.sq_sum, 0.0))
        return mean, std


def _extended_factor(
    prior: SurrogateModel | None, inputs: np.ndarray, eps: float
) -> np.ndarray:
    """Lower Cholesky factor of ``K(inputs) + eps·I``, extending the
    prior's factor over its leading rows (none without a prior). Raises
    ``LinAlgError`` when the Schur complement is not positive definite."""
    old = inputs[:0] if prior is None else prior.inputs
    m, n = len(old), len(inputs)
    factor = np.zeros((n, n))
    if prior is not None:
        factor[:m, :m] = prior._factor
    cross = _solve_lower(factor[:m, :m], _kernel(old, inputs[m:]))
    factor[m:, :m] = cross.T
    corner = _kernel(inputs[m:], inputs[m:]) + eps * np.eye(n - m) - cross.T @ cross
    factor[m:, m:] = linalg.cholesky(corner, lower=True, check_finite=False)
    return factor


def gp_fit(
    inputs: np.ndarray,
    targets: np.ndarray,
    *,
    prior: SurrogateModel | None = None,
) -> SurrogateModel:
    """Fit the surrogate to observed (normalized input, raw target) pairs.

    Targets are standardized internally; a constant target vector gets unit
    scale so standardization never divides by zero. Duplicate inputs are
    fine, the jitter absorbs the resulting rank deficiency.

    When ``prior``'s inputs are the leading rows of ``inputs`` and it did
    not escalate its jitter, its factor is extended by the new rows at
    ``DEFAULT_JITTER`` and its prediction basis passes to the new model.
    Otherwise, or when that extension fails, the factor is computed from
    zero rows, escalating the jitter as needed; the result is the same
    model up to rounding either way.
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

    attempts = [(None, DEFAULT_JITTER * 10.0**i) for i in range(_JITTER_ESCALATIONS + 1)]
    if (
        prior is not None
        and prior.jitter == DEFAULT_JITTER
        and np.array_equal(prior.inputs, inputs[: len(prior.inputs)])
    ):
        attempts.insert(0, (prior, DEFAULT_JITTER))
    for base, eps in attempts:
        try:
            factor = _extended_factor(base, inputs, eps)
            break
        except linalg.LinAlgError:
            pass
    else:
        raise linalg.LinAlgError(
            f"kernel matrix not positive definite even with jitter {eps:g}"
        )
    basis = None
    if base is not None:
        basis, base._basis = base._basis, None
    return SurrogateModel(
        inputs=inputs,
        target_mean=mean,
        target_std=std,
        jitter=eps,
        _factor=factor,
        _weights=_solve_lower(factor, y),
        _basis=basis,
    )


def expected_improvement(
    mean: np.ndarray, stddev: np.ndarray, best: float
) -> np.ndarray:
    """Expected improvement below ``best`` for a minimization problem.

    With predictive spread the usual closed form applies:
    ``(best - mean) * Phi(z) + stddev * phi(z)`` with
    ``z = (best - mean) / stddev``. At zero spread it degenerates to
    ``max(best - mean, 0)``. Always non-negative. Phi and phi are the
    expressions ``scipy.stats.norm`` evaluates, without importing it.
    """
    mean = np.asarray(mean, dtype=float)
    stddev = np.asarray(stddev, dtype=float)
    improvement = best - mean
    safe = np.where(stddev > 0, stddev, 1.0)
    z = improvement / safe
    ei = np.where(
        stddev > 0,
        improvement * special.ndtr(z) + stddev * (np.exp(-z**2 / 2.0) / np.sqrt(2 * np.pi)),
        np.maximum(improvement, 0.0),
    )
    return np.maximum(ei, 0.0)
