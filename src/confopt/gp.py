"""Gaussian process surrogate and the expected improvement acquisition.

Deliberately small: an isotropic squared-exponential kernel with fixed
hyperparameters tuned for normalized inputs, targets standardized to zero
mean and unit variance before fitting. No hyperparameter optimization, no
gradients; the surrogate only has to rank grid candidates once per round,
deterministically.

The posterior is GPML's (Rasmussen & Williams 2006, Alg. 2.1): mean
``K(X, x)ᵀα`` with ``α = K⁻¹y``, variance ``σ² − Σ V²`` over the columns
of ``V = L⁻¹K(X, x)``, L the lower Cholesky factor of K. A model keeps
L⁻¹, so both are products. A fit handed the previous round's model as
``prior`` extends L⁻¹ by the new rows ``C⁻¹·[−BᵀL⁻¹, I]`` only, with
``B = L⁻¹K(X_old, X_new)`` and C the Cholesky factor of the b×b Schur
complement.

A point array gets that posterior from scratch. A :class:`ProductGrid`,
the Cartesian product of per-axis levels, gets it without forming
K(X, grid) or V. The kernel is a product over axes, so splitting the axes
into a leading and a trailing group gives ``K(x, grid) = A(x) ⊗ B(x)``
with A over the N_A leading points and B over the N_B trailing ones
(Saatçi 2011); a weighted sum of kernel rows, ``cᵀK(X, grid)``, is then
the N_A×N_B matrix ``Aᵀ diag(c) B``. A round that tells b observations to
a model of n computes V's b new rows ``(L⁻¹)[m:n, :]·K(X, grid)`` and the
mean ``αᵀK(X, grid)`` as one batched GEMM, O(b·n·N) on operands of
n·(N_A + N_B) floats. The only state a model keeps for the grid, and hands
to the model that extends it, is the column sum of V² (N floats).

That work is a few BLAS calls on b new rows per round, which BLAS threads
only slow down. :func:`one_blas_thread` runs a round on one OpenBLAS
thread, so results and speed do not depend on the core count.

:func:`improvement_cutoff` bounds expected improvement from above by the
improvement alone, so a caller ranking a grid by EI can leave out the
points that cannot reach its batch.

numpy does the linear algebra. Φ, the normal CDF, is one helper,
``½·erfc(−z/√2)`` from the standard library's ``math.erfc``, which
expected improvement and its cutoff share bit for bit.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

__all__ = [
    "ProductGrid",
    "SurrogateModel",
    "gp_fit",
    "expected_improvement",
    "improvement_cutoff",
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
#: Weight rows per batched GEMM over a grid, which bounds its operands and
#: result when a model starts the grid from zero rows.
_ROWS_PER_GEMM = 8


def _kernel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``K(a, b) = σ² exp(−max(|a|² + |b|² − 2a·b, 0) / 2ℓ²)``."""
    sq = np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :] - 2.0 * (a @ b.T)
    return DEFAULT_SIGNAL_VARIANCE * np.exp(
        -np.maximum(sq, 0.0) / (2.0 * DEFAULT_LENGTH_SCALE**2)
    )


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
    (MKL, Accelerate). Looked up once; numpy's is the only BLAS the
    surrogate calls, and importing numpy loads it."""
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


class ProductGrid:
    """The Cartesian product of per-axis normalized ``levels``, in row-major
    order (the first axis varies slowest), as one prediction target.

    The ``split`` leading axes form the factor A of ``K(x, grid)`` and the
    rest the factor B, split so that N_A is nearest N_B. The levels are
    read-only, since a model keeps its running sum of V² per grid object.
    """

    def __init__(self, levels: Iterable[Sequence[float]]):
        self.levels = tuple(np.array(axis, dtype=float) for axis in levels)
        for axis in self.levels:
            axis.setflags(write=False)
        self.shape = tuple(map(len, self.levels))
        self.split = min(
            range(len(self.shape) + 1),
            key=lambda s: abs(math.log(math.prod(self.shape[:s]) ** 2 / len(self))),
        )
        # All levels side by side, each column's axis and each axis's columns.
        self._stacked = np.concatenate(self.levels)
        self._axis_of_column = np.repeat(np.arange(len(self.shape)), self.shape)
        ends = np.cumsum(self.shape).tolist()
        self._columns = [slice(end - count, end) for end, count in zip(ends, self.shape)]

    def __len__(self) -> int:
        return math.prod(self.shape)

    def at(self, ranks: Sequence[int] | np.ndarray) -> np.ndarray:
        """Coordinates of the points at ``ranks``, one row each."""
        digits = np.unravel_index(np.asarray(ranks, dtype=np.intp), self.shape)
        return np.column_stack([axis[d] for axis, d in zip(self.levels, digits)])

    def factors(self, inputs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``K(inputs, grid)`` as A (n×N_A) and B (n×N_B): the kernel at the
        point of rank ``i·N_B + j`` is ``A[:, i] · B[:, j]``."""
        # Every axis's kernel at its own levels, in one pass over n×Σ levels.
        gap = inputs[:, self._axis_of_column] - self._stacked
        kernel = np.exp(gap * gap / (-2.0 * DEFAULT_LENGTH_SCALE**2))

        def factor(axes: range, scale: float) -> np.ndarray:
            # Slower axes go in front, so each product's inner loop runs
            # over the columns built so far.
            out = np.full((len(inputs), 1), scale)
            for axis in reversed(axes):
                along = kernel[:, self._columns[axis], None]
                out = (along * out[:, None, :]).reshape(len(inputs), -1)
            return out

        leading, trailing = range(self.split), range(self.split, len(self.shape))
        return factor(leading, DEFAULT_SIGNAL_VARIANCE), factor(trailing, 1.0)


class _GridVariance(NamedTuple):
    """Column sums of V² over V's first ``rows`` rows on ``grid``."""

    grid: ProductGrid
    rows: int
    sq_sum: np.ndarray


@dataclass(eq=False)
class SurrogateModel:
    """A fitted GP posterior over standardized targets.

    ``predict`` returns means and standard deviations in standardized
    units; use :meth:`standardize` to move reference values (such as the
    incumbent best) into the same units.

    ``_inverse`` is L⁻¹ for ``K(inputs) + jitter·I``, lower-triangular and
    C-ordered, so its rows feed the grid GEMM unstrided. ``_alpha`` holds
    the mean weights ``K⁻¹y`` of the standardized targets y.
    ``_grid_variance`` is the running sum of V² of the last grid predicted
    on, which a fit extending this model takes over.
    """

    inputs: np.ndarray
    target_mean: float
    target_std: float
    jitter: float
    _inverse: np.ndarray
    _alpha: np.ndarray
    _grid_variance: _GridVariance | None = None

    def standardize(self, value: float) -> float:
        return (value - self.target_mean) / self.target_std

    def predict(self, points: np.ndarray | ProductGrid) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and standard deviation at ``points``: an array of
        points, or every point of a grid in its order.

        The running sum of V² is kept between calls only for a grid, and
        only while the next call passes that same grid object; any other
        grid starts it from zero rows.
        """
        if isinstance(points, ProductGrid):
            mean, sq_sum = self._predict_grid(points)
        else:
            points = np.atleast_2d(np.asarray(points, dtype=float))
            cross = _kernel(self.inputs, points)
            mean = cross.T @ self._alpha
            basis = self._inverse @ cross
            sq_sum = np.einsum("ij,ij->j", basis, basis)
        return mean, np.sqrt(np.maximum(DEFAULT_SIGNAL_VARIANCE - sq_sum, 0.0))

    def _predict_grid(self, grid: ProductGrid) -> tuple[np.ndarray, np.ndarray]:
        """The mean and the column sums of V² over the whole grid, adding
        V's rows past those the running sum holds."""
        n = len(self.inputs)
        state = self._grid_variance
        if state is None or state.grid is not grid:
            state = _GridVariance(grid, 0, np.zeros(len(grid)))
        # Row 0 weights the kernel rows into the mean, the rest into V's new
        # rows: rows m..n of L⁻¹.
        weights = np.vstack([self._alpha, self._inverse[state.rows :]])
        left, right = grid.factors(self.inputs)
        mean, sq_sum = None, state.sq_sum
        for start in range(0, len(weights), _ROWS_PER_GEMM):
            chunk = weights[start : start + _ROWS_PER_GEMM, :, None]
            rows = np.matmul(left.T, chunk * right).reshape(len(chunk), -1)
            if mean is None:
                mean, rows = rows[0].copy(), rows[1:]
            sq_sum = sq_sum + np.einsum("ij,ij->j", rows, rows)
        self._grid_variance = _GridVariance(grid, n, sq_sum)
        return mean, sq_sum


def _extended_factor(
    prior: SurrogateModel | None, inputs: np.ndarray, eps: float
) -> np.ndarray:
    """L⁻¹ for ``K(inputs) + eps·I``, the triangular factor of K⁻¹ =
    L⁻ᵀL⁻¹, extending the prior's over its leading rows (none without a
    prior). Raises ``LinAlgError`` when the Schur complement is not
    positive definite."""
    old = inputs[:0] if prior is None else prior.inputs
    m, n = len(old), len(inputs)
    inverse = np.zeros((n, n))
    if prior is not None:
        inverse[:m, :m] = prior._inverse
    cross = inverse[:m, :m] @ _kernel(old, inputs[m:])
    corner = _kernel(inputs[m:], inputs[m:]) + eps * np.eye(n - m) - cross.T @ cross
    # inv pivots rows where a factor's column outweighs its diagonal, which
    # can leave rounding-sized entries above the diagonal; tril drops them.
    corner_inverse = np.tril(np.linalg.inv(np.linalg.cholesky(corner)))
    inverse[m:, :m] = corner_inverse @ -(cross.T @ inverse[:m, :m])
    inverse[m:, m:] = corner_inverse
    return inverse


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
    not escalate its jitter, its L⁻¹ is extended by the new rows at
    ``DEFAULT_JITTER`` and its running sum of V² on a grid passes to the
    new model. Otherwise, or when that extension fails, L⁻¹ is computed
    from zero rows, escalating the jitter as needed, and the sum starts
    again; the result is the same model up to rounding either way.
    """
    # A copy: later fits compare it with their inputs.
    inputs = np.atleast_2d(np.array(inputs, dtype=float))
    targets = np.asarray(targets, dtype=float).reshape(-1)
    n = inputs.shape[0]
    if n == 0:
        raise ValueError("at least one observation required")
    if targets.shape[0] != n:
        raise ValueError(
            f"{n} inputs but {targets.shape[0]} targets"
        )
    if not np.isfinite(inputs).all():
        bad = np.flatnonzero(~np.isfinite(inputs).all(axis=1)).tolist()
        raise ValueError(f"inputs must be finite; non-finite at rows {bad}")
    if not np.isfinite(targets).all():
        bad = np.flatnonzero(~np.isfinite(targets)).tolist()
        raise ValueError(f"targets must be finite; non-finite at rows {bad}")

    mean = float(targets.mean())
    std = float(targets.std())
    if std == 0.0:
        std = 1.0

    attempts = [(None, DEFAULT_JITTER * 10.0**i) for i in range(_JITTER_ESCALATIONS + 1)]
    if (
        prior is not None
        and prior.jitter == DEFAULT_JITTER
        and np.array_equal(prior.inputs, inputs[: len(prior.inputs)])
    ):
        attempts.insert(0, (prior, DEFAULT_JITTER))
    for base, eps in attempts:
        try:
            inverse = _extended_factor(base, inputs, eps)
            break
        except np.linalg.LinAlgError:
            pass
    else:
        raise np.linalg.LinAlgError(
            f"kernel matrix not positive definite even with jitter {eps:g}"
        )
    return SurrogateModel(
        inputs=inputs,
        target_mean=mean,
        target_std=std,
        jitter=eps,
        _inverse=inverse,
        _alpha=inverse.T @ (inverse @ ((targets - mean) / std)),
        _grid_variance=None if base is None else base._grid_variance,
    )


def _normal_cdf(z: np.ndarray | float) -> np.ndarray:
    """Φ(z) = ½·erfc(−z/√2) element by element, from libm's ``erfc``, so
    that expected improvement and the bound :func:`_unit_ei` puts on it
    share its bits. A scalar ``z`` gives a scalar."""
    scaled = np.divide(z, -math.sqrt(2.0))
    erfc = np.fromiter(map(math.erfc, scaled.ravel().tolist()), float, scaled.size)
    return 0.5 * erfc.reshape(scaled.shape)


def expected_improvement(
    mean: np.ndarray, stddev: np.ndarray, best: float
) -> np.ndarray:
    """Expected improvement below ``best`` for a minimization problem.

    With predictive spread the usual closed form applies:
    ``(best - mean) * Phi(z) + stddev * phi(z)`` with
    ``z = (best - mean) / stddev``. At zero spread it degenerates to
    ``max(best - mean, 0)``. Always non-negative. Phi is
    :func:`_normal_cdf`, the one Phi of this module; phi is the expression
    ``scipy.stats.norm`` evaluates.
    """
    mean = np.asarray(mean, dtype=float)
    stddev = np.asarray(stddev, dtype=float)
    improvement = np.asarray(best - mean)  # an array also for a 0-d mean
    spread = stddev > 0
    # In place, in the order of improvement·Φ(z) + stddev·(exp(z·z·−½)/√2π).
    z = np.where(spread, stddev, 1.0)
    np.divide(improvement, z, out=z)
    ei = _normal_cdf(z)
    ei *= improvement
    z *= z
    z *= -0.5
    np.exp(z, out=z)
    z /= math.sqrt(2 * math.pi)
    z *= stddev
    ei += z
    np.copyto(improvement, ei, where=spread)
    return np.maximum(improvement, 0.0, out=improvement)


#: The least expected improvement :func:`improvement_cutoff` bounds. Its
#: cutoff then lies above u = −22, where the terms of EI and of h are
#: normal floats whose relative rounding stays below 1e-10.
_LEAST_BOUNDED_EI = 1e-100
#: Relative margin between the bound h(cutoff) and the EI it certifies,
#: and how close the bound comes to that EI when the search stops.
_CUTOFF_MARGIN = 1e-9
_CUTOFF_CLOSE = 1e-6
#: Newton steps :func:`improvement_cutoff` takes at most. From its starting
#: bound, five reach the root to rounding for EIs from 1e-100 to 1e6.
_NEWTON_STEPS = 8


def _unit_ei(u: float) -> tuple[float, float]:
    """``h(u) = u·Φ(u) + φ(u)``, the expected improvement at spread 1, and
    its slope Φ(u)."""
    cdf = float(_normal_cdf(u))
    return u * cdf + math.exp(-u * u / 2.0) / math.sqrt(2 * math.pi), cdf


def improvement_cutoff(ei: float) -> float | None:
    """An improvement ``best − mean`` below which a point's expected
    improvement, as :func:`expected_improvement` computes it, is less than
    ``ei`` whenever its spread is at most 1. Every model here predicts such
    spreads, ``sqrt(max(1 − ΣV², 0))``. None when ``ei`` is below
    ``_LEAST_BOUNDED_EI`` or not finite.

    EI(u, σ) grows with σ (∂EI/∂σ = φ(z) ≥ 0, and EI(u, 0) = max(u, 0)),
    so EI(u, σ) ≤ h(u) = EI(u, 1), which increases with u (h′ = Φ). The
    cutoff c has h(c) ≤ ei·(1 − 1e-9), checked in float, so every u < c has
    EI below ``ei`` by a margin far above rounding. Newton's method finds c
    on log h, which is concave: from the lower bound it starts at, every
    step stays below the root of h = target (Jones, Schonlau & Welch 1998
    give EI's closed form).
    """
    if not math.isfinite(ei) or ei < _LEAST_BOUNDED_EI:
        return None
    target = ei * (1.0 - 2.0 * _CUTOFF_MARGIN)
    peak = 1.0 / math.sqrt(2 * math.pi)  # h(0)
    # h(u) < u + h(0) for u ≥ 0, and h(u) < φ(u) for u < 0.
    if target >= peak:
        u = target - peak
    else:
        u = -math.sqrt(2.0 * math.log(peak / target))
    cutoff = None
    for _ in range(_NEWTON_STEPS):
        h, slope = _unit_ei(u)
        if h > ei * (1.0 - _CUTOFF_MARGIN):
            break
        cutoff = u
        if h >= ei * (1.0 - _CUTOFF_CLOSE):
            break
        u += math.log(target / h) * h / slope
    return cutoff
