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
last predicted on, with running column sums of V² (the variance) and of
the mean weights times V (the mean), and passes them to the model that
extends it. A round that tells b new observations to a model of n and
predicts N points reads V once, O(b·n·N) to form the new rows in place,
and costs O(b·N) more for the kernel block, the sums, the mean and the
variance, instead of a fresh O(n²·N) solve. V holds n·N floats (78.6 MB
at n = 150 on a 65,536-point grid) in one anonymous mapping that grows in
place by each batch's rows, whose pages become resident only as those
rows are written.

That work is a few large, memory-bound BLAS calls on b new rows per round,
which BLAS threads only slow down. :func:`one_blas_thread` runs a round on
one OpenBLAS thread, so results and speed do not depend on the core count.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import mmap
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
_FLOAT_BYTES = 8


def _row_norms(points: np.ndarray) -> np.ndarray:
    return np.sum(points * points, axis=1)


def _kernel(
    a: np.ndarray,
    b: np.ndarray,
    b_norms: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """``K(a, b) = σ² exp(−max(|a|² + |b|² − 2a·b, 0) / 2ℓ²)``, computed in
    ``out`` (a new array when None) by in-place ufuncs in the order the
    expression reads. ``b_norms`` are ``b``'s cached squared row norms."""
    if b_norms is None:
        b_norms = _row_norms(b)
    if out is None:
        out = np.empty((len(a), len(b)))
    # b·aᵀ into out's transpose holds a·bᵀ's values; numpy hands it to
    # BLAS as one call on uncopied operands, where a @ b.T into out ran
    # about twice as slow.
    np.matmul(b, a.T, out=out.T)
    out *= 2.0
    # |a|² + |b|² one line at a time, along the longer axis, so no second
    # matrix is made and each pair is still summed before subtracting.
    lines, norms, other = (out, _row_norms(a), b_norms)
    if len(a) > len(b):
        lines, norms, other = (out.T, b_norms, _row_norms(a))
    scratch = np.empty_like(other)
    for line, norm in zip(lines, norms):
        np.add(norm, other, out=scratch)
        np.subtract(scratch, line, out=line)
    np.maximum(out, 0.0, out=out)
    out /= -2.0 * DEFAULT_LENGTH_SCALE**2
    np.exp(out, out=out)
    out *= DEFAULT_SIGNAL_VARIANCE
    return out


def _anonymous_memory() -> mmap.mmap:
    """Private anonymous memory outside the malloc heap, one byte until
    resized: resident only once written, returned to the system when
    released, and on huge pages where the system offers them, as numpy asks
    for its large arrays. Private, so a forked process never shares its
    pages (Windows mappings take no flags)."""
    private = {"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE") else {}
    memory = mmap.mmap(-1, 1, **private)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        with contextlib.suppress(OSError):  # a kernel without huge pages
            memory.madvise(mmap.MADV_HUGEPAGE)
    return memory


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
    with running column sums over its rows: ``sq_sum`` of V² and ``sums``
    of ``cᵀV`` for the two columns c of the model's ``_coef``, and
    ``targets``, the raw targets those sums were formed with.

    ``rows`` views anonymous memory outside the malloc heap, so its pages
    become resident only as rows are filled and go back to the system with
    the basis, whatever malloc would have done with a buffer of that size.
    Only the first ``filled`` rows hold V. ``rows`` never leaves this class
    as a view, so the mapping grows in place by each model's new rows
    (``mremap`` moves its pages, never copies them)."""

    points: np.ndarray
    norms: np.ndarray
    memory: mmap.mmap
    rows: np.ndarray
    sq_sum: np.ndarray
    sums: np.ndarray
    targets: np.ndarray
    filled: int = 0

    @classmethod
    def empty(cls, points: np.ndarray) -> _Basis:
        size = len(points)
        return cls(
            points, _row_norms(points), _anonymous_memory(), np.empty((0, size)),
            np.zeros(size), np.zeros((2, size)), np.empty(0),
        )

    def _grow(self, count: int) -> None:
        """Grow the mapping to ``count`` rows. Its view goes first, since a
        mapping with a view cannot grow, and comes back over whatever size
        the mapping has, also when another view makes the growth raise."""
        size = len(self.points)
        row_bytes = max(size, 1) * _FLOAT_BYTES  # rows over no points too
        del self.rows
        try:
            self.memory.resize(count * row_bytes)
        finally:
            held = len(self.memory) // row_bytes
            self.rows = np.frombuffer(self.memory, count=held * size).reshape(held, size)

    def extend(self, model: SurrogateModel) -> None:
        """Bring V and the sums up to the model's n inputs, reading the m
        rows already filled once: ``V[m:n] = L[m:n,m:n]⁻¹ (K(X[m:n], points)
        − L[m:n,:m] V[:m])``, each step in place in the new rows."""
        factor, coef = model._factor, model._coef
        m, n = self.filled, len(model.inputs)
        if n > len(self.rows):
            self._grow(n)
        if not np.array_equal(self.targets, model._targets[:m]):
            self.sums = coef[:m].T @ self.rows[:m]
        self.targets = model._targets
        if n == m:
            return
        new = self.rows[m:n]
        _kernel(model.inputs[m:], self.points, self.norms, out=new)
        # BLAS on the transposed, uncopied layout of V's rows: the update
        # with beta = 1, then a right-side solve of V[m:n]ᵀ L[m:n,m:n]ᵀ =
        # blockᵀ, both overwriting the new rows.
        if m:
            linalg.blas.dgemm(
                -1.0, self.rows[:m].T, factor[m:, :m].T, beta=1.0, c=new.T, overwrite_c=1
            )
        linalg.blas.dtrsm(1.0, factor[m:, m:], new.T, side=1, lower=1, trans_a=1, overwrite_b=1)
        self.sq_sum += np.einsum("ij,ij->j", new, new)
        self.sums += coef[m:].T @ new
        self.filled = n


@dataclass(eq=False)
class SurrogateModel:
    """A fitted GP posterior over standardized targets.

    ``predict`` returns means and standard deviations in standardized
    units; use :meth:`standardize` to move reference values (such as the
    incumbent best) into the same units.

    The mean weights ``L⁻¹y`` are kept as ``_coef``, the two columns
    ``u = L⁻¹(t − t₀)`` and ``v = L⁻¹1`` with t₀ the first raw target, so
    that the mean ``(uᵀV − (μ − t₀) vᵀV)/σ`` is a sum over V's rows that
    later rounds extend. The offset keeps utility-scale targets from
    cancelling in the subtraction.
    """

    inputs: np.ndarray
    target_mean: float
    target_std: float
    jitter: float
    _factor: np.ndarray
    _coef: np.ndarray
    _targets: np.ndarray
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
            basis = _Basis.empty(points)
        basis.extend(self)
        self._basis = None if points.flags.writeable else basis
        mean = basis.sums[1] * (self._targets[0] - self.target_mean)
        mean += basis.sums[0]
        mean /= self.target_std
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
    model up to rounding either way. The basis keeps its sums only while
    the leading targets equal the prior's.
    """
    # Copies: the model and its basis compare them with later fits'.
    inputs = np.atleast_2d(np.array(inputs, dtype=float))
    targets = np.array(targets, dtype=float).reshape(-1)
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
        _coef=_solve_lower(factor, np.column_stack([targets - targets[0], np.ones(n)])),
        _targets=targets,
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
