"""Dense linear-algebra kernels with validated contracts.

Thin wrappers over LAPACK-backed routines. Each function checks its inputs
and raises a typed error instead of leaking library exceptions upward.
The operand checks other modules share live here too: _as_square for
shape and finiteness, where a non-finite entry raises NonFiniteError, and
_check_hermitian for the Hermiticity deviation. Kronecker products are not
wrapped here: generators builds every superoperator through its one
two-sided-product rule.
"""
from __future__ import annotations

import numpy as np

from .errors import (
    DimensionMismatchError,
    NoConvergenceError,
    NonFiniteError,
    NotHermitianError,
    NotPSDError,
    SingularMatrixError,
)

__all__ = [
    "hermitian_eig",
    "sqrt_psd",
    "expm",
    "solve_linear",
]

#: relative condition-number gate for solve_linear
_COND_LIMIT = 1e12

#: Hermiticity gate of an operator: hermitian_eig and generators.hamiltonian_superop
_HERM_ATOL = 1e-10


def _as_square(m, name: str = "matrix", *, stacked: bool = False, size: int | None = None) -> np.ndarray:
    """m as a finite complex square matrix, or an (N, n, n) stack if stacked; size fixes n."""
    out = np.asarray(m, dtype=complex)
    if out.ndim != 2 and not (stacked and out.ndim == 3):
        shape = "2-dimensional or a stack of matrices" if stacked else "2-dimensional"
        raise DimensionMismatchError(f"{name} must be {shape}, got ndim={out.ndim}")
    if not np.isfinite(out).all():
        raise NonFiniteError(f"{name} contains non-finite entries")
    if out.shape[-2] != out.shape[-1]:
        raise DimensionMismatchError(f"{name} must be square, got shape {out.shape}")
    if size is not None and out.shape[-1] != size:
        raise DimensionMismatchError(f"{name} must be {size}x{size}, got shape {out.shape}")
    return out


def _dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of every matrix in a stack."""
    return np.swapaxes(m, -1, -2).conj()


def _check_hermitian(m: np.ndarray, atol: float, name: str = "m") -> np.ndarray:
    """Raise NotHermitianError if max|m - m†| exceeds atol; return m†.

    m is one matrix or a stack, already through _as_square. Callers that
    symmetrise reuse the returned adjoint.
    """
    adjoint = _dagger(m)
    dev = np.abs(m - adjoint).max() if m.size else 0.0
    if dev > atol:
        raise NotHermitianError(f"max|{name} - {name}†| = {dev:.3e} exceeds {atol:.1e}")
    return adjoint


def hermitian_eig(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (values, vectors) with values real and ascending and vectors
    orthonormal in columns, so m = vectors @ diag(values) @ vectors†.
    An (N, n, n) stack gives (N, n) values and (N, n, n) vectors.

    Raises NotHermitianError if max|m - m†| exceeds 1e-10, NoConvergenceError
    if the underlying solver fails.
    """
    mat = _as_square(m, stacked=True)
    _check_hermitian(mat, _HERM_ATOL)
    try:
        values, vectors = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"eigensolver failed: {exc}") from exc
    return values, vectors


def sqrt_psd(m, clip: float = 1e-10) -> np.ndarray:
    """Principal square root of a positive-semidefinite Hermitian matrix.

    Eigenvalues in [-clip, 0) are treated as round-off and clipped to zero;
    anything more negative raises NotPSDError. An (N, n, n) stack gives the
    root of every matrix in it.
    """
    values, vectors = hermitian_eig(m)
    lowest = values[..., 0].min() if values.size else 0.0
    if lowest < -clip:
        raise NotPSDError(f"eigenvalue {lowest:.3e} below -{clip:.1e}")
    root = (vectors * np.sqrt(np.clip(values, 0.0, None))[..., None, :]) @ _dagger(vectors)
    return 0.5 * (root + _dagger(root))


def expm(m) -> np.ndarray:
    """Matrix exponential by scaling and squaring.

    scipy is imported here, on the first call, so scenarios that never
    exponentiate do not pay for loading it.
    """
    import scipy.linalg

    return scipy.linalg.expm(_as_square(m))


def solve_linear(a, b) -> np.ndarray:
    """Solve a x = b for a square system, with one iterative-refinement step.

    Raises SingularMatrixError when the system is singular or its condition
    number exceeds 1e12.
    """
    mat = _as_square(a, "a")
    rhs = np.asarray(b, dtype=complex)
    if rhs.shape[0] != mat.shape[0]:
        raise DimensionMismatchError(
            f"rhs length {rhs.shape[0]} does not match system size {mat.shape[0]}"
        )
    if mat.size:
        cond = np.linalg.cond(mat)
        if not np.isfinite(cond) or cond > _COND_LIMIT:
            raise SingularMatrixError(f"condition number {cond:.3e} exceeds {_COND_LIMIT:.1e}")
    try:
        x = np.linalg.solve(mat, rhs)
        x = x + np.linalg.solve(mat, rhs - mat @ x)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(str(exc)) from exc
    return x
