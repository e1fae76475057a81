"""Dense linear-algebra kernels with validated contracts, in numpy alone.

Three public kernels: hermitian_eig and solve_linear, thin wrappers over
numpy's LAPACK-backed routines, and expm, a [13/13] Padé scaling and squaring
written here so that no part of the package imports scipy: _scaled_exponential
gives a matrix's exp(2^-s A) and s, and expm squares it s times, on each
matrix of a stack in turn. Each kernel checks its inputs and raises a typed
error instead of leaking library exceptions upward. The operand helpers
other modules share live here too: _as_square for shape and finiteness,
where a non-finite entry raises NonFiniteError, _dagger for the adjoint of
a matrix or a stack, _check_hermitian for the Hermiticity gate of an
operator, and _TINY, the smallest positive normal double, below which a
time step or a deficit has lost digits to underflow. Density matrices are
gated in quantum, from margins it computes per matrix. Kronecker products
are not wrapped here: generators builds every superoperator through its
one two-sided-product rule.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import (
    DimensionMismatchError,
    NoConvergenceError,
    NonFiniteError,
    NotHermitianError,
    SingularMatrixError,
)

__all__ = [
    "hermitian_eig",
    "expm",
    "solve_linear",
]

#: relative condition-number gate for solve_linear
_COND_LIMIT = 1e12

#: Hermiticity gate of _check_hermitian, for hermitian_eig and generators.hamiltonian_superop
_HERM_ATOL = 1e-10

#: the smallest positive normal double: the least time step a TimeGrid takes,
#: and the least deficit whose logarithm feedback takes directly
_TINY = float(np.finfo(float).tiny)


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


def _check_hermitian(m: np.ndarray, name: str = "m") -> None:
    """Raise NotHermitianError if max|m - m†| exceeds _HERM_ATOL.

    m is one matrix or a stack, already through _as_square.
    """
    dev = np.abs(m - _dagger(m)).max() if m.size else 0.0
    if dev > _HERM_ATOL:
        raise NotHermitianError(f"max|{name} - {name}†| = {dev:.3e} exceeds {_HERM_ATOL:.1e}")


def hermitian_eig(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (values, vectors) with values real and ascending and vectors
    orthonormal in columns, so m = vectors @ diag(values) @ vectors†.
    An (N, n, n) stack gives (N, n) values and (N, n, n) vectors.

    Raises NotHermitianError if max|m - m†| exceeds 1e-10, NoConvergenceError
    if the underlying solver fails.
    """
    mat = _as_square(m, stacked=True)
    _check_hermitian(mat)
    try:
        values, vectors = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"eigensolver failed: {exc}") from exc
    return values, vectors


def expm(m) -> np.ndarray:
    """Matrix exponential by Padé scaling and squaring, in numpy alone.

    The algorithm is Al-Mohy and Higham's (SIAM J. Matrix Anal. Appl. 31
    (2009) 970), built on Higham's (ibid. 26 (2005) 1179), at the one Padé
    degree 13 of scipy.linalg.expm's large-norm branch: the number s of
    squarings follows from exact 1-norms of A⁶, A⁸ and A¹⁰ (the
    d_p = ‖A^p‖^(1/p) bounds) and from the backward-error count ell of
    |A|²⁷, and is 0 when ‖A‖₁ ≤ θ13 = 4.25. The [13/13] approximant q⁻¹p of
    exp(2^-s A) is formed from I, A², A⁴ and A⁶ as I + 2 q⁻¹U with one LU
    solve, and squared s times. A diagonal operand, the zero matrix
    included, returns diag(exp(d)) exactly, as scipy does.

    m is one matrix or an (N, n, n) stack, whose matrices are exponentiated
    one after another, so each gets the bits of a call on it alone.

    Raises NonFiniteError if the 1-norm of A or any entry of the result is
    not finite, or if the Padé denominator is singular (numpy's
    LinAlgError); overflow inside the computation raises no warning. In a
    stack, the first failing matrix names the error.
    """
    a = _as_square(m, stacked=True)
    stack = a[None] if a.ndim == 2 else a
    out = np.empty_like(stack)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, matrix in enumerate(stack):
            r, s = _scaled_exponential(matrix)
            for _ in range(s):
                r = r @ r
            if not np.isfinite(r).all():
                raise NonFiniteError("matrix exponential is not finite")
            out[k] = r
    return out.reshape(a.shape)


#: θ13, the largest d_p for which the [13/13] approximant needs no squaring (Al-Mohy
#: and Higham, Table 3.1, rounded to 4.25 as in scipy.linalg.expm)
_THETA13 = 4.25
_F = math.factorial
#: |c27|, the leading coefficient of the backward error series of the [13/13] approximant
_PADE_C = _F(13) ** 2 / (_F(26) * _F(27))
#: b_j = (26 - j)! / (j! (13 - j)!), the coefficients of the [13/13] numerator p scaled to
#: integers (the denominator q shares the scale, so q⁻¹p is unchanged)
_B = [_F(26 - j) // (_F(j) * _F(13 - j)) for j in range(14)]
#: weights of I, A, A², A⁴, A⁶ in the parts of q⁻¹p: with U = A Σ_odd b_j A^(j-1)
#: and V = Σ_even b_j A^j, p = V + U and q = V - U, and a power above A⁶ is A⁶
#: times a lower one, so the rows are U/A above A⁶, U/A up to A⁶, V above A⁶
#: and V up to A⁶; A itself takes no weight
_PADE_WEIGHTS = np.array(
    [
        [0, 0, _B[9], _B[11], _B[13]],
        [_B[1], 0, _B[3], _B[5], _B[7]],
        [0, 0, _B[8], _B[10], _B[12]],
        [_B[0], 0, _B[2], _B[4], _B[6]],
    ],
    dtype=complex,
)


def _ell(a: np.ndarray, norm: float) -> int:
    """Squarings still needed so that |c27| ‖|A|²⁷‖₁ / ‖A‖₁ ≤ 2^-53 for the operand A / 2^ell.

    ‖|A|²⁷‖₁ ≤ ‖A‖₁²⁷, so a small ‖A‖₁ settles it without a product.
    Otherwise |A| is divided by ‖A‖₁, so that its powers cannot overflow.
    """
    log_bound = math.log2(_PADE_C) + 26 * math.log2(norm)
    if log_bound <= -53:
        return 0
    peak = _onenorm(np.linalg.matrix_power(np.abs(a) / norm, 27))
    if peak == 0:
        return 0
    return max(0, math.ceil((log_bound + math.log2(peak) + 53) / 26))


def _onenorm(a: np.ndarray) -> float:
    """‖A‖₁ of a matrix, as a Python float."""
    return float(np.abs(a).sum(axis=0).max())


def _powers(a: np.ndarray) -> np.ndarray:
    """The stack [I, A, A², A⁴, A⁶]."""
    n = a.shape[0]
    powers = np.zeros((5, n, n), dtype=complex)
    powers[0].flat[:: n + 1] = 1
    powers[1] = a
    np.matmul(a, a, out=powers[2])
    np.matmul(powers[2], powers[2], out=powers[3])
    np.matmul(powers[3], powers[2], out=powers[4])
    return powers


def _squarings(powers: np.ndarray) -> int:
    """The squarings s of the degree-13 branch of Al-Mohy and Higham's Algorithm 5.1, from exact 1-norms.

    d_p = ‖A^p‖₁^(1/p) ≤ ‖A‖₁ always holds, so capping d_p at ‖A‖₁ changes
    nothing but the inf or NaN of a power that overflowed; for the same
    reason ‖A‖₁ ≤ θ13 gives s = 0, and ell is 0 there, as |c27| θ13²⁶ < 2^-53.
    """
    norm = _onenorm(powers[1])
    if not math.isfinite(norm):
        raise NonFiniteError("matrix 1-norm exceeds the largest double")
    if norm <= _THETA13:
        return 0
    # min(norm, nan) is norm
    d6 = min(norm, _onenorm(powers[4]) ** (1 / 6))
    d8 = min(norm, _onenorm(powers[3] @ powers[3]) ** (1 / 8))
    d10 = min(norm, _onenorm(powers[3] @ powers[4]) ** (1 / 10))
    # eta is 0 for a nilpotent A whose |A| is not, where only ell asks for squarings
    eta = min(max(d6, d8), max(d8, d10))
    s = max(0, math.ceil(math.log2(eta / _THETA13))) if eta else 0
    return s + _ell(powers[1] * 2.0**-s, norm * 2.0**-s)


def _scaled_exponential(a: np.ndarray) -> tuple[np.ndarray, int]:
    """(exp(2^-s A), s) for one matrix: (diag(exp(d)), 0) if A is diagonal, else the [13/13] approximant, s from _squarings."""
    if np.count_nonzero(a) == np.count_nonzero(np.diagonal(a)):
        return np.diag(np.exp(np.diagonal(a))), 0
    powers = _powers(a)
    s = _squarings(powers)
    if s:
        powers = _powers(a * 2.0**-s)
    n = a.shape[0]
    parts = (_PADE_WEIGHTS @ powers.reshape(5, -1)).reshape(4, n, n)
    parts = parts[1::2] + powers[4] @ parts[0::2]
    u = powers[1] @ parts[0]
    # q⁻¹p = I + 2 q⁻¹U keeps the identity exact, so a column sum that A
    # preserves, such as a generator's trace, stays at round-off
    try:
        return powers[0] + 2 * np.linalg.solve(parts[1] - u, u), s
    except np.linalg.LinAlgError as exc:
        raise NonFiniteError(f"matrix exponential failed: {exc}") from exc


def solve_linear(a, b) -> np.ndarray:
    """Solve a x = b for a square system, with one iterative-refinement step.

    Raises SingularMatrixError when the system is singular or its condition
    number exceeds 1e12, NoConvergenceError if the singular value solver
    behind that condition number fails.
    """
    mat = _as_square(a, "a")
    rhs = np.asarray(b, dtype=complex)
    if rhs.shape[0] != mat.shape[0]:
        raise DimensionMismatchError(
            f"rhs length {rhs.shape[0]} does not match system size {mat.shape[0]}"
        )
    if mat.size:
        try:
            cond = np.linalg.cond(mat)
        except np.linalg.LinAlgError as exc:
            raise NoConvergenceError(f"singular value solver failed: {exc}") from exc
        if not np.isfinite(cond) or cond > _COND_LIMIT:
            raise SingularMatrixError(f"condition number {cond:.3e} exceeds {_COND_LIMIT:.1e}")
    try:
        x = np.linalg.solve(mat, rhs)
        x = x + np.linalg.solve(mat, rhs - mat @ x)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(str(exc)) from exc
    return x
