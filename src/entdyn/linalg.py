"""Dense linear-algebra kernels with validated contracts, in numpy alone.

Three public kernels: hermitian_eig and solve_linear, thin wrappers over
numpy's LAPACK-backed routines, and expm, a Padé scaling and squaring
written here so that no part of the package imports scipy. Each checks its
inputs and raises a typed error instead of leaking library exceptions
upward. The operand helpers other modules share live here too: _as_square
for shape and finiteness, where a non-finite entry raises NonFiniteError,
_dagger for the adjoint of a matrix or a stack, and _check_hermitian for
the Hermiticity gate of an operator. Density matrices are gated in
quantum, from margins it computes per matrix. Kronecker products are not
wrapped here: generators builds every superoperator through its one
two-sided-product rule.
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


def _check_hermitian(m: np.ndarray, atol: float, name: str = "m") -> None:
    """Raise NotHermitianError if max|m - m†| exceeds atol.

    m is one matrix or a stack, already through _as_square.
    """
    dev = np.abs(m - _dagger(m)).max() if m.size else 0.0
    if dev > atol:
        raise NotHermitianError(f"max|{name} - {name}†| = {dev:.3e} exceeds {atol:.1e}")


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


def expm(m) -> np.ndarray:
    """Matrix exponential by Padé scaling and squaring, in numpy alone.

    The algorithm is Al-Mohy and Higham's (SIAM J. Matrix Anal. Appl. 31
    (2009) 970), built on Higham's (ibid. 26 (2005) 1179), with the
    constants and choices of scipy.linalg.expm: the Padé degree m in
    {3, 5, 7, 9, 13} and the number s of squarings follow from exact 1-norms
    of A², A⁴, A⁶, A⁸ and A¹⁰ (the d_p = ‖A^p‖^(1/p) bounds) and from the
    backward-error count ell of |A|^(2m+1), so a small step takes a low
    degree and no squaring. The [m/m] approximant q⁻¹p of exp(2^-s A) is
    formed from I, A², A⁴ and A⁶ as I + 2 q⁻¹U with one LU solve, and
    squared s times. A diagonal operand, the zero matrix included, returns
    diag(exp(d)) exactly, as scipy does.

    Raises NonFiniteError if the 1-norm of A or any entry of the result is
    not finite, or if the Padé denominator is singular (numpy's
    LinAlgError); overflow inside the computation raises no warning.
    """
    a = _as_square(m)
    with np.errstate(over="ignore", invalid="ignore"):
        if np.count_nonzero(a) == np.count_nonzero(np.diagonal(a)):
            out = np.diag(np.exp(np.diagonal(a)))
        else:
            try:
                out = _pade_scaling_and_squaring(a)
            except np.linalg.LinAlgError as exc:
                raise NonFiniteError(f"matrix exponential failed: {exc}") from exc
    if not np.isfinite(out).all():
        raise NonFiniteError("matrix exponential is not finite")
    return out


#: θ_m, the largest d_p for which degree m needs no squaring (Al-Mohy and Higham,
#: Table 3.1, and θ13 = 4.25 as in scipy.linalg.expm)
_PADE_THETA = {
    3: 1.495585217958292e-2,
    5: 2.539398330063230e-1,
    7: 9.504178996162932e-1,
    9: 2.097847961257068,
    13: 4.25,
}
_F = math.factorial
#: |c_2m+1|, the leading coefficient of the backward error series of the [m/m] approximant
_PADE_C = {m: _F(m) ** 2 / (_F(2 * m) * _F(2 * m + 1)) for m in _PADE_THETA}


def _pade_weights(m: int) -> np.ndarray:
    """Weights of I, A, A², A⁴, A⁶ in the parts of the [m/m] Padé approximant q⁻¹p of exp.

    With b_j = (2m - j)! / (j! (m - j)!), the coefficients of p scaled to
    integers (q shares the scale, so q⁻¹p is unchanged), U = A Σ_odd b_j A^(j-1)
    and V = Σ_even b_j A^j give p = V + U and q = V - U. The rows are U/A
    and V for m ≤ 7. For m = 9 and 13 a power above A⁶ is A⁶ times a lower
    one, and the rows are U/A above A⁶, U/A up to A⁶, V above A⁶, V up to
    A⁶. A itself takes no weight.
    """
    weights = np.zeros((4, 5), dtype=complex)
    for j in range(m + 1):
        # b_j multiplies A^(2k): column 0 is I, column k + 1 holds A², A⁴, A⁶,
        # and above A⁶ the "above" row holds A^(2k-6) in column k - 2
        k = j // 2
        row = 2 * (j % 2 == 0) + (k <= 3)
        weights[row, k - 3 * (k > 3) + (k > 0)] = _F(2 * m - j) // (_F(j) * _F(m - j))
    return weights if m >= 9 else weights[1::2]


_PADE_WEIGHTS = {m: _pade_weights(m) for m in _PADE_THETA}


def _ell(a: np.ndarray, m: int, norm: float) -> int:
    """Squarings still needed so that |c_2m+1| ‖|A|^(2m+1)‖₁ / ‖A‖₁ ≤ 2^-53 for the operand A / 2^ell.

    ‖|A|^(2m+1)‖₁ ≤ ‖A‖₁^(2m+1), so a small ‖A‖₁ settles it without a
    product. Otherwise |A| is divided by ‖A‖₁, so that its powers cannot
    overflow, and the 1-norm of the power is the largest entry of the row
    of ones times it, formed by binary powering.
    """
    log_bound = math.log2(_PADE_C[m]) + 2 * m * math.log2(norm)
    if log_bound <= -53:
        return 0
    power, row, p = np.abs(a) / norm, np.ones(a.shape[0]), 2 * m + 1
    while p:
        if p & 1:
            row = row @ power
        p >>= 1
        if p:
            power = power @ power
    peak = float(row.max())
    if peak == 0:
        return 0
    return max(0, math.ceil((log_bound + math.log2(peak) + 53) / (2 * m)))


def _onenorms(a: np.ndarray) -> list:
    """‖A‖₁ of a matrix, or of every matrix in a stack, as Python floats."""
    return np.abs(a).sum(axis=-2).max(axis=-1).tolist()


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


def _degree_and_squarings(powers: np.ndarray) -> tuple[int, int]:
    """The Padé degree m and the squarings s of Al-Mohy and Higham's Algorithm 5.1, from exact 1-norms.

    d_p = ‖A^p‖₁^(1/p) ≤ ‖A‖₁ always holds, so capping d_p at ‖A‖₁ changes
    nothing but the inf or NaN of a power that overflowed.
    """
    norm, _, n4, n6 = _onenorms(powers[1:])
    if not math.isfinite(norm):
        raise NonFiniteError("matrix 1-norm exceeds the largest double")
    a = powers[1]
    # min(norm, nan) is norm
    d4, d6 = min(norm, n4 ** (1 / 4)), min(norm, n6 ** (1 / 6))
    for m in (3, 5):
        if max(d4, d6) <= _PADE_THETA[m] and _ell(a, m, norm) == 0:
            return m, 0
    d8 = min(norm, _onenorms(powers[3] @ powers[3]) ** (1 / 8))
    for m in (7, 9):
        if max(d6, d8) <= _PADE_THETA[m] and _ell(a, m, norm) == 0:
            return m, 0
    d10 = min(norm, _onenorms(powers[3] @ powers[4]) ** (1 / 10))
    # eta is 0 for a nilpotent A whose |A| is not, where only ell asks for squarings
    eta = min(max(d6, d8), max(d8, d10))
    s = max(0, math.ceil(math.log2(eta / _PADE_THETA[13]))) if eta else 0
    return 13, s + _ell(a * 2.0**-s, 13, norm * 2.0**-s)


def _pade_scaling_and_squaring(a: np.ndarray) -> np.ndarray:
    """exp(A) for a non-diagonal A: the [m/m] Padé approximant of exp(2^-s A), squared s times."""
    powers = _powers(a)
    m, s = _degree_and_squarings(powers)
    if s:
        powers = _powers(a * 2.0**-s)
    n = a.shape[0]
    parts = (_PADE_WEIGHTS[m] @ powers.reshape(5, -1)).reshape(-1, n, n)
    if m >= 9:
        parts = parts[1::2] + powers[4] @ parts[0::2]
    u = powers[1] @ parts[0]
    # q⁻¹p = I + 2 q⁻¹U keeps the identity exact, so a column sum that A
    # preserves, such as a generator's trace, stays at round-off
    r = powers[0] + 2 * np.linalg.solve(parts[1] - u, u)
    for _ in range(s):
        r = r @ r
    return r


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
