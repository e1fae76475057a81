"""Dense linear-algebra kernels with validated contracts, in numpy alone.

Three public kernels: hermitian_eig and solve_linear, thin wrappers over
numpy's LAPACK-backed routines, and expm, a [13/13] Padé scaling and squaring
written here so that no part of the package imports scipy. hermitian_eig and
expm take one matrix or a stack of them; expm groups a stack by its number
of squarings and evaluates each group as one stacked product chain, each
matrix getting the bits of a call on it alone. Each kernel checks its
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
    (2009) 970), built on Higham's (ibid. 26 (2005) 1179), at the one Padé
    degree 13 of scipy.linalg.expm's large-norm branch: the number s of
    squarings follows from exact 1-norms of A⁶, A⁸ and A¹⁰ (the
    d_p = ‖A^p‖^(1/p) bounds) and from the backward-error count ell of
    |A|²⁷, and is 0 when ‖A‖₁ ≤ θ13 = 4.25. The [13/13] approximant q⁻¹p of
    exp(2^-s A) is formed from I, A², A⁴ and A⁶ as I + 2 q⁻¹U with one LU
    solve, and squared s times. A diagonal operand, the zero matrix
    included, returns diag(exp(d)) exactly, as scipy does.

    m is one matrix or an (N, n, n) stack, and a matrix is a stack of one,
    so there is one path: s is chosen per matrix, and the matrices that
    share s go through one stacked product chain, solve and squaring. Every
    matrix of a stack gets the bits that a call on it alone gives.

    Raises NonFiniteError if the 1-norm of A or any entry of the result is
    not finite, or if the Padé denominator is singular (numpy's
    LinAlgError); overflow inside the computation raises no warning. In a
    stack, the first failing matrix names the error.
    """
    a = _as_square(m, stacked=True)
    stack = a[None] if a.ndim == 2 else a
    n = stack.shape[-1]
    off_diagonal = stack != 0
    off_diagonal.reshape(len(stack), n * n)[:, :: n + 1] = False
    diagonal = ~off_diagonal.any(axis=(1, 2))
    out = np.zeros_like(stack)
    with np.errstate(over="ignore", invalid="ignore"):
        norms = _onenorms(stack)
        overflowed = ~(diagonal | np.isfinite(norms))
        general = ~(diagonal | overflowed)
        if diagonal.any():
            out.reshape(len(out), n * n)[:, :: n + 1][diagonal] = np.exp(np.diagonal(stack[diagonal], 0, 1, 2))
        try:
            out[general] = _pade_scaling_and_squaring(stack[general], norms[general].tolist())
        except np.linalg.LinAlgError as exc:
            raise NonFiniteError(f"matrix exponential failed: {exc}") from exc
    if overflowed.any() or not np.isfinite(out).all():
        failed = overflowed | ~np.isfinite(out).all(axis=(1, 2))
        if overflowed[np.argmax(failed)]:
            raise NonFiniteError("matrix 1-norm exceeds the largest double")
        raise NonFiniteError("matrix exponential is not finite")
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
    Otherwise |A| is divided by ‖A‖₁, so that its powers cannot overflow,
    and the 1-norm of the power is the largest entry of the row of ones
    times it, formed by binary powering.
    """
    log_bound = math.log2(_PADE_C) + 26 * math.log2(norm)
    if log_bound <= -53:
        return 0
    power, row, p = np.abs(a) / norm, np.ones(a.shape[0]), 27
    while p:
        if p & 1:
            row = row @ power
        p >>= 1
        if p:
            power = power @ power
    peak = float(row.max())
    if peak == 0:
        return 0
    return max(0, math.ceil((log_bound + math.log2(peak) + 53) / 26))


def _onenorms(a: np.ndarray) -> np.ndarray:
    """‖A‖₁ of every matrix in a stack (0 for a 0x0 matrix)."""
    return np.abs(a).sum(axis=-2).max(axis=-1, initial=0.0)


def _powers(a: np.ndarray) -> np.ndarray:
    """[I, A, A², A⁴, A⁶] of every matrix of the (N, n, n) stack a, as an (N, 5, n, n) array."""
    n = a.shape[-1]
    powers = np.empty((len(a), 5, n, n), dtype=complex)
    powers[:, 0] = np.eye(n)
    powers[:, 1] = a
    np.matmul(a, a, out=powers[:, 2])
    np.matmul(powers[:, 2], powers[:, 2], out=powers[:, 3])
    np.matmul(powers[:, 3], powers[:, 2], out=powers[:, 4])
    return powers


def _squarings(powers: np.ndarray, norms: list) -> list:
    """The squarings s of the degree-13 branch of Al-Mohy and Higham's Algorithm 5.1 for every matrix, from exact 1-norms.

    powers is _powers of the stack and norms the finite ‖A‖₁ of its
    matrices. d_p = ‖A^p‖₁^(1/p) ≤ ‖A‖₁ always holds, so capping d_p at
    ‖A‖₁ changes nothing but the inf or NaN of a power that overflowed; for
    the same reason ‖A‖₁ ≤ θ13 gives s = 0, and ell is 0 there, as
    |c27| θ13²⁶ < 2^-53.
    """
    squarings = [0] * len(norms)
    large = [k for k, norm in enumerate(norms) if norm > _THETA13]
    if not large:
        return squarings
    p = powers[large]
    sixth, eighth, tenth = (_onenorms(power).tolist() for power in (p[:, 4], p[:, 3] @ p[:, 3], p[:, 3] @ p[:, 4]))
    for k, n6, n8, n10 in zip(large, sixth, eighth, tenth):
        norm = norms[k]
        # min(norm, nan) is norm
        d6, d8, d10 = min(norm, n6 ** (1 / 6)), min(norm, n8 ** (1 / 8)), min(norm, n10 ** (1 / 10))
        # eta is 0 for a nilpotent A whose |A| is not, where only ell asks for squarings
        eta = min(max(d6, d8), max(d8, d10))
        s = max(0, math.ceil(math.log2(eta / _THETA13))) if eta else 0
        squarings[k] = s + _ell(powers[k, 1] * 2.0**-s, norm * 2.0**-s)
    return squarings


def _pade_scaling_and_squaring(a: np.ndarray, norms: list) -> np.ndarray:
    """exp(A) for every non-diagonal A of an (N, n, n) stack with finite 1-norms: the [13/13] Padé approximant of exp(2^-s A), squared s times.

    The matrices that share s are evaluated as one stack.
    """
    powers = _powers(a)
    groups: dict = {}
    for k, s in enumerate(_squarings(powers, norms)):
        groups.setdefault(s, []).append(k)
    out = np.empty_like(a)
    n = a.shape[-1]
    for s, group in groups.items():
        # a lone group is the whole stack, taken as a view
        group = slice(None) if len(groups) == 1 else group
        p = _powers(a[group] * 2.0**-s) if s else powers[group]
        parts = (_PADE_WEIGHTS @ p.reshape(len(p), 5, -1)).reshape(-1, 4, n, n)
        parts = parts[:, 1::2] + p[:, 4:5] @ parts[:, 0::2]
        u = p[:, 1] @ parts[:, 0]
        # q⁻¹p = I + 2 q⁻¹U keeps the identity exact, so a column sum that A
        # preserves, such as a generator's trace, stays at round-off
        r = p[:, 0] + 2 * np.linalg.solve(parts[:, 1] - u, u)
        for _ in range(s):
            r = r @ r
        out[group] = r
    return out


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
