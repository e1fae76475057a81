"""States, vectorization, subspace maps, and entanglement measures.

Density matrices and state vectors are plain complex ndarrays; invariants
are enforced by the validate_* helpers rather than wrapper classes. The
density-matrix functions that trajectories sample (validate_density,
purity, bloch_from_density, embed_23 and both concurrences) take one
matrix or an (N, n, n) stack of them, with the same checks per matrix.

A stack of qubit states, or of two-qubit X-states (zero off the diagonal
and the anti-diagonal), is made of 2x2 blocks. There validate_density and
both concurrences take eigenvalues and concurrence in closed form from the
blocks; every other stack goes through stacked LAPACK calls.

Vectorization is row-major: the density-matrix entry (i, j) lands at flat
index i*n + j, so conjugation stays entrywise and A rho B maps to the
superoperator kron(A, B.T), the one rule (generators._two_sided) that
builds every superoperator.
"""
from __future__ import annotations

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatchError,
    EntdynError,
    InvalidStateError,
    LeakyStateError,
    NoConvergenceError,
    NotPSDError,
    OutsideBlochBallError,
)
from .linalg import _as_square, _check_hermitian

__all__ = [
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "bell_state",
    "density_from_pure",
    "validate_density",
    "vectorize",
    "devectorize",
    "bloch_from_density",
    "density_from_bloch",
    "restrict_23",
    "embed_23",
    "purity",
    "concurrence",
    "concurrence_2x2_embedded",
]

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

_PAULIS = np.array([PAULI_X, PAULI_Y, PAULI_Z])
_YY = np.kron(PAULI_Y, PAULI_Y)

#: population allowed outside the central block when restricting
_LEAK_TOL = 1e-9

#: Hermiticity and eigenvalue gates of both concurrences: states this close
#: to Hermitian and positive are measured through their Hermitian part
_HERM_ATOL = 1e-8
_PSD_CLIP = 1e-9

#: matrices per stacked LAPACK call; bounds the eigh and svd temporaries
#: of a long trajectory to a fixed size
_BLOCK = 256

#: the two blocks of an X-state, each as its pair of levels: |00>, |11>
#: first, then |01>, |10>
_X_LEVELS = np.array([[0, 3], [1, 2]])
#: the 4x4 entries off the diagonal and the anti-diagonal, where an X-state is zero
_OFF_X = [(i, j) for i in range(4) for j in range(4) if i != j and i + j != 3]


def _two_level_blocks(stack: np.ndarray):
    """The 2x2 blocks of a stack of qubit states or of X-states; None for any other stack.

    A 2x2 matrix is one block. A 4x4 matrix that is exactly zero outside the
    X pattern is two, on the levels of _X_LEVELS. Returns (a, b, c,
    deviation): the real diagonal pairs a and b and the coherence
    c = (m_ij + conj(m_ji)) / 2 of the Hermitian part, each of shape
    (N, blocks), and max|m - m†| of every matrix, as _check_hermitian
    measures it.
    """
    n = stack.shape[-1]
    if n == 2:
        levels = np.array([[0, 1]])
    elif n == 4 and not any(stack[:, i, j].any() for i, j in _OFF_X):
        levels = _X_LEVELS
    else:
        return None
    i, j = levels.T
    a, b = stack[:, i, i], stack[:, j, j]
    upper, lower = stack[:, i, j], stack[:, j, i].conj()
    diagonal = 2.0 * np.maximum(np.abs(a.imag), np.abs(b.imag))
    deviation = np.maximum(np.abs(upper - lower), diagonal).max(axis=1)
    return a.real, b.real, 0.5 * (upper + lower), deviation


def _lowest_eigenvalues(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Lowest eigenvalue of each matrix from its blocks [[a, c], [conj(c), b]]."""
    return ((0.5 * a + 0.5 * b) - np.hypot(0.5 * a - 0.5 * b, np.abs(c))).min(axis=1)


def _per_matrix(kernel, closed_form, mat: np.ndarray) -> np.ndarray:
    """One float per matrix of a stack, from closed_form or from kernel.

    On a stack that _two_level_blocks splits, closed_form maps the stack and
    its blocks to one float per matrix and a mask of the matrices outside
    its gates. Those are rerun through the kernel one at a time, in order,
    so the first to fail there raises its own error, and a matrix that
    round-off puts on the other side of a gate is judged by the kernel.

    Any other stack goes through the kernel in blocks of _BLOCK. The kernel
    checks a whole block at once. When a block fails, its matrices are
    rerun one at a time, so the error raised is the one the first failing
    matrix raises on its own, exactly as from a loop of single calls.
    """
    stack = mat.reshape((-1,) + mat.shape[-2:])
    blocks = _two_level_blocks(stack)
    if blocks is not None:
        values, failing = closed_form(stack, *blocks)
        for k in np.flatnonzero(failing).tolist():
            kernel(stack[k : k + 1])
        return values
    out = np.empty(len(stack))
    for start in range(0, len(stack), _BLOCK):
        block = stack[start : start + _BLOCK]
        try:
            out[start : start + len(block)] = kernel(block)
        except EntdynError:
            for k in range(len(block)):
                kernel(block[k : k + 1])
            raise
    return out


def bell_state() -> np.ndarray:
    """The maximally entangled vector (|01> + |10>) / sqrt(2)."""
    return np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)


def density_from_pure(psi) -> np.ndarray:
    """Rank-one density matrix |psi><psi| of a normalized state vector."""
    v = np.asarray(psi, dtype=complex).reshape(-1)
    norm = np.linalg.norm(v)
    if abs(norm - 1.0) > 1e-10:
        raise InvalidStateError(f"state norm {norm:.12f} is not 1")
    return np.outer(v, v.conj())


def validate_density(
    rho,
    *,
    herm_atol: float = 1e-10,
    trace_atol: float = 1e-10,
    eig_floor: float = -1e-9,
) -> np.ndarray:
    """Check Hermiticity, unit trace, and positivity of a density matrix.

    rho may be one matrix or an (N, n, n) stack; every matrix is checked and
    the error is that of the first one to fail. Returns the validated array.
    Raises NotHermitianError, InvalidStateError, or NotPSDError respectively.
    The lowest eigenvalue is that of the Hermitian part, from eigh or, for
    qubit states and X-states, from the 2x2 blocks in closed form.
    """
    mat = _as_square(rho, "rho", stacked=True)

    def lowest_eigenvalues(block):
        adjoint = _check_hermitian(block, herm_atol, "rho")
        traces = np.trace(block, axis1=-2, axis2=-1)
        worst = int(np.argmax(np.abs(traces - 1.0)))
        if abs(traces[worst] - 1.0) > trace_atol:
            raise InvalidStateError(
                f"trace {traces[worst]:.12f} deviates from 1 beyond {trace_atol:.1e}"
            )
        values, _ = linalg.hermitian_eig(0.5 * (block + adjoint))
        lowest = values[:, 0]
        if lowest.min() < eig_floor:
            raise NotPSDError(f"eigenvalue {lowest.min():.3e} below {eig_floor:.1e}")
        return lowest

    def closed_form(stack, a, b, c, deviation):
        traces = np.trace(stack, axis1=-2, axis2=-1)
        lowest = _lowest_eigenvalues(a, b, c)
        failing = (deviation > herm_atol) | (np.abs(traces - 1.0) > trace_atol)
        return lowest, failing | (lowest < eig_floor)

    _per_matrix(lowest_eigenvalues, closed_form, mat)
    return mat


def vectorize(rho) -> np.ndarray:
    """Flatten a density matrix row-major into a Liouville vector."""
    return _as_square(rho, "rho").reshape(-1).copy()


def devectorize(r, validate: bool = False) -> np.ndarray:
    """Reshape a Liouville vector back to an n x n matrix.

    With validate=True the result must pass validate_density; propagation
    intermediates may transiently violate positivity at round-off scale, so
    validation is off by default.
    """
    vec = np.asarray(r, dtype=complex).reshape(-1)
    n = int(round(np.sqrt(vec.size)))
    if n * n != vec.size:
        raise DimensionMismatchError(f"length {vec.size} is not a perfect square")
    mat = vec.reshape(n, n).copy()
    if validate:
        validate_density(mat)
    return mat


def bloch_from_density(rho) -> np.ndarray:
    """Bloch vector (tr(X rho), tr(Y rho), tr(Z rho)) of a qubit state.

    A stack of N states gives an (N, 3) array.
    """
    mat = _as_square(rho, "rho", stacked=True, size=2)
    return np.einsum("pij,...ji->...p", _PAULIS, mat).real


def density_from_bloch(s) -> np.ndarray:
    """Qubit density matrix (I + s . sigma) / 2 from a Bloch vector."""
    vec = np.asarray(s, dtype=float).reshape(-1)
    if vec.size != 3:
        raise DimensionMismatchError(f"Bloch vector must have 3 components, got {vec.size}")
    norm = np.linalg.norm(vec)
    if norm > 1.0 + 1e-9:
        raise OutsideBlochBallError(f"|s| = {norm:.12f} exceeds 1")
    return 0.5 * (
        np.eye(2, dtype=complex)
        + vec[0] * PAULI_X
        + vec[1] * PAULI_Y
        + vec[2] * PAULI_Z
    )


def restrict_23(rho) -> np.ndarray:
    """Extract the central 2x2 block (basis levels 2 and 3) of a 4x4 state.

    The block spans the one-excitation levels |01> and |10>. Raises
    LeakyStateError if the population outside the block exceeds 1e-9;
    no renormalization is applied.
    """
    mat = _as_square(rho, "rho", size=4)
    leak = abs(mat[0, 0].real) + abs(mat[3, 3].real)
    if leak > _LEAK_TOL:
        raise LeakyStateError(f"population {leak:.3e} outside the (2,3) block")
    return mat[1:3, 1:3].copy()


def embed_23(rho) -> np.ndarray:
    """Embed a 2x2 state, or each of a stack, into the central block of a 4x4 matrix."""
    mat = _as_square(rho, "rho", stacked=True, size=2)
    out = np.zeros(mat.shape[:-2] + (4, 4), dtype=complex)
    out[..., 1:3, 1:3] = mat
    return out


def purity(rho) -> float | np.ndarray:
    """tr(rho^2), 1 for pure states, 1/n for the maximally mixed state.

    A stack of N states gives an array of N purities.
    """
    mat = _as_square(rho, "rho", stacked=True)
    values = np.einsum("...ij,...ji->...", mat, mat).real
    return float(values) if mat.ndim == 2 else values


def _hermitian_root(block: np.ndarray) -> np.ndarray:
    """Square root of the Hermitian part of each matrix, under the gates of both concurrences.

    A matrix more than 1e-8 from Hermitian raises NotHermitianError, one
    whose Hermitian part has an eigenvalue below -1e-9 raises NotPSDError.
    """
    adjoint = _check_hermitian(block, _HERM_ATOL, "rho")
    return linalg.sqrt_psd(0.5 * (block + adjoint), clip=_PSD_CLIP)


def _outside_gates(a, b, c, deviation) -> np.ndarray:
    """The closed-form mask of the matrices _hermitian_root would refuse."""
    return (deviation > _HERM_ATOL) | (_lowest_eigenvalues(a, b, c) < -_PSD_CLIP)


def concurrence(rho) -> float | np.ndarray:
    """Two-qubit concurrence of a density matrix.

    With S the principal square root of rho and K = kron(Y, Y), the matrix
    B = S K conj(S) satisfies B B† = S K conj(rho) K S, which shares its
    spectrum with the spin-flip product rho K conj(rho) K. The needed
    square-rooted eigenvalues are therefore the singular values of B,
    which come out with absolute round-off accuracy instead of the
    sqrt(eps) noise a sqrt-of-eigenvalue extraction would put on the zero
    modes. The concurrence is max(l1 - l2 - l3 - l4, 0) over those values
    in descending order. Conjugation is entrywise in the standard basis.

    A stack of X-states takes the closed form of Yu and Eberly (Quantum
    Inf. Comput. 7, 459 (2007)) instead,
    C = 2 max(0, |rho_12| - sqrt(rho_00 rho_33), |rho_03| - sqrt(rho_11 rho_22)),
    with the populations clipped at 0 and the gates below checked on the
    2x2 blocks.

    A state within 1e-8 of Hermitian is replaced by its Hermitian part
    before the square root. A stack of N states gives an array of N values.
    """
    mat = _as_square(rho, "rho", stacked=True, size=4)

    def block_concurrence(block):
        root = _hermitian_root(block)
        try:
            lam = np.linalg.svd(root @ _YY @ root.conj(), compute_uv=False)
        except np.linalg.LinAlgError as exc:
            raise NoConvergenceError(f"singular value solver failed: {exc}") from exc
        return np.maximum(lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3], 0.0)

    def x_state_concurrence(stack, a, b, c, deviation):
        geometric = np.sqrt(np.maximum(a, 0.0) * np.maximum(b, 0.0))
        # each block's coherence against the other block's populations
        excess = (np.abs(c) - geometric[:, ::-1]).max(axis=1)
        return 2.0 * np.maximum(excess, 0.0), _outside_gates(a, b, c, deviation)

    values = _per_matrix(block_concurrence, x_state_concurrence, mat)
    return float(values[0]) if mat.ndim == 2 else values


def concurrence_2x2_embedded(rho) -> float | np.ndarray:
    """Concurrence of a qubit state embedded in the central (2,3) block.

    For a two-qubit state supported on span{|01>, |10>}, Wootters'
    concurrence (PRL 80, 2245 (1998)) reduces to C = 2|rho_01|, twice the
    modulus of the block's coherence, so no embedding or decomposition is
    needed. The coherence is taken from the Hermitian part,
    c = (rho_01 + conj(rho_10)) / 2. The checks are those concurrence
    applies to the embedded state: a matrix more than 1e-8 from Hermitian
    raises NotHermitianError, and one whose Hermitian part has an
    eigenvalue below -1e-9 raises NotPSDError. That eigenvalue is
    (a + b)/2 - hypot((a - b)/2, |c|) for the real diagonal (a, b).

    A stack of N states gives an array of N values; a failure raises the
    error of the first failing matrix, its Hermiticity before its
    positivity, as the eigh route reports it.
    """
    mat = _as_square(rho, "rho", stacked=True, size=2)

    def coherence(stack, a, b, c, deviation):
        return 2.0 * np.abs(c[:, 0]), _outside_gates(a, b, c, deviation)

    # every 2x2 stack takes the closed form, so the kernel only judges failures
    values = _per_matrix(_hermitian_root, coherence, mat)
    return float(values[0]) if mat.ndim == 2 else values
