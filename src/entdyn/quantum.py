"""States, vectorization, subspace maps, and entanglement measures.

Density matrices and state vectors are plain complex ndarrays; invariants
are enforced by the validate_* helpers rather than wrapper classes. The
density-matrix functions that trajectories sample (validate_density,
purity, bloch_from_density, embed_23 and both concurrences) take one
matrix or an (N, n, n) stack of them, with the same checks per matrix.

validate_density and both concurrences gate a stack before computing from
it: each matrix's Hermiticity deviation, trace and lowest eigenvalue go to
one helper that raises the first failing matrix's error. Stacks of qubit
states or of X-states (zero off the diagonal and the anti-diagonal) take
these margins and their values in closed form from 2x2 blocks; every other
stack takes them from one eigh per _BLOCK matrices. The gates are fixed:
_DENSITY_GATES for validate_density, _CONCURRENCE_GATES for both
concurrences, which are the only check on the states a scenario of the
command line prints, the unitary fig1 included.

Vectorization is row-major: the density-matrix entry (i, j) lands at flat
index i*n + j, so conjugation stays entrywise and A rho B maps to the
superoperator kron(A, B.T), the one rule (generators._two_sided) that
builds every superoperator. _matrix_side is the one check that a
Liouville-space size is n².
"""
from __future__ import annotations

import math

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatchError,
    InvalidStateError,
    LeakyStateError,
    NoConvergenceError,
    NotHermitianError,
    NotPSDError,
    OutsideBlochBallError,
)
from .linalg import _as_square, _dagger

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
_ROUND_OFF_ASYMMETRY = 1e-8
_PSD_CLIP = 1e-9
#: largest |tr rho - 1| of a state either concurrence measures
_TRACE_DRIFT = 1e-8
#: (Hermiticity, trace, eigenvalue) gates of both concurrences, the only
#: check on the states a trajectory samples
_CONCURRENCE_GATES = (_ROUND_OFF_ASYMMETRY, _TRACE_DRIFT, -_PSD_CLIP)
#: (Hermiticity, trace, eigenvalue) gates of validate_density
_DENSITY_GATES = (1e-10, 1e-10, -_PSD_CLIP)

#: matrices per stacked LAPACK call; bounds the eigh and svd temporaries
#: of a long trajectory to a fixed size
_BLOCK = 256

#: the two blocks of an X-state, each as its pair of levels: |00>, |11>
#: first, then |01>, |10>
_X_LEVELS = np.array([[0, 3], [1, 2]])
#: the 4x4 entries off the diagonal and the anti-diagonal, where an X-state is zero
_OFF_X = (np.eye(4) + np.eye(4)[::-1]) == 0


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
    elif n == 4 and not stack[:, _OFF_X].any():
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


def _raise_first_failure(stack: np.ndarray, gates, deviation: np.ndarray, lowest: np.ndarray) -> None:
    """Raise the error of the first matrix outside gates = (Hermiticity, trace, eigenvalue), if any.

    deviation and lowest hold max|m - m†| and the lowest eigenvalue of the
    Hermitian part of every matrix of the stack. Each matrix is judged on
    Hermiticity, trace, then eigenvalue.
    """
    skew_gate, trace_gate, eig_gate = gates
    non_hermitian = deviation > skew_gate
    off_trace = np.abs(np.trace(stack, axis1=-2, axis2=-1) - 1.0) > trace_gate
    failing = non_hermitian | off_trace | (lowest < eig_gate)
    if not failing.any():
        return
    k = int(np.argmax(failing))
    if non_hermitian[k]:
        raise NotHermitianError(f"max|rho - rho†| = {deviation[k]:.3e} exceeds {skew_gate:.1e}")
    if off_trace[k]:
        trace = complex(np.trace(stack[k]))
        imaginary = f" (imaginary part {trace.imag:.3e})" if trace.imag else ""
        raise InvalidStateError(f"trace {trace.real:.12f}{imaginary} deviates from 1 beyond {trace_gate:.1e}")
    raise NotPSDError(f"eigenvalue {lowest[k]:.3e} below {eig_gate:.1e}")


def _gated_two_level_blocks(stack: np.ndarray, gates):
    """(a, b, c) of _two_level_blocks once the stack passes the gates; None for a stack it does not split."""
    blocks = _two_level_blocks(stack)
    if blocks is None:
        return None
    a, b, c, deviation = blocks
    _raise_first_failure(stack, gates, deviation, _lowest_eigenvalues(a, b, c))
    return a, b, c


def _gated_eigenpairs(stack: np.ndarray, gates):
    """Eigenpairs of the Hermitian part of every _BLOCK of the stack, each block gated before it is yielded.

    One hermitian_eig per block gives the lowest eigenvalues the gate
    needs, and the eigenpairs are reused by the caller. A failing block
    raises before the next is decomposed.
    """
    for start in range(0, len(stack), _BLOCK):
        block = stack[start : start + _BLOCK]
        adjoint = _dagger(block)
        values, vectors = linalg.hermitian_eig(0.5 * (block + adjoint))
        deviation = np.abs(block - adjoint).max(axis=(1, 2))
        _raise_first_failure(block, gates, deviation, values[:, 0])
        yield values, vectors


def bell_state() -> np.ndarray:
    """The maximally entangled vector (|01> + |10>) / sqrt(2)."""
    return np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)


def _require_unit_norm(v: np.ndarray, name: str) -> None:
    """Raise InvalidStateError, naming the vector, if its norm is more than 1e-10 from 1."""
    norm = np.linalg.norm(v)
    if abs(norm - 1.0) > 1e-10:
        raise InvalidStateError(f"{name} norm {norm:.12f} is not 1")


def density_from_pure(psi) -> np.ndarray:
    """Rank-one density matrix |psi><psi| of a normalized state vector."""
    v = np.asarray(psi, dtype=complex).reshape(-1)
    _require_unit_norm(v, "state")
    return np.outer(v, v.conj())


def validate_density(rho) -> np.ndarray:
    """Check Hermiticity, unit trace, and positivity of a density matrix.

    rho may be one matrix or an (N, n, n) stack; every matrix is checked and
    the error is that of the first one to fail. Returns the validated array.
    A matrix more than 1e-10 from Hermitian raises NotHermitianError, one
    whose trace is more than 1e-10 from 1 raises InvalidStateError, and one
    whose Hermitian part has an eigenvalue below -1e-9 raises NotPSDError
    (_DENSITY_GATES). That eigenvalue comes from eigh or, for qubit states
    and X-states, from the 2x2 blocks in closed form.
    """
    mat = _as_square(rho, "rho", stacked=True)
    stack = mat.reshape((-1,) + mat.shape[-2:])
    if _gated_two_level_blocks(stack, _DENSITY_GATES) is None:
        for _ in _gated_eigenpairs(stack, _DENSITY_GATES):
            pass
    return mat


def vectorize(rho) -> np.ndarray:
    """Flatten a density matrix row-major into a Liouville vector."""
    return _as_square(rho, "rho").reshape(-1).copy()


def _matrix_side(size: int, name: str) -> int:
    """n for a Liouville-space operand of size n²; DimensionMismatchError naming the operand otherwise."""
    n = math.isqrt(size)
    if n * n != size:
        raise DimensionMismatchError(f"{name} size {size} is not a perfect square")
    return n


def devectorize(r) -> np.ndarray:
    """Reshape a Liouville vector back to an n x n matrix, unchecked: validate_density checks a state."""
    vec = np.asarray(r, dtype=complex).reshape(-1)
    n = _matrix_side(vec.size, "Liouville vector")
    return vec.reshape(n, n).copy()


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
    before the square root. A state further from Hermitian raises
    NotHermitianError, one whose trace is more than 1e-8 from 1 raises
    InvalidStateError, and one whose Hermitian part has an eigenvalue below
    -1e-9 raises NotPSDError. A stack of N states gives an array of N values.
    """
    mat = _as_square(rho, "rho", stacked=True, size=4)
    stack = mat.reshape((-1, 4, 4))
    blocks = _gated_two_level_blocks(stack, _CONCURRENCE_GATES)
    if blocks is not None:
        a, b, c = blocks
        geometric = np.sqrt(np.maximum(a, 0.0) * np.maximum(b, 0.0))
        # each block's coherence against the other block's populations
        excess = (np.abs(c) - geometric[:, ::-1]).max(axis=1)
        values = 2.0 * np.maximum(excess, 0.0)
    else:
        parts = []
        for eigenvalues, vectors in _gated_eigenpairs(stack, _CONCURRENCE_GATES):
            # the principal square root, round-off negative eigenvalues clipped to zero
            root = (vectors * np.sqrt(np.clip(eigenvalues, 0.0, None))[:, None, :]) @ _dagger(vectors)
            root = 0.5 * (root + _dagger(root))
            try:
                lam = np.linalg.svd(root @ _YY @ root.conj(), compute_uv=False)
            except np.linalg.LinAlgError as exc:
                raise NoConvergenceError(f"singular value solver failed: {exc}") from exc
            parts.append(np.maximum(lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3], 0.0))
        values = np.concatenate(parts)
    return float(values[0]) if mat.ndim == 2 else values


def concurrence_2x2_embedded(rho) -> float | np.ndarray:
    """Concurrence of a qubit state embedded in the central (2,3) block.

    For a two-qubit state supported on span{|01>, |10>}, Wootters'
    concurrence (PRL 80, 2245 (1998)) reduces to C = 2|rho_01|, twice the
    modulus of the block's coherence, so no embedding or decomposition is
    needed. The coherence is taken from the Hermitian part,
    c = (rho_01 + conj(rho_10)) / 2. The checks are those concurrence
    applies to the embedded state: a matrix more than 1e-8 from Hermitian
    raises NotHermitianError, one whose trace is more than 1e-8 from 1
    raises InvalidStateError, and one whose Hermitian part has an
    eigenvalue below -1e-9 raises NotPSDError. That eigenvalue is
    (a + b)/2 - hypot((a - b)/2, |c|) for the real diagonal (a, b).

    A stack of N states gives an array of N values; a failure raises the
    error of the first failing matrix, its Hermiticity before its trace
    and its trace before its positivity.
    """
    mat = _as_square(rho, "rho", stacked=True, size=2)
    # every 2x2 stack splits into one block
    _, _, c = _gated_two_level_blocks(mat.reshape((-1, 2, 2)), _CONCURRENCE_GATES)
    values = 2.0 * np.abs(c[:, 0])
    return float(values[0]) if mat.ndim == 2 else values
