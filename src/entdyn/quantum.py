"""States, vectorization, subspace maps, and entanglement measures.

Density matrices and state vectors are plain complex ndarrays; invariants
are enforced by the validate_* helpers rather than wrapper classes. The
density-matrix functions purity, bloch_from_density, embed_23,
validate_density and both concurrences take one matrix or an (N, n, n)
stack of them, with the same checks per matrix.

bloch_from_density takes the Pauli traces in closed form from the entries.
validate_density and both concurrences gate a stack before computing from
it: each matrix's Hermiticity deviation, trace and lowest eigenvalue go to
one helper that raises the first failing matrix's error. A stack of qubit
states or of X-states (zero off the diagonal and the anti-diagonal) is
split once into 2x2 blocks by _two_level_blocks, which gives these margins,
the trace summed from the diagonal included, and then every value in
closed form; every other stack takes them from one eigh per _BLOCK
matrices. The gates are fixed: _DENSITY_GATES for validate_density,
_CONCURRENCE_GATES for both concurrences, which are the only check on the
states a scenario of the command line prints, the unitary fig1 included.
_measures is the one concurrence body: both concurrences, unitary_evolve
and every propagated stack take its one split and one gate, then the
concurrence (2|c| for qubit blocks, Yu-Eberly for X-states, _wootters for
any other 4x4 stack), the purity and, for qubit states, the Bloch norm.
It checks no finiteness: each propagation checks the entries it computed,
and each public function its own input.

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

#: the flat indices of the 4x4 entries off the diagonal and the anti-diagonal, where an X-state is zero
_OFF_X = np.flatnonzero((np.eye(4) + np.eye(4)[::-1]) == 0)
#: the flat indices of an X-state's blocks: the diagonal, then the entries
#: above it and below it of each block
_X_COLUMNS = np.array([0, 5, 10, 15, 3, 6, 12, 9])


def _two_level_blocks(stack: np.ndarray):
    """The 2x2 blocks of a stack of qubit states or of X-states, with their margins; None for any other stack.

    A 2x2 matrix is one block. A 4x4 matrix that is exactly zero outside the
    X pattern is two, on the levels |00>, |11> and then |01>, |10>. The
    stack is read as (N, n²) rows. A qubit stack's blocks are views of its
    columns; an X-state stack's eight block columns are gathered once into
    contiguous rows. Either way every operation below loops over the
    matrices, and every per-matrix reduction runs across the blocks.
    Returns (a, b, c, deviation, trace): the real diagonal pairs a and b
    and the coherence c = (m_ij + conj(m_ji)) / 2 of the Hermitian part,
    each of shape (blocks, N); max|m - m†| of every matrix, as
    _check_hermitian measures it; and the complex trace of every matrix,
    summed from the diagonal in np.trace's order, so bit for bit its value.
    """
    n = stack.shape[-1]
    rows = stack.reshape(len(stack), n * n)
    if n == 2:
        # views of the 4 columns: the ops below loop over the matrices
        columns = rows.T
        a, b, upper, lower = columns[0:1], columns[3:4], columns[1:2], columns[2:3]
        trace = columns[0] + columns[3]
    elif n == 4 and not rows[:, _OFF_X].any():
        # one gather: on (2, N) views of the rows, the ops would loop over the 2 blocks innermost
        columns = rows.T[_X_COLUMNS]
        # levels |00>, |11> take the diagonal's ends, levels |01>, |10> its middle
        a, b, upper, lower = columns[0:2], columns[3:1:-1], columns[4:6], columns[6:8]
        trace = (columns[0] + columns[1]) + (columns[2] + columns[3])
    else:
        return None
    lower = lower.conj()
    diagonal = 2.0 * np.maximum(np.abs(a.imag), np.abs(b.imag))
    deviation = np.maximum(np.abs(upper - lower), diagonal).max(axis=0)
    return a.real, b.real, 0.5 * (upper + lower), deviation, trace


def _lowest_eigenvalues(a: np.ndarray, b: np.ndarray, modulus: np.ndarray) -> np.ndarray:
    """Lowest eigenvalue of each matrix from its (blocks, N) blocks [[a, c], [conj(c), b]], given modulus = |c|."""
    half_a, half_b = 0.5 * a, 0.5 * b
    return ((half_a + half_b) - np.hypot(half_a - half_b, modulus)).min(axis=0)


def _raise_first_failure(gates, deviation: np.ndarray, trace: np.ndarray, lowest: np.ndarray) -> None:
    """Raise the error of the first matrix outside gates = (Hermiticity, trace, eigenvalue), if any.

    deviation, trace and lowest hold max|m - m†|, the complex trace and the
    lowest eigenvalue of the Hermitian part of every matrix of a stack.
    Each matrix is judged on Hermiticity, trace, then eigenvalue.
    """
    skew_gate, trace_gate, eig_gate = gates
    non_hermitian = deviation > skew_gate
    off_trace = np.abs(trace - 1.0) > trace_gate
    failing = non_hermitian | off_trace | (lowest < eig_gate)
    if not failing.any():
        return
    k = int(np.argmax(failing))
    if non_hermitian[k]:
        raise NotHermitianError(f"max|rho - rho†| = {deviation[k]:.3e} exceeds {skew_gate:.1e}")
    if off_trace[k]:
        value = complex(trace[k])
        imaginary = f" (imaginary part {value.imag:.3e})" if value.imag else ""
        raise InvalidStateError(f"trace {value.real:.12f}{imaginary} deviates from 1 beyond {trace_gate:.1e}")
    raise NotPSDError(f"eigenvalue {lowest[k]:.3e} below {eig_gate:.1e}")


def _gated_two_level_blocks(stack: np.ndarray, gates):
    """(a, b, c) of _two_level_blocks and |c| once the stack passes the gates; None for a stack it does not split."""
    blocks = _two_level_blocks(stack)
    if blocks is None:
        return None
    a, b, c, deviation, trace = blocks
    modulus = np.abs(c)
    _raise_first_failure(gates, deviation, trace, _lowest_eigenvalues(a, b, modulus))
    return a, b, c, modulus


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
        _raise_first_failure(gates, deviation, np.trace(block, axis1=-2, axis2=-1), values[:, 0])
        yield values, vectors


def _wootters(stack: np.ndarray) -> np.ndarray:
    """Wootters' concurrence of every matrix of a finite (N, 4, 4) stack, each block of it gated first."""
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
    return np.concatenate(parts)


def _purity(stack: np.ndarray) -> np.ndarray:
    """tr(m²) of a matrix or of every matrix of a stack, by one einsum."""
    return np.einsum("...ij,...ji->...", stack, stack).real


def _measures(stack: np.ndarray) -> dict[str, np.ndarray]:
    """The observables of a finite (N, n, n) stack of states, gated once: the one body of every concurrence.

    For n = 2 or 4 the stack is gated with _CONCURRENCE_GATES before any
    measure is taken, so a failing state raises before a measure can
    overflow on it. A stack that splits into 2x2 blocks gives everything
    from them: the concurrence, 2|c| for qubits and Yu-Eberly for X-states;
    for n = 2 the Bloch norm sqrt((x² + y²) + z²), with x = 2 Re c,
    y = 2 Im c (the Bloch y up to its sign) and z = a - b, bit for bit
    np.linalg.norm of bloch_from_density; and the purity Σ a² + b² + 2|c|²
    of the Hermitian part, within a few ulp of purity's einsum. A 4x4
    stack that does not split takes _wootters and the purity from einsum;
    any other n only the purity, ungated. Finiteness is the caller's check.
    """
    n = stack.shape[-1]
    blocks = _gated_two_level_blocks(stack, _CONCURRENCE_GATES) if n in (2, 4) else None
    if blocks is None:
        measures = {"concurrence": _wootters(stack)} if n == 4 else {}
        measures["purity"] = _purity(stack)
        return measures
    a, b, c, modulus = blocks
    x, y = 2.0 * c.real, 2.0 * c.imag
    coherence = x * x + y * y
    if n == 2:
        z = a - b
        measures = {"concurrence": 2.0 * modulus[0], "bloch_norm": np.sqrt(coherence + z * z)[0]}
    else:
        geometric = np.sqrt(np.maximum(a, 0.0) * np.maximum(b, 0.0))
        # each block's coherence against the other block's populations
        excess = (modulus - geometric[::-1]).max(axis=0)
        measures = {"concurrence": 2.0 * np.maximum(excess, 0.0)}
    measures["purity"] = (a * a + b * b + 0.5 * coherence).sum(axis=0)
    return measures


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

    The traces are taken in closed form from the entries, as
    (Re(rho_01 + rho_10), Im(rho_10 - rho_01), Re(rho_00 - rho_11)), the
    middle one being Re(i (rho_01 - rho_10)); the matrix need not be
    Hermitian. A stack of N states gives an (N, 3) array.
    """
    mat = _as_square(rho, "rho", stacked=True, size=2)
    upper, lower = mat[..., 0, 1], mat[..., 1, 0]
    return np.stack([(upper + lower).real, (lower - upper).imag, (mat[..., 0, 0] - mat[..., 1, 1]).real], axis=-1)


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
    values = _purity(mat)
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
    values = _measures(mat.reshape((-1, 4, 4)))["concurrence"]
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
    values = _measures(mat.reshape((-1, 2, 2)))["concurrence"]
    return float(values[0]) if mat.ndim == 2 else values
