"""Hamiltonians, dissipators, and Liouvillian assembly.

Superoperators act on row-major Liouville vectors (see quantum.vectorize).
One rule, _two_sided, builds them all: A rho B maps to kron(A, B.T), so
left multiplication A rho is _two_sided(A, I) and right multiplication
rho B is _two_sided(I, B).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DimensionMismatchError, NonFiniteError
from .linalg import _as_square, _check_hermitian
from .quantum import _matrix_side

__all__ = [
    "HamiltonianParams",
    "build_hamiltonian",
    "hamiltonian_superop",
    "lindblad_dissipator_superop",
    "validate_dephasing_rates",
    "validate_relaxation_rates",
    "phenomenological_superop",
    "PureDephasing",
    "pure_dephasing_from_amplitudes",
    "ConstraintCheck",
    "check_dephasing_constraints",
    "assemble_liouvillian",
]


@dataclass(frozen=True)
class HamiltonianParams:
    """Couplings of the two-qubit Hamiltonian a Z1 + b Z2 + c (XX + YY + ZZ).

    a and b are the local level splittings, c the isotropic exchange
    strength. The off-diagonal coupling between the one-excitation levels
    is y = 2c.
    """

    a: float
    b: float
    c: float

    def __post_init__(self):
        for name in ("a", "b", "c"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")

    @property
    def level_shifts(self) -> tuple[float, float, float, float]:
        """Diagonal entries (x1, x2, x3, x4) of the Hamiltonian."""
        a, b, c = self.a, self.b, self.c
        return (a + b + c, a - b - c, -a + b - c, -a - b + c)

    @property
    def coupling(self) -> float:
        """Off-diagonal element y = 2c between the one-excitation levels."""
        return 2.0 * self.c


def build_hamiltonian(params: HamiltonianParams) -> np.ndarray:
    """Dense 4x4 Hamiltonian: diagonal level shifts plus the central coupling."""
    h = np.diag(np.asarray(params.level_shifts, dtype=complex))
    h[1, 2] = h[2, 1] = params.coupling
    return h


def _two_sided(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Superoperator of rho -> a rho b on row-major vectors, kron(a, b.T), as one broadcast product."""
    n = a.shape[0]
    return (a[:, None, :, None] * b.T[None, :, None, :]).reshape(n * n, n * n)


def hamiltonian_superop(h) -> np.ndarray:
    """Superoperator of the coherent part, -i (H rho - rho H), for H Hermitian to 1e-10."""
    mat = _as_square(h, "h")
    _check_hermitian(mat, "h")
    eye = np.eye(mat.shape[0], dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        return -1j * (_two_sided(mat, eye) - _two_sided(eye, mat))


def lindblad_dissipator_superop(v) -> np.ndarray:
    """Superoperator of the dissipator V rho V† - (V†V rho + rho V†V)/2.

    For several collapse operators, sum one superoperator per operator.
    Raises NonFiniteError if V†V overflows.
    """
    mat = _as_square(v, "v")
    eye = np.eye(mat.shape[0], dtype=complex)
    adjoint = mat.conj().T
    with np.errstate(over="ignore", invalid="ignore"):
        vdv = adjoint @ mat
        if not np.isfinite(vdv).all():
            raise NonFiniteError("v†v contains non-finite entries")
        return _two_sided(mat, adjoint) - 0.5 * _two_sided(vdv, eye) - 0.5 * _two_sided(eye, vdv)


def _check_rates(rates, kind: str) -> np.ndarray:
    """rates as a real square matrix with a zero diagonal and finite, nonnegative entries."""
    mat = np.asarray(rates, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionMismatchError(f"rates must be square, got shape {mat.shape}")
    if not np.isfinite(mat).all():
        raise ValueError(f"{kind} rates must be finite")
    if np.any(np.diag(mat) != 0):
        raise ValueError(f"{kind} rates must have a zero diagonal")
    if np.any(mat < 0):
        raise ValueError(f"{kind} rates must be nonnegative")
    return mat


def validate_dephasing_rates(rates) -> np.ndarray:
    """Check a dephasing-rate matrix: real, symmetric, nonnegative, zero diagonal."""
    mat = _check_rates(rates, "dephasing")
    if np.max(np.abs(mat - mat.T)) > 0:
        raise ValueError("dephasing rates must be symmetric")
    return mat


def validate_relaxation_rates(rates) -> np.ndarray:
    """Check a relaxation-rate matrix: real, nonnegative, zero diagonal.

    Entry (n, k) is the rate of the population transfer from level k to
    level n; no symmetry is required.
    """
    return _check_rates(rates, "relaxation")


def phenomenological_superop(dephasing, relaxation=None) -> np.ndarray:
    """Dissipation superoperator built directly from observable rates.

    dephasing[i, j] is the decay rate of the coherence r[i*n + j]; the
    optional relaxation[n, k] moves population from level k to level n
    while draining the source diagonal, keeping the total trace constant.
    """
    deph = validate_dephasing_rates(dephasing)
    n = deph.shape[0]
    if relaxation is None:
        relax = np.zeros((n, n))
    else:
        relax = validate_relaxation_rates(relaxation)
        if relax.shape != deph.shape:
            raise DimensionMismatchError(
                f"relaxation shape {relax.shape} does not match dephasing {deph.shape}"
            )
    ld = np.zeros((n * n, n * n), dtype=complex)
    ld.flat[:: n * n + 1] = -deph.reshape(-1)
    # the population indices i*n + i: relax moves population and each source
    # drains by its column sum; 0.0 + keeps a -0.0 rate out of the generator
    populations = np.arange(n) * (n + 1)
    ld[np.ix_(populations, populations)] = (0.0 + relax) - np.diag(relax.sum(axis=0))
    return ld


class PureDephasing(NamedTuple):
    rates: np.ndarray
    superop: np.ndarray


def pure_dephasing_from_amplitudes(amplitudes) -> PureDephasing:
    """Pure-dephasing rates and superoperator from diagonal coupling amplitudes.

    Each level i carries its own independent channel with collapse operator
    amplitudes[i] |i><i|, so the coherence (i, j) decays at
    (|a_i|^2 + |a_j|^2) / 2 regardless of the amplitudes' phases. The
    returned superoperator is the diagonal rate form; it coincides exactly
    with the sum of the per-level Lindblad dissipators.
    """
    amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if not np.isfinite(amps).all():
        raise ValueError("amplitudes contain non-finite entries")
    # a strength beyond the largest double is inf, which the rate check refuses
    with np.errstate(over="ignore"):
        strengths = np.abs(amps) ** 2
        rates = 0.5 * (strengths[:, None] + strengths[None, :])
    np.fill_diagonal(rates, 0.0)
    return PureDephasing(rates, phenomenological_superop(rates))


class ConstraintCheck(NamedTuple):
    physical: bool
    witness: np.ndarray | None


#: relative tolerance of check_dephasing_constraints, against the largest rate
_CONSTRAINT_RTOL = 1e-9


def check_dephasing_constraints(rates) -> ConstraintCheck:
    """Decide whether 4-level dephasing rates come from diagonal amplitudes.

    The rates are physical exactly when nonnegative per-level strengths
    x1..x4 exist with rates[i, j] = (x_i + x_j) / 2. Necessary conditions
    are the pair-sum equalities G12+G34 = G14+G23 = G13+G24; these are
    checked to 1e-9 * max(rates), then the strengths are solved for and
    must come out nonnegative (the equalities alone do not guarantee
    that). On success the witness x is returned, clipped at zero. Rates
    of 1 or more are first divided by the power of two 2^e just above the
    largest, which is exact, so the pair sums and strengths stay finite up
    to the largest double; the witness is scaled back by 2^e.
    """
    mat = validate_dephasing_rates(rates)
    if mat.shape != (4, 4):
        raise DimensionMismatchError(f"expected 4x4 rates, got {mat.shape}")
    # scaled down only, not by linalg._peak_normed, which also scales up: at
    # subnormal rates the absolute floor below would overflow math.ldexp
    exponent = max(math.frexp(float(np.max(mat)))[1], 0)
    mat = np.ldexp(mat, -exponent)
    tol = _CONSTRAINT_RTOL * float(np.max(mat))
    sums = (mat[0, 1] + mat[2, 3], mat[0, 3] + mat[1, 2], mat[0, 2] + mat[1, 3])
    if max(sums) - min(sums) > tol:
        return ConstraintCheck(False, None)
    # the least-squares solution of the six (x_i + x_j)/2 = rates[i, j]: their
    # normal matrix is 2I + J, with inverse (I - J/6)/2, and the diagonal is zero
    x = mat.sum(axis=1) - mat.sum() / 6
    # the absolute floor _CONSTRAINT_RTOL is on the rates' own scale
    if np.min(x) < -max(tol, math.ldexp(_CONSTRAINT_RTOL, -exponent)):
        return ConstraintCheck(False, None)
    return ConstraintCheck(True, np.ldexp(np.clip(x, 0.0, None), exponent))


def assemble_liouvillian(h, dissipators: Sequence[np.ndarray] = ()) -> np.ndarray:
    """Total generator: coherent superoperator plus dissipation superoperators.

    h may be None for purely dissipative dynamics; dissipators are already
    built superoperators (n^2 x n^2) and are summed as given; a part that is
    not a square matrix raises DimensionMismatchError, a non-finite sum NonFiniteError.
    """
    parts = [np.asarray(d, dtype=complex) for d in dissipators]
    if h is not None:
        parts.insert(0, hamiltonian_superop(h))
    if not parts:
        raise ValueError("nothing to assemble: no Hamiltonian and no dissipators")
    shape = parts[0].shape
    for p in parts[1:]:
        if p.shape != shape:
            raise DimensionMismatchError(f"superoperator shapes differ: {shape} vs {p.shape}")
    if len(shape) != 2 or shape[0] != shape[1]:
        raise DimensionMismatchError(f"superoperators must be square, got {shape}")
    _matrix_side(shape[0], "superoperator")
    with np.errstate(over="ignore", invalid="ignore"):
        total = sum(parts)
    if not np.isfinite(total).all():
        raise NonFiniteError("assembled generator contains non-finite entries")
    return total
