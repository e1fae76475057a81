"""Measurement-based direct feedback against collective dephasing.

Models the Wiseman-Milburn scheme: a continuous measurement of strength m
on the first qubit, its signal fed back through a joint X-type drive of
strength f, in competition with environmental dephasing of strength gamma.
The one-excitation block {|01>, |10>} is invariant, so the scheme reduces
to a driven qubit whose Bloch dynamics ds/dt = A s + c is affine and has
closed-form steady-state purity and concurrence when y = 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, NonUniqueSteadyStateError, RequiresZeroYError
from .generators import (
    HamiltonianParams,
    build_hamiltonian,
    hamiltonian_superop,
    lindblad_dissipator_superop,
)
from .linalg import _TINY, solve_linear
from .quantum import PAULI_X, PAULI_Z

__all__ = [
    "FeedbackParams",
    "wm_full_generator",
    "wm_subspace_generator",
    "BlochSystem",
    "bloch_system",
    "bloch_steady_state",
    "bloch_eigenvalues",
    "SteadyState",
    "steady_state_closed_form",
    "SweepResult",
    "concurrence_sweep",
]

#: grid points per closed-form block in concurrence_sweep; bounds the
#: temporaries of a large grid to a fixed size
_SWEEP_BLOCK = 8192

#: the two-qubit measured and dephased operator Z⊗I and the feedback operator X⊗X
_ZI = np.kron(PAULI_Z, np.eye(2, dtype=complex))
_XX = np.kron(PAULI_X, PAULI_X)


@dataclass(frozen=True)
class FeedbackParams:
    """Strengths of the feedback loop and its environment.

    m is the measurement strength, f the feedback strength, mu the level
    splitting inside the one-excitation block, gamma the environmental
    dephasing strength, and y the open-loop exchange coupling. All are
    rates; m, f, and gamma must be nonnegative.
    """

    m: float
    f: float
    mu: float = 0.0
    gamma: float = 0.0
    y: float = 0.0

    def __post_init__(self):
        for name in ("m", "f", "mu", "gamma", "y"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        for name in ("m", "f", "gamma"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be nonnegative, got {value}")


def embedding_hamiltonian(params: FeedbackParams) -> HamiltonianParams:
    """Two-qubit couplings whose one-excitation block is mu Z + y X."""
    return HamiltonianParams(a=params.mu / 2, b=-params.mu / 2, c=params.y / 2)


def _wm_generator(params: FeedbackParams, h: np.ndarray, z: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Generator of the Wiseman-Milburn feedback master equation on the operators h, z and x.

    With measurement M = sqrt(m) z, feedback F = sqrt(f) x and environment
    E = sqrt(gamma) z: the Hamiltonian h + (M†F + FM)/2, D[M - iF] and D[E].
    """
    measurement = np.sqrt(params.m) * z
    drive = np.sqrt(params.f) * x
    h = h + 0.5 * (measurement.conj().T @ drive + drive @ measurement)
    return (
        hamiltonian_superop(h)
        + lindblad_dissipator_superop(measurement - 1j * drive)
        + lindblad_dissipator_superop(np.sqrt(params.gamma) * z)
    )


# D[sqrt(m) z - i sqrt(f) x] = m D[z] + f D[x] + sqrt(m f) (cross term) and the
# correction (M†F + FM)/2 vanishes, so _wm_generator is linear in m, f,
# sqrt(m f) and gamma, and in the Hamiltonian; the cross term is the m = f = 1
# generator less its m and f terms. Every entry's real and imaginary parts
# are exactly 0, ±1 or ±2.
def _unit_rate_basis(hamiltonians, z: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(terms, n², n²) unit-rate terms of _wm_generator: m, f, the sqrt(m f) cross term, gamma, then each Hamiltonian."""
    m, f, both, gamma = (_wm_generator(FeedbackParams(*r), 0 * z, z, x) for r in ((1, 0), (0, 1), (1, 1), (0, 0, 0, 1)))
    return np.array([m, f, both - m - f, gamma, *(_wm_generator(FeedbackParams(0, 0), h, z, x) for h in hamiltonians)])


#: the unit-rate terms of wm_full_generator: measurement and environment
#: couple through Z x I, the feedback through X x X; its couplings a, b and c last
_FULL_BASIS = _unit_rate_basis([build_hamiltonian(HamiltonianParams(*unit)) for unit in np.eye(3)], _ZI, _XX)
#: the unit-rate terms of wm_subspace_generator, its couplings mu and y last
_SUBSPACE_BASIS = _unit_rate_basis([PAULI_Z, PAULI_X], PAULI_Z, PAULI_X)


def _root_of_product(p: float, q: float) -> float:
    """sqrt(p q) for p, q >= 0 from their mantissas and exponents, never forming p q.

    Exactly 2^k times larger when p and q are, and finite and nonzero wherever sqrt(p) sqrt(q) is.
    """
    (a, i), (b, j) = math.frexp(p), math.frexp(q)
    return math.ldexp(math.sqrt(math.ldexp(a * b, (i + j) % 2)), (i + j) // 2)


def _generators(runs, couplings, basis: np.ndarray) -> np.ndarray:
    """Σ_k rates_k basis[k] for each params in runs with its couplings, one real product; NonFiniteError on overflow."""
    rows = [
        [params.m, params.f, _root_of_product(params.m, params.f), params.gamma, *coupling]
        for params, coupling in zip(runs, couplings)
    ]
    with np.errstate(over="ignore", invalid="ignore"):
        flat = np.array(rows) @ basis.view(float).reshape(len(basis), -1)
    if not np.isfinite(flat).all():
        raise NonFiniteError("feedback generator contains non-finite entries")
    return flat.view(complex).reshape((len(rows),) + basis.shape[1:])


def wm_full_generator(params: FeedbackParams, hamiltonian: HamiltonianParams | None = None) -> np.ndarray:
    """Full 16-dim generator of the feedback master equation, one product with _FULL_BASIS.

    hamiltonian overrides the coherent couplings; by default they are the
    embedding with one-excitation block mu Z + y X.
    """
    if hamiltonian is None:
        hamiltonian = embedding_hamiltonian(params)
    return _generators([params], [(hamiltonian.a, hamiltonian.b, hamiltonian.c)], _FULL_BASIS)[0]


def _subspace_generators(runs) -> np.ndarray:
    """The (k, 4, 4) stack of wm_subspace_generator over k parameter sets, from their (k, 6) rate rows."""
    return _generators(runs, [(params.mu, params.y) for params in runs], _SUBSPACE_BASIS)


def wm_subspace_generator(params: FeedbackParams) -> np.ndarray:
    """Qubit generator of the dynamics restricted to the one-excitation block.

    The block sees the Hamiltonian mu Z + y X, the combined
    measurement-feedback operator sqrt(m) Z - i sqrt(f) X, and the
    environmental operator sqrt(gamma) Z (see _wm_generator).
    """
    return _subspace_generators([params])[0]


@dataclass(frozen=True)
class BlochSystem:
    """Affine Bloch dynamics ds/dt = matrix @ s + drive."""

    matrix: np.ndarray
    drive: np.ndarray


def bloch_system(params: FeedbackParams) -> BlochSystem:
    """Bloch-space form of the subspace feedback dynamics.

    The drive enters only the y component, with magnitude 4 sqrt(m f),
    the root taken as for the generators (_root_of_product); its sign is
    fixed by the generator (the velocity of the maximally mixed state
    points along -y), which a consistency test pins against
    wm_subspace_generator. Rates scaled by 2^k scale the matrix and the
    drive by exactly 2^k. An entry that overflows raises NonFiniteError.
    """
    m, f, mu, gamma, y = params.m, params.f, params.mu, params.gamma, params.y
    with np.errstate(over="ignore"):
        matrix = -2.0 * np.array(
            [
                [m + gamma, mu, 0.0],
                [-mu, f + m + gamma, y],
                [0.0, -y, f],
            ]
        )
    drive = np.array([0.0, -4.0 * _root_of_product(m, f), 0.0])
    if not (np.isfinite(matrix).all() and np.isfinite(drive).all()):
        raise NonFiniteError("Bloch system contains non-finite entries")
    return BlochSystem(matrix, drive)


def bloch_steady_state(system: BlochSystem) -> np.ndarray:
    """Fixed point of the real affine Bloch dynamics, solving matrix s = -drive."""
    # solve_linear scales both sides by the power of two at the matrix's peak,
    # which the drive 4 sqrt(m f) never exceeds: solvable at subnormal rates
    return solve_linear(system.matrix, -np.asarray(system.drive)).real


def bloch_eigenvalues(params: FeedbackParams) -> np.ndarray:
    """Closed-form eigenvalues of the Bloch matrix, valid only for y = 0.

    One eigenvalue is -2f; the other two are -f - 2 gamma - 2m plus or
    minus sqrt(f^2 - 4 mu^2), a complex pair when f^2 < 4 mu^2. The root
    is taken as sqrt((f - 2|mu|)(f + 2|mu|)) by _root_of_product, so f^2
    is never formed and f - 2|mu| is exact near the double root; rates
    scaled by 2^k scale every eigenvalue by exactly 2^k. An eigenvalue
    that overflows raises NonFiniteError.
    """
    if params.y != 0:
        raise RequiresZeroYError("eigenvalue formula requires y = 0")
    m, f, mu, gamma = params.m, params.f, params.mu, params.gamma
    split = 2.0 * abs(mu)
    root = _root_of_product(abs(f - split), f + split) * (1.0 if f >= split else 1j)
    base = -f - 2.0 * gamma - 2.0 * m
    values = np.array([-2.0 * f, base + root, base - root], dtype=complex)
    if not np.isfinite(values).all():
        raise NonFiniteError("Bloch eigenvalues are not finite")
    return values


@dataclass(frozen=True)
class SteadyState:
    """Steady state of the feedback loop with its purity and concurrence."""

    rho: np.ndarray
    purity: float
    concurrence: float


def _concurrence_and_log_deficit(m, f, mu, gamma):
    """C and log10(1 - C) of the y = 0 steady state; m and f broadcast against each other.

    With r = gamma + m, A = hypot(mu, r) and D = A^2 + r f,
    C = 2 sqrt(m f) A / D, and the deficit is formed directly as
    1 - C = ((A - sqrt(m f))^2 + gamma f) / D instead of by cancellation.
    A - sqrt(m f) is itself taken as (A^2 - m f) / (A + sqrt(m f)) with
    A^2 - m f = mu^2 + gamma (gamma + 2m) + m (m - f), so it keeps its
    digits where A and sqrt(m f) nearly agree, as on the diagonal m = f.

    Both results are homogeneous of degree 0 in the rates, so each point
    is evaluated with its rates divided by the largest of them, s, and no
    product overflows or loses the smaller rates. The terms without f are
    divided once per m by u = max(|mu|, gamma, m); a point then scales them
    by k = u / s and takes l = f / s, where s = max(u, f). Where C is near 0
    the deficit can round an ulp above 1, its bound, and is capped there.

    Where the deficit falls below the smallest normal double, as on the
    diagonal at a subnormal gamma, where gamma / u underflows, its
    logarithm is taken from the logs of its two terms, gap^2 / d and
    gamma f / (s^2 d) with gamma and f unscaled, so it stays finite although
    1 - C itself does not fit a double.
    """
    unscaled_gamma = gamma
    u = np.maximum(np.maximum(np.abs(mu), gamma), m)
    m, mu, gamma = m / u, mu / u, gamma / u
    r = gamma + m
    a = np.hypot(mu, r)
    excess = mu * mu + gamma * (gamma + 2.0 * m)  # A^2 - m^2
    s = np.maximum(u, f)
    k, l = u / s, f / s
    kl = k * l
    root = np.sqrt(m) * np.sqrt(kl)
    # every quantity below is over s, or over s^2 for d
    ak = a * k
    gap = k * (excess * k + m * (m * k - l)) / (ak + root)
    d = ak * ak + r * kl
    deficit = np.minimum((gap * gap + gamma * kl) / d, 1.0)
    conc = 2.0 * ak * root / d
    # a deficit below the smallest normal double has lost digits to underflow
    if np.min(deficit) >= _TINY:
        return conc, np.log10(deficit)
    with np.errstate(divide="ignore"):
        gap_term = 2.0 * np.log(np.abs(gap))
        gamma_term = np.log(unscaled_gamma) + np.log(f) - 2.0 * np.log(s)
        small = (np.logaddexp(gap_term, gamma_term) - np.log(d)) / np.log(10.0)
        return conc, np.where(deficit >= _TINY, np.log10(deficit), small)


def steady_state_closed_form(params: FeedbackParams) -> SteadyState:
    """Closed-form steady state of the subspace dynamics for y = 0, f > 0.

    The diagonal is balanced at 1/2; the coherence is
    sqrt(f m) (mu + i (gamma + m)) / (mu^2 + (gamma + m)(gamma + m + f)),
    giving concurrence twice its modulus and purity (1 + C^2) / 2. The
    coherence is formed as C/2 times the phase of mu + i (gamma + m), and
    every rate is divided by the largest first, so any finite rates give
    a finite result. With m = gamma = mu = 0 the x component of the Bloch
    vector is conserved and no unique steady state exists.
    """
    if params.y != 0:
        raise RequiresZeroYError("closed form requires y = 0")
    if params.f == 0:
        raise NonUniqueSteadyStateError("closed form requires f > 0")
    m, f, mu, gamma = params.m, params.f, params.mu, params.gamma
    largest = max(abs(mu), gamma, m)
    if largest == 0:
        raise NonUniqueSteadyStateError("closed form requires m, gamma or mu nonzero")
    conc, _ = _concurrence_and_log_deficit(m, f, mu, gamma)
    direction = complex(mu / largest, gamma / largest + m / largest)
    off = 0.5 * conc * direction / abs(direction)
    rho = np.array([[0.5, off], [np.conj(off), 0.5]])
    return SteadyState(rho, float(0.5 * (1.0 + conc * conc)), float(conc))


@dataclass(frozen=True)
class SweepResult:
    """Steady-state concurrence over a measurement/feedback strength grid."""

    m_grid: np.ndarray
    f_grid: np.ndarray
    concurrence: np.ndarray
    log10_one_minus_concurrence: np.ndarray


def concurrence_sweep(m_grid, f_grid, gamma: float, mu: float = 0.0) -> SweepResult:
    """Closed-form steady-state concurrence over all (m, f) grid pairs.

    Entry (i, j) belongs to (m_grid[i], f_grid[j]). gamma must be positive
    so the concurrence stays below one and its deficit has a logarithm;
    gamma, mu and the grid values must be finite. The deficit 1 - C is
    computed directly, so its logarithm stays finite as C approaches 1.
    """
    m = np.asarray(m_grid, dtype=float).reshape(-1)
    f = np.asarray(f_grid, dtype=float).reshape(-1)
    if m.size == 0 or f.size == 0:
        raise ValueError("grids must be nonempty")
    if not (np.all((m > 0) & (m < np.inf)) and np.all((f > 0) & (f < np.inf))):
        raise ValueError("grid values must be positive and finite")
    if not 0 < gamma < np.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    if not np.isfinite(mu):
        raise ValueError(f"mu must be finite, got {mu}")
    conc = np.empty((m.size, f.size))
    log_deficit = np.empty_like(conc)
    step = max(1, _SWEEP_BLOCK // f.size)
    for start in range(0, m.size, step):
        rows = slice(start, start + step)
        conc[rows], log_deficit[rows] = _concurrence_and_log_deficit(m[rows, None], f, mu, gamma)
    return SweepResult(m, f, conc, log_deficit)
