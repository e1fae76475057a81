"""Time evolution and steady states.

Two independent propagation routes are provided on purpose: propagate_expm
exponentiates the generator, restricted to the invariant sectors that the
initial state touches, once for the uniform sample step and fills the
samples with powers of that propagator, while propagate_ode integrates the
same flow with an adaptive embedded Dormand-Prince 4(5) pair, each step
evaluated as the pair's stability polynomials in hL on a Krylov block of
scaled generator powers. They share no numerical machinery, so agreement
between them is a real cross-check.
Observables are computed on the whole stack of sampled states at once. The
concurrence of a 2- or 4-level trajectory gates its stack, so a sample more
than 1e-8 from Hermitian or from unit trace, or with an eigenvalue below
-1e-9, raises (see quantum._CONCURRENCE_GATES).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import quantum
from .errors import (
    DimensionMismatchError,
    NoConvergenceError,
    NonFiniteError,
    NonUniqueSteadyStateError,
    StepUnderflowError,
)
from .linalg import _as_square, expm, hermitian_eig

__all__ = [
    "TimeGrid",
    "Trajectory",
    "unitary_evolve",
    "propagate_expm",
    "propagate_ode",
    "steady_state",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling of a time interval, endpoints included."""

    t_start: float
    t_end: float
    n_samples: int

    def __post_init__(self):
        if not (np.isfinite(self.t_start) and np.isfinite(self.t_end)):
            raise ValueError("time bounds must be finite")
        if self.t_end <= self.t_start:
            raise ValueError(f"t_end {self.t_end} must exceed t_start {self.t_start}")
        n = self.n_samples
        if not (math.isfinite(n) and int(n) == n and n >= 2):
            raise ValueError(f"n_samples must be an integer >= 2, got {self.n_samples}")

    @property
    def times(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, int(self.n_samples))

    @property
    def span(self) -> float:
        return self.t_end - self.t_start


@dataclass
class Trajectory:
    """Sampled evolution: times, the states at those times, and named series.

    states holds state vectors (n_samples, d) for unitary runs and density
    matrices (n_samples, n, n) for open-system runs. observables maps a
    series name to a real array over the same samples. diagnostics holds
    what the route reports about its own run, and is empty unless the route
    fills it.
    """

    times: np.ndarray
    states: np.ndarray
    observables: dict[str, np.ndarray] = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)


def _density_observables(states: np.ndarray) -> dict[str, np.ndarray]:
    n = states.shape[1]
    obs: dict[str, np.ndarray] = {}
    obs["purity"] = quantum.purity(states)
    if n == 4:
        obs["concurrence"] = quantum.concurrence(states)
    elif n == 2:
        bloch = quantum.bloch_from_density(states)
        obs["bloch_x"] = bloch[:, 0]
        obs["bloch_y"] = bloch[:, 1]
        obs["bloch_z"] = bloch[:, 2]
        obs["bloch_norm"] = np.linalg.norm(bloch, axis=1)
        obs["concurrence"] = quantum.concurrence_2x2_embedded(states)
    return obs


def _density_trajectory(times: np.ndarray, vectors, n: int) -> Trajectory:
    states = np.asarray(vectors).reshape(-1, n, n)
    return Trajectory(times, states, _density_observables(states))


def _require_finite(states: np.ndarray, times: np.ndarray):
    finite = np.isfinite(states).all(axis=1)
    if not finite.all():
        k = int(np.argmin(finite))
        raise NonFiniteError(f"propagated state at t = {times[k]:.6g} is not finite")


def unitary_evolve(h, v0, grid: TimeGrid, sign: int = +1) -> Trajectory:
    """Closed-system evolution v(t) = expm(sign * i t H) v0.

    H is diagonalized once, H = U diag(w) U†, and every sample is
    U diag(exp(sign * i t w)) U† v0 with unit-modulus phases, so the norm
    is kept to round-off however fast the phases turn. sign selects
    the convention for the evolution operator and must be +1 or -1; measures
    built from |v(t)| are identical for both choices.
    """
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    energies, basis = hermitian_eig(_as_square(h, "Hamiltonian"))
    v = np.asarray(v0, dtype=complex).reshape(-1)
    if v.size != energies.size:
        raise DimensionMismatchError(
            f"state length {v.size} does not match Hamiltonian size {energies.size}"
        )
    quantum._require_unit_norm(v, "initial")
    times = grid.times
    with np.errstate(over="ignore", invalid="ignore"):
        phases = np.exp(sign * 1j * np.outer(times, energies))
    states = (phases * (basis.conj().T @ v)) @ basis.T
    _require_finite(states, times)
    obs = {"norm": np.linalg.norm(states, axis=1)}
    if v.size == 4:
        obs["concurrence"] = quantum.concurrence(np.einsum("ki,kj->kij", states, states.conj()))
    return Trajectory(times, states, obs)


def _check_generator(l) -> tuple[np.ndarray, int]:
    """The generator as a finite square matrix of size n², with n."""
    gen = _as_square(l, "generator")
    return gen, quantum._matrix_side(gen.shape[0], "generator")


def _check_generator_and_state(l, r0) -> tuple[np.ndarray, np.ndarray, int]:
    gen, n = _check_generator(l)
    r = np.asarray(r0, dtype=complex).reshape(-1)
    if r.size != gen.shape[0]:
        raise DimensionMismatchError(
            f"state length {r.size} does not match generator size {gen.shape[0]}"
        )
    return gen, r, n


def _scaled(gen: np.ndarray, t: float) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = gen * t
    if not np.all(np.isfinite(scaled)):
        raise NonFiniteError(f"generator scaled by t = {t:.6g} is not finite")
    return scaled


def propagate_expm(l, r0, grid: TimeGrid) -> Trajectory:
    """Propagate r(t) = expm(t L) r0 over a uniform time grid.

    The generator's exact zeros split the Liouville indices into sectors,
    the connected components of its nonzero pattern (see _sector_labels);
    each is an invariant subspace of every expm(t L). Only the sectors that
    r0 touches are propagated, as one block of L, and every other entry of
    every sample is an exact zero. For the feedback model, whose operators
    all commute with the parity Z⊗Z, the Bell state touches one sector of
    four out of sixteen indices.

    The grid step dt is the same everywhere, so r(t_start) = expm(t_start L) r0
    and P = expm(dt L) are the only exponentials needed: sample k is P^k
    applied to the first. The samples are filled by doubling: once the
    first `filled` are known, the next `filled` are those times P^filled,
    which is then squared. N samples take ceil(log2 N) stacked products
    instead of N - 1 matrix-vector steps. Exact up to round-off for a
    time-independent generator, with two exponentials per grid whatever
    its length. The generator must preserve the trace, vec(I)ᵀ L = 0, and
    Hermiticity, S L̄ S = L for the transposition S, vec(ρᵀ) = S vec(ρ), as
    every Lindblad generator does; one that visibly does not (beyond 1e-12
    of its largest entry) raises ValueError. The sectors are taken from
    the nonzero patterns of L and S L̄ S together, so S maps every sector
    onto a sector, and the propagated ones are those that r0 or its
    transpose S r0 touches: the propagated indices are closed under S,
    whatever r0. Both exponentials are then projected to keep the trace,
    vec(I)ᵀ P = vec(I)ᵀ on the propagated indices, and then onto maps that
    keep Hermiticity, P = (P + S P̄ S)/2, as the exact propagator does, so
    the round-off of a stiff generator's exponential no longer accumulates
    into a trace or Hermiticity drift over the samples. Raises
    NonFiniteError if a scaled generator block, an exponential or a
    propagated state holds inf or NaN. diagnostics records the route and
    the propagated sectors, each as its sorted list of Liouville indices;
    for a non-Hermitian r0 they include the S images of the sectors it
    touches.
    """
    gen, r, n = _check_generator_and_state(l, r0)
    identity = _trace_row(n)
    transpose = _transposition(n)
    tolerance = 1e-12 * np.max(np.abs(gen))
    leak = np.max(np.abs(identity @ gen))
    if leak > tolerance:
        raise ValueError(f"generator does not preserve the trace: max |vec(I)ᵀ L| = {leak:.3e}")
    mirrored = gen[transpose[:, None], transpose].conj()
    skew = np.abs(gen - mirrored).max()
    if skew > tolerance:
        raise ValueError(f"generator does not preserve Hermiticity: max |L - S L̄ S| = {skew:.3e}")
    labels = _sector_labels((gen != 0) | (mirrored != 0))
    touched = np.unique(labels[(r != 0) | (r[transpose] != 0)])
    idx = np.flatnonzero(np.isin(labels, touched))
    block = gen[np.ix_(idx, idx)]
    identity = identity[idx]
    # S on the propagated indices: position k holds the position of idx[k]'s transpose
    flip = np.searchsorted(idx, transpose[idx])
    times = grid.times
    start = expm(_scaled(block, grid.t_start))
    step = expm(_scaled(block, grid.span / (times.size - 1)))
    vectors = np.zeros((times.size, r.size), dtype=complex)
    # an overflowing power or state is reported by _require_finite
    with np.errstate(over="ignore", invalid="ignore"):
        start = _hermiticity_preserving(_trace_preserving(start, identity), flip)
        step = _hermiticity_preserving(_trace_preserving(step, identity), flip)
        vectors[:, idx] = _filled_by_doubling(start @ r[idx], step, times.size, identity)
    _require_finite(vectors, times)
    trajectory = _density_trajectory(times, vectors, n)
    trajectory.diagnostics = {
        "route": "expm",
        "sectors": [np.flatnonzero(labels == label).tolist() for label in touched],
    }
    return trajectory


def _filled_by_doubling(first: np.ndarray, power: np.ndarray, samples: int, identity: np.ndarray) -> np.ndarray:
    """The rows first, P first, P² first, … for `samples` rows, filled by doubling.

    Each squared power is projected to keep the trace row e (see
    _trace_preserving): squaring doubles a power's trace error, so without
    it the error of P^(2^j) would grow as 2^j round-offs.
    """
    rows = np.empty((samples, first.size), dtype=complex)
    rows[0] = first
    filled = 1
    while filled < samples:
        take = min(filled, samples - filled)
        rows[filled : filled + take] = rows[:take] @ power.T
        filled += take
        if filled < samples:
            power = _trace_preserving(power @ power, identity)
    return rows


def _sector_labels(gen: np.ndarray) -> np.ndarray:
    """The sector of every Liouville index, labelled by the smallest index in it.

    gen is the generator or its nonzero pattern. Indices i and j are linked
    when gen couples them, gen_ij != 0 or gen_ji != 0, and a sector is a
    connected component of these links, so no entry of gen leads out of it.
    Every index starts as its own label and takes the smallest label among
    its links until none changes.
    """
    size = gen.shape[0]
    nonzero = gen != 0
    linked = nonzero | nonzero.T
    labels = np.arange(size)
    while True:
        merged = np.minimum(labels, np.where(linked, labels, size).min(axis=1, initial=size))
        if np.array_equal(merged, labels):
            return labels
        labels = merged


def _trace_row(n: int) -> np.ndarray:
    """vec(I) of size n²: the row that takes the trace of a vectorized n x n state."""
    return np.eye(n).reshape(-1)


def _transposition(n: int) -> np.ndarray:
    """S as an index map: the Liouville index of ρᵀ_ij for every index of ρ_ij of an n x n state."""
    return np.arange(n * n).reshape(n, n).T.reshape(-1)


def _ldexp(gen: np.ndarray, exponent: int) -> np.ndarray:
    """gen * 2^exponent on the real and imaginary parts apart: numpy's complex division by a subnormal 2^-exponent overflows."""
    return np.ldexp(np.ascontiguousarray(gen).view(float), exponent).view(complex)


def _peak_normed(gen: np.ndarray) -> tuple[np.ndarray, int]:
    """gen / 2^e and e for the largest 2^e at most gen's peak entry (e = 0 for a zero gen).

    The scaling is exact, and the result's Frobenius norm is finite for any finite gen.
    """
    # real and imaginary parts apart: |z| itself can overflow
    peak = max(abs(gen.real).max(), abs(gen.imag).max())
    if peak == 0:
        return gen, 0
    exponent = math.frexp(peak)[1] - 1
    return _ldexp(gen, -exponent), exponent


def _trace_preserving(p: np.ndarray, identity: np.ndarray) -> np.ndarray:
    """P with the deficit e_j - (e P)_j of every column j spread evenly over its nonzero diagonal rows, so that e P = e.

    identity is the trace row e of P's indices, 1 on the diagonal indices.
    The shares, 1/k on the k diagonal rows where column j of P is nonzero,
    come from P's own nonzero pattern, which has no entry between two
    sectors: this is the smallest change that keeps e and leaves every
    exact zero of P a zero. A column with no share is unchanged.
    """
    share = identity[:, None] * (p != 0)
    return p + share / np.maximum(share.sum(axis=0), 1) * (identity - identity @ p)


def _hermiticity_preserving(p: np.ndarray, flip: np.ndarray) -> np.ndarray:
    """(P + S P̄ S)/2, which maps Hermitian to Hermitian exactly, for S given on P's indices by flip."""
    return 0.5 * (p + p[flip[:, None], flip].conj())


# Dormand-Prince 4(5) tableau. Row i of _DP_A weights stages 0..i-1 in the
# argument of stage i; row 0 of _DP_B holds the 5th-order solution weights
# and row 1 the embedded error weights (difference to the 4th-order solution).
_DP_A = np.array(
    [
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0],
        [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0],
        [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0],
        [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0],
        [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0],
        [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
    ]
)
_DP_B = np.array(
    [
        [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
        [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40],
    ]
)


def _stability_polynomials(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficients of z¹ … z⁷ in the increment and error polynomials of the tableau.

    For dr/dt = L r the argument of stage i is p_i(z) r with z = hL and
    p_i = 1 + z Σ_j a_ij p_j, so a step adds z Σ_i b_i p_i(z) r. Row k of
    the stage table holds the coefficients of z⁰ … z⁶ in p_k.
    """
    stages = np.zeros((a.shape[0], a.shape[0]))
    for i in range(a.shape[0]):
        stages[i, 0] = 1.0
        stages[i, 1:] = a[i, :i] @ stages[:i, :-1]
    return b @ stages


_DP_POLY = _stability_polynomials(_DP_A, _DP_B)
_DP_DEGREES = np.arange(1.0, _DP_POLY.shape[1] + 1)
_DOUBLE_MAX = np.finfo(float).max
#: exponent of the largest power of two below _DOUBLE_MAX
_MAX_EXPONENT = int(np.finfo(float).maxexp) - 1

_MAX_STEP_ATTEMPTS = 1_000_000


def _scaled_powers(gen: np.ndarray) -> tuple[np.ndarray, float]:
    """The stack [(L/s)¹ … (L/s)⁷] as one (7n², n²) matrix, with s.

    s is a power of two near the Frobenius norm of L, so dividing by it is
    exact and the powers stay near unit size at any rate scale. The norm is
    taken of _peak_normed(L), as in steady_state, so it is finite for any
    finite L. s is the smallest power of two above the norm, or 2¹⁰²³ for a
    norm at or above 2¹⁰²³; a norm beyond the largest double raises
    NonFiniteError.
    """
    normed, exponent = _peak_normed(gen)
    # frexp(0) gives exponent 0, so a zero L keeps s = 1
    exponent += math.frexp(np.linalg.norm(normed))[1]
    if exponent > _MAX_EXPONENT + 1:
        raise NonFiniteError("generator norm exceeds the largest double")
    exponent = min(exponent, _MAX_EXPONENT)
    powers = np.empty((_DP_DEGREES.size,) + gen.shape, dtype=complex)
    powers[0] = _ldexp(gen, -exponent)
    for k in range(1, _DP_DEGREES.size):
        powers[k] = powers[0] @ powers[k - 1]
    return powers.reshape(-1, gen.shape[1]), math.ldexp(1.0, exponent)


def _krylov_block(powers: np.ndarray, r: np.ndarray) -> np.ndarray:
    """[(L/s)¹ r … (L/s)⁷ r] from one product, each row as real and imaginary pairs."""
    return (powers @ r).view(float).reshape(_DP_DEGREES.size, -1)


def _dp_polynomial_step(block: np.ndarray, z: float) -> np.ndarray:
    """Increment and error estimate of one step with z = h s, from the Krylov block of r.

    The powers of z saturate at the largest double instead of overflowing,
    so a row of the block that is exactly zero, as every row is when
    L r = 0, adds zero however large z is.
    """
    return ((_DP_POLY * np.minimum(z**_DP_DEGREES, _DOUBLE_MAX)) @ block).view(complex)


def propagate_ode(l, r0, grid: TimeGrid, rtol: float = 1e-10, atol: float = 1e-12) -> Trajectory:
    """Propagate by adaptive Runge-Kutta integration of dr/dt = L r.

    An embedded Dormand-Prince 4(5) pair controls the local error against
    atol + rtol * |r| per component. For a constant L each step is a
    polynomial in z = hL applied to r, with coefficients derived from the
    tableau, so an accepted step computes the Krylov block
    [(L/s)¹ r … (L/s)⁷ r] in one product and every attempt from r takes
    increment and error from that block: a rejected attempt makes no
    product with L. A non-finite error estimate rejects the step. Raises
    StepUnderflowError if the controller needs a step below 1e-14 of the
    grid span. diagnostics records the route, the accepted and rejected
    attempts and the smallest accepted step h_min.
    """
    gen, y, n = _check_generator_and_state(l, r0)
    if not (rtol > 0 and atol > 0):
        raise ValueError("rtol and atol must be positive")
    times = grid.times
    floor = 1e-14 * grid.span
    vectors = [y.copy()]
    t = float(times[0])
    attempts = accepted = 0
    h_min = grid.span
    # overflow inside a step shows as a non-finite error estimate and rejects
    # it; a rate |L r| beyond the largest double gives the smallest first step
    with np.errstate(over="ignore", invalid="ignore"):
        powers, scale = _scaled_powers(gen)
        block = _krylov_block(powers, y)
        rate = np.linalg.norm(block[0]) * scale
        h = 0.01 * np.linalg.norm(y) / rate if rate > 0 else grid.span / 100
        h = min(max(h, floor), grid.span)
        tol = atol + rtol * np.abs(y)
        for target in times[1:].tolist():
            while target - t > floor:
                h_try = min(h, target - t)
                if h_try < floor:
                    raise StepUnderflowError(
                        f"step {h_try:.3e} below floor {floor:.3e} at t = {t:.6g}"
                    )
                attempts += 1
                if attempts > _MAX_STEP_ATTEMPTS:
                    raise NoConvergenceError(
                        f"integrator exceeded {_MAX_STEP_ATTEMPTS} step attempts"
                    )
                increment, err = _dp_polynomial_step(block, h_try * scale)
                y_new = y + increment
                tol_new = atol + rtol * np.abs(y_new)
                ratio = np.abs(err) / np.maximum(tol, tol_new)
                err_norm = math.sqrt(float(ratio @ ratio) / ratio.size)
                if err_norm <= 1.0:
                    accepted += 1
                    h_min = min(h_min, h_try)
                    t = t + h_try
                    y = y_new
                    block = _krylov_block(powers, y)
                    tol = tol_new
                    factor = 5.0 if err_norm == 0 else min(5.0, 0.9 * err_norm ** -0.2)
                    h = max(h_try * factor, floor)
                else:
                    factor = max(0.2, 0.9 * err_norm ** -0.2) if math.isfinite(err_norm) else 0.2
                    h = max(h_try * factor, floor)
                    if h >= h_try:
                        h = 0.5 * h_try
            t = target
            vectors.append(y.copy())
    trajectory = _density_trajectory(times, vectors, n)
    trajectory.diagnostics = {
        "route": "ode",
        "accepted": accepted,
        "rejected": attempts - accepted,
        "h_min": float(h_min),
    }
    return trajectory


def steady_state(l) -> np.ndarray:
    """Unique trace-one kernel element of a Liouvillian.

    Solves L r = 0 together with the trace functional as one stacked
    system. L is first divided by a power of two near its peak entry
    (_peak_normed), which is exact and keeps the Frobenius norm finite for
    any finite L. The trace row is scaled by that norm, so it keeps its
    weight at any rate scale, and one SVD of the stacked system gives its rank, its least-squares solution and the residual relative
    to sigma_max |r|. A rank deficiency means the generator admits several
    normalizable steady states, a residual above 1e-8 that it admits none;
    both raise NonUniqueSteadyStateError. A failing SVD raises
    NoConvergenceError. The result is validated as a density matrix.
    """
    gen, n = _check_generator(l)
    gen, _ = _peak_normed(gen)
    size = gen.shape[0]
    scale = float(np.linalg.norm(gen)) or 1.0
    stacked = np.vstack([gen, scale * _trace_row(n)])
    try:
        u, sigma, vh = np.linalg.svd(stacked, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"singular value solver failed: {exc}") from exc
    rank = int(np.sum(sigma > sigma[0] * 1e-12))
    if rank < size:
        raise NonUniqueSteadyStateError(
            f"kernel dimension {size - rank + 1}: steady state is not unique"
        )
    solution = vh.conj().T @ (u[-1].conj() * scale / sigma)
    rhs = np.zeros(size + 1, dtype=complex)
    rhs[-1] = scale
    residual = np.linalg.norm(stacked @ solution - rhs) / (sigma[0] * np.linalg.norm(solution))
    if residual > 1e-8:
        raise NonUniqueSteadyStateError(
            f"no normalizable steady state (relative residual {residual:.3e})"
        )
    return quantum.validate_density(quantum.devectorize(solution))
