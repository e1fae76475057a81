"""Time evolution and steady states.

Every propagator takes its initial state as the state at grid.t_start.
Two independent propagation routes are provided on purpose: propagate_expm
exponentiates the generator, restricted to the invariant sectors that the
initial state touches, once for the uniform sample step and fills the
samples with powers of that propagator, while propagate_ode integrates the
same flow with an adaptive embedded Dormand-Prince 4(5) pair in runs of
equal steps, each step evaluated as the pair's stability polynomials in hL:
a run's first step on a Krylov block of scaled generator powers, the
others by the step matrix those polynomials give. They share no numerical
machinery, so agreement between them is a real cross-check.
propagate_expm also takes a stack of generators that share the initial
state and the grid, such as one per coupling of a parameter scan: one
stacked exponential, one doubling and one call per observable serve them
all. Observables are computed on the whole stack of sampled states at once.
The concurrence of a 2- or 4-level trajectory gates its stack before any
other measure is taken, so a sample more than 1e-8 from Hermitian or from
unit trace, or with an eigenvalue below -1e-9, raises (see
quantum._CONCURRENCE_GATES). propagate_expm refuses a step exponential
that misses the trace by more than that 1e-8 before projecting it. A
TimeGrid whose step is below the smallest normal double is refused.
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
from .linalg import _as_square, _dagger, expm, hermitian_eig

#: the smallest positive normal double, the least time step a TimeGrid takes
_TINY = float(np.finfo(float).tiny)

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
    """Uniform sampling of a time interval, endpoints included; a propagator's r0 is the state at t_start."""

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
        # a subnormal step gives no distinct sample times
        if self.step < _TINY:
            raise ValueError(
                f"time step {self.step:.3g} (span {self.span:.3g} over {int(n) - 1} intervals)"
                f" is below the smallest normal double {_TINY:.3g}"
            )

    @property
    def times(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, int(self.n_samples))

    @property
    def span(self) -> float:
        return self.t_end - self.t_start

    @property
    def step(self) -> float:
        return self.span / (int(self.n_samples) - 1)


@dataclass
class Trajectory:
    """Sampled evolution: times, the states at those times, and named series.

    states holds state vectors (n_samples, d) for unitary runs and density
    matrices (n_samples, n, n) for open-system runs, or (k, n_samples, n, n)
    for a stack of k generators. observables maps a series name to a real
    array over the same samples, (n_samples,) or (k, n_samples). diagnostics holds
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
    # the concurrence gates the stack, so a failing state raises before a measure can overflow on it
    if n == 4:
        obs["concurrence"] = quantum.concurrence(states)
    elif n == 2:
        obs["concurrence"] = quantum.concurrence_2x2_embedded(states)
        bloch = quantum.bloch_from_density(states)
        obs["bloch_x"] = bloch[:, 0]
        obs["bloch_y"] = bloch[:, 1]
        obs["bloch_z"] = bloch[:, 2]
        obs["bloch_norm"] = np.linalg.norm(bloch, axis=1)
    obs["purity"] = quantum.purity(states)
    return obs


def _density_trajectory(times: np.ndarray, vectors, n: int) -> Trajectory:
    """The trajectory of (..., N, n²) sampled vectors: the observables gate and measure all samples as one stack."""
    vectors = np.asarray(vectors)
    batch = vectors.shape[:-1]
    states = vectors.reshape(-1, n, n)
    observables = {name: values.reshape(batch) for name, values in _density_observables(states).items()}
    return Trajectory(times, states.reshape(batch + (n, n)), observables)


def _require_finite(states: np.ndarray, times: np.ndarray):
    """Raise NonFiniteError for the first non-finite sample of (..., N, d) states, naming its time."""
    finite = np.isfinite(states).all(axis=-1).reshape(-1)
    if not finite.all():
        k = int(np.argmin(finite))
        raise NonFiniteError(f"propagated state at t = {times[k % times.size]:.6g} is not finite")


def unitary_evolve(h, v0, grid: TimeGrid, sign: int = +1) -> Trajectory:
    """Closed-system evolution v(t) = expm(sign * i (t - t_start) H) v0, v0 being v(t_start).

    H is diagonalized once, H = U diag(w) U†, and every sample is
    U diag(exp(sign * i (t - t_start) w)) U† v0 with unit-modulus phases,
    so the norm is kept to round-off however fast the phases turn. sign
    selects the convention for the evolution operator and must be +1 or -1;
    measures built from |v(t)| are identical for both choices.
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
        phases = np.exp(sign * 1j * np.outer(times - grid.t_start, energies))
    states = (phases * (basis.conj().T @ v)) @ basis.T
    _require_finite(states, times)
    obs = {"norm": np.linalg.norm(states, axis=1)}
    if v.size == 4:
        obs["concurrence"] = quantum.concurrence(np.einsum("ki,kj->kij", states, states.conj()))
    return Trajectory(times, states, obs)


def _check_generator(l, stacked: bool = False) -> tuple[np.ndarray, int]:
    """The generator, or if stacked a stack of them, as finite square matrices of size n², with n."""
    gen = _as_square(l, "generator", stacked=stacked)
    return gen, quantum._matrix_side(gen.shape[-1], "generator")


def _check_generator_and_state(l, r0, stacked: bool = False) -> tuple[np.ndarray, np.ndarray, int]:
    gen, n = _check_generator(l, stacked)
    r = np.asarray(r0, dtype=complex).reshape(-1)
    if r.size != gen.shape[-1]:
        raise DimensionMismatchError(
            f"state length {r.size} does not match generator size {gen.shape[-1]}"
        )
    return gen, r, n


def propagate_expm(l, r0, grid: TimeGrid) -> Trajectory:
    """Propagate r(t) = expm((t - t_start) L) r0 over a uniform grid, r0 being r(t_start).

    The generator's exact zeros split the Liouville indices into sectors,
    the connected components of its nonzero pattern (see _sector_labels);
    each is an invariant subspace of every expm(t L). Only the sectors that
    r0 touches are propagated, as one block of L, and every other entry of
    every sample is an exact zero. For the feedback model, whose operators
    all commute with the parity Z⊗Z, the Bell state touches one sector of
    four out of sixteen indices.

    The grid step dt is the same everywhere, so P = expm(dt L) is the only
    exponential needed: sample k is P^k r0. The samples are filled by
    doubling: once the first `filled` are known, the next `filled` are
    those times P^filled, which is then squared. N samples take
    ceil(log2 N) stacked products instead of N - 1 matrix-vector steps.
    Exact up to round-off for a time-independent generator, with one
    exponential per grid whatever its length. The generator must preserve
    the trace, vec(I)ᵀ L = 0, and Hermiticity, S L̄ S = L for the
    transposition S, vec(ρᵀ) = S vec(ρ), as every Lindblad generator does;
    one that visibly does not (beyond 1e-12 of its largest entry) raises
    ValueError. The sectors are taken from the nonzero patterns of L and
    S L̄ S together, so S maps every sector onto a sector, and the
    propagated ones are those that r0 or its transpose S r0 touches: the
    propagated indices are closed under S, whatever r0. P is then
    projected to keep the trace, vec(I)ᵀ P = vec(I)ᵀ on the propagated
    indices, and then onto maps that keep Hermiticity, P = (P + S P̄ S)/2,
    as the exact propagator does, so the round-off of a stiff generator's
    exponential no longer accumulates into a trace or Hermiticity drift
    over the samples. The projection is for round-off alone: a P that
    misses the trace, max |e - e P| for the trace row e, by more than the
    concurrence's trace gate 1e-8 (quantum._TRACE_DRIFT) raises
    NonFiniteError, as a scaled generator block, P or a propagated state
    that holds inf or NaN does. diagnostics records the route and the
    propagated sectors, each as its sorted list of Liouville indices; for
    a non-Hermitian r0 they include the S images of the sectors it
    touches.

    l may also be a (k, n², n²) stack of generators that share r0 and the
    grid. Each is checked for trace and Hermiticity, and the first to fail
    names the error. The sectors come from the union of the members'
    patterns, a partition at least as coarse as each member's own, so
    still invariant for every member; the k step exponentials are one
    stacked expm, the doubling runs on (k, N, m) rows, and the observables
    gate and measure the (k N, n, n) stack with one call each. The states
    come out as (k, N, n, n) and every observable as (k, N); member j
    gets the bits of a call on l[j] alone wherever its own sectors select
    the same propagated indices. A 2-dimensional l gives (N, n, n) and
    (N,). Failures are found stage by stage (generator checks, scaling,
    expm, the trace of P, finiteness, gates), the first failing member
    naming the error within a stage.
    """
    gen, r, n = _check_generator_and_state(l, r0, stacked=True)
    stack = gen[None] if gen.ndim == 2 else gen
    identity = _trace_row(n)
    transpose = _transposition(n)
    mirrored = _checked_mirror(stack, n, trace=True)
    labels = _sector_labels(((stack != 0) | (mirrored != 0)).any(axis=0))
    touched = np.unique(labels[(r != 0) | (r[transpose] != 0)])
    idx = np.flatnonzero(np.isin(labels, touched))
    block = gen[..., idx[:, None], idx]
    identity = identity[idx]
    # S on the propagated indices: position k holds the position of idx[k]'s transpose
    flip = np.searchsorted(idx, transpose[idx])
    times = grid.times
    dt = grid.step
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = block * dt
    if not np.all(np.isfinite(scaled)):
        raise NonFiniteError(f"generator scaled by t = {dt:.6g} is not finite")
    step = expm(scaled)
    with np.errstate(over="ignore", invalid="ignore"):
        deficit = np.abs(identity - identity @ step).max(axis=-1, initial=0.0).reshape(-1)
    # the projection below hides a step that misses the trace by more than round-off
    refused = ~(deficit <= quantum._TRACE_DRIFT)
    if refused.any():
        raise NonFiniteError(
            f"step exponential at dt = {dt:.6g} loses the trace: max |e - e P| ="
            f" {deficit[np.argmax(refused)]:.3e} exceeds {quantum._TRACE_DRIFT:.1e}"
        )
    vectors = np.zeros(gen.shape[:-2] + (times.size, r.size), dtype=complex)
    # an overflowing power or state is reported by _require_finite
    with np.errstate(over="ignore", invalid="ignore"):
        step = _hermiticity_preserving(_trace_preserving(step, identity), flip)
        vectors[..., idx] = _filled_by_doubling(r[idx], step, times.size, identity)
    _require_finite(vectors, times)
    trajectory = _density_trajectory(times, vectors, n)
    trajectory.diagnostics = {
        "route": "expm",
        "sectors": [np.flatnonzero(labels == label).tolist() for label in touched],
    }
    return trajectory


def _checked_mirror(stack: np.ndarray, n: int, trace: bool) -> np.ndarray:
    """S L̄ S for every L of a (k, n², n²) stack, S being the transposition.

    The first L that breaks Hermiticity, L = S L̄ S, or if trace the trace,
    vec(I)ᵀ L = 0, beyond 1e-12 of its largest entry raises ValueError; the
    trace is named first.
    """
    transpose = _transposition(n)
    mirrored = stack[:, transpose[:, None], transpose].conj()
    tolerance = 1e-12 * np.abs(stack).max(axis=(1, 2))
    leak = np.abs(_trace_row(n) @ stack).max(axis=1) if trace else np.zeros(len(stack))
    skew = np.abs(stack - mirrored).max(axis=(1, 2))
    failing = (leak > tolerance) | (skew > tolerance)
    if failing.any():
        k = int(np.argmax(failing))
        if leak[k] > tolerance[k]:
            raise ValueError(f"generator does not preserve the trace: max |vec(I)ᵀ L| = {leak[k]:.3e}")
        raise ValueError(f"generator does not preserve Hermiticity: max |L - S L̄ S| = {skew[k]:.3e}")
    return mirrored


def _filled_by_doubling(first: np.ndarray, power: np.ndarray, samples: int, identity: np.ndarray) -> np.ndarray:
    """The rows first, P first, P² first, … for `samples` rows, filled by doubling.

    power is P or a (k, m, m) stack of them, which gives (k, samples, m)
    rows. Each squared power is projected to keep the trace row e (see
    _trace_preserving): squaring doubles a power's trace error, so without
    it the error of P^(2^j) would grow as 2^j round-offs.
    """
    rows = np.empty(power.shape[:-2] + (samples, first.size), dtype=complex)
    rows[..., 0, :] = first
    filled = 1
    while filled < samples:
        take = min(filled, samples - filled)
        rows[..., filled : filled + take, :] = rows[..., :take, :] @ power.swapaxes(-1, -2)
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
    """gen / 2^e and e for the largest 2^e at most gen's peak entry (e = -1 for a zero gen, which stays zero).

    The scaling is exact, and the result's Frobenius norm is finite for any finite gen.
    """
    # real and imaginary parts apart: |z| itself can overflow
    peak = max(abs(gen.real).max(), abs(gen.imag).max())
    exponent = math.frexp(peak)[1] - 1
    return _ldexp(gen, -exponent), exponent


def _trace_preserving(p: np.ndarray, identity: np.ndarray) -> np.ndarray:
    """P with the deficit e_j - (e P)_j of every column j spread evenly over its nonzero diagonal rows, so that e P = e.

    p is one matrix or a stack, each projected on its own. identity is the
    trace row e of P's indices, 1 on the diagonal indices.
    The shares, 1/k on the k diagonal rows where column j of P is nonzero,
    come from P's own nonzero pattern, which has no entry between two
    sectors: this is the smallest change that keeps e and leaves every
    exact zero of P a zero. A column with no share is unchanged.
    """
    share = identity[:, None] * (p != 0)
    deficit = (identity - identity @ p)[..., None, :]
    return p + share / np.maximum(share.sum(axis=-2, keepdims=True), 1) * deficit


def _hermiticity_preserving(p: np.ndarray, flip: np.ndarray) -> np.ndarray:
    """(P + S P̄ S)/2, which maps Hermitian to Hermitian exactly, for S given on P's indices by flip; p may be a stack."""
    return 0.5 * (p + p[..., flip[:, None], flip].conj())


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
#: the most equal steps propagate_ode takes from one step matrix
_RUN = 64
#: local error tolerance of propagate_ode, per component: _ATOL + _RTOL * |r|
_RTOL = 1e-10
_ATOL = 1e-12


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
    # a zero L has exponent -1 and frexp(0) gives 0, so s = 1/2 scales only zero powers
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


def _dp_coefficients(z: float) -> np.ndarray:
    """The pair's (2, 7) polynomial coefficients times z¹ … z⁷, for z = h s.

    The powers of z saturate at the largest double instead of overflowing,
    so a row of the Krylov block that is exactly zero, as every row is when
    L r = 0, adds zero however large z is.
    """
    return _DP_POLY * np.minimum(z**_DP_DEGREES, _DOUBLE_MAX)


def _dp_polynomial_step(block: np.ndarray, z: float) -> np.ndarray:
    """Increment and error estimate of one step with z = h s, from the Krylov block of r."""
    return (_dp_coefficients(z) @ block).view(complex)


def _dp_run(powers: np.ndarray, block: np.ndarray, y: np.ndarray, z: float, steps: int):
    """Rows r_0 = y, r_1 … r_steps of `steps` equal steps with z = h s, and the error estimate of each step.

    The first step comes from the Krylov block of y (_dp_polynomial_step).
    The others apply the step matrix M = I + Σ c_k z^k (L/s)^k, r_(j+1) =
    M r_j, and the estimate of step j is E r_j with E = Σ e_k z^k (L/s)^k;
    one contraction of the power stack with the pair's coefficients gives
    M and E. A non-finite M or E gives the one step from the block, so a
    state with L r = 0 stays put at any rate. Gives the (steps + 1, n²)
    rows and the (steps, n²) estimates, steps being 1 in that case.
    """
    increment, err = _dp_polynomial_step(block, z)
    size = y.size
    if steps > 1:
        stack = powers.view(float).reshape(_DP_DEGREES.size, -1)
        matrices = (_dp_coefficients(z) @ stack).view(complex).reshape(2, size, size)
        if not np.isfinite(matrices).all():
            steps = 1
    rows = np.empty((steps + 1, size), dtype=complex)
    errs = np.empty((steps, size), dtype=complex)
    rows[0] = y
    rows[1] = y + increment
    errs[0] = err
    if steps > 1:
        step, error = matrices
        step.flat[:: size + 1] += 1.0
        for row, following in zip(rows[1:-1], rows[2:]):
            np.dot(step, row, out=following)
        np.matmul(rows[1:-1], error.T, out=errs[1:])
    return rows, errs


def propagate_ode(l, r0, grid: TimeGrid) -> Trajectory:
    """Propagate by adaptive Runge-Kutta integration of dr/dt = L r, r0 being r(t_start).

    An embedded Dormand-Prince 4(5) pair controls the local error against
    _ATOL + _RTOL * |r| per component. For a constant L each step is a
    polynomial in z = hL applied to r, with coefficients derived from the
    tableau. The route advances in runs of up to _RUN equal steps
    (_dp_run): the first step of a run takes increment and error from the
    Krylov block [(L/s)¹ r … (L/s)⁷ r] of its start, one product, and the
    others apply the run's step matrix. A run that reaches the next sample
    in at most _RUN steps of h takes steps of (target - t)/steps and lands
    on it. Every step of a run is judged by the per-step error test at
    once: the run keeps its steps up to the first that fails or has a
    non-finite estimate, which counts as one rejected attempt and shrinks
    h; the steps after it are dropped and not counted. After a run with
    no failure h grows by at most 5x. Rows are never projected. Raises
    StepUnderflowError if the controller needs a step below 1e-14 of the
    grid span, and NoConvergenceError beyond _MAX_STEP_ATTEMPTS attempts.
    diagnostics records the route, the accepted and rejected attempts,
    the runs and the smallest accepted step h_min.
    """
    gen, y, n = _check_generator_and_state(l, r0)
    times = grid.times
    floor = 1e-14 * grid.span
    vectors = [y.copy()]
    t = float(times[0])
    attempts = accepted = runs = 0
    h_min = grid.span
    # overflow inside a step shows as a non-finite error estimate and rejects
    # it; a rate |L r| beyond the largest double gives the smallest first step
    with np.errstate(over="ignore", invalid="ignore"):
        powers, scale = _scaled_powers(gen)
        block = _krylov_block(powers, y)
        rate = np.linalg.norm(block[0]) * scale
        h = 0.01 * np.linalg.norm(y) / rate if rate > 0 else grid.span / 100
        h = min(max(h, floor), grid.span)
        for target in times[1:].tolist():
            while target - t > floor:
                if h < floor:
                    raise StepUnderflowError(f"step {h:.3e} below floor {floor:.3e} at t = {t:.6g}")
                remaining = target - t
                steps = math.ceil(remaining / h)
                if steps <= _RUN:
                    # no landing step below the floor
                    steps = min(steps, int(remaining / floor))
                    h_run = remaining / steps
                else:
                    steps, h_run = _RUN, h
                rows, errs = _dp_run(powers, block, y, h_run * scale, steps)
                tol = _ATOL + _RTOL * np.abs(rows)
                ratio = np.abs(errs) / np.maximum(tol[:-1], tol[1:])
                err_norms = np.sqrt(np.einsum("ij,ij->i", ratio, ratio) / y.size)
                passed = err_norms <= 1.0
                kept = len(passed) if passed.all() else int(np.argmin(passed))
                runs += 1
                attempts += kept + (kept < len(passed))
                if attempts > _MAX_STEP_ATTEMPTS:
                    raise NoConvergenceError(f"integrator exceeded {_MAX_STEP_ATTEMPTS} step attempts")
                if kept:
                    accepted += kept
                    h_min = min(h_min, h_run)
                    t = t + kept * h_run
                    y = rows[kept]
                    block = _krylov_block(powers, y)
                if kept == len(passed):
                    # the run's last step is the latest measure of the error at h_run
                    err_norm = float(err_norms[-1])
                    factor = 5.0 if err_norm == 0 else min(5.0, 0.9 * err_norm ** -0.2)
                else:
                    err_norm = float(err_norms[kept])
                    factor = max(0.2, 0.9 * err_norm ** -0.2) if math.isfinite(err_norm) else 0.2
                h = max(h_run * factor, floor)
                if kept < len(passed) and h >= h_run:
                    h = 0.5 * h_run
            t = target
            vectors.append(y.copy())
    trajectory = _density_trajectory(times, vectors, n)
    trajectory.diagnostics = {
        "route": "ode",
        "accepted": accepted,
        "rejected": attempts - accepted,
        "runs": runs,
        "h_min": float(h_min),
    }
    return trajectory


def steady_state(l) -> np.ndarray:
    """Unique trace-one kernel element of a Liouvillian.

    Solves L r = 0 together with the trace functional as one stacked
    system. L is first divided by a power of two near its peak entry
    (_peak_normed), which is exact and keeps the Frobenius norm finite for
    any finite L. The trace row is scaled by that norm, so it keeps its
    weight at any rate scale, and one SVD of the stacked system gives its
    rank, its least-squares solution and the residual relative to
    sigma_max |r|. A rank deficiency means the generator admits several
    normalizable steady states, a residual above 1e-8 that it admits none;
    both raise NonUniqueSteadyStateError. A failing SVD raises
    NoConvergenceError. L must preserve Hermiticity as propagate_expm
    describes, or ValueError is raised; its kernel is then closed under
    ρ ↦ ρ†, so the Hermitian part (ρ + ρ†)/2 of the solution, free of the
    SVD's round-off off Hermitian, is validated as a density matrix.
    """
    gen, n = _check_generator(l)
    gen, _ = _peak_normed(gen)
    _checked_mirror(gen[None], n, trace=False)
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
    rho = quantum.devectorize(solution)
    return quantum.validate_density((rho + _dagger(rho)) / 2)
