"""Time evolution and steady states.

Every propagator takes its initial state as the state at grid.t_start.
Two independent propagation routes are provided on purpose: propagate_expm
exponentiates the generator, restricted to the invariant sectors that the
initial state touches, once for the uniform sample step and fills the
samples with powers of that propagator, while propagate_ode integrates the
same flow with an adaptive embedded Dormand-Prince 4(5) pair in runs of
equal steps, every step of a run from the one step matrix that the pair's
stability polynomials in hL give, their coefficients written as the
exact rationals of the Dormand-Prince tableau, and the increments of a
run filled by doubling, on the entries that the initial state reaches
under the generator's nonzero pattern alone. They share no numerical
machinery, and each finds the entries it propagates by its own analysis
of the generator, so agreement between them is a real cross-check.
propagate_expm also takes a stack of generators that share the initial
state and the grid, such as one per coupling of a parameter scan: one
stacked exponential, one doubling and one pass over the observables serve
them all.

Each solver checks its operands once (_operands): the generator, or a
stack of them, as finite square matrices of size n², and r0 as a vector
of that length. Each route ends in one _density_trajectory call with the
rows it computed and the sorted Liouville entries they sit on. That finish
checks the rows for finiteness once, a non-finite row raising
NonFiniteError naming its sample's time (_require_finite); makes every
other entry of every sample an exact zero; and takes the whole stack of
samples through one pass (quantum._measures): one split into 2x2 blocks
and one gate before any measure, so a sample more than 1e-8 from Hermitian
or from unit trace, or with an eigenvalue below -1e-9, raises (see
quantum._CONCURRENCE_GATES), and then every observable from the same
blocks. propagate_expm refuses a step exponential that misses the trace by
more than that 1e-8 before projecting it. A TimeGrid whose step is below
the smallest normal double is refused.
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
from .linalg import _TINY, _as_square, _dagger, _ldexp, _peak_normed, expm, hermitian_eig

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
        if not math.isfinite(self.span):
            raise ValueError(f"time span from {self.t_start} to {self.t_end} overflows a double")
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


def _density_trajectory(times: np.ndarray, rows: np.ndarray, entries: np.ndarray, n: int, diagnostics: dict) -> Trajectory:
    """The trajectory of a route's (..., N, m) rows on m sorted Liouville entries, by the finish the module states."""
    _require_finite(rows, times)
    vectors = np.zeros(rows.shape[:-1] + (n * n,), dtype=complex)
    vectors[..., entries] = rows
    batch = vectors.shape[:-1]
    states = vectors.reshape(-1, n, n)
    observables = {name: values.reshape(batch) for name, values in quantum._measures(states).items()}
    return Trajectory(times, states.reshape(batch + (n, n)), observables, diagnostics)


def _require_finite(states: np.ndarray, times: np.ndarray):
    """Raise NonFiniteError for the first non-finite sample of (..., N, d) states, naming its time."""
    # one pass over every entry; the samples are searched only once it fails
    if np.isfinite(states).all():
        return
    finite = np.isfinite(states).all(axis=-1).reshape(-1)
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
        # the densities of finite unit vectors are finite: the concurrence only gates them
        obs["concurrence"] = quantum._measures(np.einsum("ki,kj->kij", states, states.conj()))["concurrence"]
    return Trajectory(times, states, obs)


def _operands(l, r0=None, stacked: bool = False) -> tuple[np.ndarray, np.ndarray | None, int]:
    """The generator, or if stacked a stack of them, as finite n² x n² matrices; r0, if given, as an n² vector; and n."""
    gen = _as_square(l, "generator", stacked=stacked)
    n = quantum._matrix_side(gen.shape[-1], "generator")
    if r0 is None:
        return gen, None, n
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
    NonFiniteError, as a scaled generator block or P that holds inf or NaN
    does. diagnostics records the route and the propagated sectors, each
    as its sorted list of Liouville indices; for a non-Hermitian r0 they
    include the S images of the sectors it touches.

    l may also be a (k, n², n²) stack of generators that share r0 and the
    grid. Each is checked for trace and Hermiticity, and the first to fail
    names the error. The sectors come from the union of the members'
    patterns, a partition at least as coarse as each member's own, so
    still invariant for every member; the k step exponentials are one
    stacked expm, the doubling runs on (k, N, m) rows, and one pass gates
    and measures the (k N, n, n) stack. The states
    come out as (k, N, n, n) and every observable as (k, N); member j
    gets the bits of a call on l[j] alone wherever its own sectors select
    the same propagated indices. A 2-dimensional l gives (N, n, n) and
    (N,). Failures are found stage by stage (generator checks, scaling,
    expm, the trace of P, finiteness, gates), the first failing member
    naming the error within a stage.
    """
    gen, r, n = _operands(l, r0, stacked=True)
    stack = gen[None] if gen.ndim == 2 else gen
    identity = _trace_row(n)
    transpose = _transposition(n)
    mirrored = _checked_mirror(stack, n, trace=True)
    labels = _sector_labels(((stack != 0) | (mirrored != 0)).any(axis=0))
    # how many entries r or S r has in each sector; np.unique would load numpy.ma
    counts = np.bincount(labels[(r != 0) | (r[transpose] != 0)], minlength=labels.size)
    touched = np.flatnonzero(counts)
    idx = np.flatnonzero(counts[labels])
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
    # an overflowing power or state is reported by _require_finite
    with np.errstate(over="ignore", invalid="ignore"):
        step = _hermiticity_preserving(_trace_preserving(step, identity), flip)
        rows = _filled_by_doubling(r[idx], step, times.size, identity)
    sectors = [np.flatnonzero(labels == label).tolist() for label in touched]
    return _density_trajectory(times, rows, idx, n, {"route": "expm", "sectors": sectors})


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


#: the Dormand-Prince 4(5) pair as polynomials in z = hL, coefficients of
#: z¹ … z⁷: row 0 is the increment of the 5th-order solution, the Taylor
#: series of e^z - 1 to z⁵ and z⁶/600; row 1 is the error estimate, its
#: difference to the embedded 4th-order solution, which starts at z⁵.
#: Exact rationals of the tableau (Dormand and Prince 1980); the tests
#: derive both rows from the tableau by the stage recursion.
_DP_POLY = np.array(
    [
        [1.0, 1 / 2, 1 / 6, 1 / 24, 1 / 120, 1 / 600, 0.0],
        [0.0, 0.0, 0.0, 0.0, -97 / 120000, 13 / 40000, -1 / 24000],
    ]
)
_DP_DEGREES = np.arange(1.0, _DP_POLY.shape[1] + 1)
#: cap on z^k in _dp_coefficients: ‖L/s‖_F < 2 makes every entry of (L/s)^k
#: below 2^7, and the pair's coefficients sum to less than 2, so every entry
#: of the step and error matrices stays below 2^1023 at any z
_Z_POWER_CAP = 2.0**1015
#: exponent of the largest power of two below the largest double
_MAX_EXPONENT = int(np.finfo(float).maxexp) - 1

_MAX_STEP_ATTEMPTS = 1_000_000
#: the most equal steps propagate_ode takes from one step matrix
_RUN = 128
#: local error tolerance of propagate_ode, per component: _ATOL + _RTOL * |r|
_RTOL = 1e-10
_ATOL = 1e-12


def _reached(gen: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The sorted Liouville indices that r reaches under gen's nonzero pattern.

    They are r's nonzero entries, closed under "i joins when gen_ij != 0
    for some j already in": the only entries dr/dt = gen r can make
    nonzero. Each pass adds what one product with the pattern reaches,
    until a pass adds nothing. Directed, unlike the sectors of
    _sector_labels, and found apart from them, so the two routes split the
    generator by independent analyses.
    """
    reached = r != 0
    nonzero = gen != 0
    count, previous = np.count_nonzero(reached), 0
    while count > previous:
        reached |= nonzero @ reached
        count, previous = np.count_nonzero(reached), count
    return np.flatnonzero(reached)


def _scaled_powers(gen: np.ndarray, support: np.ndarray) -> tuple[np.ndarray, float]:
    """The stack [(B/s)¹ … (B/s)⁷] of L's block B on the support as one (7m, m) matrix, with s.

    support is m sorted Liouville indices closed under L's nonzero pattern
    (see _reached), so B^k is the block of L^k. s is a power of two near
    the Frobenius norm of the whole L, so dividing by it is exact, the
    powers stay near unit size at any rate scale, and every block scales
    as the whole L would. The norm is taken of _peak_normed(L), as in
    steady_state, so it is finite for any finite L. s is the smallest power
    of two above the norm, or 2¹⁰²³ for a norm at or above 2¹⁰²³; a norm
    beyond the largest double raises NonFiniteError.
    """
    normed, exponent = _peak_normed(gen)
    # a zero L has exponent 0 and frexp(0) gives 0, so s = 1 scales only zero powers
    exponent += math.frexp(np.linalg.norm(normed))[1]
    if exponent > _MAX_EXPONENT + 1:
        raise NonFiniteError("generator norm exceeds the largest double")
    exponent = min(exponent, _MAX_EXPONENT)
    size = support.size
    powers = np.empty((_DP_DEGREES.size, size, size), dtype=complex)
    powers[0] = _ldexp(gen[support[:, None], support], -exponent)
    for k in range(1, _DP_DEGREES.size):
        powers[k] = powers[0] @ powers[k - 1]
    return powers.reshape(_DP_DEGREES.size * size, size), math.ldexp(1.0, exponent)


def _dp_coefficients(z: float) -> np.ndarray:
    """The pair's (2, 7) polynomial coefficients times z¹ … z⁷, for z = h s.

    The powers of z saturate at _Z_POWER_CAP instead of overflowing, so the
    step and error matrices are finite at any z, and a zero column of L
    stays a zero column of both.
    """
    return _DP_POLY * np.minimum(z**_DP_DEGREES, _Z_POWER_CAP)


def _first_step(powers: np.ndarray, y: np.ndarray, size: int, scale: float) -> float:
    """The step whose error estimate from r is about 0.8⁵ of the tolerance, by the pair's leading error term.

    e_1 … e_4 are zero, so at small z = h s the estimate of one step from r
    is about |e_5| z⁵ (L/s)⁵ r, and its error norm |e_5| z⁵ w, w being the
    RMS of (L/s)⁵ r against _ATOL + _RTOL |r| over all `size` entries of r.
    y is r on the support, which holds every nonzero entry of r and of
    (L/s)⁵ r, and the powers are those of L's block there. Python's sum
    adds the squared real and imaginary parts in index order, and an exact
    zero changes no partial sum, so w is the whole state's by construction
    (a BLAS dot may group its terms by the vector's length). The step is
    0.8 z*/s for the z* where that norm is 1: inf for w = 0, 0 where w
    overflows, NaN for a NaN w.
    """
    ratio = (powers[4 * y.size : 5 * y.size] @ y) / (_ATOL + _RTOL * np.abs(y))
    weight = np.sqrt(sum((ratio.view(float) ** 2).tolist()) / size)
    return float(0.8 * (abs(_DP_POLY[1, 4]) * weight) ** -0.2 / scale)


def _dp_run(powers: np.ndarray, y: np.ndarray, z: float, steps: int):
    """Rows r_0 = y, r_1 … r_steps of `steps` equal steps with z = h s, and the error estimate of each step.

    One contraction of the power stack with the pair's coefficients gives
    X = M - I = Σ c_k z^k (L/s)^k and E = Σ e_k z^k (L/s)^k. The increments
    are d_0 = X y and d_(j+1) = M d_j, filled by doubling: once the first
    `filled` are known, the next block is those times (M^block)ᵀ, and M^block
    is then squared while at least four blocks remain to fill, so a run
    takes about log2(steps) products, and a short run is filled step by
    step. A square that is not finite is not taken: the blocks go on at the
    last finite power, so a zero entry of an increment never meets an inf
    of a power. The rows are y plus the running sum of the increments, and
    the estimate of step j is E r_j. No row is multiplied by M, whose
    diagonal 1 + X_ii drops the 1 where |X_ii| is far beyond 2^53, so every
    row equals y bit for bit wherever X y is zero, as it is for a state on
    zero columns of L or one whose L r cancels exactly. For powers of
    L's block on m support entries and y of those entries, gives the
    (steps + 1, m) rows and the (steps, m) estimates.
    """
    size = y.size
    stack = powers.view(float).reshape(_DP_DEGREES.size, 2 * size * size)
    step, error = (_dp_coefficients(z) @ stack).view(complex).reshape(2, size, size)
    rows = np.empty((steps + 1, size), dtype=complex)
    rows[0] = y
    np.dot(step, y, out=rows[1])
    # step is X up to here and M from here on
    step.flat[:: size + 1] += 1.0
    increments = rows[1:]
    power, block, filled = step.T, 1, 1
    while filled < steps:
        take = min(block, steps - filled)
        np.dot(increments[filled - block : filled - block + take], power, out=increments[filled : filled + take])
        filled += take
        # a square pays for itself only where it saves several products
        if filled == 2 * block and steps - filled >= 4 * block:
            square = power @ power
            if np.isfinite(square).all():
                power, block = square, 2 * block
    rows = np.cumsum(rows, axis=0)
    return rows, rows[:-1] @ error.T


def propagate_ode(l, r0, grid: TimeGrid) -> Trajectory:
    """Propagate by adaptive Runge-Kutta integration of dr/dt = L r, r0 being r(t_start).

    Only the support is integrated: r0's nonzero entries closed under L's
    nonzero pattern (_reached), which no step can leave. Every other entry
    of every sample is an exact zero, as it is when the whole state is
    integrated, and every decision follows the whole state's rule: s comes
    from the whole L, and every error norm is the RMS over all n² entries.
    The block's powers may round otherwise than the whole L's, so a step
    near the tolerance may still be judged otherwise. From the Bell state
    under the feedback model the support is 4 of the 16 Liouville indices.
    An embedded Dormand-Prince 4(5) pair holds each step's local error
    estimate within _ATOL + _RTOL * |r| per component: the tolerances bound
    each step, not the trajectory, whose error can grow to the sum of its
    steps' errors. For a constant L each step is a
    polynomial in z = hL applied to r, with the pair's exact rational
    coefficients (_DP_POLY); the powers (B/s)¹ … (B/s)⁷ of L's block B on
    the support are formed once per call. The first step comes from the
    pair's leading error term (_first_step): the h whose first error norm is
    about 0.8⁵, at least the floor and at most the span. A zero (L/s)⁵ r0
    gives the span, where for a nilpotent start the pair's polynomial is
    the exact Taylor series. In floating point a zero does not prove a
    nilpotent start: a state in a slow invariant subspace of a fast L gives
    one too, its slow part lost below the rounding of the powers' fast
    entries, and the span step is then accepted with a zero estimate and is
    wrong. The route advances in runs of up
    to _RUN = 128 equal steps (_dp_run), every step of a run from the run's
    step matrix and its squares, so a run costs about log2(steps) products.
    A run that reaches the next sample in at most _RUN steps of h takes
    steps of (target - t)/steps and lands on it. Every step of a run is
    judged by the per-step error test at once: the run keeps its steps up to
    the first that fails or has a non-finite estimate, which counts as one
    rejected attempt; the steps after it are dropped and not counted. One
    rule sizes the next step: h_run times min(5, max(0.2, 0.9 err^-0.2)) for
    the error norm err of the first failing step, or of the run's last step
    if none fails, so a zero error gives 5x and an inf or NaN one 0.2x; a
    failing run whose next step the floor would hold at h_run or above
    halves h_run instead. Rows are never projected.
    Raises StepUnderflowError if the controller needs a step below 1e-14
    of the grid span, and NoConvergenceError beyond _MAX_STEP_ATTEMPTS
    attempts.
    diagnostics records the route, the accepted and rejected attempts,
    the runs, the smallest accepted step h_min and the support as its
    sorted Liouville indices.
    """
    gen, r, n = _operands(l, r0)
    size = r.size
    support = _reached(gen, r)
    y = r[support]
    times = grid.times
    floor = 1e-14 * grid.span
    samples = np.empty((times.size, support.size), dtype=complex)
    samples[0] = y
    t = float(times[0])
    attempts = accepted = runs = 0
    h_min = grid.span
    # overflow inside a step shows as a non-finite error estimate and rejects
    # it; a zero first error norm raised to -0.2 is inf and gives the span,
    # an overflowing one gives 0 and a NaN one NaN, and Python's
    # max(floor, nan) returns floor
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        powers, scale = _scaled_powers(gen, support)
        h = min(max(floor, _first_step(powers, y, size, scale)), grid.span)
        for sample, target in enumerate(times[1:].tolist(), 1):
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
                rows, errs = _dp_run(powers, y, h_run * scale, steps)
                tol = _ATOL + _RTOL * np.abs(rows)
                ratio = np.abs(errs) / np.maximum(tol[:-1], tol[1:])
                err_norms = np.sqrt(np.einsum("ij,ij->i", ratio, ratio) / size)
                passed = err_norms <= 1.0
                kept = steps if passed.all() else int(np.argmin(passed))
                runs += 1
                attempts += kept + (kept < steps)
                if attempts > _MAX_STEP_ATTEMPTS:
                    raise NoConvergenceError(f"integrator exceeded {_MAX_STEP_ATTEMPTS} step attempts")
                if kept:
                    accepted += kept
                    h_min = min(h_min, h_run)
                    t = t + kept * h_run
                    y = rows[kept]
                # the first failing step, or else the run's last, is the latest
                # measure of the error at h_run: a zero error gives 5x, inf or NaN 0.2x
                factor = min(5.0, max(0.2, 0.9 * err_norms[min(kept, steps - 1)] ** -0.2))
                h = max(h_run * factor, floor)
                if kept < steps and h >= h_run:
                    h = 0.5 * h_run
            t = target
            samples[sample] = y
    # an inf in a run's last row makes its tolerance inf, so the error test
    # alone can accept it: the finish checks every sample for finiteness
    diagnostics = {
        "route": "ode",
        "accepted": accepted,
        "rejected": attempts - accepted,
        "runs": runs,
        "h_min": float(h_min),
        "support": support.tolist(),
    }
    return _density_trajectory(times, samples, support, n, diagnostics)


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
    gen, _, n = _operands(l)
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
