import warnings

import numpy as np
import pytest

import entdyn.evolution
from entdyn.errors import (
    DimensionMismatchError,
    InvalidStateError,
    NoConvergenceError,
    NonFiniteError,
    NonUniqueSteadyStateError,
    NotHermitianError,
    NotPSDError,
    StepUnderflowError,
)
from entdyn.evolution import (
    TimeGrid,
    propagate_expm,
    propagate_ode,
    steady_state,
    unitary_evolve,
)
from entdyn.feedback import (
    FeedbackParams,
    steady_state_closed_form,
    wm_full_generator,
    wm_subspace_generator,
)
from entdyn.generators import (
    HamiltonianParams,
    assemble_liouvillian,
    build_hamiltonian,
    hamiltonian_superop,
    lindblad_dissipator_superop,
    phenomenological_superop,
)
from entdyn.linalg import expm, hermitian_eig
from entdyn.quantum import PAULI_Z, bell_state, density_from_pure, restrict_23, vectorize
from helpers import dp_step, random_density, random_hermitian, random_pure


def central_dephasing_generator(rate=1.0):
    rates = np.zeros((4, 4))
    rates[1, 2] = rates[2, 1] = rate
    return assemble_liouvillian(None, [phenomenological_superop(rates)])


def bell_vector():
    return vectorize(density_from_pure(bell_state()))


class TestTimeGrid:
    def test_times_are_uniform_and_inclusive(self):
        grid = TimeGrid(0.0, 2.0, 5)
        assert np.allclose(grid.times, [0.0, 0.5, 1.0, 1.5, 2.0], atol=1e-15)
        assert grid.span == 2.0

    def test_rejects_reversed_interval(self):
        with pytest.raises(ValueError):
            TimeGrid(1.0, 0.0, 10)

    def test_reversed_interval_names_both_ends(self):
        # without this check the negative span fails later as a subnormal step
        with pytest.raises(ValueError, match=r"^t_end 0.5 must exceed t_start 1.0$"):
            TimeGrid(1.0, 0.5, 3)

    def test_rejects_single_sample(self):
        # inf and nan get the grid's own message, not int()'s OverflowError or ValueError
        for n_samples in (1, float("inf"), float("nan")):
            with pytest.raises(ValueError, match=f"^n_samples must be an integer >= 2, got {n_samples}$"):
                TimeGrid(0.0, 1.0, n_samples)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, np.inf, 10)

    @pytest.mark.parametrize("t_end, n_samples", [(5e-324, 4), (1e-320, 5), (2e-308, 3), (1e-300, 10**9)])
    def test_rejects_a_subnormal_step(self, t_end, n_samples):
        # np.linspace rounds subnormal times, so such a grid repeats sample times
        step = t_end / (n_samples - 1)
        with pytest.raises(ValueError, match=f"^time step {step:.3g} "):
            TimeGrid(0.0, t_end, n_samples)

    def test_smallest_normal_step_is_kept(self):
        tiny = np.finfo(float).tiny
        grid = TimeGrid(0.0, 2 * tiny, 3)
        assert grid.step == tiny
        assert np.unique(grid.times).size == 3


class TestUnitaryEvolve:
    def test_pair_state_oscillation(self):
        h = build_hamiltonian(HamiltonianParams(1.0, 1.0, 0.5))
        grid = TimeGrid(0.0, np.pi, 201)
        traj = unitary_evolve(h, np.array([0, 1, 0, 0], dtype=complex), grid)
        expected = np.abs(np.sin(2.0 * grid.times))
        assert np.max(np.abs(traj.observables["concurrence"] - expected)) <= 1e-9
        assert np.max(np.abs(traj.observables["norm"] - 1.0)) <= 1e-9

    def test_quarter_and_half_period_values(self):
        h = build_hamiltonian(HamiltonianParams(1.0, 1.0, 0.5))
        grid = TimeGrid(0.0, np.pi / 2, 3)
        traj = unitary_evolve(h, np.array([0, 1, 0, 0], dtype=complex), grid)
        assert abs(traj.observables["concurrence"][1] - 1.0) <= 1e-10
        assert traj.observables["concurrence"][2] <= 1e-10

    def test_sign_conventions_agree_on_concurrence(self):
        h = build_hamiltonian(HamiltonianParams(0.7, 0.7, 0.3))
        grid = TimeGrid(0.0, 4.0, 41)
        v0 = np.array([0, 1, 0, 0], dtype=complex)
        plus = unitary_evolve(h, v0, grid, sign=+1)
        minus = unitary_evolve(h, v0, grid, sign=-1)
        gap = np.max(np.abs(plus.observables["concurrence"] - minus.observables["concurrence"]))
        assert gap <= 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            unitary_evolve(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([1, 0]), TimeGrid(0, 1, 3))

    def test_rejects_bad_sign(self):
        h = np.zeros((2, 2))
        with pytest.raises(ValueError):
            unitary_evolve(h, np.array([1, 0]), TimeGrid(0, 1, 3), sign=2)

    def test_rejects_unnormalized_state(self):
        with pytest.raises(InvalidStateError):
            unitary_evolve(np.zeros((2, 2)), np.array([1, 1]), TimeGrid(0, 1, 3))

    def test_rejects_state_of_another_length(self):
        with pytest.raises(DimensionMismatchError, match="^state length 3 does not match Hamiltonian size 2$"):
            unitary_evolve(np.zeros((2, 2)), np.array([1, 0, 0]), TimeGrid(0, 1, 3))

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_matches_per_sample_exponentials(self, sign):
        rng = np.random.default_rng(41)
        h = random_hermitian(rng, 4)
        v0 = random_pure(rng, 4)
        grid = TimeGrid(-1.5, 6.0, 401)
        traj = unitary_evolve(h, v0, grid, sign=sign)
        reference = np.array([expm(sign * 1j * (t - grid.t_start) * h) @ v0 for t in grid.times])
        assert np.max(np.abs(traj.states - reference)) <= 1e-12


class TestPropagateExpm:
    def test_central_dephasing_decay(self):
        grid = TimeGrid(0.0, 5.0, 101)
        traj = propagate_expm(central_dephasing_generator(), bell_vector(), grid)
        conc = traj.observables["concurrence"]
        assert np.max(np.abs(conc - np.exp(-grid.times))) <= 1e-12
        assert abs(conc[20] - 0.367879441) <= 1e-9
        purity = traj.observables["purity"]
        assert np.max(np.abs(purity - 0.5 * (1 + np.exp(-2 * grid.times)))) <= 1e-12
        for state in traj.states:
            assert abs(np.trace(state) - 1.0) <= 1e-9

    def test_concurrence_monotone_under_dephasing(self):
        grid = TimeGrid(0.0, 5.0, 101)
        traj = propagate_expm(central_dephasing_generator(), bell_vector(), grid)
        assert np.all(np.diff(traj.observables["concurrence"]) <= 1e-12)

    def test_zero_generator_is_constant(self):
        grid = TimeGrid(0.0, 3.0, 7)
        traj = propagate_expm(np.zeros((16, 16)), bell_vector(), grid)
        for state in traj.states:
            assert np.max(np.abs(state - traj.states[0])) <= 1e-15

    def test_semigroup_property(self):
        for gen in (
            central_dephasing_generator(),
            wm_full_generator(FeedbackParams(m=1.0, f=1.0, gamma=1.0)),
        ):
            joint = expm(gen * 2.7)
            split = expm(gen * 1.6) @ expm(gen * 1.1)
            assert np.max(np.abs(joint - split)) <= 1e-9

    def test_rejects_mismatched_state(self):
        with pytest.raises(DimensionMismatchError):
            propagate_expm(np.zeros((16, 16)), np.zeros(4), TimeGrid(0, 1, 3))

    @pytest.mark.parametrize("t_start", [0.0, 2.5])
    @pytest.mark.parametrize(
        "gen",
        [
            wm_full_generator(FeedbackParams(m=3.0, f=0.7, mu=0.5, gamma=1.0, y=0.3)),
            central_dephasing_generator(1.3),
        ],
        ids=["feedback", "dephasing"],
    )
    def test_matches_per_sample_exponentials(self, gen, t_start):
        grid = TimeGrid(t_start, t_start + 10.0, 2001)
        r0 = bell_vector()
        traj = propagate_expm(gen, r0, grid)
        reference = np.array([expm(gen * (t - grid.t_start)) @ r0 for t in grid.times])
        assert np.max(np.abs(traj.states.reshape(grid.n_samples, -1) - reference)) <= 1e-12

    @pytest.mark.parametrize("samples", [2, 3, 4, 5, 17, 201, 2001])
    def test_one_exponential_per_grid(self, samples, monkeypatch):
        calls = []

        def counting_expm(m):
            calls.append(m)
            return expm(m)

        monkeypatch.setattr(entdyn.evolution, "expm", counting_expm)
        gen = wm_full_generator(FeedbackParams(m=1.0, f=1.0, gamma=1.0))
        propagate_expm(gen, bell_vector(), TimeGrid(0.0, 5.0, samples))
        assert len(calls) == 1

    @pytest.mark.parametrize("samples", [2, 3, 4, 5, 17, 2001])
    def test_doubling_matches_stepwise_and_exponentials(self, samples):
        # lengths around powers of two exercise a last round that fills
        # fewer samples than are known
        gen = wm_full_generator(FeedbackParams(m=3.0, f=0.7, mu=0.5, gamma=1.0, y=0.3))
        grid = TimeGrid(0.5, 8.0, samples)
        r0 = bell_vector()
        states = propagate_expm(gen, r0, grid).states.reshape(samples, -1)
        step = expm(gen * (grid.span / (samples - 1)))
        stepwise = [r0]
        for _ in range(samples - 1):
            stepwise.append(step @ stepwise[-1])
        assert np.max(np.abs(states - np.array(stepwise))) <= 1e-12
        reference = np.array([expm(gen * (t - grid.t_start)) @ r0 for t in grid.times])
        assert np.max(np.abs(states - reference)) <= 1e-12

    def test_non_hermitian_start_takes_the_hermiticity_projection(self, monkeypatch):
        # vec(|0><2|) touches sector [2] and its transpose sector [6], so both
        # are propagated, closed under S, and (P + S conj(P) S)/2 applies
        flips = []
        projection = entdyn.evolution._hermiticity_preserving
        monkeypatch.setattr(
            entdyn.evolution, "_hermiticity_preserving", lambda p, flip: flips.append(flip) or projection(p, flip)
        )
        jump = np.zeros((3, 3))
        jump[0, 1] = np.sqrt(0.3)
        gen = hamiltonian_superop(np.diag([0.0, 1.0, 2.5])) + lindblad_dissipator_superop(jump)
        coherence = np.zeros((3, 3), dtype=complex)
        coherence[0, 2] = 1.0
        r0 = vectorize(coherence)
        grid = TimeGrid(0.5, 4.0, 201)
        traj = propagate_expm(gen, r0, grid)
        assert [flip.tolist() for flip in flips] == [[1, 0]]
        assert traj.diagnostics["sectors"] == [[2], [6]]
        states = traj.states.reshape(grid.n_samples, -1)
        assert np.all(states[:, 6] == 0)
        reference = np.array([expm(gen * (t - grid.t_start)) @ r0 for t in grid.times])
        assert np.max(np.abs(states - reference)) <= 1e-12

    def test_sectors_stay_closed_under_transposition_for_an_inexact_generator(self):
        # a coupling of 1e-14 from index 1 into 2 whose mirror, 3 into 6, is an
        # exact zero passes the Hermiticity check; linking by L's pattern alone
        # would propagate [1, 2] and [6] and pair index 1 with 6 instead of 3
        jump = np.zeros((3, 3))
        jump[0, 1] = np.sqrt(0.3)
        gen = hamiltonian_superop(np.diag([0.0, 1.0, 2.5])) + lindblad_dissipator_superop(jump)
        gen[2, 1] += 1e-14
        coherence = np.zeros((3, 3), dtype=complex)
        coherence[0, 2] = 1.0
        r0 = vectorize(coherence)
        grid = TimeGrid(0.5, 4.0, 201)
        traj = propagate_expm(gen, r0, grid)
        assert traj.diagnostics["sectors"] == [[1, 2], [3, 6]]
        reference = np.array([expm(gen * (t - grid.t_start)) @ r0 for t in grid.times])
        assert np.max(np.abs(traj.states.reshape(grid.n_samples, -1) - reference)) <= 1e-12

    def test_stiff_generator_keeps_trace(self):
        # without the projection, expm of a generator with rates 1e8 loses up
        # to 3e-10 of trace per step, 5.8e-8 over these 200 steps
        gen = wm_full_generator(FeedbackParams(m=1e8, f=1e8, gamma=1e-8))
        traj = propagate_expm(gen, bell_vector(), TimeGrid(0.0, 10.0, 201))
        traces = np.trace(traj.states, axis1=1, axis2=2)
        assert np.max(np.abs(traces - 1.0)) <= 1e-14

    def test_rejects_generator_that_loses_trace(self):
        # the trace projection is exact only for a trace-preserving generator
        with pytest.raises(ValueError, match="does not preserve the trace"):
            propagate_expm(-0.5 * np.eye(16), bell_vector(), TimeGrid(0.0, 1.0, 3))

    def test_rejects_generator_that_breaks_hermiticity(self):
        # -i[H, rho] with a non-Hermitian H keeps the trace but not Hermiticity;
        # the Hermiticity projection would silently change its propagation
        h = np.array([[0.0, 1.0], [0.0, 0.0]])
        gen = -1j * (np.kron(h, np.eye(2)) - np.kron(np.eye(2), h.T))
        with pytest.raises(ValueError, match="does not preserve Hermiticity"):
            propagate_expm(gen, vectorize(np.eye(2) / 2), TimeGrid(0.0, 1.0, 3))

    def test_overflowing_generator_scale_raises(self):
        gen = wm_full_generator(FeedbackParams(m=1.0, f=1.0, gamma=1.0))
        with pytest.raises(NonFiniteError):
            propagate_expm(gen, bell_vector(), TimeGrid(0.0, 1e308, 2))

    def test_overflowing_generator_scale_names_the_step(self):
        # without this check expm would refuse the block as "matrix contains non-finite entries"
        gen = wm_full_generator(FeedbackParams(m=1.0, f=1.0, gamma=1.0))
        with pytest.raises(NonFiniteError, match=r"^generator scaled by t = 1e\+308 is not finite$"):
            propagate_expm(gen, bell_vector(), TimeGrid(0.0, 1e308, 2))

    def test_non_finite_states_raise(self):
        gen = wm_full_generator(FeedbackParams(m=1.0, f=1.0, gamma=1.0))
        with pytest.raises(NonFiniteError):
            propagate_expm(gen, bell_vector(), TimeGrid(0.0, 1e300, 3))

    def test_overflowing_sample_names_its_time(self):
        # the excited population e^t / 2 passes the largest double at t = 710.5
        with pytest.raises(NonFiniteError, match=r"^propagated state at t = 711 is not finite$"):
            propagate_expm(anti_damping_generator(), vectorize(np.eye(2) / 2), TimeGrid(0.0, 1000.0, 1001))

    def test_gate_raises_before_a_measure_overflows(self):
        # the Bloch norm would square populations near e^370 / 2 = 1e160
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotPSDError):
                propagate_expm(anti_damping_generator(), vectorize(np.eye(2) / 2), TimeGrid(0.0, 370.0, 371))

    @pytest.mark.parametrize("y", [1e12, 1e16, 1e20])
    def test_step_that_loses_the_trace_is_refused(self, y):
        # the trace projection would spread the step's error over every sample
        r0 = vectorize(restrict_23(density_from_pure(bell_state())))
        message = r"^step exponential at dt = 0\.1 loses the trace: max \|e - e P\| = \S+ exceeds 1\.0e-08$"
        with pytest.raises(NonFiniteError, match=message):
            propagate_expm(nogo_generators([y])[0], r0, TimeGrid(0.0, 20.0, 201))

    def test_first_member_whose_step_loses_the_trace_names_it(self):
        r0 = vectorize(restrict_23(density_from_pure(bell_state())))
        grid = TimeGrid(0.0, 20.0, 201)
        gens = nogo_generators([0.5, 1e16, 1e12])
        singles = []
        for gen in gens[1:]:
            with pytest.raises(NonFiniteError) as single:
                propagate_expm(gen, r0, grid)
            singles.append(str(single.value))
        assert singles[0] != singles[1]
        with pytest.raises(NonFiniteError) as batch:
            propagate_expm(gens, r0, grid)
        assert str(batch.value) == singles[0]


def nogo_generators(ys, gamma=1.0) -> np.ndarray:
    """The fig-nogo generators: the one-excitation block with coherent coupling y and no feedback."""
    return np.array([wm_subspace_generator(FeedbackParams(m=0.0, f=0.0, gamma=gamma, y=y)) for y in ys])


def anti_damping_generator() -> np.ndarray:
    """Amplitude damping of a qubit run backwards: from I/2 the excited population is e^t / 2, negative ground population after t = ln 2."""
    return -lindblad_dissipator_superop(np.array([[0.0, 1.0], [0.0, 0.0]]))


def assert_batch_is_single_calls(gens, r0, grid):
    """propagate_expm on the stack gives every member's single call bit for bit, in states and every observable.

    Returns the batch's trajectory.
    """
    batch = propagate_expm(gens, r0, grid)
    n = int(np.sqrt(gens.shape[-1]))
    assert batch.states.shape == (len(gens), grid.n_samples, n, n)
    for k, gen in enumerate(gens):
        single = propagate_expm(gen, r0, grid)
        assert single.states.shape == (grid.n_samples, n, n)
        assert np.array_equal(batch.states[k], single.states)
        assert batch.observables.keys() == single.observables.keys()
        for name, values in single.observables.items():
            assert batch.observables[name].shape == (len(gens), grid.n_samples)
            assert np.array_equal(batch.observables[name][k], values), name
    assert np.array_equal(batch.times, grid.times)
    return batch


class TestGeneratorBatches:
    def test_nogo_stack_matches_single_calls(self):
        r0 = vectorize(restrict_23(density_from_pure(bell_state())))
        gens = nogo_generators([0.5, 1.0, 5.0])
        grid = TimeGrid(0.0, 20.0, 201)
        batch = assert_batch_is_single_calls(gens, r0, grid)
        assert batch.diagnostics == propagate_expm(gens[0], r0, grid).diagnostics

    def test_stiff_nogo_stack_matches_single_calls(self):
        r0 = vectorize(restrict_23(density_from_pure(bell_state())))
        gens = nogo_generators([-2.72e8, -9.43e7, 3.0], gamma=0.007)
        assert_batch_is_single_calls(gens, r0, TimeGrid(0.5, 10.5, 2001))

    def test_feedback_stack_with_different_sector_patterns_matches_single_calls(self):
        # without feedback the Bell state's four indices are four sectors of
        # one each, with it they are one parity sector; the batch takes the
        # coarser union, which still selects the same four indices
        plain = wm_full_generator(FeedbackParams(m=0.0, f=0.0, gamma=1.0))
        loop = wm_full_generator(FeedbackParams(m=3.0, f=0.7, mu=0.5, gamma=1.0, y=0.3))
        sectors = [propagate_expm(gen, bell_vector(), TimeGrid(0.0, 1.0, 3)).diagnostics["sectors"] for gen in (plain, loop)]
        assert sectors == [[[5], [6], [9], [10]], [[5, 6, 9, 10]]]
        batch = assert_batch_is_single_calls(np.array([plain, loop]), bell_vector(), TimeGrid(0.0, 10.0, 2001))
        assert batch.diagnostics["sectors"] == [[5, 6, 9, 10]]

    def test_coarser_union_of_sectors_keeps_every_member_exact(self):
        # from vec(|00><00|) the plain generator propagates index 0 alone,
        # the batch the parity sector {0, 3, 12, 15} of the feedback loop,
        # which neither the first nor the last member's pattern gives
        plain = wm_full_generator(FeedbackParams(m=0.0, f=0.0, gamma=1.0, y=0.4))
        loop = wm_full_generator(FeedbackParams(m=3.0, f=0.7, mu=0.5, gamma=1.0, y=0.3))
        r0 = vectorize(np.diag([1.0, 0.0, 0.0, 0.0]))
        grid = TimeGrid(0.0, 4.0, 201)
        batch = propagate_expm(np.array([plain, loop, plain]), r0, grid)
        assert batch.diagnostics["sectors"] == [[0, 3, 12, 15]]
        for k, gen in enumerate((plain, loop, plain)):
            reference = np.array([expm(gen * (t - grid.t_start)) @ r0 for t in grid.times])
            assert np.max(np.abs(batch.states[k].reshape(grid.n_samples, -1) - reference)) <= 1e-12

    def test_one_exponential_per_batch(self, monkeypatch):
        shapes = []

        def recording_expm(m):
            shapes.append(m.shape)
            return expm(m)

        monkeypatch.setattr(entdyn.evolution, "expm", recording_expm)
        propagate_expm(nogo_generators([0.5, 1.0, 5.0, 7.0]), vectorize(np.eye(2) / 2), TimeGrid(0.0, 5.0, 11))
        assert shapes == [(4, 4, 4)]

    @pytest.mark.parametrize(
        "member, mixed, failure",
        [
            (nogo_generators([1e308])[0], False, NonFiniteError),
            (nogo_generators([1e300])[0], False, NonFiniteError),
            (anti_damping_generator(), True, NotPSDError),
        ],
        ids=["scaling", "expm", "gate"],
    )
    def test_failing_member_raises_its_single_call_error(self, member, mixed, failure):
        # member 2 fails alone in its scaled generator, its exponential or
        # the positivity gate of its samples; the others pass alone
        r0 = vectorize(np.eye(2) / 2 if mixed else restrict_23(density_from_pure(bell_state())))
        grid = TimeGrid(0.0, 20.0, 11)
        gens = nogo_generators([0.5, 1.0, 1.0, 2.0])
        gens[2] = member
        for k in (0, 1, 3):
            propagate_expm(gens[k], r0, grid)
        with pytest.raises(failure) as single:
            propagate_expm(gens[2], r0, grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(failure) as batch:
                propagate_expm(gens, r0, grid)
        assert str(batch.value) == str(single.value)

    @pytest.mark.parametrize(
        "broken, first, message",
        [({1: "trace", 2: "trace"}, 1, "the trace"), ({0: "Hermiticity", 2: "trace"}, 0, "Hermiticity")],
        ids=["two-traces", "hermiticity-before-trace"],
    )
    def test_first_member_that_breaks_a_check_names_it(self, broken, first, message):
        gens = nogo_generators([0.5, 1.0, 5.0])
        for k, check in broken.items():
            # a trace leak, or a coupling whose mirror is missing, scaled by k
            if check == "trace":
                gens[k] -= 0.25 * (k + 1) * np.eye(4)
            else:
                gens[k, 1, 2] += 0.5 * (k + 1)
        grid = TimeGrid(0.0, 1.0, 3)
        with pytest.raises(ValueError) as single:
            propagate_expm(gens[first], vectorize(np.eye(2) / 2), grid)
        with pytest.raises(ValueError) as batch:
            propagate_expm(gens, vectorize(np.eye(2) / 2), grid)
        assert f"does not preserve {message}" in str(single.value)
        assert str(batch.value) == str(single.value)

    def test_rejects_a_stack_of_stacks(self):
        with pytest.raises(DimensionMismatchError):
            propagate_expm(np.zeros((2, 2, 4, 4)), vectorize(np.eye(2) / 2), TimeGrid(0.0, 1.0, 3))


def full_route(monkeypatch):
    """Make propagate_expm treat every generator as one sector, as a 16x16 reference."""
    monkeypatch.setattr(entdyn.evolution, "_sector_labels", lambda gen: np.zeros(gen.shape[0], dtype=int))


class TestSectors:
    @pytest.mark.parametrize("params", [dict(m=1.0, f=1.0, gamma=1.0), dict(m=2.0, f=0.5, mu=0.3, gamma=0.4, y=0.7)])
    def test_feedback_generator_splits_by_parity(self, params):
        labels = entdyn.evolution._sector_labels(wm_full_generator(FeedbackParams(**params)))
        sectors = sorted(np.flatnonzero(labels == label).tolist() for label in np.unique(labels))
        assert sectors == [[0, 3, 12, 15], [1, 2, 13, 14], [4, 7, 8, 11], [5, 6, 9, 10]]

    def test_coupled_indices_share_a_sector(self):
        rng = np.random.default_rng(71)
        for _ in range(50):
            gen = np.where(rng.uniform(size=(16, 16)) < 0.08, 1.0, 0.0)
            labels = entdyn.evolution._sector_labels(gen)
            rows, cols = np.nonzero(gen)
            assert np.array_equal(labels[rows], labels[cols])
            for label in np.unique(labels):
                # the label is the smallest index of a connected set
                members = np.flatnonzero(labels == label)
                assert label == members[0]
                reached = {members[0]}
                for _ in range(16):
                    reached |= {j for i in reached for j in np.flatnonzero(gen[i] + gen[:, i])}
                assert reached == set(members.tolist())

    @pytest.mark.parametrize("y", [0.0, 0.7])
    def test_sector_route_matches_full_route(self, y, monkeypatch):
        gen = wm_full_generator(FeedbackParams(m=3.0, f=0.7, mu=0.5, gamma=1.0, y=y))
        grid = TimeGrid(0.5, 10.0, 2001)
        sector = propagate_expm(gen, bell_vector(), grid)
        full_route(monkeypatch)
        full = propagate_expm(gen, bell_vector(), grid)
        assert np.max(np.abs(sector.states - full.states)) <= 1e-15
        outside = np.ones(16, dtype=bool)
        outside[[5, 6, 9, 10]] = False
        assert not sector.states.reshape(grid.n_samples, 16)[:, outside].any()

    def test_mixed_start_propagates_every_touched_sector(self, monkeypatch):
        rng = np.random.default_rng(72)
        gen = wm_full_generator(FeedbackParams(m=3.0, f=0.7, mu=0.5, gamma=1.0, y=0.3))
        r0 = vectorize(random_density(rng, 4))
        grid = TimeGrid(0.0, 4.0, 201)
        sector = propagate_expm(gen, r0, grid)
        assert len(sector.diagnostics["sectors"]) == 4
        full_route(monkeypatch)
        assert np.max(np.abs(sector.states - propagate_expm(gen, r0, grid).states)) <= 1e-15

    def test_exponentiates_only_the_touched_sector(self, monkeypatch):
        shapes = []

        def recording_expm(m):
            shapes.append(m.shape)
            return expm(m)

        monkeypatch.setattr(entdyn.evolution, "expm", recording_expm)
        gen = wm_full_generator(FeedbackParams(m=1.0, f=1.0, gamma=1.0, y=0.3))
        propagate_expm(gen, bell_vector(), TimeGrid(0.0, 5.0, 11))
        assert shapes == [(4, 4)]


class TestPropagateOde:
    def test_matches_expm_on_dephasing(self):
        grid = TimeGrid(0.0, 5.0, 21)
        gen = central_dephasing_generator()
        r0 = bell_vector()
        a = propagate_expm(gen, r0, grid)
        b = propagate_ode(gen, r0, grid)
        assert np.max(np.abs(a.states - b.states)) <= 1e-8

    def test_matches_expm_on_feedback_loop(self):
        grid = TimeGrid(0.0, 10.0, 21)
        gen = wm_full_generator(FeedbackParams(m=1.0, f=1.0, mu=0.5, gamma=1.0))
        r0 = bell_vector()
        a = propagate_expm(gen, r0, grid)
        b = propagate_ode(gen, r0, grid)
        assert np.max(np.abs(a.states - b.states)) <= 1e-8

    def test_zero_generator_is_constant(self):
        grid = TimeGrid(0.0, 3.0, 7)
        traj = propagate_ode(np.zeros((16, 16)), bell_vector(), grid)
        for state in traj.states:
            assert np.max(np.abs(state - traj.states[0])) <= 1e-12

    def test_state_in_kernel_of_fast_generator_is_constant(self):
        # dephasing leaves populations alone, so L r = 0 exactly however large the rate
        r0 = vectorize(np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex))
        traj = propagate_ode(central_dephasing_generator(1e100), r0, TimeGrid(0.0, 1.0, 3))
        assert np.array_equal(traj.states[-1], traj.states[0])

    def test_state_in_kernel_of_overflowing_step_matrix_is_constant(self):
        # z = h s beyond 5e307 makes the step matrix's sum overflow, so each run is one step from the block
        gen = np.zeros((4, 4))
        gen[0, 0] = 0.99 * 2.0**1000
        r0 = vectorize(np.diag([0.0, 1.0]).astype(complex))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = propagate_ode(gen, r0, TimeGrid(0.0, 1e9, 3))
        assert np.array_equal(traj.states, np.broadcast_to(traj.states[0], traj.states.shape))
        assert traj.diagnostics["runs"] == traj.diagnostics["accepted"]

    def test_stiff_feedback_completes(self):
        params = FeedbackParams(m=100.0, f=100.0, gamma=1.0)
        gen = wm_subspace_generator(params)
        r0 = vectorize(restrict_23(density_from_pure(bell_state())))
        traj = propagate_ode(gen, r0, TimeGrid(0.0, 10.0, 21))
        assert abs(traj.observables["concurrence"][-1] - 200.0 / 201.0) <= 1e-6

    def test_step_underflow_on_impossible_tolerances(self, monkeypatch):
        monkeypatch.setattr(entdyn.evolution, "_RTOL", 1e-300)
        monkeypatch.setattr(entdyn.evolution, "_ATOL", 1e-300)
        gen = wm_subspace_generator(FeedbackParams(m=100.0, f=100.0, gamma=1.0))
        r0 = vectorize(restrict_23(density_from_pure(bell_state())))
        with pytest.raises(StepUnderflowError):
            propagate_ode(gen, r0, TimeGrid(0.0, 1.0, 3))

    def test_makes_no_exponential(self, monkeypatch):
        # the ODE route is the independent check of the expm route: it neither
        # exponentiates nor fills nor projects, so a drift of the trace or of
        # Hermiticity reaches its states
        def refuse(*args):
            raise AssertionError("propagate_ode ran the expm route's machinery")

        for name in ("expm", "_filled_by_doubling", "_trace_preserving", "_hermiticity_preserving"):
            monkeypatch.setattr(entdyn.evolution, name, refuse)
        gen = wm_full_generator(FeedbackParams(m=1.0, f=1.0, mu=0.5, gamma=1.0, y=0.3))
        propagate_ode(gen, bell_vector(), TimeGrid(0.0, 2.0, 3))
        # L - δI loses the trace as e^(-δt); L + iδI turns it, and ρ, off Hermitian
        for shift in (-1e-9, 1e-9j):
            traj = propagate_ode(gen + shift * np.eye(16), bell_vector(), TimeGrid(0.0, 2.0, 3))
            assert abs(np.trace(traj.states[-1]) - np.exp(2.0 * shift)) <= 1e-13, shift

    def test_matches_expm_on_random_feedback_loops(self):
        rng = np.random.default_rng(2026)
        grid = TimeGrid(0.0, 2.0, 3)
        r0 = bell_vector()
        for _ in range(40):
            m, f, gamma = 10.0 ** rng.uniform(-1.0, 2.0, size=3)
            mu, y = rng.uniform(-5.0, 5.0, size=2)
            gen = wm_full_generator(FeedbackParams(m=m, f=f, mu=mu, gamma=gamma, y=y))
            a = propagate_expm(gen, r0, grid)
            b = propagate_ode(gen, r0, grid)
            assert np.max(np.abs(a.states - b.states)) <= 1e-8, (m, f, mu, gamma, y)

    def test_non_finite_error_estimate_rejects_the_step(self):
        # z = hL overflows in every trial step until the step reaches the floor
        gen = np.zeros((4, 4))
        gen[1, 1] = -1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StepUnderflowError):
                propagate_ode(gen, [1.0, 1e-200, 0.0, 0.0], TimeGrid(0.0, 1.0, 3))

    def test_peak_beyond_largest_power_of_two_gives_the_right_state(self):
        # dephasing at 5e307 leaves populations alone; they decay at 1e300
        lower = np.array([[0, 1], [0, 0]], dtype=complex)
        gen = lindblad_dissipator_superop(np.sqrt(5e307) * PAULI_Z) + lindblad_dissipator_superop(1e150 * lower)
        assert np.max(np.abs(gen)) >= 2.0**1023
        r0 = vectorize(np.diag([0.0, 1.0]).astype(complex))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = propagate_ode(gen, r0, TimeGrid(0.0, 1e-300, 3))
        assert np.max(np.abs(traj.states[:, 1, 1] - np.exp([0.0, -0.5, -1.0]))) <= 1e-8

    def test_norm_beyond_largest_double_raises(self):
        gen = wm_subspace_generator(FeedbackParams(m=1.0, f=1.0, gamma=1.0))
        gen = gen * (1.7e308 / np.max(np.abs(gen)))
        r0 = vectorize(restrict_23(density_from_pure(bell_state())))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError):
                propagate_ode(gen, r0, TimeGrid(0.0, 1e-300, 3))

    def test_extreme_generator_scale_matches_unscaled_run(self):
        # unscaled, the seventh power of this generator would overflow
        gen = wm_full_generator(FeedbackParams(m=1.0, f=1.0, mu=0.5, gamma=1.0, y=0.3))
        a = propagate_ode(gen, bell_vector(), TimeGrid(0.0, 2.0, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            b = propagate_ode(1e150 * gen, bell_vector(), TimeGrid(0.0, 2e-150, 3))
        assert np.max(np.abs(a.states - b.states)) <= 1e-10

    def test_subnormal_rates_keep_the_state(self):
        # numpy's complex division by the subnormal scale overflowed here
        gen = wm_subspace_generator(FeedbackParams(m=1e-320, f=1e-320, gamma=1e-320))
        r0 = vectorize(restrict_23(density_from_pure(bell_state())))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = propagate_ode(gen, r0, TimeGrid(0.0, 1.0, 3))
        assert np.max(np.abs(traj.states - r0.reshape(2, 2))) <= 1e-300


class TestTimeOrigin:
    """Every propagator takes r0 as the state at grid.t_start, so the routes agree on any grid."""

    @pytest.mark.parametrize("t_start", [-1.5, 0.0, 2.5])
    @pytest.mark.parametrize(
        "gen",
        [
            wm_full_generator(FeedbackParams(m=1.0, f=1.0, mu=0.5, gamma=1.0, y=0.3)),
            central_dephasing_generator(1.3),
        ],
        ids=["feedback", "dephasing"],
    )
    def test_expm_and_ode_routes_agree(self, gen, t_start):
        grid = TimeGrid(t_start, t_start + 2.0, 5)
        a = propagate_expm(gen, bell_vector(), grid)
        b = propagate_ode(gen, bell_vector(), grid)
        assert np.max(np.abs(a.states - b.states)) <= 1e-8
        assert np.array_equal(a.states[0], b.states[0])

    @pytest.mark.parametrize("t_start", [-1.5, 0.0, 2.5])
    @pytest.mark.parametrize("sign", [+1, -1])
    def test_unitary_and_expm_routes_agree(self, sign, t_start):
        rng = np.random.default_rng(43)
        h = random_hermitian(rng, 4)
        v0 = random_pure(rng, 4)
        grid = TimeGrid(t_start, t_start + 4.0, 41)
        pure = unitary_evolve(h, v0, grid, sign=sign).states
        densities = np.einsum("ki,kj->kij", pure, pure.conj())
        mixed = propagate_expm(hamiltonian_superop(-sign * h), vectorize(density_from_pure(v0)), grid)
        assert np.max(np.abs(densities - mixed.states)) <= 1e-10


class TestOdeDiagnostics:
    grid = TimeGrid(0.0, 10.0, 21)

    def stiff_run(self):
        gen = wm_subspace_generator(FeedbackParams(m=100.0, f=100.0, gamma=1.0))
        r0 = vectorize(restrict_23(density_from_pure(bell_state())))
        return gen, r0, propagate_ode(gen, r0, self.grid)

    def test_records_route_and_step_counts(self):
        _, _, traj = self.stiff_run()
        diag = traj.diagnostics
        assert diag["route"] == "ode"
        assert diag["rejected"] > 0
        assert diag["accepted"] >= self.grid.n_samples - 1
        assert 1e-14 * self.grid.span <= diag["h_min"] <= self.grid.span / (self.grid.n_samples - 1)

    def test_accepted_and_rejected_are_all_attempts(self, monkeypatch):
        gen, r0, traj = self.stiff_run()
        attempts = traj.diagnostics["accepted"] + traj.diagnostics["rejected"]
        monkeypatch.setattr(entdyn.evolution, "_MAX_STEP_ATTEMPTS", attempts)
        propagate_ode(gen, r0, self.grid)
        monkeypatch.setattr(entdyn.evolution, "_MAX_STEP_ATTEMPTS", attempts - 1)
        with pytest.raises(NoConvergenceError):
            propagate_ode(gen, r0, self.grid)

    def test_runs_are_far_fewer_than_attempts(self):
        _, _, traj = self.stiff_run()
        diag = traj.diagnostics
        assert 0 < diag["runs"] < (diag["accepted"] + diag["rejected"]) / 10

    def test_runs_replay_to_the_step_control(self, monkeypatch):
        """Kept steps pass the error test; a run stops at its first failure, lands on samples, grows h at most 5x."""
        evolution = entdyn.evolution
        runs = []

        def recording_run(powers, block, y, z, steps):
            rows, errs = dp_run(powers, block, y, z, steps)
            runs.append((z, rows, errs))
            return rows, errs

        dp_run = evolution._dp_run
        monkeypatch.setattr(evolution, "_dp_run", recording_run)
        gen, r0, traj = self.stiff_run()
        _, scale = evolution._scaled_powers(gen)
        samples = iter(self.grid.times[1:])
        target = next(samples)
        t = 0.0
        kept_total = failed = 0
        previous = None
        for z, rows, errs in runs:
            h = z / scale
            tol = evolution._ATOL + evolution._RTOL * np.abs(rows)
            ratio = np.abs(errs) / np.maximum(tol[:-1], tol[1:])
            norms = np.sqrt(np.mean(ratio**2, axis=1))
            passed = norms <= 1.0
            kept = len(passed) if passed.all() else int(np.argmin(passed))
            assert t + len(errs) * h <= target + 1e-12, t
            if previous is not None:
                assert h <= previous * (1.0 + 1e-12), t
            previous = (5.0 if kept == len(passed) else 1.0) * h
            kept_total += kept
            failed += kept < len(passed)
            t += kept * h
            if abs(t - target) <= 1e-12:
                t, target = target, next(samples, np.inf)
        assert target == np.inf
        assert (kept_total, failed, len(runs)) == tuple(traj.diagnostics[k] for k in ("accepted", "rejected", "runs"))

    def test_expm_route_records_its_sectors(self):
        traj = propagate_expm(central_dephasing_generator(), bell_vector(), self.grid)
        assert traj.diagnostics == {"route": "expm", "sectors": [[5], [6], [9], [10]]}
        gen = wm_full_generator(FeedbackParams(m=1.0, f=1.0, gamma=1.0))
        traj = propagate_expm(gen, bell_vector(), self.grid)
        assert traj.diagnostics == {"route": "expm", "sectors": [[5, 6, 9, 10]]}


class TestDormandPrinceTableau:
    nodes = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])

    def test_stage_rows_sum_to_nodes(self):
        assert entdyn.evolution._DP_A.shape == (7, 6)
        assert np.all(np.triu(entdyn.evolution._DP_A) == 0.0)
        assert np.max(np.abs(entdyn.evolution._DP_A.sum(axis=1) - self.nodes)) <= 1e-15

    def test_fifth_order_weights(self):
        weights = entdyn.evolution._DP_B[0]
        for q in range(5):
            assert abs(weights @ self.nodes**q - 1.0 / (q + 1)) <= 1e-15, q

    def test_embedded_fourth_order_weights(self):
        weights, error = entdyn.evolution._DP_B
        assert abs(error.sum()) <= 1e-15
        for q in range(4):
            assert abs((weights - error) @ self.nodes**q - 1.0 / (q + 1)) <= 1e-15, q


class TestDormandPrincePolynomials:
    def test_solution_row_is_the_taylor_series_to_fifth_order(self):
        expected = [1.0, 1 / 2, 1 / 6, 1 / 24, 1 / 120, 1 / 600, 0.0]
        assert np.max(np.abs(entdyn.evolution._DP_POLY[0] - expected)) <= 1e-15

    def test_error_row_starts_at_fifth_order(self):
        error = entdyn.evolution._DP_POLY[1]
        assert np.max(np.abs(error[:4])) <= 1e-16
        assert np.max(np.abs(error[4:] - [-97 / 120000, 13 / 40000, -1 / 24000])) <= 1e-18

    def test_polynomial_step_matches_stage_recursion(self):
        evolution = entdyn.evolution
        rng = np.random.default_rng(9)
        for trial in range(12):
            n = (2, 3, 4)[trial % 3]
            rates = 10.0 ** rng.uniform(-2, 2, size=3)
            jumps = rng.normal(size=(2, n, n)) + 1j * rng.normal(size=(2, n, n))
            gen = assemble_liouvillian(
                rates[0] * random_hermitian(rng, n),
                [lindblad_dissipator_superop(rate * v) for rate, v in zip(rates[1:], jumps)],
            )
            y = vectorize(random_density(rng, n))
            powers, scale = evolution._scaled_powers(gen)
            block = evolution._krylov_block(powers, y)
            for z in np.geomspace(1e-6, 3.3, 12):
                h = z / np.linalg.norm(gen, 2)
                increment, err = evolution._dp_polynomial_step(block, h * scale)
                y_ref, err_ref = dp_step(gen, y, h)
                assert np.max(np.abs(y + increment - y_ref)) <= 1e-13 * np.max(np.abs(y_ref)), (trial, z)
                assert np.max(np.abs(err - err_ref)) <= 1e-13 * np.max(np.abs(y)), (trial, z)

    def test_run_matches_sequential_polynomial_steps(self):
        evolution = entdyn.evolution
        rng = np.random.default_rng(24)
        for trial in range(12):
            n = (2, 3, 4)[trial % 3]
            rates = 10.0 ** rng.uniform(-2, 2, size=3)
            jumps = rng.normal(size=(2, n, n)) + 1j * rng.normal(size=(2, n, n))
            gen = assemble_liouvillian(
                rates[0] * random_hermitian(rng, n),
                [lindblad_dissipator_superop(rate * v) for rate, v in zip(rates[1:], jumps)],
            )
            y = vectorize(random_density(rng, n))
            powers, scale = evolution._scaled_powers(gen)
            block = evolution._krylov_block(powers, y)
            for z in np.geomspace(1e-6, 3.3, 12):
                h = z / np.linalg.norm(gen, 2)
                rows, errs = evolution._dp_run(powers, block, y, h * scale, 8)
                assert rows.shape == (9, n * n) and errs.shape == (8, n * n)
                assert np.array_equal(rows[0], y)
                for j in range(8):
                    increment, err = evolution._dp_polynomial_step(
                        evolution._krylov_block(powers, rows[j]), h * scale
                    )
                    scale_j = np.max(np.abs(rows[j]))
                    assert np.max(np.abs(rows[j + 1] - rows[j] - increment)) <= 1e-13 * scale_j, (trial, z, j)
                    assert np.max(np.abs(errs[j] - err)) <= 1e-13 * scale_j, (trial, z, j)

    def test_powers_are_scaled_by_a_power_of_two(self):
        gen = 1e150 * wm_full_generator(FeedbackParams(m=1.0, f=1.0, gamma=1.0))
        powers, scale = entdyn.evolution._scaled_powers(gen)
        mantissa, _ = np.frexp(scale)
        assert mantissa == 0.5
        assert 0.5 <= np.linalg.norm(gen) / scale <= 1.0
        assert np.array_equal(powers[: gen.shape[0]], gen / scale)
        assert np.all(np.isfinite(powers))


class TestSteadyState:
    def test_pure_dephasing_has_no_unique_fixed_point(self):
        with pytest.raises(NonUniqueSteadyStateError):
            steady_state(central_dephasing_generator())

    def test_coherent_drive_with_dephasing_mixes_completely(self):
        for y in (0.5, 1.0, 5.0):
            gen = wm_subspace_generator(FeedbackParams(m=0.0, f=0.0, gamma=1.0, y=y))
            rho = steady_state(gen)
            assert np.max(np.abs(rho - np.eye(2) / 2)) <= 1e-10

    def test_feedback_fixed_point_matches_closed_coherence(self):
        gen = wm_subspace_generator(FeedbackParams(m=1.0, f=1.0, gamma=1.0))
        rho = steady_state(gen)
        expected = np.array([[0.5, 1j / 3], [-1j / 3, 0.5]])
        assert np.max(np.abs(rho - expected)) <= 1e-10

    def test_full_two_qubit_generator_is_degenerate(self):
        # the full generator conserves the population of each invariant
        # block, so its kernel is at least two-dimensional
        gen = wm_full_generator(FeedbackParams(m=1.0, f=1.0, gamma=1.0))
        with pytest.raises(NonUniqueSteadyStateError):
            steady_state(gen)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatchError):
            steady_state(np.zeros((4, 5)))

    def test_rejects_non_liouville_size(self):
        with pytest.raises(DimensionMismatchError):
            steady_state(np.zeros((5, 5)))

    def test_svd_failure_is_no_convergence(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        gen = wm_subspace_generator(FeedbackParams(m=1.0, f=1.0, gamma=1.0))
        with pytest.raises(NoConvergenceError, match="^singular value solver failed: SVD did not converge$"):
            steady_state(gen)

    def test_decaying_generator_has_no_normalizable_state(self):
        with pytest.raises(NonUniqueSteadyStateError, match="no normalizable steady state"):
            steady_state(-np.eye(4))

    @pytest.mark.parametrize("rate", [1e9, 1e12])
    def test_extreme_feedback_rates(self, rate):
        # the trace row keeps its weight next to a generator of norm ~rate
        params = FeedbackParams(m=rate, f=rate, gamma=1.0)
        rho = steady_state(wm_subspace_generator(params))
        assert np.max(np.abs(rho - steady_state_closed_form(params).rho)) <= 1e-9

    @pytest.mark.parametrize("rate", [1e-310, 1e-320])
    def test_subnormal_feedback_rates(self, rate):
        params = FeedbackParams(m=rate, f=rate, gamma=rate)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rho = steady_state(wm_subspace_generator(params))
        assert np.max(np.abs(rho - steady_state_closed_form(params).rho)) <= 1e-12

    def test_zero_generator_kernel_dimension(self):
        with pytest.raises(NonUniqueSteadyStateError, match="kernel dimension 4"):
            steady_state(wm_subspace_generator(FeedbackParams(m=0.0, f=0.0, gamma=0.0)))

    @pytest.mark.parametrize("power", [-1000, -20, 20, 1000])
    def test_power_of_two_rate_scale_changes_no_bit(self, power):
        # at 2^1000 the sum of squares in a plain Frobenius norm overflows
        gen = wm_subspace_generator(FeedbackParams(m=1.0, f=2.0, mu=0.5, gamma=0.7, y=0.3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rho = steady_state(gen * 2.0**power)
        assert np.array_equal(rho, steady_state(gen))

    @pytest.mark.parametrize("m, relaxation", [(1e4, 1e-3), (1e6, 0.1)])
    def test_feedback_with_energy_relaxation(self, m, relaxation):
        # the SVD solution was up to 6.4e-10 off Hermitian here, past the density gate
        lowering = np.sqrt(relaxation) * np.array([[0, 1], [0, 0]], dtype=complex)
        gen = wm_full_generator(FeedbackParams(m=m, f=m, gamma=1.0)) + sum(
            lindblad_dissipator_superop(c) for c in (np.kron(lowering, np.eye(2)), np.kron(np.eye(2), lowering))
        )
        rho = steady_state(gen)
        assert abs(np.trace(rho) - 1) <= 1e-12
        assert np.array_equal(rho, rho.conj().T)

    def test_generator_that_breaks_hermiticity_is_refused(self):
        # -i(h rho - rho h) with a non-Hermitian h, plus a decay
        h = np.array([[0, 1], [0, 0]], dtype=complex)
        gen = -1j * (np.kron(h, np.eye(2)) - np.kron(np.eye(2), h.T))
        gen = gen + lindblad_dissipator_superop(np.array([[0, 1], [0, 0]], dtype=complex))
        with pytest.raises(ValueError, match="does not preserve Hermiticity"):
            steady_state(gen)

    @pytest.mark.parametrize(
        "params",
        [FeedbackParams(m=1.0, f=1.0, gamma=1.0, y=1e308), FeedbackParams(m=1.0, f=1e308, gamma=1.05)],
        ids=["y-1e308", "f-1e308"],
    )
    def test_rates_near_largest_double_raise_without_warning(self, params):
        # the other rates vanish next to 1e308, leaving a degenerate kernel
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonUniqueSteadyStateError, match="kernel dimension 2"):
                steady_state(wm_subspace_generator(params))


class TestTrajectoryQuality:
    def test_feedback_trajectory_stays_physical(self):
        gen = wm_full_generator(FeedbackParams(m=1.0, f=1.0, gamma=1.0))
        traj = propagate_expm(gen, bell_vector(), TimeGrid(0.0, 10.0, 51))
        for state in traj.states:
            assert abs(np.trace(state) - 1.0) <= 1e-9
            assert np.max(np.abs(state - state.conj().T)) <= 1e-10
            values, _ = hermitian_eig(0.5 * (state + state.conj().T))
            assert values[0] >= -1e-8
