import decimal
import warnings
from dataclasses import replace

import numpy as np
import pytest

import entdyn.feedback
from entdyn.errors import NonFiniteError, NonUniqueSteadyStateError, RequiresZeroYError
from entdyn.evolution import TimeGrid, propagate_expm, propagate_ode, steady_state
from entdyn.feedback import (
    BlochSystem,
    FeedbackParams,
    _wm_generator,
    bloch_eigenvalues,
    bloch_steady_state,
    bloch_system,
    concurrence_sweep,
    embedding_hamiltonian,
    steady_state_closed_form,
    wm_full_generator,
    wm_subspace_generator,
)
from entdyn.generators import build_hamiltonian
from entdyn.quantum import (
    PAULI_X,
    PAULI_Z,
    bell_state,
    bloch_from_density,
    concurrence_2x2_embedded,
    density_from_pure,
    devectorize,
    restrict_23,
    vectorize,
)
from helpers import assert_multiset_close, eig_real_3x3, random_density


def exact_concurrence(m, f, gamma, mu) -> decimal.Decimal:
    """C from the binary values given, at the precision of the current decimal context."""
    m, f, gamma, mu = (decimal.Decimal(float(v)) for v in (m, f, gamma, mu))
    r = gamma + m
    denom = mu * mu + r * (r + f)
    return 2 * (m * f).sqrt() * (mu * mu + r * r).sqrt() / denom


def exact_concurrence_and_deficit(m, f, gamma, mu):
    """C and 1 - C at 700 significant digits, from the binary values given."""
    with decimal.localcontext() as ctx:
        ctx.prec = 700
        conc = exact_concurrence(m, f, gamma, mu)
        return float(conc), float(1 - conc)


def exact_log10_deficit(m, f, gamma, mu) -> float:
    """log10(1 - C) at 700 significant digits; finite where 1 - C is below every double."""
    with decimal.localcontext() as ctx:
        ctx.prec = 700
        return float((1 - exact_concurrence(m, f, gamma, mu)).log10())


def random_params(rng, y=0.0):
    return FeedbackParams(
        m=rng.uniform(0.25, 4.0),
        f=rng.uniform(0.25, 4.0),
        mu=rng.uniform(-2.0, 2.0),
        gamma=rng.uniform(0.25, 2.0),
        y=y,
    )


class TestParams:
    def test_rejects_negative_rates(self):
        for field in ("m", "f", "gamma"):
            with pytest.raises(ValueError):
                FeedbackParams(**{"m": 1.0, "f": 1.0, field: -0.1})

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            FeedbackParams(m=1.0, f=np.inf)

    def test_signed_splitting_and_coupling_allowed(self):
        FeedbackParams(m=1.0, f=1.0, mu=-3.0, y=-0.5)

    def test_embedding_couplings(self):
        p = FeedbackParams(m=0.0, f=0.0, mu=1.4, y=0.6)
        h = embedding_hamiltonian(p)
        assert (h.a, h.b, h.c) == (0.7, -0.7, 0.3)
        # the central block of the embedded operator is mu Z + y X up to a
        # multiple of the identity, which cannot affect the dynamics
        from entdyn.generators import build_hamiltonian

        block = build_hamiltonian(h)[1:3, 1:3]
        shifted = block + h.c * np.eye(2)
        assert np.max(np.abs(shifted - (1.4 * PAULI_Z + 0.6 * PAULI_X))) <= 1e-12


class TestGenerators:
    def test_feedback_correction_vanishes(self):
        # Z on the first qubit anticommutes with X on the first qubit, so
        # the correction (M†F + FM)/2 is identically zero
        eye = np.eye(2, dtype=complex)
        m_op = np.kron(PAULI_Z, eye)
        f_op = np.kron(PAULI_X, PAULI_X)
        correction = 0.5 * (m_op.conj().T @ f_op + f_op @ m_op)
        assert np.max(np.abs(correction)) <= 1e-15

    def test_full_and_subspace_dynamics_agree(self):
        rng = np.random.default_rng(61)
        grid = TimeGrid(0.0, 10.0, 21)
        r0_full = vectorize(density_from_pure(bell_state()))
        r0_sub = vectorize(restrict_23(density_from_pure(bell_state())))
        for _ in range(5):
            params = random_params(rng, y=rng.uniform(-1.0, 1.0))
            full = propagate_expm(wm_full_generator(params), r0_full, grid)
            sub = propagate_expm(wm_subspace_generator(params), r0_sub, grid)
            for full_state, sub_state in zip(full.states, sub.states):
                assert np.max(np.abs(restrict_23(full_state) - sub_state)) <= 1e-10

    def test_block_population_is_conserved(self):
        params = FeedbackParams(m=1.0, f=1.0, mu=0.3, gamma=1.0, y=0.4)
        grid = TimeGrid(0.0, 10.0, 41)
        traj = propagate_expm(
            wm_full_generator(params), vectorize(density_from_pure(bell_state())), grid
        )
        for state in traj.states:
            leak = abs(state[0, 0].real) + abs(state[3, 3].real)
            assert leak <= 1e-10

    def test_feedback_off_reduces_to_dephasing_with_drive(self):
        params = FeedbackParams(m=0.0, f=0.0, gamma=0.8, y=1.2)
        from entdyn.generators import (
            assemble_liouvillian,
            build_hamiltonian,
            lindblad_dissipator_superop,
        )

        h = build_hamiltonian(embedding_hamiltonian(params))
        v = np.sqrt(0.8) * np.kron(PAULI_Z, np.eye(2, dtype=complex))
        expected = assemble_liouvillian(h, [lindblad_dissipator_superop(v)])
        assert np.max(np.abs(wm_full_generator(params) - expected)) <= 1e-12

    def test_subspace_generator_pure_dephasing_limit(self):
        gen = wm_subspace_generator(FeedbackParams(m=0.0, f=0.0, gamma=0.5))
        from entdyn.generators import lindblad_dissipator_superop

        expected = lindblad_dissipator_superop(np.sqrt(0.5) * PAULI_Z)
        assert np.max(np.abs(gen - expected)) <= 1e-12


PAULIS = (PAULI_X, np.array([[0, -1j], [1j, 0]]), PAULI_Z)


def unit_rates(params, couplings):
    """The rates of a unit-rate basis: m, f, sqrt(m f), gamma, then the couplings."""
    return np.array([params.m, params.f, np.sqrt(params.m * params.f), params.gamma, *couplings])


def scaled_params(params, k):
    """params with every rate, mu and y multiplied by 2^k."""
    return FeedbackParams(*(np.ldexp(getattr(params, name), k) for name in ("m", "f", "mu", "gamma", "y")))


class TestUnitRateBasis:
    """Each feedback generator is one product of its rates with a basis of its unit-rate terms."""

    @pytest.mark.parametrize("name", ["_FULL_BASIS", "_SUBSPACE_BASIS"])
    def test_entries_are_small_integers(self, name):
        basis = getattr(entdyn.feedback, name)
        for part in (basis.real, basis.imag):
            assert set(np.unique(part)) <= {-2.0, -1.0, 0.0, 1.0, 2.0}

    def test_builders_agree_with_the_kronecker_builder(self):
        rng = np.random.default_rng(68)
        runs = [random_params(rng, y=rng.uniform(-2.0, 2.0)) for _ in range(20)]
        stack = entdyn.feedback._subspace_generators(runs)
        for params, member in zip(runs, stack):
            hamiltonian = build_hamiltonian(embedding_hamiltonian(params))
            full = _wm_generator(params, hamiltonian, np.kron(PAULI_Z, np.eye(2)), np.kron(PAULI_X, PAULI_X))
            sub = _wm_generator(params, params.mu * PAULI_Z + params.y * PAULI_X, PAULI_Z, PAULI_X)
            for built, reference in ((wm_full_generator(params), full), (wm_subspace_generator(params), sub)):
                assert np.max(np.abs(built - reference)) <= 1e-15 * np.max(np.abs(reference))
            assert np.max(np.abs(member - sub)) <= 1e-15 * np.max(np.abs(sub))

    def test_qubit_basis_projects_onto_the_bloch_system(self):
        # A_ij = Tr σ_i L(σ_j) / 2 and c_i = Tr σ_i L(I) / 2 for each basis term
        basis = entdyn.feedback._SUBSPACE_BASIS

        def projected(operator):
            images = [devectorize(term @ vectorize(operator)) for term in basis]
            return np.array([[np.trace(p @ image).real / 2 for p in PAULIS] for image in images])

        matrices = np.stack([projected(p) for p in PAULIS], axis=-1)
        drives = projected(np.eye(2))
        rng = np.random.default_rng(69)
        for _ in range(20):
            params = random_params(rng, y=rng.uniform(-2.0, 2.0))
            rates = unit_rates(params, (params.mu, params.y))
            system = bloch_system(params)
            matrix = np.tensordot(rates, matrices, 1)
            assert np.max(np.abs(matrix - system.matrix)) <= 1e-15 * np.max(np.abs(system.matrix))
            drive = rates @ drives
            assert np.max(np.abs(drive - system.drive)) <= 1e-15 * np.max(np.abs(system.drive))

    def test_rates_scaled_by_a_power_of_two_scale_the_generators_exactly(self):
        # sqrt(m f) scales by exactly 2^k with m and f, so each generator
        # does, and each route over the grid scaled by 2^-k gives the same
        # states bit for bit: Dormand-Prince takes the same steps, each 2^-k
        # as long, as its powers are of L over a power of two near its norm
        rng = np.random.default_rng(70)
        r0 = vectorize(density_from_pure(bell_state()))
        for _ in range(10):
            params = random_params(rng, y=rng.uniform(-2.0, 2.0))
            full, sub = wm_full_generator(params), wm_subspace_generator(params)
            states = propagate_expm(full, r0, TimeGrid(0.0, 5.0, 11)).states
            ode = propagate_ode(full, r0, TimeGrid(0.0, 5.0, 11))
            for k in (-2, -1, 1, 2, 3):
                scaled = scaled_params(params, k)
                assert np.array_equal(wm_full_generator(scaled), np.ldexp(1.0, k) * full)
                assert np.array_equal(wm_subspace_generator(scaled), np.ldexp(1.0, k) * sub)
                grid = TimeGrid(0.0, np.ldexp(5.0, -k), 11)
                assert np.array_equal(propagate_expm(wm_full_generator(scaled), r0, grid).states, states)
                scaled_ode = propagate_ode(wm_full_generator(scaled), r0, grid)
                assert np.array_equal(scaled_ode.states, ode.states)
                for key in ("accepted", "rejected", "runs", "support"):
                    assert scaled_ode.diagnostics[key] == ode.diagnostics[key]
                assert scaled_ode.diagnostics["h_min"] == np.ldexp(ode.diagnostics["h_min"], -k)

    @pytest.mark.parametrize("m, f", [(1e200, 3e200), (1e-200, 3e-200)], ids=["overflow", "underflow"])
    def test_root_of_the_rate_product_is_taken_without_the_product(self, m, f):
        # m f is inf or 0 as a double, and sqrt(m f) with it; the generator
        # still agrees with the one built from sqrt(m) sqrt(f)
        assert m * f in (0.0, np.inf)
        params = FeedbackParams(m=m, f=f, gamma=m)
        reference = _wm_generator(params, np.zeros((2, 2)), PAULI_Z, PAULI_X)
        built = wm_subspace_generator(params)
        assert np.max(np.abs(built - reference)) <= 1e-15 * np.max(np.abs(reference))


class TestBlochSystem:
    def test_drive_free_form(self):
        system = bloch_system(FeedbackParams(m=0.0, f=0.0, gamma=1.0, y=0.7))
        expected = np.array([[-2.0, 0.0, 0.0], [0.0, -2.0, -1.4], [0.0, 1.4, 0.0]])
        assert np.max(np.abs(system.matrix - expected)) <= 1e-15
        assert np.array_equal(system.drive, np.zeros(3))

    def test_symmetric_feedback_point(self):
        system = bloch_system(FeedbackParams(m=1.0, f=1.0, gamma=1.0))
        assert np.max(np.abs(system.matrix - np.diag([-4.0, -6.0, -2.0]))) <= 1e-15
        assert np.allclose(system.drive, [0.0, -4.0, 0.0], atol=1e-15)

    def test_drive_vanishes_without_both_strengths(self):
        for m, f in ((0.0, 2.0), (2.0, 0.0)):
            assert np.array_equal(bloch_system(FeedbackParams(m=m, f=f)).drive, np.zeros(3))

    def test_velocity_matches_generator(self):
        # the affine form must reproduce the Bloch velocity of the
        # subspace master equation for arbitrary states and parameters
        rng = np.random.default_rng(62)
        paulis = (PAULI_X, np.array([[0, -1j], [1j, 0]]), PAULI_Z)
        for _ in range(20):
            params = random_params(rng, y=rng.uniform(-2.0, 2.0))
            gen = wm_subspace_generator(params)
            system = bloch_system(params)
            rho = random_density(rng, 2)
            rho_dot = devectorize(gen @ vectorize(rho))
            velocity = np.array([np.trace(p @ rho_dot).real for p in paulis])
            s = bloch_from_density(rho)
            assert np.max(np.abs(velocity - (system.matrix @ s + system.drive))) <= 1e-10

    def test_fixed_point_solves_affine_system(self):
        system = BlochSystem(np.diag([-4.0, -6.0, -2.0]), np.array([0.0, -4.0, 0.0]))
        s = bloch_steady_state(system)
        assert np.allclose(s, [0.0, -2.0 / 3.0, 0.0], atol=1e-12)

    def test_drive_free_fixed_point_is_origin(self):
        for y in (0.5, 1.0, 5.0):
            system = bloch_system(FeedbackParams(m=0.0, f=0.0, gamma=1.0, y=y))
            assert np.max(np.abs(bloch_steady_state(system))) <= 1e-10

    def test_fixed_point_matches_closed_form_state(self):
        rng = np.random.default_rng(63)
        for _ in range(20):
            params = random_params(rng)
            s = bloch_steady_state(bloch_system(params))
            off = steady_state_closed_form(params).rho[0, 1]
            expected = np.array([2 * off.real, -2 * off.imag, 0.0])
            assert np.max(np.abs(s - expected)) <= 1e-10

    @pytest.mark.parametrize("m, f", [(1e200, 3e200), (1e-200, 3e-200)], ids=["overflow", "underflow"])
    def test_drive_is_taken_without_the_rate_product(self, m, f):
        # m f is inf or 0 as a double; the drive takes the generators' root
        assert m * f in (0.0, np.inf)
        drive = bloch_system(FeedbackParams(m=m, f=f)).drive
        expected = -4.0 * np.sqrt(m) * np.sqrt(f)
        assert drive[0] == drive[2] == 0.0
        assert abs(drive[1] - expected) <= 1e-15 * abs(expected)

    def test_rates_scaled_by_a_power_of_two_scale_the_bloch_forms_exactly(self):
        # the matrix, the drive and the closed-form eigenvalues are
        # homogeneous of degree 1 in the rates, and every root is taken from
        # mantissas and exponents, so a factor 2^k carries through exactly
        rng = np.random.default_rng(74)
        runs = [FeedbackParams(m=1e200, f=3e200, mu=-4e199, gamma=2e199, y=5e199)]
        for _ in range(20):
            m, f, gamma, mu, y = 10.0 ** rng.uniform(-150.0, 150.0, 5)
            runs.append(FeedbackParams(m=m, f=f, mu=rng.choice((-1.0, 1.0)) * mu, gamma=gamma, y=y))
        runs.append(FeedbackParams(m=0.0, f=2.5, mu=1.25))
        for params in runs:
            system = bloch_system(params)
            values = bloch_eigenvalues(replace(params, y=0.0))
            assert np.isfinite(system.matrix).all() and np.isfinite(system.drive).all()
            assert np.isfinite(values).all()
            for k in range(-2, 4):
                scaled = scaled_params(params, k)
                factor = np.ldexp(1.0, k)
                scaled_system = bloch_system(scaled)
                assert np.array_equal(scaled_system.matrix, factor * system.matrix)
                assert np.array_equal(scaled_system.drive, factor * system.drive)
                assert np.array_equal(bloch_eigenvalues(replace(scaled, y=0.0)), factor * values)

    @pytest.mark.parametrize(
        "params",
        [
            FeedbackParams(m=0.0, f=1.0, mu=1e308),
            FeedbackParams(m=1e308, f=1e308),
            FeedbackParams(m=1.0, f=1.0, gamma=1e308),
            FeedbackParams(m=0.0, f=1.0, y=1e308),
        ],
        ids=["mu", "drive", "gamma", "y"],
    )
    def test_overflowing_entries_raise(self, params):
        with pytest.raises(NonFiniteError, match="^Bloch system contains non-finite entries$"):
            bloch_system(params)

    @pytest.mark.parametrize("rate", [1e-310, 1e-315, 1e-320, 5e-324, 1e300])
    def test_fixed_point_at_extreme_rates(self, rate):
        # m = f = gamma gives C = 2/3 at any scale; the solve is scaled to the
        # system's peak entry, so subnormal rates do not underflow it
        s = bloch_steady_state(bloch_system(FeedbackParams(m=rate, f=rate, gamma=rate)))
        assert np.max(np.abs(s - [0.0, -2.0 / 3.0, 0.0])) <= 1e-15


class TestBlochEigenvalues:
    def test_all_real_case(self):
        values = bloch_eigenvalues(FeedbackParams(m=1.0, f=1.0, gamma=1.0))
        assert_multiset_close(values, [-2.0, -4.0, -6.0], 1e-12)

    def test_complex_pair_case(self):
        values = bloch_eigenvalues(FeedbackParams(m=0.0, f=1.0, mu=1.0))
        expected = [-2.0, -1.0 + 1j * np.sqrt(3), -1.0 - 1j * np.sqrt(3)]
        assert_multiset_close(values, expected, 1e-12)

    def test_no_feedback_is_degenerate(self):
        values = bloch_eigenvalues(FeedbackParams(m=1.0, f=0.0, gamma=1.0))
        assert min(abs(v) for v in values) <= 1e-12

    def test_requires_zero_coupling(self):
        with pytest.raises(RequiresZeroYError):
            bloch_eigenvalues(FeedbackParams(m=1.0, f=1.0, y=0.5))

    def test_matches_matrix_eigenvalues(self):
        rng = np.random.default_rng(64)
        count = 0
        while count < 50:
            params = random_params(rng)
            # skip near-defective points where the numeric eigenproblem
            # itself is ill-conditioned
            if abs(params.f**2 - 4 * params.mu**2) < 0.05:
                continue
            count += 1
            numeric = eig_real_3x3(bloch_system(params).matrix)
            assert_multiset_close(bloch_eigenvalues(params), numeric, 1e-9)

    @pytest.mark.parametrize(
        "params",
        [FeedbackParams(m=0.0, f=1e200), FeedbackParams(m=1.0, f=1e160, mu=1e159, gamma=1.0)],
        ids=["f-squared-overflows", "difference-of-squares-overflows"],
    )
    def test_matches_matrix_eigenvalues_where_f_squared_overflows(self, params):
        numeric = np.linalg.eigvals(bloch_system(params).matrix)
        values = bloch_eigenvalues(params)
        assert np.isfinite(values).all()
        assert_multiset_close(values, numeric, 1e-9 * np.max(np.abs(numeric)))

    @pytest.mark.parametrize(
        "params",
        [FeedbackParams(m=0.0, f=1.0, mu=1e308), FeedbackParams(m=1e308, f=1e308), FeedbackParams(m=1.0, f=1.0, gamma=1e308)],
        ids=["mu", "m-and-f", "gamma"],
    )
    def test_overflowing_eigenvalues_raise(self, params):
        with pytest.raises(NonFiniteError, match="^Bloch eigenvalues are not finite$"):
            bloch_eigenvalues(params)

    @pytest.mark.parametrize("side", [1.0, -1.0], ids=["real-pair", "complex-pair"])
    @pytest.mark.parametrize("mu", [1.0, -1.0])
    def test_near_double_root_matches_high_precision_reference(self, side, mu):
        # f^2 - 4 mu^2 cancels to a few digits here; (f - 2|mu|) is exact
        f = 2.0 * (1.0 + side * 1e-9)
        values = bloch_eigenvalues(FeedbackParams(m=0.0, f=f, mu=mu))
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            exact_f = decimal.Decimal(f)
            square = exact_f * exact_f - 4 * decimal.Decimal(mu) ** 2
            magnitude = float(abs(square).sqrt())
        root = magnitude if square >= 0 else 1j * magnitude
        expected = [-2.0 * f, -f + root, -f - root]
        for value, target in zip(values, expected):
            assert abs(value - target) <= 1e-15 * abs(target)


class TestClosedFormSteadyState:
    def test_symmetric_point_values(self):
        result = steady_state_closed_form(FeedbackParams(m=1.0, f=1.0, gamma=1.0))
        assert abs(result.concurrence - 2.0 / 3.0) <= 1e-12
        assert abs(result.purity - 13.0 / 18.0) <= 1e-12
        expected = np.array([[0.5, 1j / 3], [-1j / 3, 0.5]])
        assert np.max(np.abs(result.rho - expected)) <= 1e-12

    def test_strong_feedback_value(self):
        result = steady_state_closed_form(FeedbackParams(m=100.0, f=100.0, gamma=1.0))
        assert abs(result.concurrence - 200.0 / 201.0) <= 1e-12
        assert result.concurrence >= 1.0 - 1e-2

    def test_split_level_value(self):
        result = steady_state_closed_form(FeedbackParams(m=1.0, f=1.0, mu=1.0, gamma=1.0))
        assert abs(result.concurrence - 2.0 * np.sqrt(5.0) / 7.0) <= 1e-12

    def test_purity_concurrence_identity(self):
        rng = np.random.default_rng(65)
        for _ in range(100):
            result = steady_state_closed_form(random_params(rng))
            assert abs(result.concurrence - np.sqrt(2 * result.purity - 1)) <= 1e-12

    def test_embedded_concurrence_matches_closed_form(self):
        rng = np.random.default_rng(66)
        for _ in range(50):
            result = steady_state_closed_form(random_params(rng))
            assert abs(concurrence_2x2_embedded(result.rho) - result.concurrence) <= 1e-9

    def test_matches_null_space_solution(self):
        rng = np.random.default_rng(67)
        for _ in range(100):
            params = random_params(rng)
            closed = steady_state_closed_form(params).rho
            solved = steady_state(wm_subspace_generator(params))
            assert np.max(np.abs(solved - closed)) <= 1e-8

    def test_matches_long_time_integration(self):
        params = FeedbackParams(m=1.0, f=1.0, mu=0.7, gamma=1.0)
        closed = steady_state_closed_form(params).rho
        r0 = vectorize(restrict_23(density_from_pure(bell_state())))
        traj = propagate_expm(wm_subspace_generator(params), r0, TimeGrid(0.0, 30.0, 4))
        assert np.max(np.abs(traj.states[-1] - closed)) <= 1e-10

    def test_requires_zero_coupling(self):
        with pytest.raises(RequiresZeroYError):
            steady_state_closed_form(FeedbackParams(m=1.0, f=1.0, y=0.1))

    def test_no_feedback_is_degenerate(self):
        with pytest.raises(NonUniqueSteadyStateError):
            steady_state_closed_form(FeedbackParams(m=1.0, f=0.0, gamma=1.0))

    def test_no_damping_is_degenerate(self):
        # with m = gamma = mu = 0 the Bloch x component is conserved
        with pytest.raises(NonUniqueSteadyStateError):
            steady_state(wm_subspace_generator(FeedbackParams(m=0.0, f=1.0)))
        with pytest.raises(NonUniqueSteadyStateError):
            steady_state_closed_form(FeedbackParams(m=0.0, f=1.0))

    @pytest.mark.parametrize("scale", [1e-300, 1e300, 1e308])
    def test_invariant_under_rate_scaling(self, scale):
        # C, purity and rho are homogeneous of degree 0 in the rates
        params = FeedbackParams(m=0.9, f=1.0, mu=-0.6, gamma=0.3)
        scaled = FeedbackParams(m=0.9 * scale, f=scale, mu=-0.6 * scale, gamma=0.3 * scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big = steady_state_closed_form(scaled)
        base = steady_state_closed_form(params)
        assert abs(big.concurrence - base.concurrence) <= 1e-15
        assert abs(big.purity - base.purity) <= 1e-15
        assert np.max(np.abs(big.rho - base.rho)) <= 1e-15


class TestConcurrenceSweep:
    def test_single_cell(self):
        sweep = concurrence_sweep([1.0], [1.0], gamma=1.0)
        assert abs(sweep.concurrence[0, 0] - 2.0 / 3.0) <= 1e-12

    def test_diagonal_growth(self):
        grid = np.array([0.5, 1.0, 5.0, 50.0])
        sweep = concurrence_sweep(grid, grid, gamma=1.0)
        diagonal = np.diag(sweep.concurrence)
        assert np.allclose(diagonal, 2 * grid / (1 + 2 * grid), atol=1e-12)
        assert np.all(np.diff(diagonal) > 0)

    def test_strong_cell_log_deficit(self):
        sweep = concurrence_sweep([100.0], [100.0], gamma=1.0)
        assert abs(sweep.log10_one_minus_concurrence[0, 0] - np.log10(1.0 / 201.0)) <= 1e-9

    def test_cells_match_closed_form_with_splitting(self):
        m_grid = np.array([0.3, 2.0])
        f_grid = np.array([0.7, 4.0])
        sweep = concurrence_sweep(m_grid, f_grid, gamma=0.9, mu=1.1)
        for i, m in enumerate(m_grid):
            for j, f in enumerate(f_grid):
                params = FeedbackParams(m=m, f=f, mu=1.1, gamma=0.9)
                expected = steady_state_closed_form(params).concurrence
                assert abs(sweep.concurrence[i, j] - expected) <= 1e-12

    def test_optimum_sits_at_equal_strengths(self):
        # along any fixed-budget line m + f = B the concurrence is maximal
        # at m = f
        for budget in (2.0, 20.0, 200.0):
            m = np.linspace(0.1, budget - 0.1, 41)
            f = budget - m
            conc = [
                steady_state_closed_form(FeedbackParams(m=mi, f=fi, gamma=1.0)).concurrence
                for mi, fi in zip(m, f)
            ]
            assert int(np.argmax(conc)) == 20
            assert abs(m[20] - budget / 2) <= 1e-12

    def test_matches_high_precision_reference(self):
        # the deficit is checked at gamma down to 1e-300 and on the diagonal
        # m = f, where 1 - C computed by cancellation would round to 0
        rng = np.random.default_rng(68)
        m_grid = 10.0 ** rng.uniform(-3, 12, 12)
        f_grid = np.concatenate([m_grid[:4], 10.0 ** rng.uniform(-3, 12, 8)])
        for gamma, mu in [(1e-300, 0.0), (1.0, 0.0), (0.3, -2.5), (1e-12, 1e6), (2.0, 1e200)]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                sweep = concurrence_sweep(m_grid, f_grid, gamma, mu)
            for i, m in enumerate(m_grid):
                for j, f in enumerate(f_grid):
                    conc, deficit = exact_concurrence_and_deficit(m, f, gamma, mu)
                    assert abs(sweep.concurrence[i, j] - conc) <= 1e-13 * conc
                    assert abs(sweep.log10_one_minus_concurrence[i, j] - np.log10(deficit)) <= 1e-12

    @pytest.mark.parametrize("gamma", [5e-324, 1e-310])
    def test_log_deficit_below_smallest_double(self, gamma):
        # on the diagonal m = f, gamma / m underflows, and 1 - C (1e-326 to
        # 5e-310 there) is zero or subnormal as a double; its logarithm is not
        grid = np.logspace(-1, np.log10(200.0), 9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sweep = concurrence_sweep(grid, grid, gamma)
        for i, m in enumerate(grid):
            for j, f in enumerate(grid):
                expected = exact_log10_deficit(m, f, gamma, 0.0)
                assert abs(sweep.log10_one_minus_concurrence[i, j] - expected) <= 1e-12
        assert np.all(np.diag(sweep.log10_one_minus_concurrence) < -308)

    def test_deficit_without_splitting(self):
        # at mu = 0 the deficit is (gamma + (sqrt(m) - sqrt(f))^2) / (gamma + m + f)
        rng = np.random.default_rng(69)
        m_grid, f_grid = 10.0 ** rng.uniform(-1, 3, (2, 20))
        sweep = concurrence_sweep(m_grid, f_grid, gamma=0.7)
        mm, ff = m_grid[:, None], f_grid[None, :]
        expected = (0.7 + (np.sqrt(mm) - np.sqrt(ff)) ** 2) / (0.7 + mm + ff)
        assert np.max(np.abs(sweep.log10_one_minus_concurrence - np.log10(expected))) <= 1e-13

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            concurrence_sweep([], [1.0], gamma=1.0)
        with pytest.raises(ValueError):
            concurrence_sweep([0.0, 1.0], [1.0], gamma=1.0)
        with pytest.raises(ValueError):
            concurrence_sweep([1.0], [1.0], gamma=0.0)
        with pytest.raises(ValueError):
            concurrence_sweep([1.0], [1.0], gamma=1.0, mu=np.nan)
        with pytest.raises(ValueError):
            concurrence_sweep([1.0, np.inf], [1.0], gamma=1.0)
