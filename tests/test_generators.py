import numpy as np
import pytest

from entdyn.errors import DimensionMismatchError, NoConvergenceError, NonFiniteError, NotHermitianError
from entdyn.generators import (
    HamiltonianParams,
    _two_sided,
    assemble_liouvillian,
    build_hamiltonian,
    check_dephasing_constraints,
    hamiltonian_superop,
    lindblad_dissipator_superop,
    phenomenological_superop,
    pure_dephasing_from_amplitudes,
    validate_dephasing_rates,
    validate_relaxation_rates,
)
from entdyn.quantum import PAULI_X, PAULI_Y, PAULI_Z, devectorize, vectorize
from helpers import random_density, random_hermitian


def apply(superop, rho):
    return devectorize(superop @ vectorize(rho))


class TestHamiltonian:
    def test_level_shifts_and_coupling(self):
        p = HamiltonianParams(1.0, 2.0, 0.25)
        assert p.level_shifts == (3.25, -1.25, 0.75, -2.75)
        assert p.coupling == 0.5
        h = build_hamiltonian(p)
        expected = np.diag([3.25, -1.25, 0.75, -2.75]).astype(complex)
        expected[1, 2] = expected[2, 1] = 0.5
        assert np.array_equal(h, expected)

    def test_zero_couplings(self):
        assert np.array_equal(build_hamiltonian(HamiltonianParams(0, 0, 0)), np.zeros((4, 4)))

    def test_matches_operator_form(self):
        rng = np.random.default_rng(41)
        eye = np.eye(2, dtype=complex)
        for _ in range(50):
            a, b, c = rng.normal(size=3)
            direct = (
                a * np.kron(PAULI_Z, eye)
                + b * np.kron(eye, PAULI_Z)
                + c * (np.kron(PAULI_X, PAULI_X) + np.kron(PAULI_Y, PAULI_Y) + np.kron(PAULI_Z, PAULI_Z))
            )
            built = build_hamiltonian(HamiltonianParams(a, b, c))
            assert np.max(np.abs(built - direct)) <= 1e-12

    def test_equal_local_terms_degenerate_center(self):
        h = build_hamiltonian(HamiltonianParams(1.0, 1.0, 0.5))
        assert h[1, 1] == h[2, 2] == -0.5
        assert h[1, 2] == h[2, 1] == 1.0

    def test_single_local_term(self):
        h = build_hamiltonian(HamiltonianParams(1.0, 0.0, 0.0))
        assert np.array_equal(h, np.kron(PAULI_Z, np.eye(2, dtype=complex)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            HamiltonianParams(np.nan, 0.0, 0.0)


class TestHamiltonianSuperop:
    def test_zero_hamiltonian(self):
        assert np.array_equal(hamiltonian_superop(np.zeros((4, 4))), np.zeros((16, 16)))

    def test_diagonal_hamiltonian_entries(self):
        d = np.array([0.3, -0.7, 1.1, 0.2])
        sup = hamiltonian_superop(np.diag(d))
        expected = np.zeros((16, 16), dtype=complex)
        for k in range(4):
            for n in range(4):
                expected[4 * k + n, 4 * k + n] = -1j * (d[k] - d[n])
        assert np.max(np.abs(sup - expected)) <= 1e-15

    def test_commutator_property(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            h = random_hermitian(rng, 4)
            rho = random_density(rng, 4)
            lhs = apply(hamiltonian_superop(h), rho)
            rhs = -1j * (h @ rho - rho @ h)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            hamiltonian_superop(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestDissipatorSuperop:
    def test_qubit_phase_flip(self):
        rng = np.random.default_rng(43)
        sup = lindblad_dissipator_superop(PAULI_Z)
        for _ in range(20):
            rho = random_density(rng, 2)
            expected = PAULI_Z @ rho @ PAULI_Z - rho
            assert np.max(np.abs(apply(sup, rho) - expected)) <= 1e-12

    def test_zero_operator(self):
        assert np.array_equal(lindblad_dissipator_superop(np.zeros((4, 4))), np.zeros((16, 16)))

    def test_matches_definition(self):
        rng = np.random.default_rng(44)
        for _ in range(50):
            v = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = random_density(rng, 4)
            vdv = v.conj().T @ v
            expected = v @ rho @ v.conj().T - 0.5 * (vdv @ rho + rho @ vdv)
            assert np.max(np.abs(apply(lindblad_dissipator_superop(v), rho) - expected)) <= 1e-12

    def test_collective_phase_operator_doubles_central_rate(self):
        # V = sqrt(g) Z x I is diagonal, so the superoperator is diagonal and
        # the central coherence decays at half |v_2 - v_3|^2 = 2g
        g = 0.7
        v = np.sqrt(g) * np.kron(PAULI_Z, np.eye(2, dtype=complex))
        sup = lindblad_dissipator_superop(v)
        assert np.max(np.abs(sup - np.diag(np.diag(sup)))) <= 1e-15
        assert abs(sup[6, 6] - (-2 * g)) <= 1e-12
        assert abs(sup[9, 9] - (-2 * g)) <= 1e-12

    def test_overflowing_v_dagger_v_is_non_finite(self):
        # V itself is finite, V†V = 1e400 I is not
        with pytest.raises(NonFiniteError):
            lindblad_dissipator_superop(1e200 * PAULI_Z)


class TestRateValidation:
    def test_dephasing_accepts_valid(self):
        rates = np.zeros((4, 4))
        rates[1, 2] = rates[2, 1] = 1.0
        validate_dephasing_rates(rates)

    def test_dephasing_rejects_asymmetric(self):
        rates = np.zeros((4, 4))
        rates[1, 2] = 1.0
        with pytest.raises(ValueError):
            validate_dephasing_rates(rates)

    def test_dephasing_rejects_negative(self):
        rates = np.zeros((4, 4))
        rates[1, 2] = rates[2, 1] = -1.0
        with pytest.raises(ValueError):
            validate_dephasing_rates(rates)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_dephasing_rejects_non_finite(self, value):
        rates = np.zeros((4, 4))
        rates[1, 2] = rates[2, 1] = value
        with pytest.raises(ValueError):
            validate_dephasing_rates(rates)

    def test_dephasing_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError):
            validate_dephasing_rates(np.eye(4))

    def test_relaxation_allows_asymmetric(self):
        rates = np.zeros((4, 4))
        rates[0, 1] = 2.0
        validate_relaxation_rates(rates)

    def test_relaxation_rejects_negative(self):
        rates = np.zeros((4, 4))
        rates[0, 1] = -2.0
        with pytest.raises(ValueError):
            validate_relaxation_rates(rates)


class TestPhenomenologicalSuperop:
    def test_all_rates_zero(self):
        assert np.array_equal(phenomenological_superop(np.zeros((4, 4))), np.zeros((16, 16)))

    def test_single_central_coherence_rate(self):
        rates = np.zeros((4, 4))
        rates[1, 2] = rates[2, 1] = 0.9
        sup = phenomenological_superop(rates)
        expected = np.zeros((16, 16), dtype=complex)
        expected[6, 6] = expected[9, 9] = -0.9
        assert np.array_equal(sup, expected)

    def test_two_level_decay_entries(self):
        relax = np.zeros((2, 2))
        relax[0, 1] = 0.4
        sup = phenomenological_superop(np.zeros((2, 2)), relax)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 3] = 0.4
        expected[3, 3] = -0.4
        assert np.array_equal(sup, expected)

    def test_trace_and_hermiticity_preserved(self):
        rng = np.random.default_rng(45)
        deph = rng.uniform(0, 2, size=(4, 4))
        deph = 0.5 * (deph + deph.T)
        np.fill_diagonal(deph, 0.0)
        relax = rng.uniform(0, 1, size=(4, 4))
        np.fill_diagonal(relax, 0.0)
        sup = phenomenological_superop(deph, relax)
        for _ in range(20):
            rho = random_density(rng, 4)
            out = apply(sup, rho)
            assert abs(np.trace(out)) <= 1e-12
            assert np.max(np.abs(out - out.conj().T)) <= 1e-12

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            phenomenological_superop(np.zeros((4, 4)), np.zeros((2, 2)))

    def test_matches_entrywise_loops_bit_for_bit(self):
        def reference(deph, relax):
            n = deph.shape[0]
            ld = np.zeros((n * n, n * n), dtype=complex)
            for i in range(n):
                for j in range(n):
                    if i != j:
                        ld[i * n + j, i * n + j] = -deph[i, j]
            for i in range(n):
                for k in range(n):
                    if i != k:
                        ld[i * n + i, k * n + k] += relax[i, k]
                        ld[k * n + k, k * n + k] -= relax[i, k]
            return ld

        rng = np.random.default_rng(46)
        for trial in range(400):
            n = 2 + trial % 4
            scales = 10.0 ** rng.integers(-8, 9, size=(2, n, n))
            # exact zeros among the rates, and -0.0 on some diagonals and zero rates
            deph = rng.uniform(size=(n, n)) * scales[0] * rng.integers(0, 2, size=(n, n))
            deph = np.triu(deph, 1) + np.triu(deph, 1).T
            relax = rng.uniform(size=(n, n)) * scales[1] * rng.integers(0, 2, size=(n, n))
            np.fill_diagonal(relax, 0.0)
            if trial % 3 == 0:
                np.fill_diagonal(deph, -0.0)
                relax[relax == 0] = -0.0
            expected = reference(deph, relax if trial % 2 else np.zeros((n, n)))
            got = phenomenological_superop(deph, relax if trial % 2 else None)
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


class TestPureDephasing:
    def test_zero_amplitudes(self):
        result = pure_dephasing_from_amplitudes(np.zeros(4))
        assert np.array_equal(result.rates, np.zeros((4, 4)))
        assert np.array_equal(result.superop, np.zeros((16, 16)))

    def test_alternating_amplitudes_rates(self):
        g = 0.35
        amps = np.array([0.0, np.sqrt(2 * g), -np.sqrt(2 * g), 0.0])
        result = pure_dephasing_from_amplitudes(amps)
        r = result.rates
        assert abs(r[1, 2] - 2 * g) <= 1e-12
        assert abs(r[0, 1] - g) <= 1e-12
        assert abs(r[2, 3] - g) <= 1e-12
        assert abs(r[0, 2] - g) <= 1e-12
        assert abs(r[1, 3] - g) <= 1e-12
        assert r[0, 3] == 0.0

    def test_matches_sum_of_independent_channels(self):
        # one Lindblad channel per level makes the generator insensitive to
        # the amplitude phases, so both construction routes must agree
        rng = np.random.default_rng(46)
        for _ in range(20):
            amps = rng.normal(size=4) + 1j * rng.normal(size=4)
            result = pure_dephasing_from_amplitudes(amps)
            total = np.zeros((16, 16), dtype=complex)
            for i in range(4):
                proj = np.zeros((4, 4), dtype=complex)
                proj[i, i] = amps[i]
                total += lindblad_dissipator_superop(proj)
            assert np.max(np.abs(result.superop - total)) <= 1e-12

    def test_single_collective_operator_differs(self):
        # a single collapse operator carrying all four amplitudes is NOT
        # equivalent: with equal amplitudes it is proportional to the
        # identity and generates nothing, while the per-level channels give
        # nonzero decay rates
        amps = np.array([0.5, 0.5, 0.5, 0.5])
        collective = lindblad_dissipator_superop(np.diag(amps).astype(complex))
        assert np.max(np.abs(collective)) <= 1e-15
        result = pure_dephasing_from_amplitudes(amps)
        assert np.max(np.abs(result.superop)) > 0.1

    def test_rates_always_pass_constraint_check(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            amps = rng.normal(size=4) * rng.choice([1, 1j], size=4)
            result = pure_dephasing_from_amplitudes(amps)
            check = check_dephasing_constraints(result.rates)
            assert check.physical


class TestConstraintCheck:
    def test_uniform_rates(self):
        rates = np.full((4, 4), 1.3)
        np.fill_diagonal(rates, 0.0)
        check = check_dephasing_constraints(rates)
        assert check.physical
        assert np.allclose(check.witness, 1.3, atol=1e-9)

    def test_pair_sum_violation(self):
        rates = np.zeros((4, 4))
        rates[0, 1] = rates[1, 0] = 1.0
        rates[2, 3] = rates[3, 2] = 1.0
        rates[0, 3] = rates[3, 0] = 1.0
        rates[1, 2] = rates[2, 1] = 1.0
        rates[0, 2] = rates[2, 0] = 2.0
        rates[1, 3] = rates[3, 1] = 2.0
        check = check_dephasing_constraints(rates)
        assert not check.physical
        assert check.witness is None

    def test_alternating_amplitude_witness(self):
        g = 0.6
        amps = np.array([0.0, np.sqrt(2 * g), -np.sqrt(2 * g), 0.0])
        rates = pure_dephasing_from_amplitudes(amps).rates
        check = check_dephasing_constraints(rates)
        assert check.physical
        assert np.allclose(check.witness, [0.0, 2 * g, 2 * g, 0.0], atol=1e-9)

    def test_equal_sums_with_negative_strength_rejected(self):
        # all three pair sums equal 1, yet the per-level solve forces one
        # strength to -1, so no diagonal-amplitude model exists
        rates = np.zeros((4, 4))
        for i, j, value in ((1, 2, 1.0), (2, 3, 1.0), (1, 3, 1.0)):
            rates[i, j] = rates[j, i] = value
        check = check_dephasing_constraints(rates)
        assert not check.physical
        assert check.witness is None

    def test_random_strengths_round_trip(self):
        rng = np.random.default_rng(48)
        for _ in range(100):
            x = rng.uniform(0.0, 3.0, size=4)
            rates = 0.5 * (x[:, None] + x[None, :])
            np.fill_diagonal(rates, 0.0)
            check = check_dephasing_constraints(rates)
            assert check.physical
            assert np.allclose(check.witness, x, atol=1e-9 * max(1.0, x.max()))

    def test_rejects_wrong_size(self):
        with pytest.raises(DimensionMismatchError):
            check_dephasing_constraints(np.zeros((3, 3)))

    def test_solver_failure_is_no_convergence(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")

        monkeypatch.setattr(np.linalg, "lstsq", fail)
        rates = np.full((4, 4), 1.3)
        np.fill_diagonal(rates, 0.0)
        with pytest.raises(NoConvergenceError, match="^least-squares solver failed: SVD did not converge"):
            check_dephasing_constraints(rates)


class TestAssembleLiouvillian:
    def test_requires_at_least_one_part(self):
        with pytest.raises(ValueError):
            assemble_liouvillian(None)

    def test_dissipation_only_passthrough(self):
        rates = np.zeros((4, 4))
        rates[1, 2] = rates[2, 1] = 1.0
        sup = phenomenological_superop(rates)
        assert np.array_equal(assemble_liouvillian(None, [sup]), sup)

    def test_sums_coherent_and_dissipative_parts(self):
        rng = np.random.default_rng(49)
        h = random_hermitian(rng, 4)
        rates = np.zeros((4, 4))
        rates[1, 2] = rates[2, 1] = 1.0
        sup = phenomenological_superop(rates)
        total = assemble_liouvillian(h, [sup])
        assert np.max(np.abs(total - hamiltonian_superop(h) - sup)) <= 1e-15

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(DimensionMismatchError):
            assemble_liouvillian(None, [np.zeros((16, 16)), np.zeros((4, 4))])

    def test_trace_and_hermiticity_preservation(self):
        rng = np.random.default_rng(50)
        h = random_hermitian(rng, 4)
        v = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        total = assemble_liouvillian(h, [lindblad_dissipator_superop(v)])
        for _ in range(20):
            rho = random_density(rng, 4)
            out = apply(total, rho)
            assert abs(np.trace(out)) <= 1e-12 * max(1.0, np.max(np.abs(out)))
            assert np.max(np.abs(out - out.conj().T)) <= 1e-11


class TestVectorizationIdentity:
    def test_two_sided_product_maps_to_kron(self):
        rng = np.random.default_rng(51)
        for _ in range(50):
            a, b, rho = (
                rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) for _ in range(3)
            )
            lhs = vectorize(a @ rho @ b)
            rhs = _two_sided(a, b) @ vectorize(rho)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12
