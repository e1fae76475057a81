import numpy as np
import pytest

import entdyn.quantum
from entdyn.errors import (
    DimensionMismatchError,
    InvalidStateError,
    LeakyStateError,
    NonFiniteError,
    NotHermitianError,
    NotPSDError,
    OutsideBlochBallError,
)
from entdyn.evolution import steady_state
from entdyn.generators import assemble_liouvillian
from entdyn.quantum import (
    bell_state,
    bloch_from_density,
    concurrence,
    concurrence_2x2_embedded,
    density_from_bloch,
    density_from_pure,
    devectorize,
    embed_23,
    purity,
    restrict_23,
    validate_density,
    vectorize,
)
from helpers import random_density, random_pure, random_unitary


def decayed_coherence_state(t, rate=1.0):
    """Density matrix of the pair-coherence family: equal central
    populations 1/2 and central coherences (1/2) e^(-rate t)."""
    rho = np.zeros((4, 4), dtype=complex)
    rho[1, 1] = rho[2, 2] = 0.5
    rho[1, 2] = rho[2, 1] = 0.5 * np.exp(-rate * t)
    return rho


class TestStatesAndValidation:
    def test_bell_state_vector(self):
        assert np.allclose(bell_state(), np.array([0, 1, 1, 0]) / np.sqrt(2), atol=1e-15)

    def test_density_from_pure_is_projector(self):
        rho = density_from_pure(bell_state())
        assert np.max(np.abs(rho @ rho - rho)) <= 1e-12

    def test_density_from_pure_rejects_unnormalized(self):
        with pytest.raises(InvalidStateError):
            density_from_pure(np.array([1.0, 1.0]))

    def test_validate_density_accepts_valid(self):
        rng = np.random.default_rng(21)
        validate_density(random_density(rng, 4))

    def test_validate_density_rejects_bad_trace(self):
        with pytest.raises(InvalidStateError) as excinfo:
            validate_density(np.eye(4) / 2)
        assert str(excinfo.value) == "trace 2.000000000000 deviates from 1 beyond 1.0e-10"

    def test_validate_density_rejects_non_hermitian(self):
        rho = np.eye(4) / 4 + 0.0j
        rho[0, 1] = 1e-3
        with pytest.raises(NotHermitianError):
            validate_density(rho)

    def test_validate_density_rejects_indefinite(self):
        with pytest.raises(NotPSDError):
            validate_density(np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex))


class TestVectorization:
    def test_bell_density_layout(self):
        r = vectorize(density_from_pure(bell_state()))
        expected = 0.5 * np.array([0, 0, 0, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 0, 0, 0])
        assert np.allclose(r, expected, atol=1e-15)

    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(22)
        for n in (2, 4):
            rho = random_density(rng, n)
            assert np.array_equal(devectorize(vectorize(rho)), rho)

    def test_maximally_mixed_layout(self):
        r = vectorize(np.eye(4) / 4)
        assert np.allclose(r[[0, 5, 10, 15]], 0.25, atol=1e-15)
        mask = np.ones(16, dtype=bool)
        mask[[0, 5, 10, 15]] = False
        assert np.all(r[mask] == 0)

    def test_devectorize_rejects_bad_length(self):
        with pytest.raises(DimensionMismatchError):
            devectorize(np.zeros(5))

    def test_devectorized_zero_fails_validation(self):
        with pytest.raises(InvalidStateError):
            validate_density(devectorize(np.zeros(16)))

    @pytest.mark.parametrize(
        "check, operand",
        [
            pytest.param(devectorize, np.zeros(15), id="devectorize"),
            pytest.param(lambda l: assemble_liouvillian(None, [l]), np.zeros((15, 15)), id="assemble_liouvillian"),
            pytest.param(steady_state, np.zeros((15, 15)), id="generator"),
        ],
    )
    def test_liouville_size_must_be_a_square(self, check, operand):
        with pytest.raises(DimensionMismatchError, match="size 15 is not a perfect square"):
            check(operand)


class TestBloch:
    def test_maximally_mixed_is_origin(self):
        assert np.allclose(bloch_from_density(np.eye(2) / 2), [0, 0, 0], atol=1e-15)

    def test_ground_state_is_north_pole(self):
        assert np.allclose(bloch_from_density(np.diag([1.0, 0.0])), [0, 0, 1], atol=1e-15)

    def test_bell_block_points_along_x(self):
        block = restrict_23(density_from_pure(bell_state()))
        assert np.allclose(bloch_from_density(block), [1, 0, 0], atol=1e-12)

    def test_round_trips(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            s = rng.normal(size=3)
            s *= rng.uniform(0, 1) / np.linalg.norm(s)
            assert np.max(np.abs(bloch_from_density(density_from_bloch(s)) - s)) <= 1e-12
            rho = random_density(rng, 2)
            rebuilt = density_from_bloch(bloch_from_density(rho))
            assert np.max(np.abs(rebuilt - rho)) <= 1e-12

    def test_purity_from_bloch_norm(self):
        rng = np.random.default_rng(24)
        for _ in range(200):
            rho = random_density(rng, 2)
            s = bloch_from_density(rho)
            assert abs(purity(rho) - 0.5 * (1 + s @ s)) <= 1e-12

    def test_rejects_outside_ball(self):
        with pytest.raises(OutsideBlochBallError):
            density_from_bloch([1.1, 0.0, 0.0])


class TestBlockRestriction:
    def test_bell_block(self):
        block = restrict_23(density_from_pure(bell_state()))
        assert np.allclose(block, 0.5 * np.ones((2, 2)), atol=1e-15)

    def test_embed_maximally_mixed(self):
        out = embed_23(np.eye(2) / 2)
        assert np.allclose(out, np.diag([0.0, 0.5, 0.5, 0.0]), atol=1e-15)

    def test_decayed_coherence_family(self):
        for t in (0.0, 0.5, 2.0):
            block = restrict_23(decayed_coherence_state(t))
            kappa = 0.5 * np.exp(-t)
            assert np.allclose(block, [[0.5, kappa], [kappa, 0.5]], atol=1e-15)

    def test_embed_then_restrict_round_trip(self):
        rng = np.random.default_rng(25)
        rho = random_density(rng, 2)
        assert np.array_equal(restrict_23(embed_23(rho)), rho)

    def test_restrict_rejects_leaky(self):
        with pytest.raises(LeakyStateError):
            restrict_23(np.diag([0.1, 0.45, 0.45, 0.0]).astype(complex))


class TestPurity:
    def test_pure_states(self):
        rng = np.random.default_rng(26)
        for n in (2, 4):
            rho = density_from_pure(random_pure(rng, n))
            assert abs(purity(rho) - 1.0) <= 1e-12

    def test_maximally_mixed(self):
        assert abs(purity(np.eye(2) / 2) - 0.5) <= 1e-15
        assert abs(purity(np.eye(4) / 4) - 0.25) <= 1e-15

    def test_balanced_coherence_value(self):
        # diagonal (1/2, 1/2) with off-diagonal i/3: trace of the square is
        # 1/2 + 2/9 = 13/18
        rho = np.array([[0.5, 1j / 3], [-1j / 3, 0.5]])
        assert abs(purity(rho) - 13.0 / 18.0) <= 1e-12


class TestConcurrence:
    def test_bell_state_is_one(self):
        assert abs(concurrence(density_from_pure(bell_state())) - 1.0) <= 1e-12

    def test_product_states_are_zero(self):
        for k in range(4):
            v = np.zeros(4, dtype=complex)
            v[k] = 1.0
            assert concurrence(density_from_pure(v)) <= 1e-10
        rng = np.random.default_rng(27)
        for _ in range(100):
            v = np.kron(random_unitary(rng, 2), random_unitary(rng, 2)) @ np.array(
                [1, 0, 0, 0], dtype=complex
            )
            assert concurrence(density_from_pure(v.reshape(-1))) <= 1e-10

    def test_rotation_family(self):
        for theta in np.linspace(0.0, np.pi, 41):
            v = np.array([0, np.cos(theta), 1j * np.sin(theta), 0])
            c = concurrence(density_from_pure(v))
            assert abs(c - abs(np.sin(2 * theta))) <= 1e-12

    def test_decayed_coherence_family(self):
        for t in np.linspace(0.0, 5.0, 21):
            assert abs(concurrence(decayed_coherence_state(t)) - np.exp(-t)) <= 1e-12

    def test_pure_block_states(self):
        rng = np.random.default_rng(28)
        for _ in range(500):
            w = random_pure(rng, 2)
            rho = density_from_pure(np.array([0, w[0], w[1], 0]))
            assert abs(concurrence(rho) - 2 * abs(w[0] * np.conj(w[1]))) <= 1e-10

    def test_range_on_random_mixed_states(self):
        rng = np.random.default_rng(29)
        for _ in range(10_000):
            c = concurrence(random_density(rng, 4))
            assert 0.0 <= c <= 1.0 + 1e-12

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(30)
        for _ in range(300):
            rho = random_density(rng, 4)
            u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
            rotated = u @ rho @ u.conj().T
            assert abs(concurrence(rotated) - concurrence(rho)) <= 1e-9

    def test_isotropic_mixture_threshold(self):
        # mixing the Bell state with weight p into white noise gives
        # concurrence max(0, (3p - 1) / 2)
        bell = density_from_pure(bell_state())
        for p in (0.0, 0.2, 1.0 / 3.0, 0.5, 0.8, 1.0):
            rho = p * bell + (1 - p) * np.eye(4) / 4
            assert abs(concurrence(rho) - max(0.0, (3 * p - 1) / 2)) <= 1e-12

    def test_rejects_non_hermitian(self):
        rho = np.eye(4, dtype=complex) / 4
        rho[0, 1] = 1e-3
        with pytest.raises(NotHermitianError):
            concurrence(rho)

    def test_rejects_wrong_shape(self):
        with pytest.raises(DimensionMismatchError):
            concurrence(np.eye(2) / 2)

    def test_rejects_trace_off_one(self, general_route):
        # Wootters' concurrence is defined on unit-trace states; 2e-8 is past the 1e-8 gate
        rho = np.diag([0.0, 0.5, 0.5 + 2e-8, 0.0]).astype(complex)
        message = "trace 1.000000020000 deviates from 1 beyond 1.0e-08"
        with pytest.raises(InvalidStateError) as excinfo:
            concurrence(rho)
        assert str(excinfo.value) == message
        with pytest.raises(InvalidStateError) as excinfo:
            general_route(concurrence, rho)
        assert str(excinfo.value) == message
        assert concurrence(np.diag([0.0, 0.5, 0.5 + 5e-9, 0.0])) == 0.0


class TestEmbeddedConcurrence:
    def test_maximally_mixed_block(self):
        assert concurrence_2x2_embedded(np.eye(2) / 2) == 0.0

    def test_bell_block(self):
        assert abs(concurrence_2x2_embedded(0.5 * np.ones((2, 2))) - 1.0) <= 1e-12

    def test_balanced_coherence_value(self):
        rho = np.array([[0.5, 1j / 3], [-1j / 3, 0.5]])
        assert abs(concurrence_2x2_embedded(rho) - 2.0 / 3.0) <= 1e-12

    def test_needs_no_decomposition_or_embedding(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("not expected on the closed-form route")

        for name in ("eigh", "svd"):
            monkeypatch.setattr(np.linalg, name, refuse)
        monkeypatch.setattr(entdyn.quantum, "embed_23", refuse)
        rho = np.array([[0.5, 1j / 3], [-1j / 3, 0.5]])
        assert abs(concurrence_2x2_embedded(np.array([rho, np.eye(2) / 2]))[0] - 2.0 / 3.0) <= 1e-15

    def test_hermiticity_error_before_positivity_error(self):
        # the first failing sample is both indefinite and non-Hermitian
        rng = np.random.default_rng(33)
        states = random_stack(rng, 40, 2)
        states[7] = np.diag([1.5, -0.5])
        states[7, 0, 1] = 1e-3
        states[9] = np.diag([2.0, -1.0])
        with pytest.raises(NotHermitianError) as excinfo:
            concurrence_2x2_embedded(states)
        assert "1.000e-03" in str(excinfo.value)

    def test_rejects_trace_off_one(self):
        rho = np.diag([0.5, 0.5 + 2e-8]).astype(complex)
        with pytest.raises(InvalidStateError) as excinfo:
            concurrence_2x2_embedded(rho)
        assert str(excinfo.value) == "trace 1.000000020000 deviates from 1 beyond 1.0e-08"
        # an imaginary part within the Hermiticity gate is named; a real trace prints none
        with pytest.raises(InvalidStateError) as excinfo:
            concurrence_2x2_embedded(np.diag([0.5, 0.5 + 2e-8 + 1e-9j]))
        assert str(excinfo.value) == "trace 1.000000020000 (imaginary part 1.000e-09) deviates from 1 beyond 1.0e-08"
        assert concurrence_2x2_embedded(np.diag([0.5, 0.5 + 5e-9])) == 0.0

    def test_round_off_asymmetry_within_gate_is_accepted(self):
        rho = np.array([[0.5, 0.25], [0.25, 0.5]], dtype=complex)
        rho[0, 1] += 4e-9
        assert abs(concurrence_2x2_embedded(rho) - (0.5 + 4e-9)) <= 1e-15
        rho[0, 1] += 2e-8
        with pytest.raises(NotHermitianError):
            concurrence_2x2_embedded(rho)

    def test_matches_full_computation_on_supported_states(self):
        # C = 2|rho_01| against the full spin-flip computation
        rng = np.random.default_rng(31)
        states = [random_density(rng, 2) for _ in range(200)]
        states += [density_from_pure(random_pure(rng, 2)) for _ in range(50)]
        states += [np.diag([1.0, 0.0]), 0.5 * np.ones((2, 2)), np.eye(2) / 2]
        for rho in states:
            full = concurrence(embed_23(rho))
            assert abs(concurrence_2x2_embedded(rho) - full) <= 1e-14
            assert abs(concurrence_2x2_embedded(restrict_23(embed_23(rho))) - full) <= 1e-14


def random_stack(rng, count, n):
    return np.array([random_density(rng, n) for _ in range(count)])


def random_x_state(rng, rank_one_blocks=False):
    """A two-qubit X-state: random 2x2 blocks on levels (0, 3) and (1, 2), weighted to trace 1."""
    rho = np.zeros((4, 4), dtype=complex)
    weight = rng.uniform()
    for levels, share in (([0, 3], weight), ([1, 2], 1.0 - weight)):
        block = density_from_pure(random_pure(rng, 2)) if rank_one_blocks else random_density(rng, 2)
        rho[np.ix_(levels, levels)] = share * block
    return rho


def x_state_family(rng):
    """Random X-states, rank-deficient ones, and ones with populations at -1e-12."""
    states = [random_x_state(rng) for _ in range(200)]
    states += [random_x_state(rng, rank_one_blocks=True) for _ in range(100)]
    states += [np.diag(rng.dirichlet(np.ones(4))).astype(complex) for _ in range(20)]
    states += [density_from_pure(bell_state()), np.diag([1.0, 0, 0, 0]).astype(complex), np.eye(4) / 4]
    for _ in range(100):
        rho = random_x_state(rng)
        # one block becomes a diagonal with a round-off negative population
        levels = [[0, 3], [1, 2]][rng.integers(2)]
        low, high = levels if rng.integers(2) else levels[::-1]
        share = rho[low, low].real + rho[high, high].real
        rho[low, high] = rho[high, low] = 0.0
        rho[low, low], rho[high, high] = -1e-12, share + 1e-12
        states.append(rho)
    return np.array(states)


@pytest.fixture
def general_route(monkeypatch):
    """Send every stack through the stacked LAPACK route (eigh and Wootters)."""

    def route(function, states):
        with monkeypatch.context() as patch:
            patch.setattr(entdyn.quantum, "_two_level_blocks", lambda stack: None)
            return function(states)

    return route


class TestClosedForms:
    """Qubit stacks and X-state stacks against the eigh and Wootters route."""

    def test_x_state_concurrence_matches_wootters(self, general_route):
        states = x_state_family(np.random.default_rng(61))
        closed = concurrence(states)
        assert np.max(np.abs(closed - general_route(concurrence, states))) <= 1e-14
        assert np.max(np.abs(closed - [concurrence(rho) for rho in states])) == 0.0

    def test_x_state_lowest_eigenvalue_matches_eigh(self):
        states = x_state_family(np.random.default_rng(62))
        a, b, c, _ = entdyn.quantum._two_level_blocks(states)
        lowest = np.linalg.eigvalsh(states)[:, 0]
        assert np.max(np.abs(entdyn.quantum._lowest_eigenvalues(a, b, c) - lowest)) <= 1e-14

    def test_qubit_lowest_eigenvalue_matches_eigh(self):
        rng = np.random.default_rng(63)
        states = random_stack(rng, 300, 2)
        states[:100] = [density_from_pure(random_pure(rng, 2)) for _ in range(100)]
        states[100:120] = np.diag([-1e-12, 1.0 + 1e-12])
        a, b, c, _ = entdyn.quantum._two_level_blocks(states)
        lowest = np.linalg.eigvalsh(states)[:, 0]
        assert np.max(np.abs(entdyn.quantum._lowest_eigenvalues(a, b, c) - lowest)) <= 1e-14

    def test_validation_matches_the_general_route(self, general_route):
        rng = np.random.default_rng(64)
        states = x_state_family(rng)
        validate_density(states)
        for rho in (np.diag([1.5, -0.5, 0.0, 0.0]), np.diag([1.0 + 2e-9, 0.0, -2e-9, 0.0])):
            with pytest.raises(NotPSDError) as closed:
                validate_density(rho)
            with pytest.raises(NotPSDError) as general:
                general_route(validate_density, rho)
            assert str(closed.value) == str(general.value)

    def test_general_route_clips_round_off_negative_eigenvalues(self, general_route):
        # the Bell state with eigenvalues eps on |00> and -eps on |11>: down to
        # -1e-9 the square root clips -eps to zero, and C stays 1
        bell = density_from_pure(bell_state())
        rho = bell + np.diag([1e-10, 0.0, 0.0, -1e-10])
        assert abs(general_route(concurrence, rho) - 1.0) <= 1e-12
        with pytest.raises(NotPSDError, match="below -1.0e-09"):
            general_route(concurrence, bell + np.diag([2e-9, 0.0, 0.0, -2e-9]))

    def test_closed_forms_need_no_decomposition(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("not expected on the closed-form route")

        for name in ("eigh", "svd"):
            monkeypatch.setattr(np.linalg, name, refuse)
        rng = np.random.default_rng(65)
        states = x_state_family(rng)
        assert validate_density(states) is states
        assert concurrence(states).shape == (len(states),)
        validate_density(random_stack(rng, 5, 2))

    def test_one_entry_off_the_x_pattern_takes_the_general_route(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(m):
            calls.append(m.shape)
            return eigh(m)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        states = x_state_family(np.random.default_rng(66))
        states[5, 0, 1] = states[5, 1, 0] = 1e-300
        concurrence(states)
        validate_density(states)
        assert len(calls) == 2 * -(-len(states) // entdyn.quantum._BLOCK)


class TestStacks:
    """A stack of N matrices behaves like N single-matrix calls.

    600 matrices span three blocks of the stacked kernels.
    """

    def test_stacked_calls_equal_per_matrix_calls(self):
        rng = np.random.default_rng(51)
        states = random_stack(rng, 600, 4)
        states[100] = density_from_pure(bell_state())
        states[400] = np.diag([1.0, 0.0, 0.0, 0.0])
        assert validate_density(states) is not None
        single = np.array([concurrence(rho) for rho in states])
        assert np.max(np.abs(concurrence(states) - single)) <= 1e-14
        assert np.max(np.abs(purity(states) - [purity(rho) for rho in states])) <= 1e-14

    def test_stacked_qubit_calls_equal_per_matrix_calls(self):
        rng = np.random.default_rng(52)
        states = random_stack(rng, 600, 2)
        single = np.array([concurrence_2x2_embedded(rho) for rho in states])
        assert np.max(np.abs(concurrence_2x2_embedded(states) - single)) <= 1e-14
        bloch = np.array([bloch_from_density(rho) for rho in states])
        assert np.max(np.abs(bloch_from_density(states) - bloch)) <= 1e-14
        assert np.array_equal(embed_23(states), [embed_23(rho) for rho in states])

    @pytest.mark.parametrize(
        "function, structure",
        [
            pytest.param(concurrence, "general", id="concurrence"),
            pytest.param(validate_density, "general", id="validate_density"),
            pytest.param(concurrence_2x2_embedded, "qubit", id="concurrence_2x2_embedded"),
            pytest.param(concurrence, "x", id="concurrence-x_state"),
            pytest.param(validate_density, "x", id="validate_density-x_state"),
            pytest.param(validate_density, "qubit", id="validate_density-qubit"),
        ],
    )
    def test_first_failing_matrix_sets_the_error(self, function, structure):
        rng = np.random.default_rng(53)
        if structure == "x":
            states = np.array([random_x_state(rng) for _ in range(600)])
        else:
            states = random_stack(rng, 600, 2 if structure == "qubit" else 4)
        n = states.shape[-1]
        # sample 300 is indefinite; sample 301, in the same block, is far
        # from Hermitian, and a block-wide check alone would report it first
        states[300] = np.diag([1.5, -0.5, 0.0, 0.0])[:n, :n]
        states[301, 0, n - 1] += 1e-3
        with pytest.raises(NotPSDError) as single:
            function(states[300])
        with pytest.raises(NotPSDError) as stacked:
            function(states)
        assert str(stacked.value) == str(single.value)

    @pytest.mark.parametrize("function", [concurrence, validate_density])
    def test_general_route_stops_at_the_failing_block(self, function, monkeypatch):
        # one eigh per block up to the failing one, and no rerun of single matrices
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(len(m)) or eigh(m))
        states = random_stack(np.random.default_rng(54), 600, 4)
        states[300] = np.diag([1.5, -0.5, 0.0, 0.0])
        states[301, 0, 3] += 1e-3
        with pytest.raises(NotPSDError) as excinfo:
            function(states)
        assert str(excinfo.value) == "eigenvalue -5.000e-01 below -1.0e-09"
        assert calls == [entdyn.quantum._BLOCK, entdyn.quantum._BLOCK]

    def test_rejects_stack_of_wrong_shape(self):
        with pytest.raises(DimensionMismatchError):
            concurrence(np.zeros((3, 2, 2)))
        with pytest.raises(DimensionMismatchError):
            validate_density(np.zeros((2, 3, 4, 4)))

    @pytest.mark.parametrize("function", [purity, bloch_from_density, embed_23, vectorize, restrict_23])
    def test_rejects_non_finite_entries(self, function):
        rho = 0.5 * np.eye(2, dtype=complex)
        rho[0, 1] = np.nan
        if function is restrict_23:
            # the same state in the central block, so only the NaN is wrong
            rho = np.pad(rho, 1)
        with pytest.raises(NonFiniteError):
            function(rho)


def test_concurrence_accepts_round_off_asymmetry():
    # Integrated states drift 1e-10 to 3e-10 from Hermitian: inside the
    # 1e-8 gate, so their Hermitian part is used
    rho = decayed_coherence_state(0.5)
    drifted = rho.copy()
    drifted[1, 2] += 3e-10
    assert abs(concurrence(drifted) - concurrence(rho)) <= 1e-9
