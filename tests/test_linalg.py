import warnings

import numpy as np
import pytest

from entdyn.errors import (
    DimensionMismatchError,
    NoConvergenceError,
    NonFiniteError,
    NotHermitianError,
    SingularMatrixError,
)
from entdyn.evolution import _sector_labels
from entdyn.feedback import FeedbackParams, wm_full_generator, wm_subspace_generator
from entdyn.generators import _two_sided
from entdyn import linalg
from entdyn.linalg import expm, hermitian_eig, solve_linear
from helpers import assert_multiset_close, eig_real_3x3, random_hermitian

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)


class TestKron:
    """The two-sided-product rule: rho -> A rho B as the superoperator kron(A, B.T)."""

    def test_z_with_identity(self):
        assert np.array_equal(_two_sided(Z, I2), np.diag([1, 1, -1, -1]).astype(complex))

    def test_identity_with_identity(self):
        assert np.array_equal(_two_sided(I2, I2), np.eye(4, dtype=complex))

    def test_mixed_product_rule(self):
        # applying C . D and then A . B is the two-sided product AC . DB
        rng = np.random.default_rng(11)
        for _ in range(200):
            a, b, c, d = (
                rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(4)
            )
            lhs = _two_sided(a, b) @ _two_sided(c, d)
            rhs = _two_sided(a @ c, d @ b)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_associativity(self):
        # A (rho B) = (A rho) B: left and right products commute and make the two-sided one
        rng = np.random.default_rng(12)
        a, b = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(2))
        eye = np.eye(3, dtype=complex)
        left, right = _two_sided(a, eye), _two_sided(eye, b)
        assert np.max(np.abs(left @ right - right @ left)) <= 1e-12
        assert np.max(np.abs(left @ right - _two_sided(a, b))) <= 1e-12

    def test_agrees_with_kron_of_transpose(self):
        rng = np.random.default_rng(13)
        for n in (1, 2, 3, 4):
            a, b = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for _ in range(2))
            assert np.array_equal(_two_sided(a, b), np.kron(a, b.T))

    def test_xx_contributes_to_central_coupling(self):
        # the isotropic two-qubit exchange is off-diagonal only on the
        # central block, where each of XX and YY contributes one unit
        coupling = np.kron(X, X) + np.kron(np.array([[0, -1j], [1j, 0]]), np.array([[0, -1j], [1j, 0]]))
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 2] = expected[2, 1] = 2.0
        assert np.max(np.abs(coupling - expected)) <= 1e-15


class TestHermitianEig:
    def test_pauli_z(self):
        values, _ = hermitian_eig(Z)
        assert np.allclose(values, [-1.0, 1.0], atol=1e-14)

    def test_identity(self):
        values, vectors = hermitian_eig(np.eye(4))
        assert np.allclose(values, 1.0, atol=1e-14)
        assert np.max(np.abs(vectors.conj().T @ vectors - np.eye(4))) <= 1e-12

    def test_central_block_splitting(self):
        # two equal local splittings a=b=1 and exchange c=0.5: the central
        # block is [[-c, 2c], [2c, -c]] with eigenvalues -c - 2c and -c + 2c
        h = np.diag([2.5, -0.5, -0.5, -1.0]).astype(complex)
        h[1, 2] = h[2, 1] = 1.0
        values, _ = hermitian_eig(h)
        assert_multiset_close(values, [2.5, -1.5, 0.5, -1.0], 1e-12)

    def test_reconstruction_and_unitarity(self):
        rng = np.random.default_rng(13)
        for n in (2, 3, 4, 16):
            for _ in range(250):
                m = random_hermitian(rng, n)
                values, vectors = hermitian_eig(m)
                assert np.all(np.diff(values) >= 0)
                scale = max(1.0, np.max(np.abs(m)))
                rebuilt = (vectors * values) @ vectors.conj().T
                assert np.max(np.abs(rebuilt - m)) <= 1e-10 * scale
                gram = vectors.conj().T @ vectors
                assert np.max(np.abs(gram - np.eye(n))) <= 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatchError):
            hermitian_eig(np.zeros((2, 3)))


@pytest.fixture(scope="module")
def scipy_expm():
    """scipy's expm, the reference the tests hold entdyn's own against."""
    return pytest.importorskip("scipy.linalg").expm


def assert_matches_reference(a, reference_expm):
    """max|E - E_ref| ≤ 1e-13 max(1, ‖A‖₁) max|E_ref|: the gate widens with the norm, as squaring loses digits."""
    expected = reference_expm(a)
    gap = np.max(np.abs(expm(a) - expected))
    bound = 1e-13 * max(1.0, np.abs(a).sum(axis=0).max()) * np.max(np.abs(expected))
    assert gap <= bound, (gap, bound)


def taylor_expm_longdouble(a) -> np.ndarray:
    """exp(A) as a Taylor series summed in np.clongdouble: A scaled by a power of two to ‖A‖₁ ≤ 1/2, then squared back."""
    a = np.asarray(a, dtype=np.clongdouble)
    squarings = max(0, int(np.ceil(np.log2(2.0 * float(np.abs(a).sum(axis=0).max())))))
    a = a / np.longdouble(2.0) ** squarings
    term = np.eye(a.shape[0], dtype=np.clongdouble)
    total = term.copy()
    # the 26th term is below 2^-26 / 26! ~ 4e-35 of the sum
    for k in range(1, 26):
        term = term @ a / k
        total = total + term
    for _ in range(squarings):
        total = total @ total
    return total


def feedback_sector_blocks() -> list:
    """1500 sector blocks of seeded feedback generators, each scaled by a step.

    Rates log-uniform over 1e-6 to 1e9 and steps over 1e-4 to 10 give 1-norms
    from 1e-5 to 1e10, from no squaring up to 32 squarings.
    """
    rng = np.random.default_rng(132)

    def rate():
        return 10.0 ** rng.uniform(-6, 9)

    blocks = []
    for _ in range(300):
        params = FeedbackParams(
            m=rate(), f=rate(), gamma=rate(), mu=rng.choice([-1, 1]) * rate(), y=rng.choice([-1, 1]) * rate()
        )
        dt = 10.0 ** rng.uniform(-4, 1)
        for gen in (wm_full_generator(params), wm_subspace_generator(params)):
            labels = _sector_labels(gen)
            for label in np.unique(labels):
                idx = np.flatnonzero(labels == label)
                blocks.append(gen[np.ix_(idx, idx)] * dt)
    return blocks


class TestExpm:
    def test_zero_matrix(self):
        assert np.allclose(expm(np.zeros((3, 3))), np.eye(3), atol=1e-14)

    def test_nilpotent_operand_with_large_norm(self):
        # ‖A‖₁ = 90 asks for the backward-error count, and |A|²⁷ = 0 ends it
        a = np.triu(np.full((4, 4), 30.0), 1)
        a2 = a @ a
        expected = np.eye(4) + a + a2 / 2 + a2 @ a / 6
        assert np.max(np.abs(expm(a) - expected)) <= 1e-15 * np.max(np.abs(expected))

    def test_pauli_rotation(self):
        theta = 0.7
        expected = np.cos(theta) * I2 + 1j * np.sin(theta) * X
        assert np.max(np.abs(expm(1j * theta * X) - expected)) <= 1e-12

    def test_central_block_rotation(self):
        # with equal local splittings the central block rotates the pair
        # state into e^(i t x2) [0, cos(t y), i sin(t y), 0]
        h = np.diag([2.5, -0.5, -0.5, -1.0]).astype(complex)
        h[1, 2] = h[2, 1] = 1.0
        t = 0.9
        v = expm(1j * t * h) @ np.array([0, 1, 0, 0], dtype=complex)
        expected = np.exp(-0.5j * t) * np.array([0, np.cos(t), 1j * np.sin(t), 0])
        assert np.max(np.abs(v - expected)) <= 1e-12

    def test_inverse_pairs(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            m *= 2.0 / max(1.0, np.linalg.norm(m))
            assert np.max(np.abs(expm(m) @ expm(-m) - np.eye(4))) <= 1e-9

    def test_unitary_for_anti_hermitian(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            u = expm(1j * random_hermitian(rng, 4))
            assert np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 1e-9

    def test_random_dense_matrices(self, scipy_expm):
        rng = np.random.default_rng(131)
        for n in range(1, 17):
            for _ in range(20):
                a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                assert_matches_reference(a * 10.0 ** rng.uniform(-3, 2) / np.abs(a).sum(axis=0).max(), scipy_expm)

    def test_feedback_generator_sector_blocks(self, scipy_expm):
        for block in feedback_sector_blocks():
            assert_matches_reference(block, scipy_expm)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-18, reason="long double is no wider than double")
    def test_sector_steps_within_eight_ulp_of_long_double_taylor(self):
        # small steps, dt ‖L‖₁ from 1e-4 to 2, take no squaring: the
        # [13/13] approximant alone must stay within 8 eps of the exact exponential
        rng = np.random.default_rng(134)
        eps = np.finfo(float).eps

        def rate():
            return 10.0 ** rng.uniform(-6, 9)

        worst = 0.0
        for _ in range(600):
            params = FeedbackParams(
                m=rate(), f=rate(), gamma=rate(), mu=rng.choice([-1, 1]) * rate(), y=rng.choice([-1, 1]) * rate()
            )
            gen = wm_subspace_generator(params)
            a = gen * (10.0 ** rng.uniform(-4, np.log10(2.0)) / np.abs(gen).sum(axis=0).max())
            reference = taylor_expm_longdouble(a)
            gap = float(np.max(np.abs(expm(a) - reference)))
            worst = max(worst, gap / (eps * float(np.max(np.abs(reference)))))
        assert worst <= 8.0, worst

    def test_nilpotent_operand_with_non_nilpotent_modulus(self, scipy_expm):
        # A² = 0, so every d_p is 0, while |A| is not nilpotent and ell asks for squarings
        a = np.array([[10.0, 10.0], [-10.0, -10.0]])
        assert np.max(np.abs(expm(a) - (np.eye(2) + a))) <= 1e-13 * 20 * 11
        assert_matches_reference(a, scipy_expm)

    def test_diagonal_and_zero_operands_are_exact(self, scipy_expm):
        rng = np.random.default_rng(133)
        for n in range(1, 6):
            zero = np.zeros((n, n), dtype=complex)
            assert np.array_equal(expm(zero), np.eye(n))
            d = rng.normal(size=n) + 1j * rng.normal(size=n)
            d[rng.uniform(size=n) < 0.3] = 0
            for a in (zero, np.diag(d), np.diag(d.real + 0j)):
                assert np.array_equal(expm(a), scipy_expm(a))
                assert np.array_equal(expm(a), np.diag(np.exp(np.diagonal(a))))

    @pytest.mark.parametrize(
        "a",
        [np.diag([800.0, 0.0]), np.array([[800.0, 1.0], [0.0, 0.0]]), np.full((2, 2), 1e308)],
        ids=["diagonal", "triangular", "norm-beyond-double"],
    )
    def test_overflow_is_non_finite_without_a_warning(self, a):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError):
                expm(a)


#: operands whose exponential fails, each with the error a call on it alone raises
FAILING_OPERANDS = {
    "diagonal": np.diag([800.0, 0.0]),
    "triangular": np.array([[800.0, 1.0], [0.0, 0.0]]),
    "norm-beyond-double": np.full((2, 2), 1e308),
}


def single_call_error(a) -> str:
    with pytest.raises(NonFiniteError) as info:
        expm(a)
    return str(info.value)


class TestExpmStack:
    def test_sector_blocks_in_one_call_match_the_per_matrix_calls(self):
        blocks = feedback_sector_blocks()
        stack = np.array(blocks)
        squarings = [linalg._squarings(linalg._powers(b)) for b in blocks]
        # the blocks take every s from no squaring to 32
        assert min(squarings) == 0 and max(squarings) == 32
        assert len(set(squarings)) > 20
        stacked = expm(stack)
        assert stacked.shape == stack.shape
        for block, out in zip(blocks, stacked):
            assert np.array_equal(out, expm(block))

    def test_stack_of_one_is_the_matrix_call(self):
        for block in feedback_sector_blocks()[::15]:
            single = expm(block[None])
            assert single.shape == (1,) + block.shape
            assert np.array_equal(single[0], expm(block))

    def test_diagonal_and_general_members_match_the_per_matrix_calls(self):
        rng = np.random.default_rng(135)
        stack = rng.normal(size=(12, 3, 3)) + 1j * rng.normal(size=(12, 3, 3))
        stack *= 10.0 ** rng.uniform(-3, 1.5, size=(12, 1, 1))
        stack[::3] *= np.eye(3)
        stack[1] = 0
        stacked = expm(stack)
        for a, out in zip(stack, stacked):
            assert np.array_equal(out, expm(a))

    def test_empty_operands(self):
        assert expm(np.zeros((0, 0))).shape == (0, 0)
        assert expm(np.zeros((0, 3, 3))).shape == (0, 3, 3)

    @pytest.mark.parametrize("name", FAILING_OPERANDS)
    def test_failing_member_raises_its_single_call_error(self, name):
        a = FAILING_OPERANDS[name]
        stack = np.array([0.1 * np.ones((2, 2)), np.diag([1.0, 2.0]), a, np.eye(2)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError) as info:
                expm(stack)
        assert str(info.value) == single_call_error(a)

    def test_first_failing_member_names_the_error(self):
        # member 1's result overflows and member 2's norm does: member 1 is first
        triangular, beyond = FAILING_OPERANDS["triangular"], FAILING_OPERANDS["norm-beyond-double"]
        assert single_call_error(triangular) != single_call_error(beyond)
        for stack, first in (([np.eye(2), triangular, beyond], triangular), ([np.eye(2), beyond, triangular], beyond)):
            with pytest.raises(NonFiniteError) as info:
                expm(np.array(stack))
            assert str(info.value) == single_call_error(first)


class TestSolveLinear:
    def test_identity_system(self):
        b = np.array([1.0, 2.0, 3.0])
        assert np.allclose(solve_linear(np.eye(3), b), b, atol=1e-14)

    def test_zero_rhs_of_decay_matrix(self):
        a = np.array([[-2.0, 0.0, 0.0], [0.0, -2.0, -2.0], [0.0, 2.0, 0.0]])
        x = solve_linear(a, np.zeros(3))
        assert np.max(np.abs(x)) <= 1e-12

    def test_driven_diagonal_system(self):
        # -2 diag(2, 3, 1) s = -(0, -4, 0) has the single nonzero component
        # s_y = -2/3
        a = np.diag([-4.0, -6.0, -2.0])
        x = solve_linear(a, np.array([0.0, 4.0, 0.0]))
        assert np.allclose(x, [0.0, -2.0 / 3.0, 0.0], atol=1e-12)

    def test_residual_bound(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)) + 3 * np.eye(5)
            b = rng.normal(size=5) + 1j * rng.normal(size=5)
            x = solve_linear(a, b)
            assert np.max(np.abs(a @ x - b)) <= 1e-10 * max(1.0, np.max(np.abs(b)))

    def test_rejects_singular(self):
        with pytest.raises(SingularMatrixError):
            solve_linear(np.array([[1.0, 1.0], [1.0, 1.0]]), np.ones(2))

    def test_rejects_ill_conditioned(self):
        # LAPACK solves this system without complaint
        with pytest.raises(SingularMatrixError, match=r"^condition number 1.000e\+13 exceeds 1.0e\+12$"):
            solve_linear(np.diag([1.0, 1e-13]), np.ones(2))

    def test_condition_number_failure_is_no_convergence(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "cond", fail)
        with pytest.raises(NoConvergenceError, match="^singular value solver failed: SVD did not converge$"):
            solve_linear(np.eye(2), np.ones(2))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            solve_linear(np.eye(3), np.ones(2))


class TestEigReal3x3:
    def test_diagonal(self):
        assert_multiset_close(eig_real_3x3(np.diag([1.0, 2.0, 3.0])), [1, 2, 3], 1e-12)

    def test_decoupled_decay_rates(self):
        a = np.diag([-4.0, -6.0, -2.0])
        assert_multiset_close(eig_real_3x3(a), [-2.0, -4.0, -6.0], 1e-12)

    def test_complex_pair(self):
        # feedback 1, splitting 1, no measurement: the rotational block has
        # the conjugate pair -1 +/- i sqrt(3) next to the decay rate -2
        a = -2.0 * np.array([[0.0, 1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        expected = [-2.0, -1.0 + 1j * np.sqrt(3.0), -1.0 - 1j * np.sqrt(3.0)]
        assert_multiset_close(eig_real_3x3(a), expected, 1e-9)

    def test_characteristic_polynomial_residual(self):
        rng = np.random.default_rng(18)
        for _ in range(100):
            a = rng.normal(size=(3, 3)) * 3.0
            c2 = -np.trace(a)
            minors = (
                a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
                + a[0, 0] * a[2, 2] - a[0, 2] * a[2, 0]
                + a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1]
            )
            c0 = -np.linalg.det(a)
            for lam in eig_real_3x3(a):
                residual = abs(lam**3 + c2 * lam**2 + minors * lam + c0)
                assert residual <= 1e-8 * (1.0 + abs(lam)) ** 3

    def test_rejects_wrong_shape(self):
        with pytest.raises(DimensionMismatchError):
            eig_real_3x3(np.eye(4))

    def test_rejects_complex_input(self):
        with pytest.raises(ValueError):
            eig_real_3x3(np.eye(3) * (1 + 1j))
