"""Acceptance suite: one test per shipping criterion.

Every test prints a single PASS or FAIL line naming its criterion, so a
plain `pytest -v -s tests/test_acceptance.py` reads as a checklist. All
tolerances here are the shipping thresholds; the per-module suites pin
tighter values where the implementation allows it.
"""
import time
from contextlib import contextmanager

import numpy as np

from entdyn.evolution import TimeGrid, propagate_expm, propagate_ode, steady_state, unitary_evolve
from entdyn.feedback import (
    FeedbackParams,
    bloch_eigenvalues,
    bloch_steady_state,
    bloch_system,
    steady_state_closed_form,
    wm_full_generator,
    wm_subspace_generator,
)
from entdyn.generators import (
    assemble_liouvillian,
    check_dephasing_constraints,
    hamiltonian_superop,
    HamiltonianParams,
    build_hamiltonian,
    phenomenological_superop,
)
from entdyn.linalg import expm, hermitian_eig
from entdyn.quantum import (
    bell_state,
    concurrence,
    concurrence_2x2_embedded,
    density_from_pure,
    devectorize,
    restrict_23,
    vectorize,
)
from helpers import assert_multiset_close, eig_real_3x3, random_density, random_unitary


@contextmanager
def report(number, label):
    status = "FAIL"
    try:
        yield
        status = "PASS"
    finally:
        print(f"{status} criterion {number:2d}: {label}")


def central_dephasing_generator(rate=1.0):
    rates = np.zeros((4, 4))
    rates[1, 2] = rates[2, 1] = rate
    return assemble_liouvillian(None, [phenomenological_superop(rates)])


def bell_vector():
    return vectorize(density_from_pure(bell_state()))


def bell_block_vector():
    return vectorize(restrict_23(density_from_pure(bell_state())))


def random_feedback_params(rng):
    return FeedbackParams(
        m=rng.uniform(0.25, 4.0),
        f=rng.uniform(0.25, 4.0),
        mu=rng.uniform(-2.0, 2.0),
        gamma=rng.uniform(0.25, 2.0),
    )


def test_criterion_01_unitary_oscillation():
    with report(1, "pair-state concurrence oscillates as |sin 2t| within 1e-6 in under 1 s"):
        h = build_hamiltonian(HamiltonianParams(a=1.0, b=1.0, c=0.5))
        grid = TimeGrid(0.0, np.pi, 200)
        # Process CPU time, so that other processes on a loaded host do not count.
        start = time.process_time()
        traj = unitary_evolve(h, np.array([0, 1, 0, 0], dtype=complex), grid, sign=+1)
        elapsed = time.process_time() - start
        gap = np.max(np.abs(traj.observables["concurrence"] - np.abs(np.sin(2 * grid.times))))
        assert gap <= 1e-6, f"max deviation {gap:.3e}"
        assert elapsed < 1.0, f"runtime {elapsed:.3f} s"


def test_criterion_02_dephasing_decay():
    with report(2, "central dephasing decays concurrence as e^-t, diagonal drift irrelevant"):
        grid = TimeGrid(0.0, 5.0, 101)
        gen = central_dephasing_generator()
        bare = propagate_expm(gen, bell_vector(), grid).observables["concurrence"]
        gap = np.max(np.abs(bare - np.exp(-grid.times)))
        assert gap <= 1e-6, f"max deviation {gap:.3e}"
        shifted_gen = assemble_liouvillian(np.diag([0.3, -0.7, 1.1, 0.2]), [
            phenomenological_superop(
                np.array(
                    [
                        [0.0, 0.0, 0.0, 0.0],
                        [0.0, 0.0, 1.0, 0.0],
                        [0.0, 1.0, 0.0, 0.0],
                        [0.0, 0.0, 0.0, 0.0],
                    ]
                )
            )
        ])
        shifted = propagate_expm(shifted_gen, bell_vector(), grid).observables["concurrence"]
        drift = np.max(np.abs(shifted - bare))
        assert drift <= 1e-9, f"diagonal drift changed the series by {drift:.3e}"


def test_criterion_03_drive_only_no_go():
    with report(3, "coherent drive alone: fixed point at the origin, entanglement gone by t=20"):
        for y in (0.5, 1.0, 5.0):
            params = FeedbackParams(m=0.0, f=0.0, gamma=1.0, y=y)
            fixed = bloch_steady_state(bloch_system(params))
            assert np.max(np.abs(fixed)) <= 1e-10, f"y={y}: fixed point {fixed}"
            traj = propagate_expm(
                wm_subspace_generator(params), bell_block_vector(), TimeGrid(0.0, 20.0, 2)
            )
            final = traj.observables["concurrence"][-1]
            assert final < 1e-6, f"y={y}: concurrence {final:.3e} at t=20"


def test_criterion_04_feedback_steady_state_routes():
    with report(4, "closed-form fixed point matches null-space and full-system routes to 1e-8"):
        rng = np.random.default_rng(71)
        r0 = bell_vector()
        for _ in range(100):
            params = random_feedback_params(rng)
            closed = steady_state_closed_form(params).rho
            solved = steady_state(wm_subspace_generator(params))
            assert np.max(np.abs(np.diag(solved) - np.diag(closed))) <= 1e-8
            assert abs(abs(solved[0, 1]) - abs(closed[0, 1])) <= 1e-8
            settled = devectorize(expm(wm_full_generator(params) * 60.0) @ r0)
            assert np.max(np.abs(restrict_23(settled) - closed)) <= 1e-8


def test_criterion_05_strong_feedback_concurrence():
    with report(5, "m=f=100 holds steady concurrence 200/201, above the 0.99 bar"):
        params = FeedbackParams(m=100.0, f=100.0, gamma=1.0)
        closed = steady_state_closed_form(params)
        assert abs(closed.concurrence - 200.0 / 201.0) <= 1e-12
        assert closed.concurrence >= 1.0 - 1e-2
        traj = propagate_expm(
            wm_subspace_generator(params), bell_block_vector(), TimeGrid(0.0, 10.0, 11)
        )
        integrated = traj.observables["concurrence"][-1]
        assert abs(integrated - closed.concurrence) <= 1e-6


def test_criterion_06_purity_concurrence_identity():
    with report(6, "steady concurrence equals sqrt(2 purity - 1) to 1e-12 on a 20x20 grid"):
        grid = np.logspace(-1.0, 2.0, 20)
        for mu in (0.0, 1.0):
            for m in grid:
                for f in grid:
                    result = steady_state_closed_form(
                        FeedbackParams(m=m, f=f, mu=mu, gamma=1.0)
                    )
                    gap = abs(result.concurrence - np.sqrt(2 * result.purity - 1))
                    assert gap <= 1e-12, f"(m={m:.3g}, f={f:.3g}, mu={mu}): {gap:.3e}"


def test_criterion_07_relaxation_spectrum_formula():
    with report(7, "closed-form relaxation rates match the numeric spectrum to 1e-9"):
        for m in (0.0, 0.5, 1.0, 2.0, 5.0):
            for f in (0.1, 0.5, 1.0, 2.0, 5.0):
                for gamma in (0.0, 0.5, 1.0, 2.0, 5.0):
                    for mu in (0.0, 0.3, 0.9, 2.6, 5.1):
                        params = FeedbackParams(m=m, f=f, mu=mu, gamma=gamma)
                        numeric = eig_real_3x3(bloch_system(params).matrix)
                        assert_multiset_close(bloch_eigenvalues(params), numeric, 1e-9)


def test_criterion_08_constraint_checker():
    with report(8, "rate sets from per-level strengths accepted, one-pair bumps rejected"):
        rng = np.random.default_rng(72)
        for _ in range(50):
            x = rng.uniform(0.0, 3.0, size=4)
            x[rng.integers(0, 4)] += 0.5
            rates = 0.5 * (x[:, None] + x[None, :])
            np.fill_diagonal(rates, 0.0)
            check = check_dephasing_constraints(rates)
            assert check.physical
            rebuilt = 0.5 * (check.witness[:, None] + check.witness[None, :])
            np.fill_diagonal(rebuilt, 0.0)
            assert np.max(np.abs(rebuilt - rates)) <= 1e-9 * max(1.0, rates.max())
            assert np.all(check.witness >= 0)
            i, j = (0, 1) if rng.uniform() < 0.5 else (2, 3)
            bumped = rates.copy()
            bumped[i, j] += 0.1 * rates.max()
            bumped[j, i] = bumped[i, j]
            assert not check_dephasing_constraints(bumped).physical


def test_criterion_09_vectorization_identity():
    with report(9, "two-sided products map to Kronecker factors within 1e-12"):
        rng = np.random.default_rng(73)
        for _ in range(1000):
            a, rho, b = (
                rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) for _ in range(3)
            )
            gap = np.max(np.abs(vectorize(a @ rho @ b) - np.kron(a, b.T) @ vectorize(rho)))
            assert gap <= 1e-12


def test_criterion_10_property_suite():
    with report(10, "conservation, integrator agreement, and monotone bounds in under 60 s"):
        start = time.perf_counter()
        rng = np.random.default_rng(74)

        generators = (
            central_dephasing_generator(),
            wm_subspace_generator(FeedbackParams(m=1.0, f=1.0, mu=0.5, gamma=1.0)),
            wm_full_generator(FeedbackParams(m=1.0, f=1.0, mu=0.5, gamma=1.0)),
        )
        for gen in generators:
            n = int(round(np.sqrt(gen.shape[0])))
            for _ in range(20):
                rho = random_density(rng, n)
                out = devectorize(gen @ vectorize(rho))
                assert abs(np.trace(out)) <= 1e-12 * max(1.0, np.max(np.abs(out)))
                assert np.max(np.abs(out - out.conj().T)) <= 1e-11

        traj = propagate_expm(generators[2], bell_vector(), TimeGrid(0.0, 10.0, 51))
        for state in traj.states:
            assert abs(np.trace(state) - 1.0) <= 1e-9
            values, _ = hermitian_eig(0.5 * (state + state.conj().T))
            assert values[0] >= -1e-8

        for gen, r0, horizon in (
            (generators[0], bell_vector(), 5.0),
            (generators[2], bell_vector(), 10.0),
        ):
            grid = TimeGrid(0.0, horizon, 21)
            a = propagate_expm(gen, r0, grid)
            b = propagate_ode(gen, r0, grid)
            assert np.max(np.abs(a.states - b.states)) <= 1e-8

        for _ in range(10_000):
            c = concurrence(random_density(rng, 4))
            assert 0.0 <= c <= 1.0 + 1e-12

        for _ in range(200):
            rho = random_density(rng, 4)
            u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
            assert abs(concurrence(u @ rho @ u.conj().T) - concurrence(rho)) <= 1e-9

        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"property suite took {elapsed:.1f} s"
