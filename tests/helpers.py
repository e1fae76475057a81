"""Shared random generators and assertion helpers for the test suite."""
import numpy as np

from entdyn.errors import DimensionMismatchError
from entdyn.evolution import _DP_A, _DP_B


def random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (a + a.conj().T)


def random_unitary(rng, n):
    """Haar-distributed unitary via QR with the phase convention fixed."""
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_density(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_pure(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def eig_real_3x3(a) -> np.ndarray:
    """Eigenvalues (complex, unordered) of a real 3x3 matrix.

    The only non-Hermitian eigenproblem the tests need: the Bloch matrices
    of the feedback model, checked against their closed-form spectra.
    """
    mat = np.asarray(a)
    if mat.shape != (3, 3):
        raise DimensionMismatchError(f"expected shape (3, 3), got {mat.shape}")
    if np.iscomplexobj(mat) and np.any(mat.imag != 0):
        raise ValueError("expected a real matrix")
    mat = np.asarray(mat.real, dtype=float)
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix contains non-finite entries")
    return np.linalg.eigvals(mat)


def assert_multiset_close(actual, expected, tol):
    """Match two unordered collections of complex numbers pairwise within tol."""
    remaining = [complex(z) for z in actual]
    assert len(remaining) == len(expected)
    for target in expected:
        best = min(range(len(remaining)), key=lambda k: abs(remaining[k] - target))
        gap = abs(remaining[best] - target)
        assert gap <= tol, f"no match for {target} within {tol} (closest off by {gap:.3e})"
        remaining.pop(best)


def read_csv(path):
    """Parse a CSV written by the command line into (header, float rows)."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().split("\n")
    assert lines[-1] == "", "file must end with a newline"
    header = lines[0].split(",")
    rows = [[float(tok) for tok in line.split(",")] for line in lines[1:-1]]
    return header, rows


def reference_csv(table) -> bytes:
    """The CSV bytes of {column name: array} with one "%" per row.

    The row loop the command-line writer used before its numpy kernel;
    the tests hold every scenario's CSV to these bytes.
    """
    columns = np.broadcast_arrays(*(np.atleast_1d(c) for c in table.values()))
    rows = np.stack([c.reshape(-1) for c in columns], axis=1).tolist()
    line = ("%.9g," * len(columns))[:-1] + "\n"
    return (",".join(table) + "\n" + "".join(line % tuple(row) for row in rows)).encode("ascii")


def dp_step(gen, y, h):
    """One Dormand-Prince 4(5) step on a (7, n²) stage array: (y_new, error estimate).

    The stage recursion propagate_ode used before its polynomial form;
    the tests hold one polynomial step to it.
    """
    a = h * _DP_A
    k = np.empty((7, y.size), dtype=complex)
    k[0] = gen @ y
    for i in range(1, 7):
        k[i] = gen @ (y + a[i, :i] @ k[:i])
    increment, err = (h * _DP_B) @ k
    return y + increment, err
