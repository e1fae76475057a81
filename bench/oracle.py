"""Independent references for every task, in plain numpy from the paper's formulas.

Nothing here imports entdyn. Each check returns a Verdict: ``ok`` when the
task's outcome is the expected one. Every other outcome is a failed task
and, with one exception, a wrong one: a value outside tolerance, a
non-finite value, a wrong row count, a wrong exit code, a traceback or any
refusal of an input that should have succeeded makes the run incorrect.
The exception is the one documented defect (see ``known_defect``), which
counts as failed but not as wrong.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

#: CSV floats carry 9 significant digits, so a correct value is within
#: 5e-9 relative of the reference; 1e-8 leaves room for evaluation order.
CSV_RTOL = 1e-8
#: absolute tolerance for sampled observables (concurrence, purity, Bloch
#: components, all of order one), as in the CLI's emitted-state gate
OBS_ATOL = 1e-8
#: agreement required between the expm and Dormand-Prince routes and
#: between the steady-state routes, as in the acceptance suite
ROUTE_TOL = 1e-8

GRID_MIN = 0.1

#: CSV rows parsed at a time, so checking a grid file adds little to peak memory
BLOCK_ROWS = 8192


@dataclass(frozen=True)
class Verdict:
    ok: bool
    wrong: bool = False
    reason: str = ""
    gaps: tuple = ()


OK = Verdict(True)


def _wrong(reason: str) -> Verdict:
    return Verdict(False, True, reason)


class _Mismatch(Exception):
    pass


def _close(name: str, got, ref, rtol: float = 0.0, atol: float = 0.0):
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if got.shape != ref.shape:
        raise _Mismatch(f"{name}: shape {got.shape} != {ref.shape}")
    err = np.abs(got - ref)
    bad = err > atol + rtol * np.abs(ref)
    if np.any(bad):
        k = int(np.argmax(err - atol - rtol * np.abs(ref)))
        raise _Mismatch(f"{name}: {got.flat[k]!r} vs reference {ref.flat[k]!r}")


def _finite(data):
    if not np.all(np.isfinite(data)):
        raise _Mismatch("non-finite value in CSV")


def _within(name: str, values, lo: float, hi: float):
    values = np.asarray(values, dtype=float)
    if np.any(values < lo - OBS_ATOL) or np.any(values > hi + OBS_ATOL):
        raise _Mismatch(f"{name} leaves [{lo}, {hi}]: {values.min()!r}..{values.max()!r}")


def csv_blocks(fh, columns: int):
    """Parse the rows after the header in blocks of BLOCK_ROWS rows."""
    while True:
        lines = list(itertools.islice(fh, BLOCK_ROWS))
        if not lines:
            return
        if not all(line.endswith("\n") for line in lines):
            raise _Mismatch("row without a newline ending")
        block = np.loadtxt(lines, delimiter=",", ndmin=2)
        if block.shape[1] != columns:
            raise _Mismatch(f"{block.shape[1]} columns, expected {columns}")
        yield block


def sweep_closed_form(m, f, gamma: float, mu: float):
    """Steady-state concurrence and purity of the feedback loop at y = 0.

    C = 2 sqrt(m f) sqrt(mu^2 + (gamma + m)^2) / (mu^2 + (gamma + m)(gamma + m + f)),
    P = (1 + C^2) / 2.
    """
    g = gamma + np.asarray(m, dtype=float)
    conc = 2.0 * np.sqrt(m) * np.sqrt(f) * np.hypot(mu, g) / (mu * mu + g * (g + f))
    return conc, 0.5 * (1.0 + conc * conc)


def bloch_fixed_point(m: float, f: float, gamma: float, mu: float, y: float) -> np.ndarray:
    """Fixed point of the affine Bloch equations ds/dt = A s + c of the feedback block."""
    a = -2.0 * np.array([[m + gamma, mu, 0.0], [-mu, f + m + gamma, y], [0.0, -y, f]])
    c = np.array([0.0, -4.0 * np.sqrt(m * f), 0.0])
    return np.linalg.solve(a, -c)


def _log_grid(upper: float, points: int) -> np.ndarray:
    return GRID_MIN * (upper / GRID_MIN) ** (np.arange(points) / (points - 1))


def _times(t_max: float, steps: int) -> np.ndarray:
    return t_max * np.arange(steps + 1) / steps


def _check_trajectory(task, blocks) -> int:
    data = np.vstack(list(blocks))
    _finite(data)
    p = task.params
    steps = p["steps"]
    t = _times(p["t_max"], steps)
    if task.kind == "fig1":
        _close("t", data[:, 0], t, CSV_RTOL, 1e-12)
        _close("concurrence", data[:, 1], np.abs(np.sin(2.0 * p["y"] * t)), CSV_RTOL, OBS_ATOL)
    elif task.kind == "fig2":
        _close("t", data[:, 0], t, CSV_RTOL, 1e-12)
        _close("concurrence", data[:, 1], np.exp(-p["gamma"] * t), CSV_RTOL, OBS_ATOL)
    elif task.kind == "fig-nogo":
        # Without feedback (m = f = 0, mu = 0) the Bloch x component decouples and
        # decays at 2 gamma whatever y is: C(t) = |s(t)| = exp(-2 gamma t).
        ys = np.repeat(np.array(p["y"]), steps + 1)
        tt = np.tile(t, len(p["y"]))
        _close("y", data[:, 0], ys, CSV_RTOL)
        _close("t", data[:, 1], tt, CSV_RTOL, 1e-12)
        decay = np.exp(-2.0 * p["gamma"] * tt)
        _close("concurrence", data[:, 2], decay, CSV_RTOL, OBS_ATOL)
        _close("bloch_norm", data[:, 3], decay, CSV_RTOL, OBS_ATOL)
    elif task.kind == "evolve":
        _close("t", data[:, 0], t, CSV_RTOL, 1e-12)
        _within("concurrence", data[:, 1], 0.0, 1.0)
        _within("purity", data[:, 2], 0.25, 1.0)
        _close("initial row", data[0, 1:], [1.0, 1.0], 0.0, OBS_ATOL)
    return data.shape[0]


def _check_grid(task, blocks) -> int:
    p = task.params
    points = p["points"]
    m_axis = _log_grid(p["m_max"], points)
    f_axis = _log_grid(p["f_max"], points)
    rows = 0
    for data in blocks:
        k = np.arange(rows, rows + data.shape[0])
        rows += data.shape[0]
        if rows > points * points:
            break
        m, f = m_axis[k // points], f_axis[k % points]
        _finite(data)
        _close("m", data[:, 0], m, CSV_RTOL)
        _close("f", data[:, 1], f, CSV_RTOL)
        conc, pur = sweep_closed_form(m, f, p["gamma"], p.get("mu", 0.0))
        _close("concurrence", data[:, 2], conc, CSV_RTOL)
        if task.kind == "sweep":
            _close("purity", data[:, 3], pur, CSV_RTOL)
        _close("log10_one_minus_concurrence", data[:, -1], np.log10(1.0 - conc), CSV_RTOL, 1e-9)
    return rows


def _check_steady(task, blocks) -> int:
    data = np.vstack(list(blocks))
    p = task.params
    row = data[0]
    _finite(row[:10] if p["y"] != 0 else row)
    _close("parameters", row[:5], [p["m"], p["f"], p["mu"], p["gamma"], p["y"]], CSV_RTOL)
    bloch = bloch_fixed_point(p["m"], p["f"], p["gamma"], p["mu"], p["y"])
    _close("bloch", row[5:8], bloch, CSV_RTOL, OBS_ATOL)
    # The block state's concurrence is twice its coherence, |(s_x, s_y)|.
    _close("concurrence", row[8], np.hypot(bloch[0], bloch[1]), CSV_RTOL, OBS_ATOL)
    _close("purity", row[9], 0.5 * (1.0 + bloch @ bloch), CSV_RTOL, OBS_ATOL)
    if p["y"] == 0:
        conc, pur = sweep_closed_form(p["m"], p["f"], p["gamma"], p["mu"])
        _close("closed forms", row[10:12], [conc, pur], CSV_RTOL)
        _close("concurrence vs closed form", row[8], conc, CSV_RTOL, OBS_ATOL)
    elif not np.all(np.isnan(row[10:12])):
        raise _Mismatch("closed-form columns must be nan when y != 0")
    return data.shape[0]


_ROWS = {
    "fig1": lambda p: p["steps"] + 1,
    "fig2": lambda p: p["steps"] + 1,
    "evolve": lambda p: p["steps"] + 1,
    "fig-nogo": lambda p: len(p["y"]) * (p["steps"] + 1),
    "fig4": lambda p: p["points"] ** 2,
    "sweep": lambda p: p["points"] ** 2,
    "steady": lambda p: 1,
}

_HEADERS = {
    "fig1": ["t", "concurrence"],
    "fig2": ["t", "concurrence"],
    "fig-nogo": ["y", "t", "concurrence", "bloch_norm"],
    "evolve": ["t", "concurrence", "purity"],
    "fig4": ["m", "f", "concurrence", "log10_one_minus_concurrence"],
    "sweep": ["m", "f", "concurrence", "purity", "log10_one_minus_concurrence"],
    "steady": [
        "m", "f", "mu", "gamma", "y", "bloch_x", "bloch_y", "bloch_z",
        "concurrence", "purity", "concurrence_closed_form", "purity_closed_form",
    ],
}

_CHECKS = {
    "fig1": _check_trajectory,
    "fig2": _check_trajectory,
    "fig-nogo": _check_trajectory,
    "evolve": _check_trajectory,
    "fig4": _check_grid,
    "sweep": _check_grid,
    "steady": _check_steady,
}

_MESSAGES = {1: "entdyn: error: ", 2: "entdyn: numerical failure: "}


def check_cli(task, outcome, csv_path: str) -> Verdict:
    """Judge a CLI task from its exit code, stderr and written CSV."""
    if outcome.exception is not None:
        return _wrong("traceback: " + outcome.exception.strip().splitlines()[-1])
    if outcome.rc != task.expect_rc:
        return _wrong(f"exit {outcome.rc}, expected {task.expect_rc}: {outcome.stderr.strip()}")
    if task.expect_rc != 0:
        lines = outcome.stderr.strip().splitlines()
        if len(lines) != 1 or not lines[0].startswith(_MESSAGES[task.expect_rc]):
            return _wrong(f"exit {outcome.rc} without a one-line message: {outcome.stderr!r}")
        return OK
    try:
        with open(csv_path, encoding="ascii") as fh:
            header = fh.readline().rstrip("\n").split(",")
            if header != _HEADERS[task.kind]:
                raise _Mismatch(f"header {header}")
            rows = _CHECKS[task.kind](task, csv_blocks(fh, len(header)))
        expected = _ROWS[task.kind](task.params)
        if rows != expected:
            raise _Mismatch(f"{rows} rows, expected {expected}")
    except FileNotFoundError:
        return _wrong(f"{task.kind}: no CSV written")
    except (_Mismatch, ValueError) as exc:
        return _wrong(f"{task.kind}: {exc}")
    return OK


def known_defect(outcome) -> bool:
    """The documented defect: a Dormand-Prince state 1e-10 to 3e-10 off
    Hermitian passes the 1e-8 gate in ``concurrence``, and ``sqrt_psd`` then
    refuses it through ``hermitian_eig``'s 1e-10 default."""
    return outcome.exception.startswith("NotHermitianError:") and "sqrt_psd" in outcome.raised_in


def check_crosscheck(task, outcome) -> Verdict:
    """Judge one cross-checked parameter set: both route gaps within ROUTE_TOL."""
    if outcome.exception is not None:
        if known_defect(outcome):
            return Verdict(False, False, "known defect: " + outcome.exception)
        return _wrong("raised: " + outcome.exception.strip().splitlines()[-1])
    v = outcome.values
    p = task.params
    route_gap = float(np.max(np.abs(v["expm_states"] - v["ode_states"])))
    fixed = bloch_fixed_point(p["m"], p["f"], p["gamma"], p["mu"], p["y"])
    steady_gaps = [
        np.max(np.abs(v["steady_bloch"] - v["bloch_fixed_point"])),
        np.max(np.abs(v["bloch_fixed_point"] - fixed)),
    ]
    if p["y"] == 0:
        conc, pur = sweep_closed_form(p["m"], p["f"], p["gamma"], p["mu"])
        steady_gaps += [
            abs(v["steady_concurrence"] - v["closed_concurrence"]),
            abs(v["steady_purity"] - v["closed_purity"]),
            abs(v["closed_concurrence"] - conc),
            abs(v["closed_purity"] - pur),
        ]
    steady_gap = float(max(steady_gaps))
    gaps = (route_gap, steady_gap)
    if not (np.isfinite(route_gap) and np.isfinite(steady_gap)):
        return Verdict(False, True, "non-finite result", gaps)
    if route_gap > ROUTE_TOL:
        return Verdict(False, True, f"expm/ODE gap {route_gap:.3e} > {ROUTE_TOL:.0e}", gaps)
    if steady_gap > ROUTE_TOL:
        return Verdict(False, True, f"steady-state gap {steady_gap:.3e} > {ROUTE_TOL:.0e}", gaps)
    return Verdict(True, gaps=gaps)
