"""Command-line scenarios.

Each scenario runner returns a table, {column name: array}, and
run_scenario writes it as one CSV file (header row, comma separator, floats
at 9 significant digits, newline endings). stdout stays clean; diagnostics
go to stderr. Exit status 0 on success, 1 on invalid input (a ValueError,
from the command line or from the library's parameter checks), 2 on
numerical failures (an EntdynError).

Parameter precedence is flag over config-file key over scenario default.
Config files are plain text, one `key = value` per line, `#` comments.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace

import numpy as np

from .errors import EntdynError, InvalidStateError
from .evolution import TimeGrid, Trajectory, propagate_expm, steady_state, unitary_evolve
from .feedback import (
    FeedbackParams,
    bloch_steady_state,
    bloch_system,
    concurrence_sweep,
    embedding_hamiltonian,
    steady_state_closed_form,
    wm_full_generator,
    wm_subspace_generator,
)
from .generators import (
    HamiltonianParams,
    assemble_liouvillian,
    build_hamiltonian,
    phenomenological_superop,
)
from .quantum import (
    bell_state,
    bloch_from_density,
    concurrence_2x2_embedded,
    density_from_pure,
    purity,
    restrict_23,
    validate_density,
    vectorize,
)

__all__ = ["ConfigError", "ScenarioConfig", "parse_config", "run_scenario", "main"]

#: lower edge of the logarithmic (m, f) grids
_GRID_MIN = 0.1

#: density-matrix tolerance applied to every emitted state row
_EMIT_TOL = 1e-8

#: CSV rows formatted per write; bounds the temporaries of a large grid
_WRITE_BLOCK = 256


class ConfigError(ValueError):
    """Invalid flags, config-file content or output path; maps to exit status 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected numbers, got {text!r}")


_KEY_TYPES = {
    "gamma": float,
    "m": float,
    "f": float,
    "mu": float,
    "y": _float_list,
    "a": float,
    "b": float,
    "c": float,
    "t_max": float,
    "steps": int,
    "m_max": float,
    "f_max": float,
    "points": int,
    "sign": int,
    "out": str,
}

# Parameters each scenario consumes, with their defaults. None means the
# scenario computes its own fallback. Keys a scenario does not list are
# rejected when given explicitly.
_SCENARIOS: dict[str, dict] = {
    "fig1": {"a": 1.0, "y": [1.0], "sign": 1, "t_max": float(np.pi), "steps": 200},
    "fig2": {"gamma": 1.0, "t_max": 5.0, "steps": 100},
    "fig-nogo": {"gamma": 1.0, "y": [0.5, 1.0, 5.0], "t_max": 20.0, "steps": 200},
    "fig4": {"gamma": 1.0, "m_max": 200.0, "f_max": 200.0, "points": 81},
    "evolve": {
        "m": 1.0,
        "f": 1.0,
        "mu": 0.0,
        "gamma": 1.0,
        "y": [0.0],
        "a": None,
        "b": None,
        "c": None,
        "t_max": 10.0,
        "steps": 200,
    },
    "steady": {"m": 1.0, "f": 1.0, "mu": 0.0, "gamma": 1.0, "y": [0.0]},
    "sweep": {"gamma": 1.0, "mu": 0.0, "m_max": 200.0, "f_max": 200.0, "points": 81},
}

_EPILOG = """\
scenarios:
  fig1      coherent exchange oscillation of the pair state |01>: CSV (t, concurrence),
            equal to |sin(2 y t)|; uses --a (both local splittings), --y, --sign.
  fig2      collective-dephasing decay from the Bell state: CSV (t, concurrence),
            equal to exp(-gamma t); --gamma is the (2,3) coherence decay rate.
  fig-nogo  coherent control only (no feedback): CSV (y, t, concurrence, bloch_norm)
            for every requested --y (repeatable; must be nonzero). --gamma is the
            subspace collapse-operator strength, so coherences decay at 2*gamma.
  fig4      steady-state concurrence under feedback: CSV (m, f, concurrence,
            log10_one_minus_concurrence) over logarithmic grids from 0.1 to
            --m-max / --f-max with --points values per axis.
  evolve    full two-qubit feedback evolution from the Bell state: CSV
            (t, concurrence, purity); --a/--b/--c override the coherent couplings.
  steady    one-excitation steady state for one parameter set: single-row CSV with
            Bloch components, concurrence, purity, and the closed forms when y = 0.
  sweep     like fig4 with --mu and purity columns.

--steps counts uniform intervals, so a trajectory CSV has steps + 1 rows.
Config files hold `key = value` lines with the flag names (hyphen or
underscore); flags override file keys, file keys override defaults.
"""


@dataclass
class ScenarioConfig:
    """A scenario name with its fully resolved parameter values."""

    scenario: str
    values: dict
    out: str


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="entdyn",
        description="Two-qubit entanglement dissipation and feedback scenarios.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("scenario", choices=sorted(_SCENARIOS))
    parser.add_argument("--gamma", type=float, default=None, help="dephasing strength")
    parser.add_argument("--m", type=float, default=None, help="measurement strength")
    parser.add_argument("--f", type=float, default=None, help="feedback strength")
    parser.add_argument("--mu", type=float, default=None, help="level splitting in the one-excitation block")
    parser.add_argument(
        "--y",
        type=float,
        action="append",
        default=None,
        help="exchange coupling; repeatable for fig-nogo",
    )
    parser.add_argument("--a", type=float, default=None, help="first local splitting")
    parser.add_argument("--b", type=float, default=None, help="second local splitting")
    parser.add_argument("--c", type=float, default=None, help="isotropic exchange strength")
    parser.add_argument("--t-max", dest="t_max", type=float, default=None, help="end of the time window")
    parser.add_argument("--steps", type=int, default=None, help="uniform time intervals (rows = steps + 1)")
    parser.add_argument("--m-max", dest="m_max", type=float, default=None, help="upper edge of the m grid")
    parser.add_argument("--f-max", dest="f_max", type=float, default=None, help="upper edge of the f grid")
    parser.add_argument("--points", type=int, default=None, help="grid points per axis")
    parser.add_argument("--config", default=None, help="config file path")
    parser.add_argument("--out", default=None, help="output CSV path (default <scenario>.csv)")
    parser.add_argument("--sign", type=int, default=None, help="evolution sign convention, +1 or -1")
    return parser


def _read_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected `key = value`, got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower().replace("-", "_")
        value = value.strip()
        if key not in _KEY_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"{path}:{lineno}: empty value for {key!r}")
        try:
            values[key] = _KEY_TYPES[key](value)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}")
    return values


def _require(condition: bool, message: str):
    if not condition:
        raise ConfigError(message)


def _validate_values(scenario: str, values: dict):
    """The rules only the command line knows; the library checks the physical parameters."""
    for key, value in values.items():
        _require(value != [], f"{key} must list at least one value")
    if "points" in values:
        _require(values["points"] >= 2, f"points must be at least 2, got {values['points']}")
    for key in ("m_max", "f_max"):
        if key in values:
            _require(
                _GRID_MIN < values[key] < np.inf,
                f"{key.replace('_', '-')} must be finite and exceed the grid floor {_GRID_MIN},"
                f" got {values[key]}",
            )
    if "y" in values:
        if scenario == "fig-nogo":
            _require(all(v != 0 for v in values["y"]), "fig-nogo requires nonzero y")
        else:
            _require(len(values["y"]) == 1, f"scenario {scenario} accepts a single --y")


def parse_config(argv: list[str]) -> ScenarioConfig:
    """Resolve argv (and an optional config file) into a ScenarioConfig.

    Raises ConfigError on unknown flags or keys, values of the wrong type,
    keys outside the scenario's parameter set, and the command-line rules
    of _validate_values. Physical parameters are checked by the library
    when the scenario runs.
    """
    parser = _build_parser()
    ns = parser.parse_args(argv)
    defaults = _SCENARIOS[ns.scenario]
    allowed = set(defaults) | {"out"}

    file_values = _read_config_file(ns.config) if ns.config else {}
    for key in file_values:
        if key not in allowed:
            raise ConfigError(f"key {key!r} is not a parameter of scenario {ns.scenario}")

    flag_values = {
        key: value
        for key, value in vars(ns).items()
        if key in _KEY_TYPES and value is not None
    }
    for key in flag_values:
        if key not in allowed:
            raise ConfigError(f"--{key.replace('_', '-')} is not a parameter of scenario {ns.scenario}")

    merged = dict(defaults)
    merged.update(file_values)
    merged.update(flag_values)
    out = merged.pop("out", None) or f"{ns.scenario}.csv"
    _validate_values(ns.scenario, merged)
    return ScenarioConfig(ns.scenario, merged, out)


def _write_csv(path: str, table: dict) -> int:
    """Write {column name: array} as CSV rows and return the row count.

    The columns broadcast against each other, so an (m, f) grid passes its
    edges as m[:, None] and f[None, :]; rows come out in C order. Rows are
    formatted _WRITE_BLOCK at a time, so a grid column is never expanded
    to its full length.
    """
    columns = np.broadcast_arrays(*(np.atleast_1d(c) for c in table.values()))
    shape = columns[0].shape
    step = max(1, _WRITE_BLOCK // int(np.prod(shape[1:])))
    line = ("%.9g," * len(columns))[:-1] + "\n"
    try:
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(",".join(table) + "\n")
            for start in range(0, shape[0], step):
                block = np.stack([c[start : start + step].reshape(-1) for c in columns], axis=1)
                fh.write("".join(line % tuple(row) for row in block.tolist()))
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}")
    return int(np.prod(shape))


def _check_emitted_densities(traj: Trajectory):
    validate_density(
        traj.states, herm_atol=_EMIT_TOL, trace_atol=_EMIT_TOL, eig_floor=-_EMIT_TOL
    )


def _time_grid(values: dict) -> TimeGrid:
    return TimeGrid(0.0, values["t_max"], values["steps"] + 1)


def _run_fig1(values: dict) -> dict:
    y = values["y"][0]
    h = build_hamiltonian(HamiltonianParams(a=values["a"], b=values["a"], c=y / 2))
    traj = unitary_evolve(h, np.array([0, 1, 0, 0], dtype=complex), _time_grid(values), sign=values["sign"])
    norms = traj.observables["norm"]
    drift = np.abs(norms - 1.0) > _EMIT_TOL
    if drift.any():
        raise InvalidStateError(f"propagated norm {norms[np.argmax(drift)]:.12f} drifted from 1")
    return {"t": traj.times, "concurrence": traj.observables["concurrence"]}


def _run_fig2(values: dict) -> dict:
    rates = np.zeros((4, 4))
    rates[1, 2] = rates[2, 1] = values["gamma"]
    gen = assemble_liouvillian(None, [phenomenological_superop(rates)])
    r0 = vectorize(density_from_pure(bell_state()))
    traj = propagate_expm(gen, r0, _time_grid(values))
    _check_emitted_densities(traj)
    return {"t": traj.times, "concurrence": traj.observables["concurrence"]}


def _run_fig_nogo(values: dict) -> dict:
    grid = _time_grid(values)
    r0 = vectorize(restrict_23(density_from_pure(bell_state())))
    # every parameter set is checked before the first propagation
    runs = [_nogo_params(values, y) for y in values["y"]]
    columns: dict[str, list] = {"y": [], "t": [], "concurrence": [], "bloch_norm": []}
    for params in runs:
        traj = propagate_expm(wm_subspace_generator(params), r0, grid)
        _check_emitted_densities(traj)
        columns["y"].append(np.full(traj.times.size, params.y))
        columns["t"].append(traj.times)
        columns["concurrence"].append(traj.observables["concurrence"])
        columns["bloch_norm"].append(traj.observables["bloch_norm"])
    return {name: np.concatenate(series) for name, series in columns.items()}


def _nogo_params(values: dict, y: float) -> FeedbackParams:
    return FeedbackParams(m=0.0, f=0.0, mu=0.0, gamma=values["gamma"], y=y)


def _fig_nogo_notes(values: dict) -> list[str]:
    """One |Bloch fixed point| line per y, computed before the CSV is written."""
    notes = []
    for y in values["y"]:
        fixed_point = bloch_steady_state(bloch_system(_nogo_params(values, y)))
        notes.append(f"fig-nogo y={y:g}: |Bloch fixed point| = {np.linalg.norm(fixed_point):.3e}")
    return notes


def _log_grid(upper: float, points: int) -> np.ndarray:
    return np.logspace(np.log10(_GRID_MIN), np.log10(upper), points)


def _run_fig4(values: dict) -> dict:
    table = _run_sweep({**values, "mu": 0.0})
    del table["purity"]
    return table


def _feedback_params(values: dict) -> FeedbackParams:
    return FeedbackParams(values["m"], values["f"], values["mu"], values["gamma"], values["y"][0])


def _run_evolve(values: dict) -> dict:
    params = _feedback_params(values)
    overrides = {key: values[key] for key in ("a", "b", "c") if values[key] is not None}
    hamiltonian = replace(embedding_hamiltonian(params), **overrides)
    grid = _time_grid(values)
    gen = wm_full_generator(params, hamiltonian=hamiltonian)
    r0 = vectorize(density_from_pure(bell_state()))
    traj = propagate_expm(gen, r0, grid)
    _check_emitted_densities(traj)
    return {
        "t": traj.times,
        "concurrence": traj.observables["concurrence"],
        "purity": traj.observables["purity"],
    }


def _run_steady(values: dict) -> dict:
    params = _feedback_params(values)
    rho = steady_state(wm_subspace_generator(params))
    bloch = bloch_from_density(rho)
    if params.y == 0 and params.f > 0:
        closed = steady_state_closed_form(params)
        conc_closed, pur_closed = closed.concurrence, closed.purity
    else:
        conc_closed = pur_closed = float("nan")
    return {
        "m": params.m, "f": params.f, "mu": params.mu, "gamma": params.gamma, "y": params.y,
        "bloch_x": bloch[0], "bloch_y": bloch[1], "bloch_z": bloch[2],
        "concurrence": concurrence_2x2_embedded(rho), "purity": purity(rho),
        "concurrence_closed_form": conc_closed, "purity_closed_form": pur_closed,
    }


def _run_sweep(values: dict) -> dict:
    m_grid = _log_grid(values["m_max"], values["points"])
    f_grid = _log_grid(values["f_max"], values["points"])
    sweep = concurrence_sweep(m_grid, f_grid, values["gamma"], mu=values["mu"])
    return {
        "m": m_grid[:, None],
        "f": f_grid[None, :],
        "concurrence": sweep.concurrence,
        "purity": 0.5 * (1.0 + sweep.concurrence**2),
        "log10_one_minus_concurrence": sweep.log10_one_minus_concurrence,
    }


_RUNNERS = {
    "fig1": _run_fig1,
    "fig2": _run_fig2,
    "fig-nogo": _run_fig_nogo,
    "fig4": _run_fig4,
    "evolve": _run_evolve,
    "steady": _run_steady,
    "sweep": _run_sweep,
}


def run_scenario(config: ScenarioConfig):
    """Execute a resolved scenario and write its CSV.

    The scenario's notes and the written file are reported on stderr only
    after the write has succeeded, so a failure anywhere leaves one line.
    """
    table = _RUNNERS[config.scenario](config.values)
    notes = _fig_nogo_notes(config.values) if config.scenario == "fig-nogo" else []
    rows = _write_csv(config.out, table)
    for note in notes:
        print(note, file=sys.stderr)
    print(f"{config.scenario}: wrote {config.out} ({rows} rows)", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    try:
        run_scenario(parse_config(sys.argv[1:] if argv is None else argv))
    # LinAlgError subclasses ValueError, so it is matched first
    except (EntdynError, np.linalg.LinAlgError) as exc:
        print(f"entdyn: numerical failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"entdyn: error: {exc}", file=sys.stderr)
        return 1
    return 0
