"""Command-line scenarios.

Each scenario runner returns a table, {column name: array}, and
run_scenario writes it as one CSV file (header row, comma separator, floats
at 9 significant digits, newline endings). stdout stays clean; diagnostics
go to stderr. Exit status 0 on success, 1 on invalid input (a ValueError,
from the command line or from the library's parameter checks, or a request
too large for memory), 2 on numerical failures (an EntdynError).

Parameter precedence is flag over config-file key over scenario default.
Config files are plain text, one `key = value` per line, `#` comments.
"""
from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from dataclasses import dataclass, replace

import numpy as np

from .errors import EntdynError
from .evolution import TimeGrid, propagate_expm, steady_state, unitary_evolve
from .feedback import (
    FeedbackParams,
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
    vectorize,
)

__all__ = ["ConfigError", "ScenarioConfig", "parse_config", "run_scenario", "main"]

#: lower edge of the logarithmic (m, f) grids
_GRID_MIN = 0.1

#: the Bell state (|01> + |10>) / sqrt(2), vectorized as a two-qubit density
#: matrix and as its one-excitation block
_BELL = vectorize(density_from_pure(bell_state()))
_BELL_23 = vectorize(restrict_23(density_from_pure(bell_state())))

#: CSV rows formatted per write; bounds the temporaries of a large grid
_WRITE_BLOCK = 2048

#: a block of fewer values is formatted value by value: the kernel's fixed
#: cost of about 45 numpy calls exceeds "%" on every value below about 112
#: values, whether 40 rows of 3 columns or 10 rows of 12
_KERNEL_MIN_VALUES = 112


class ConfigError(ValueError):
    """Invalid flags, config-file content or output path; maps to exit status 1."""


#: every negative value float() reads. argparse takes a token that matches
#: its _negative_number_matcher as a value, not a flag, and its own pattern
#: misses exponents, inf and nan, so `--mu -1e-5` would lack its argument
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected numbers, got {text!r}")


# Every key in --help order: (config-file type, help). A type of None marks
# a flag that a config file may not name. y is a repeatable float flag on the
# command line and a list in a config file.
_KEYS = {
    "gamma": (float, "dephasing strength"),
    "m": (float, "measurement strength"),
    "f": (float, "feedback strength"),
    "mu": (float, "level splitting in the one-excitation block"),
    "y": (_float_list, "exchange coupling; repeatable for fig-nogo"),
    "a": (float, "first local splitting"),
    "b": (float, "second local splitting"),
    "c": (float, "isotropic exchange strength"),
    "t_max": (float, "end of the time window"),
    "steps": (int, "uniform time intervals (rows = steps + 1)"),
    "m_max": (float, "upper edge of the m grid"),
    "f_max": (float, "upper edge of the f grid"),
    "points": (int, "grid points per axis"),
    "config": (None, "config file path"),
    "out": (str, "output CSV path (default <scenario>.csv)"),
    "sign": (int, "evolution sign convention, +1 or -1"),
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


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built on first use; parsing leaves it unchanged."""
    parser = _Parser(
        prog="entdyn",
        description="Two-qubit entanglement dissipation and feedback scenarios.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser._negative_number_matcher = _NEGATIVE_NUMBER
    parser.add_argument("scenario", choices=sorted(_SCENARIOS))
    for key, (kind, text) in _KEYS.items():
        options = {"type": float, "action": "append"} if kind is _float_list else {"type": kind}
        parser.add_argument("--" + key.replace("_", "-"), dest=key, help=text, **options)
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
        kind = _KEYS.get(key, (None,))[0]
        if kind is None:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"{path}:{lineno}: empty value for {key!r}")
        try:
            values[key] = kind(value)
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
    flags = vars(_build_parser().parse_args(argv))
    scenario, config = flags.pop("scenario"), flags.pop("config")
    defaults = _SCENARIOS[scenario][1]
    allowed = set(defaults) | {"out"}

    file_values = _read_config_file(config) if config else {}
    for key in file_values:
        if key not in allowed:
            raise ConfigError(f"key {key!r} is not a parameter of scenario {scenario}")

    flag_values = {key: value for key, value in flags.items() if value is not None}
    for key in flag_values:
        if key not in allowed:
            raise ConfigError(f"--{key.replace('_', '-')} is not a parameter of scenario {scenario}")

    merged = {**defaults, **file_values, **flag_values}
    out = merged.pop("out", None) or f"{scenario}.csv"
    _validate_values(scenario, merged)
    return ScenarioConfig(scenario, merged, out)


# Tables of the "%.9g" kernel, indexed by a decimal exponent j at j + 300 or
# by a 3-digit group k = 0..999. A value is laid out in five 8-byte words:
#   0  sign "-" and "0.000", the prefix of fixed notation below 1
#   1  digit/dot pairs "d.d.d." of the first 3-digit group,
#   2  of the second
#   3  and of the third
#   4  "e", the exponent sign, three exponent digits and the separator
# A 0 byte is no byte. A value's layout depends on its exponent class (e =
# 0..8, e = -1..-4, scientific with 2 or 3 exponent digits), its count of
# significant digits, its sign and whether it ends a row, combined into
# key = ((class * 9 + digits - 1) * 2 + negative) * 2 + ends_row. The row of
# _TEMPLATES for that key holds the layout's constant bytes and 0xFF where
# the value's digits, dots and exponent go.
_SLOTS = 40
_SEPARATOR = 37
_SCALES = np.array([float(f"1e{8 - j}") for j in range(-300, 301)])
_GROUPS = np.frombuffer(b"".join(b"%c.%c.%c.\0\0" % tuple(b"%03d" % k) for k in range(1000)), dtype=np.uint64)
# 4 * the trailing zeros of "%03d" % k: each trailing zero lowers the key by 4
_GROUP_ZEROS = 4 * np.array([3] + [0 if k % 10 else 1 if k % 100 else 2 for k in range(1, 1000)])
_EXPONENTS = np.frombuffer(
    b"".join(b"e%c%03d\xff\0\0" % (b"+-"[j < 0], abs(j)) for j in range(-300, 301)), dtype=np.uint64
)
# key of exponent j with 9 significant digits, nonnegative, not ending a row
_CLASS_KEYS = np.array(
    [(j if 0 <= j < 9 else 8 - j if -5 < j < 0 else 13 + (abs(j) >= 100)) * 36 + 32 for j in range(-300, 301)]
)


def _layout_templates() -> np.ndarray:
    cls, sig, neg, last = (
        axis.reshape(axis.shape + (1,))
        for axis in np.ix_(np.arange(15), np.arange(1, 10), np.arange(2), np.arange(2))
    )
    small, sci, fixed, places = (cls >= 9) & (cls <= 12), cls >= 13, cls <= 8, np.arange(9)
    t = np.zeros((15, 9, 2, 2, _SLOTS), dtype=np.uint8)
    t[..., 0:1] = np.where(neg == 1, ord("-"), 0)
    t[..., 1:6] = np.where(small & (np.arange(5) < cls - 7), np.frombuffer(b"0.000", dtype=np.uint8), 0)
    digit = 8 + places // 3 * 8 + places % 3 * 2
    t[..., digit] = np.where((places < sig) | (fixed & (places <= cls)), 0xFF, 0)
    dot_at = np.where(fixed, cls, np.where(sci, 0, -1))
    t[..., digit + 1] = np.where((places == dot_at) & (places < sig - 1), 0xFF, 0)
    t[..., 32:37] = np.where(sci & ((np.arange(5) != 2) | (cls == 14)), 0xFF, 0)
    t[..., _SEPARATOR : _SEPARATOR + 1] = np.where(last == 1, ord("\n"), ord(","))
    return t.reshape(-1, _SLOTS)


_TEMPLATES = _layout_templates()


def _format_block(block: np.ndarray) -> bytes:
    """The CSV bytes of a (rows, columns) float block, each value as "%.9g" % v.

    Every value is scaled to s = |v| 10^(8 - e), with e = floor(log10 |v|),
    and rounded to a 9-digit integer n. The power of ten and the product are
    each rounded once, so s is off by at most about 2.3e-7. Where s lies at
    least 1e-6 from a half and from the ends of [1e8, 1e9), n and e are
    those of the exact value, which is what "%" prints. A log10 that rounds
    across a power of ten puts s next to an end, so that case is among the
    others (near a half or an end, zeros, non-finite values and |v| outside
    [1e-290, 1e290]), which "%" formats one at a time. The bytes therefore
    match "%" for every double.
    """
    rows, cols = block.shape
    v = block.reshape(-1)
    a = np.abs(v)
    # fmin and fmax replace NaN, so every clipped value is finite and in range
    clipped = np.fmax(np.fmin(a, 1e290), 1e-290)
    exponent = np.floor(np.log10(clipped)).astype(np.intp) + 300
    s = clipped * _SCALES[exponent]
    n = np.rint(np.fmin(s, 1e9))
    slow = (clipped != a) | (np.abs(s - n) > 0.5 - 1e-6) | (s < 1e8 + 1e-6) | (n >= 1e9)
    high_mid, low = np.divmod(n.astype(np.int32), 1000)
    high, mid = np.divmod(high_mid, 1000)
    zeros = _GROUP_ZEROS[low]
    trailing = zeros + (low == 0) * (_GROUP_ZEROS[mid] + (mid == 0) * _GROUP_ZEROS.take(high, mode="clip"))
    key = (_CLASS_KEYS[exponent] - trailing + 2 * (v < 0)).reshape(rows, cols)
    key[:, -1] += 1
    key = key.reshape(-1)

    slots = np.take(_TEMPLATES, key, axis=0)
    words = slots.view(np.uint64)
    words[:, 1] &= _GROUPS.take(high, mode="clip")
    words[:, 2] &= _GROUPS[mid]
    words[:, 3] &= _GROUPS[low]
    words[:, 4] &= _EXPONENTS[exponent]
    present = np.zeros(len(_TEMPLATES), dtype=bool)
    present[key] = True
    used = np.logical_or.reduce(_TEMPLATES[present])
    fallback = slow.nonzero()[0]
    if fallback.size:
        texts = [b"%.9g" % x for x in v[fallback].tolist()]
        padded = b"".join(text.ljust(_SEPARATOR, b"\0") for text in texts)
        slots[fallback, :_SEPARATOR] = np.frombuffer(padded, dtype=np.uint8).reshape(-1, _SEPARATOR)
        used[: max(map(len, texts))] = True
    return slots[:, used].tobytes().translate(None, b"\0")


def _format_rows(block: np.ndarray) -> bytes:
    """The CSV bytes of a (rows, columns) float block by "%.9g" % v on every value: what _format_block matches."""
    return b"".join(b",".join([b"%.9g" % v for v in row]) + b"\n" for row in block.tolist())


def _write_csv(path: str, table: dict) -> int:
    """Write {column name: array} as CSV rows and return the row count.

    The columns broadcast against each other, so an (m, f) grid passes its
    edges as m[:, None] and f[None, :]; rows come out in C order. Rows are
    formatted _WRITE_BLOCK at a time by _format_block, so a grid column is
    never expanded to its full length; a block of fewer than
    _KERNEL_MIN_VALUES values goes through _format_rows, with the same bytes.
    """
    values = [np.asarray(c, dtype=float) for c in table.values()]
    shape = np.broadcast(*values).shape or (1,)
    columns = [c.reshape((1,) * (len(shape) - c.ndim) + c.shape) for c in values]
    step = max(1, _WRITE_BLOCK // math.prod(shape[1:]))
    try:
        with open(path, "wb") as fh:
            fh.write((",".join(table) + "\n").encode("ascii"))
            for start in range(0, shape[0], step):
                block = np.empty((min(step, shape[0] - start),) + shape[1:] + (len(columns),))
                for j, c in enumerate(columns):
                    block[..., j] = c if c.shape[0] == 1 else c[start : start + step]
                block = block.reshape(-1, len(columns))
                fh.write((_format_block if block.size >= _KERNEL_MIN_VALUES else _format_rows)(block))
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}")
    return math.prod(shape)


def _time_grid(values: dict) -> TimeGrid:
    return TimeGrid(0.0, values["t_max"], values["steps"] + 1)


def _propagated(gen: np.ndarray, r0: np.ndarray, grid: TimeGrid, *names: str) -> dict:
    """t and the named observables of propagate_expm from r0 over the grid.

    The observables gate every sampled state (see quantum._CONCURRENCE_GATES).
    """
    traj = propagate_expm(gen, r0, grid)
    return {"t": traj.times, **{name: traj.observables[name] for name in names}}


def _run_fig1(values: dict) -> dict:
    y = values["y"][0]
    h = build_hamiltonian(HamiltonianParams(a=values["a"], b=values["a"], c=y / 2))
    traj = unitary_evolve(h, np.array([0, 1, 0, 0], dtype=complex), _time_grid(values), sign=values["sign"])
    return {"t": traj.times, "concurrence": traj.observables["concurrence"]}


def _run_fig2(values: dict) -> dict:
    rates = np.zeros((4, 4))
    rates[1, 2] = rates[2, 1] = values["gamma"]
    gen = assemble_liouvillian(None, [phenomenological_superop(rates)])
    return _propagated(gen, _BELL, _time_grid(values), "concurrence")


def _run_fig_nogo(values: dict) -> dict:
    grid = _time_grid(values)
    # every parameter set is checked before the first propagation
    runs = [FeedbackParams(m=0.0, f=0.0, mu=0.0, gamma=values["gamma"], y=y) for y in values["y"]]
    tables = []
    for params in runs:
        table = _propagated(wm_subspace_generator(params), _BELL_23, grid, "concurrence", "bloch_norm")
        tables.append({"y": np.full(table["t"].size, params.y), **table})
    return {name: np.concatenate([table[name] for table in tables]) for name in tables[0]}


def _fig_nogo_notes(values: dict) -> list[str]:
    """One |Bloch fixed point| line per y, taken from the model before the CSV is written.

    Without feedback the Bloch drive 4 sqrt(m f) is zero, and for gamma > 0
    the Bloch matrix has determinant -8 gamma y^2 != 0, so the fixed point is
    the origin. At gamma = 0 it is a pure rotation with no unique fixed point.
    """
    if values["gamma"] == 0:
        note = "no unique Bloch fixed point (gamma = 0: pure rotation)"
    else:
        note = "|Bloch fixed point| = 0.000e+00"
    return [f"fig-nogo y={y:g}: {note}" for y in values["y"]]


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
    return _propagated(gen, _BELL, grid, "concurrence", "purity")


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


# Every scenario: (runner, parameters with their defaults, notes). A default
# of None means the runner computes its own fallback; keys a scenario does
# not list are rejected when given explicitly. Notes, where a scenario has
# them, give its extra stderr lines, printed after the CSV is written.
_SCENARIOS = {
    "fig1": (_run_fig1, {"a": 1.0, "y": [1.0], "sign": 1, "t_max": float(np.pi), "steps": 200}, None),
    "fig2": (_run_fig2, {"gamma": 1.0, "t_max": 5.0, "steps": 100}, None),
    "fig-nogo": (
        _run_fig_nogo,
        {"gamma": 1.0, "y": [0.5, 1.0, 5.0], "t_max": 20.0, "steps": 200},
        _fig_nogo_notes,
    ),
    "fig4": (_run_fig4, {"gamma": 1.0, "m_max": 200.0, "f_max": 200.0, "points": 81}, None),
    "evolve": (
        _run_evolve,
        {"m": 1.0, "f": 1.0, "mu": 0.0, "gamma": 1.0, "y": [0.0], "a": None, "b": None, "c": None,
         "t_max": 10.0, "steps": 200},
        None,
    ),
    "steady": (_run_steady, {"m": 1.0, "f": 1.0, "mu": 0.0, "gamma": 1.0, "y": [0.0]}, None),
    "sweep": (_run_sweep, {"gamma": 1.0, "mu": 0.0, "m_max": 200.0, "f_max": 200.0, "points": 81}, None),
}


def run_scenario(config: ScenarioConfig):
    """Execute a resolved scenario and write its CSV.

    The scenario's notes and the written file are reported on stderr only
    after the write has succeeded, so a failure anywhere leaves one line.
    """
    runner, _, notes = _SCENARIOS[config.scenario]
    table = runner(config.values)
    lines = notes(config.values) if notes else []
    rows = _write_csv(config.out, table)
    for line in lines:
        print(line, file=sys.stderr)
    print(f"{config.scenario}: wrote {config.out} ({rows} rows)", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    try:
        run_scenario(parse_config(sys.argv[1:] if argv is None else argv))
    except EntdynError as exc:
        print(f"entdyn: numerical failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"entdyn: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"entdyn: error: request too large for memory: {exc}", file=sys.stderr)
        return 1
    return 0
