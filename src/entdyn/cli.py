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
    _subspace_generators,
    concurrence_sweep,
    embedding_hamiltonian,
    steady_state_closed_form,
    wm_full_generator,
    wm_subspace_generator,
)
from .generators import (
    HamiltonianParams,
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

#: a table of fewer values is formatted value by value: the kernel's fixed
#: cost of about 50 numpy calls exceeds "%" on every value below about 100
#: values in rows of 3 columns and about 150 in rows of 12, where "%" costs
#: less per value
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
# by the parts of a value's 9-digit integer n = lead 10^8 + mid 10^4 + low:
# _LEADS by the leading digit, _GROUPS and _GROUP_ZEROS by a 4-digit group
# k = 0..9999. A value is laid out in four 8-byte words:
#   0  sign "-", "0.000", the prefix of fixed notation below 1, and digit 1
#      followed by its dot slot
#   1  digits 2-5, the group mid, each followed by its dot slot
#   2  digits 6-9, the group low, likewise
#   3  "e", the exponent sign, three exponent digits and the "," after them
# A 0 byte is no byte. A value's layout depends on its exponent class (e =
# 0..8, e = -1..-4, scientific with 2 or 3 exponent digits), its count of
# significant digits and its sign, combined into key = (class * 9 + digits
# - 1) * 2 + negative. The row of _TEMPLATES for that key holds the
# layout's constant bytes and 0xFF where the value's digits, dots and
# exponent go. Every layout ends in ","; the writer puts "\n" on the last
# value of a row.
_SLOTS = 32
_SEPARATOR = 29
_SCALES = np.array([float(f"1e{8 - j}") for j in range(-300, 301)])


def _digit_words(digits: np.ndarray, words: np.ndarray) -> np.ndarray:
    """words, (k, 8) bytes, as (k,) uint64 words with the (k, d) digits in ASCII in their last 2d bytes, each followed by "."."""
    words[:, 8 - 2 * digits.shape[1] :: 2] = digits + ord("0")
    words[:, 9 - 2 * digits.shape[1] :: 2] = ord(".")
    return words.view(np.uint64).reshape(-1)


_GROUPS = _digit_words(np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10, np.zeros((10000, 8), np.uint8))
# the leading digit keeps the sign and the "0.000" prefix of word 0
_LEADS = _digit_words(np.arange(10)[:, None], np.full((10, 8), 0xFF, np.uint8))
# 2 * the trailing zeros of "%04d" % k: each trailing zero lowers the key by 2
_GROUP_ZEROS = 2 * sum(np.arange(10000) % 10**p == 0 for p in range(1, 5))
_EXPONENTS = np.frombuffer(
    b"".join(b"e%c%03d\xff\0\0" % (b"+-"[j < 0], abs(j)) for j in range(-300, 301)), dtype=np.uint64
)
# key of exponent j with 9 significant digits, nonnegative
_CLASS_KEYS = np.array(
    [(j if 0 <= j < 9 else 8 - j if -5 < j < 0 else 13 + (abs(j) >= 100)) * 18 + 16 for j in range(-300, 301)]
)


def _layout_templates() -> np.ndarray:
    cls, sig, neg = (axis.reshape(axis.shape + (1,)) for axis in np.ix_(np.arange(15), np.arange(1, 10), np.arange(2)))
    small, sci, fixed, places = (cls >= 9) & (cls <= 12), cls >= 13, cls <= 8, np.arange(9)
    t = np.zeros((15, 9, 2, _SLOTS), dtype=np.uint8)
    t[..., 0:1] = np.where(neg == 1, ord("-"), 0)
    t[..., 1:6] = np.where(small & (np.arange(5) < cls - 7), np.frombuffer(b"0.000", dtype=np.uint8), 0)
    digit = 6 + 2 * places
    t[..., digit] = np.where((places < sig) | (fixed & (places <= cls)), 0xFF, 0)
    dot_at = np.where(fixed, cls, np.where(sci, 0, -1))
    t[..., digit + 1] = np.where((places == dot_at) & (places < sig - 1), 0xFF, 0)
    t[..., 24:29] = np.where(sci & ((np.arange(5) != 2) | (cls == 14)), 0xFF, 0)
    t[..., _SEPARATOR] = ord(",")
    return t.reshape(-1, _SLOTS)


_TEMPLATES = _layout_templates()


def _slots(block: np.ndarray) -> np.ndarray:
    """The (values, _SLOTS) slots of a float block, each value as "%.9g," % v.

    Every value is scaled to s = |v| 10^(8 - e), with e = floor(log10 |v|),
    and rounded to a 9-digit integer n. The power of ten and the product are
    each rounded once, so s is off by at most about 2.3e-7. Where s lies at
    least 1e-6 from a half and from the ends of [1e8, 1e9), n and e are
    those of the exact value, which is what "%" prints. A log10 that rounds
    across a power of ten puts s next to an end, so that case is among the
    others (near a half or an end, zeros, non-finite values and |v| outside
    [1e-290, 1e290]), which "%" formats one at a time. The bytes therefore
    match "%" for every double. Each value fills the _SLOTS bytes of its
    _TEMPLATES row, and deleting every 0 byte of the slots gives the values
    in block order, each followed by ",".
    """
    v = block.reshape(-1)
    a = np.abs(v)
    # fmin and fmax replace NaN, so every clipped value is finite and in range
    clipped = np.fmax(np.fmin(a, 1e290), 1e-290)
    exponent = np.floor(np.log10(clipped)).astype(np.intp) + 300
    s = clipped * _SCALES[exponent]
    n = np.rint(np.fmin(s, 1e9))
    slow = (clipped != a) | (np.abs(s - n) > 0.5 - 1e-6) | (s < 1e8 + 1e-6) | (n >= 1e9)
    # n = lead 10^8 + mid 10^4 + low, and lead >= 1 wherever the kernel's bytes are kept
    lead_mid, low = np.divmod(n.astype(np.int32), 10000)
    lead, mid = np.divmod(lead_mid, 10000)
    # take gathers by the int32 groups as they are, where an index would first convert them to intp
    trailing = _GROUP_ZEROS.take(low) + (low == 0) * _GROUP_ZEROS.take(mid)
    key = _CLASS_KEYS[exponent] - trailing + (v < 0)

    slots = np.take(_TEMPLATES, key, axis=0)
    words = slots.view(np.uint64)
    words[:, 0] &= _LEADS.take(lead, mode="clip")
    words[:, 1] &= _GROUPS.take(mid)
    words[:, 2] &= _GROUPS.take(low)
    words[:, 3] &= _EXPONENTS[exponent]
    fallback = slow.nonzero()[0]
    if fallback.size:
        padded = b"".join((b"%.9g" % x).ljust(_SEPARATOR, b"\0") for x in v[fallback].tolist())
        slots[fallback, :_SEPARATOR] = np.frombuffer(padded, dtype=np.uint8).reshape(-1, _SEPARATOR)
    return slots


def _format_rows(block: np.ndarray) -> bytes:
    """The CSV bytes of a (rows, columns) float block by "%.9g" % v on every value: what the kernel path matches."""
    return b"".join(b",".join([b"%.9g" % v for v in row]) + b"\n" for row in block.tolist())


def _write_csv(path: str, table: dict) -> int:
    """Write {column name: array} as CSV rows and return the row count.

    The columns broadcast against each other, so an (m, f) grid passes its
    edges as m[:, None] and f[None, :]; rows come out in C order. A table
    of fewer than _KERNEL_MIN_VALUES values goes through _format_rows in one
    call. Any other goes through the kernel, with the same bytes, in blocks
    of _WRITE_BLOCK rows, so a grid column is never expanded to its full
    length. There, a column smaller than the table is formatted once, by
    its own _slots call, and each block gathers its slots next to those of
    the block's full-length columns, formatted by one _slots call. The last
    value of each row gets "\n" in place of its ",".
    """
    values = [np.asarray(c, dtype=float) for c in table.values()]
    shape = np.broadcast(*values).shape or (1,)
    columns = [c.reshape((1,) * (len(shape) - c.ndim) + c.shape) for c in values]
    try:
        with open(path, "wb") as fh:
            fh.write((",".join(table) + "\n").encode("ascii"))
            if math.prod(shape) * len(columns) < _KERNEL_MIN_VALUES:
                block = np.empty(shape + (len(columns),))
                for j, c in enumerate(columns):
                    block[..., j] = c
                fh.write(_format_rows(block.reshape(-1, len(columns))))
            else:
                full = [j for j, c in enumerate(columns) if c.shape == shape]
                edges = {j: _slots(c).reshape(c.shape + (_SLOTS,)) for j, c in enumerate(columns) if j not in full}
                step = max(1, _WRITE_BLOCK // math.prod(shape[1:]))
                for start in range(0, shape[0], step):
                    rows = (min(step, shape[0] - start),) + shape[1:]
                    if full:
                        slots = _slots(np.stack([columns[j][start : start + step] for j in full], axis=-1))
                    if edges:
                        wide = np.empty(rows + (len(columns), _SLOTS), dtype=np.uint8)
                        for j, c in edges.items():
                            wide[..., j, :] = c if c.shape[0] == 1 else c[start : start + step]
                        if full:
                            wide[..., full, :] = slots.reshape(rows + (len(full), _SLOTS))
                        slots = wide
                    slots = slots.reshape(-1, len(columns), _SLOTS)
                    slots[:, -1, _SEPARATOR] = ord("\n")
                    fh.write(slots.tobytes().translate(None, b"\0"))
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}")
    return math.prod(shape)


def _time_grid(values: dict) -> TimeGrid:
    _require(0 < values["t_max"] < np.inf, f"t-max must be positive and finite, got {values['t_max']}")
    _require(values["steps"] >= 1, f"steps must be at least 1, got {values['steps']}")
    return TimeGrid(0.0, values["t_max"], values["steps"] + 1)


def _propagated(gen: np.ndarray, r0: np.ndarray, grid: TimeGrid, *names: str) -> dict:
    """t and the named observables of propagate_expm from r0 over the grid.

    gen is one generator or a stack of k of them. For a stack each
    observable is (k, samples), one row per generator, and t, the grid's
    times, broadcasts against it in the CSV writer. The observables gate
    every sampled state (see quantum._CONCURRENCE_GATES).
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
    return _propagated(phenomenological_superop(rates), _BELL, _time_grid(values), "concurrence")


def _run_fig_nogo(values: dict) -> dict:
    grid = _time_grid(values)
    # every parameter set is checked before the first propagation
    runs = [FeedbackParams(m=0.0, f=0.0, mu=0.0, gamma=values["gamma"], y=y) for y in values["y"]]
    # one propagation for every y: the generators share the grid and the start
    return {
        "y": np.array([[params.y] for params in runs]),
        **_propagated(_subspace_generators(runs), _BELL_23, grid, "concurrence", "bloch_norm"),
    }


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
