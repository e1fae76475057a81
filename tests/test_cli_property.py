"""Property test: every command line ends in one of the three outcomes of the CLI contract.

Exit 0 with finite CSV values, exit 1 with one `entdyn: error:` line, or
exit 2 with one `entdyn: numerical failure:` line; never a warning and
never an exception out of main. The scenarios and their keys are read
from the CLI's own scenario table, so a new key is drawn without a change
here.
"""
import contextlib
import io
import warnings

import numpy as np
import pytest

from entdyn import cli
from helpers import read_csv

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

PREFIXES = {1: "entdyn: error: ", 2: "entdyn: numerical failure: "}

#: steady columns whose NaN is documented: no closed form when y != 0 or f = 0
CLOSED_FORM_COLUMNS = ("concurrence_closed_form", "purity_closed_form")

values = st.one_of(
    st.sampled_from([np.nan, np.inf, -np.inf, 0.0, 1e308, -1e308, 5e-324]),
    st.builds(lambda sign, exponent: sign * 10.0**exponent, st.sampled_from([1.0, -1.0]), st.floats(-6, 9)),
)
# integer keys (steps, points, sign) stay small, so every run is quick
counts = st.integers(-1, 20)


@st.composite
def command_lines(draw):
    scenario = draw(st.sampled_from(sorted(cli._SCENARIOS)))
    # at most three keys: with more, nearly every draw holds an invalid value
    # and ends at exit 1 before anything runs
    keys = draw(st.sets(st.sampled_from(sorted(cli._SCENARIOS[scenario][1])), max_size=3))
    argv = [scenario]
    for key in sorted(keys):
        kind = cli._KEYS[key][0]
        drawn = draw(st.lists(values, min_size=1, max_size=2)) if key == "y" else [
            draw(counts if kind is int else values)
        ]
        # --key=value keeps a value such as -inf from reading as a flag
        argv += [f"--{key.replace('_', '-')}={value!r}" for value in drawn]
    return argv


@pytest.fixture(scope="module")
def out_path(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-property") / "out.csv"


@hypothesis.settings(max_examples=1000, derandomize=True, deadline=None)
@hypothesis.given(argv=command_lines())
def test_every_command_line_ends_in_a_contract_outcome(out_path, argv):
    out_path.unlink(missing_ok=True)
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = cli.main([*argv, "--out", str(out_path)])
    assert code in (0, 1, 2)
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith(PREFIXES[code]), lines
        return
    header, rows = read_csv(out_path)
    finite = np.isfinite(np.array(rows))
    if argv[0] == "steady":
        row = dict(zip(header, rows[0]))
        if row["y"] != 0 or row["f"] == 0:
            finite[:, [header.index(name) for name in CLOSED_FORM_COLUMNS]] = True
    assert finite.all(), header
