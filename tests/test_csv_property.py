"""Property tests: the CSV kernel prints every double as "%.9g" does, in every table layout."""
from unittest import mock

import numpy as np
import pytest

from entdyn import cli
from helpers import reference_csv

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@hypothesis.settings(max_examples=1000, derandomize=True, deadline=None)
@hypothesis.given(st.lists(st.floats(), min_size=1, max_size=6))
def test_kernel_bytes_match_percent(values):
    # st.floats() draws nan, both infinities, signed zeros and subnormals;
    # _write_csv formats small tables by _format_rows, larger ones by the kernel
    kernel = "".join("%.9g," % v for v in values)
    assert cli._slots(np.array(values)).tobytes().translate(None, b"\0") == kernel.encode("ascii")
    row = ",".join("%.9g" % v for v in values) + "\n"
    column = "".join("%.9g\n" % v for v in values)
    assert cli._format_rows(np.array([values])) == row.encode("ascii")
    assert cli._format_rows(np.array(values).reshape(-1, 1)) == column.encode("ascii")


@st.composite
def tables(draw):
    """1-4 columns, each (r, 1), (1, c) or (r, c): edges the writer formats once, and full columns.

    Each column's values are drawn, seeded, from a palette of st.floats(),
    so an example costs Hypothesis a dozen draws, not one per value.
    """
    r, c = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    shapes = draw(st.lists(st.sampled_from([(r, 1), (1, c), (r, c)]), min_size=1, max_size=4))
    palette = np.array(draw(st.lists(st.floats(), min_size=1, max_size=8)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return {f"c{k}": rng.choice(palette, shape) for k, shape in enumerate(shapes)}


@hypothesis.settings(max_examples=1000, derandomize=True, deadline=None)
@hypothesis.given(tables(), st.sampled_from([2, 24, 2048]))
def test_broadcast_layouts_match_reference_writer(tmp_path_factory, table, block):
    out = tmp_path_factory.getbasetemp() / "layout.csv"
    with mock.patch.object(cli, "_WRITE_BLOCK", block):
        assert cli._write_csv(str(out), table) == np.broadcast(*table.values()).size
    assert out.read_bytes() == reference_csv(table)
