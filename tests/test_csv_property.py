"""Property test: the CSV kernel prints every double as "%.9g" does."""
import numpy as np
import pytest

from entdyn import cli

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@hypothesis.given(st.lists(st.floats(), min_size=1, max_size=6))
def test_kernel_bytes_match_percent(values):
    # st.floats() draws nan, both infinities, signed zeros and subnormals;
    # _write_csv formats small blocks by _format_rows, larger ones by the kernel
    row = ",".join("%.9g" % v for v in values) + "\n"
    column = "".join("%.9g\n" % v for v in values)
    for formatter in (cli._format_block, cli._format_rows):
        assert formatter(np.array([values])) == row.encode("ascii")
        assert formatter(np.array(values).reshape(-1, 1)) == column.encode("ascii")
