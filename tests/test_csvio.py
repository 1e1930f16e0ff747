"""The one table writer, ``csvio.write_table``, against the csv module
alone: rows of numbers are joined by hand, every other row goes through
``csv.writer``, and both give the bytes ``csv.writer`` writes."""

import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from flowhazard.csvio import write_table

from _oracles import csv_writer_write_table

# signed zero, the smallest subnormal, the ends of the float range, the
# exponent cut-overs of repr, and the values that are not finite
_FLOATS = st.one_of(
    st.sampled_from([float("inf"), float("-inf"), float("nan"), -0.0, 0.0,
                     5e-324, -5e-324, 1e308, -1e308, 1e16, 1e-05]),
    st.floats(),
)
_INTS = st.integers(-2**63, 2**63 - 1)
# cells the csv module must quote, or must not strip
_TEXT = st.one_of(
    st.sampled_from(["a,b", 'say "hi"', "two\nlines", "cr\r", "  lead",
                     "trail ", "", " ", "plain"]),
    st.text(max_size=8),
)
_CELLS = {"float": _FLOATS, "int": _INTS, "text": _TEXT,
          "mixed": st.one_of(_FLOATS, _INTS, _TEXT)}
_DTYPES = {"float": np.float64, "int": np.int64}


@st.composite
def tables(draw):
    """A header and equal-length columns: float and int columns as numpy
    arrays or lists, text columns, and columns that mix numbers and text
    row by row."""
    n = draw(st.integers(0, 6))
    kinds = draw(st.lists(st.sampled_from(sorted(_CELLS)), min_size=1,
                          max_size=5))
    columns = []
    for kind in kinds:
        cells = draw(st.lists(_CELLS[kind], min_size=n, max_size=n))
        if kind in _DTYPES and draw(st.booleans()):
            cells = np.array(cells, dtype=_DTYPES[kind])
        columns.append(cells)
    header = draw(st.lists(_TEXT, min_size=len(kinds), max_size=len(kinds)))
    return header, columns


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("write_table")


class TestWriteTable:
    @given(table=tables())
    def test_text_is_the_csv_writers(self, out_dir, table):
        header, columns = table
        got, want = io.StringIO(), io.StringIO()
        write_table(got, header, columns)
        csv_writer_write_table(want, header, columns)
        assert got.getvalue() == want.getvalue()
        # a path gets the same text as a handle
        path = out_dir / "table.csv"
        write_table(str(path), header, columns)
        assert path.read_bytes().decode("utf-8") == got.getvalue()

    def test_numbers_are_repr_and_text_is_quoted(self):
        buf = io.StringIO()
        write_table(buf, ["name", "x", "n"],
                    [["a,b", "plain"], np.array([-0.0, 5e-324]),
                     np.array([3, 4])])
        assert buf.getvalue() == ('name,x,n\r\n"a,b",-0.0,3\r\n'
                                  "plain,5e-324,4\r\n")
        buf = io.StringIO()
        write_table(buf, ["x", "n"], [np.array([np.inf, np.nan]), range(2)])
        assert buf.getvalue() == "x,n\r\ninf,0\r\nnan,1\r\n"
