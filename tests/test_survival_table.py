import csv
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowhazard.errors import (
    EmptyInput,
    FlowHazardError,
    InvalidValue,
    LengthMismatch,
    NonFinite,
)
from flowhazard.experiment import SequenceResult
from flowhazard.survival import (
    SurvivalRecord,
    SurvivalTable,
    cox_fit,
    read_survival_table,
    write_survival_table,
)
from flowhazard import csvio

from _oracles import (
    csv_rows_read_survival_table,
    csv_writer_write_survival_table,
    record_based_write_survival_table,
)


def small_table():
    rng = np.random.default_rng(3)
    times = rng.integers(1, 6, size=12).astype(float)
    events = rng.integers(0, 2, size=12)
    events[0] = 1
    return SurvivalTable(times, events, rng.standard_normal((12, 2)),
                         ("a", "b"))


class TestRecordView:
    def test_len_iteration_and_indexing_give_records(self):
        table = small_table()
        assert len(table) == 12
        records = list(table)
        assert all(isinstance(r, SurvivalRecord) for r in records)
        for i, r in enumerate(records):
            assert r.time == table.times[i] and r.event == table.events[i]
            np.testing.assert_array_equal(r.covariates, table.X[i])
        assert table[-1].time == table.times[-1]
        assert {r.time for r in table} == set(table.times.tolist())


class TestValidation:
    @pytest.mark.parametrize("column, times, events", [
        ("time", [1.0, -2.0, 3.0], [1, 1, 0]),
        ("time", [1.0, np.nan, -3.0], [1, 1, 0]),
        ("event", [1.0, 2.0, 3.0], [1, 0.5, 0]),
        ("event", [1.0, 2.0, 3.0], [1, -1, 2]),
    ])
    def test_bad_time_or_event_names_first_row_and_column(self, column,
                                                          times, events):
        with pytest.raises(InvalidValue) as err:
            SurvivalTable(np.array(times), np.array(events), np.zeros((3, 1)))
        assert f"data row 2, column {column!r}" in str(err.value)

    def test_non_finite_covariate_names_row_and_column(self):
        X = np.zeros((3, 2))
        X[2, 1] = np.inf
        with pytest.raises(NonFinite) as err:
            SurvivalTable(np.ones(3), np.ones(3), X, ("a", "b"))
        assert "data row 3, column 'b'" in str(err.value)

    def test_shapes_and_names_must_agree(self):
        with pytest.raises(LengthMismatch):
            SurvivalTable(np.ones(3), np.ones(2), np.zeros((3, 1)))
        with pytest.raises(LengthMismatch):
            SurvivalTable(np.ones(3), np.ones(3), np.zeros((3, 1)), ("a", "b"))
        with pytest.raises(EmptyInput):
            SurvivalTable(np.ones(0), np.ones(0), np.zeros((0, 1)))
        with pytest.raises(LengthMismatch):
            cox_fit(SurvivalTable(np.ones(3), np.ones(3), np.zeros((3, 0))))


class TestReader:
    def test_ragged_row_is_a_length_mismatch(self):
        buf = io.StringIO("sequence_id,time,event,x\n0,1,1,0.5\n1,2,0\n")
        with pytest.raises(LengthMismatch) as err:
            read_survival_table(buf)
        assert "data row 2" in str(err.value)

    def test_blank_lines_skipped_and_ids_not_read(self):
        buf = io.StringIO(
            "sequence_id,time,event,x\n,1,1,0.5\n\n , , , \nabc,2,0,0.25\n"
        )
        table = read_survival_table(buf)
        assert table.feature_names == ("x",)
        assert table.times.tolist() == [1.0, 2.0]
        assert table.events.tolist() == [1, 0]
        assert table.X.tolist() == [[0.5], [0.25]]


# floats whose text form is easy to get wrong: signed zero, subnormals,
# the largest magnitudes and integral values
_EDGE_FLOATS = [0.0, -0.0, 5e-324, 1.1125369292536007e-308,
                2.2250738585072014e-308, 1e308, 1.7976931348623157e308,
                1.0, 3.0, 100.0, 2.0**53, 0.1]
_times = st.one_of(
    st.sampled_from(_EDGE_FLOATS),
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    st.integers(0, 10**6).map(float),
)
_covariates = st.one_of(
    st.sampled_from(_EDGE_FLOATS + [-v for v in _EDGE_FLOATS]),
    st.floats(allow_nan=False, allow_infinity=False),
)
# names the reader gives back as written: csv quoting (comma, double
# quote, newline) but no surrounding whitespace, which the reader strips
_names = st.text(alphabet=list('ab Z9,";\n\'\xe9'), max_size=6).filter(
    lambda name: name == name.strip()
)


@st.composite
def survival_tables(draw):
    n = draw(st.integers(1, 12))
    width = draw(st.integers(0, 4))
    return SurvivalTable(
        np.array(draw(st.lists(_times, min_size=n, max_size=n))),
        np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))),
        np.array(draw(st.lists(_covariates, min_size=n * width,
                               max_size=n * width))).reshape(n, width),
        tuple(draw(st.lists(_names, min_size=width, max_size=width))),
    )


class TestRoundTrip:
    @settings(max_examples=300)
    @given(table=survival_tables())
    @example(table=SurvivalTable(
        np.array([-0.0, 5e-324, 1e308, 7.0]), np.array([1, 0, 1, 0]),
        np.array([[-0.0, 5e-324], [-1e308, 2.0], [1.5, -4e-320],
                  [3.0, 0.1]]),
        ("a,b", 'say "hi"'),
    ))
    def test_write_then_read_is_bit_identical(self, table):
        buf = io.StringIO()
        write_survival_table(table, buf)
        text = buf.getvalue()
        again = read_survival_table(io.StringIO(text))
        assert again.feature_names == table.feature_names
        assert again.times.tobytes() == table.times.tobytes()
        assert again.events.tobytes() == table.events.tobytes()
        assert again.X.tobytes() == table.X.tobytes()
        # the text is what the record-at-a-time writer produced
        rows = [SequenceResult(i, table[i], None, np.zeros(0))
                for i in range(len(table))]
        oracle = io.StringIO()
        record_based_write_survival_table(rows, table.feature_names, oracle)
        assert text == oracle.getvalue()

    @pytest.mark.parametrize("width", [0, 1, 4])
    def test_rows_are_the_bytes_of_the_csv_writer(self, tmp_path, width):
        # signed zero, the smallest subnormal, the exponent cut-overs of
        # repr, integral floats and names the csv module must quote
        values = [-0.0, 0.0, 5e-324, 1e-05, 0.0001, 1e+16, 1e15, 3.0,
                  -7.0, 1e308, 0.1]
        n = len(values)
        X = np.array([np.roll(values, j) for j in range(width)]).T
        table = SurvivalTable(
            np.abs(values), np.arange(n) % 2, X.reshape(n, width),
            ("a,b", 'say "hi"', "plain", " pad ")[:width],
        )
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_survival_table(table, str(got))
        csv_writer_write_survival_table(table, str(want))
        assert got.read_bytes() == want.read_bytes()
        buf, oracle = io.StringIO(), io.StringIO()
        write_survival_table(table, buf)
        csv_writer_write_survival_table(table, oracle)
        assert buf.getvalue() == oracle.getvalue()


# Survival-table text for the reader against the whole-file csv reader it
# replaced: half the texts are valid tables, so chunks reach numpy's C
# reader, and the rest mix in every irregularity the csv path handles.
_TIMES = st.one_of(st.integers(0, 60).map(str), st.floats(0.0, 1e6).map(repr))
_COVARIATES = st.one_of(
    st.integers(-9, 9).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
# one cell over the csv module's field size limit
_LONG_CELL = "9" * (csv.field_size_limit() + 1)
_ODD_CELLS = st.sampled_from([
    "nan", "inf", "-inf", "Infinity", "-0.0", "1e999", "1_0", "\u0663",
    "\uff17", "", " ", "bogus", "+4", ".5", "-3", "0x1p3", _LONG_CELL,
])
_PAD = st.sampled_from([" ", "\t", "\u2003", "\xa0"])
_IDS = st.sampled_from(["0", "7", "abc", "", " ", "1e3"])
_HEADER_NAMES = st.sampled_from([
    "x", "bytes", " pad ", '"a,b"', '"say ""hi"""', '"two\nlines"', "\xe9",
])


def _quoted(cell: str) -> str:
    return '"' + cell.replace('"', '""') + '"'


@st.composite
def _cells(draw, base, odd):
    """A cell from ``base``; when ``odd``, sometimes an odd spelling,
    padded or quoted."""
    cell = draw(base)
    if odd and draw(st.integers(0, 7)) == 0:
        cell = draw(_ODD_CELLS)
    if odd and draw(st.integers(0, 7)) == 0:
        cell = draw(_PAD) + cell + draw(_PAD)
    if odd and draw(st.integers(0, 15)) == 0:
        cell = _quoted(cell)
    return cell


@st.composite
def survival_texts(draw):
    """A header (rarely a wrong one) and rows, all plain or, in an odd
    text, some short, long, blank, whitespace-only, comma-only or with odd
    cells; lines end by LF or CRLF, in an odd text sometimes by a bare CR.
    """
    odd = draw(st.booleans())
    width = draw(st.integers(0, 3))
    fixed = ["sequence_id", "time", "event"]
    if odd and draw(st.integers(0, 10)) == 0:
        fixed = draw(st.sampled_from([["sequence_id", "time"],
                                      ["id", "time", "event"],
                                      ["sequence_id", "event", "time"]]))
    header = fixed + draw(st.lists(_HEADER_NAMES, min_size=width,
                                   max_size=width))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    ends = st.just(end)
    if odd and draw(st.integers(0, 4)) == 0:
        ends = st.sampled_from(["\n", "\r\n", "\r"])
    events = st.sampled_from(
        ["0", "1"] + (["1.0", "2", "-1", "0.5"] if odd else [])
    )
    kinds = ["row"] * 8 + (["short", "long", "blank", "spaces", "commas"]
                           if odd else [])
    out = [",".join(header) + draw(ends)]
    for _ in range(draw(st.integers(0, 16))):
        kind = draw(st.sampled_from(kinds))
        if kind == "blank":
            line = ""
        elif kind == "spaces":
            line = draw(st.sampled_from([" ", "\t", " \u2003"]))
        elif kind == "commas":
            line = "," * draw(st.integers(1, len(header)))
        else:
            cells = [draw(_IDS), draw(_cells(_TIMES, odd)),
                     draw(_cells(events, odd))]
            cells += [draw(_cells(_COVARIATES, odd)) for _ in range(width)]
            if kind == "short":
                cells = cells[:draw(st.integers(1, len(cells) - 1))]
            elif kind == "long":
                cells.append(draw(_cells(_COVARIATES, odd)))
            line = ",".join(cells)
        out.append(line + draw(ends))
    text = "".join(out)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text


def _read_outcome(read, source):
    try:
        table = read(source)
    except Exception as exc:
        return type(exc), str(exc)
    return (table.feature_names, table.X.shape, table.times.tobytes(),
            table.events.tobytes(), table.X.tobytes())


class TestReaderEqualsWholeFileReader:
    @pytest.mark.parametrize("chunk_lines", [1, 2, 7])
    @settings(max_examples=150)
    @given(text=survival_texts(), as_path=st.booleans())
    @example(text="sequence_id,time,event,x\r\n0,1.0,1,0.5\r\n"
                  "1,2.0,0,-0.0\r\n", as_path=True)
    @example(text="sequence_id,time,event,x\r0,1,1,2\r1,2,0,3\r",
             as_path=True)
    @example(text="sequence_id,time,event,x\r0,1,1,2\r1,2,0,3\r",
             as_path=False)
    @example(text="id,time,event\n0,1,1\r2\n", as_path=False)
    @example(text='sequence_id,time,event,"a,b","say ""hi"""\n'
                  '0,1,1,2,3\n1,"2",0,3,4\n\n,,,,\n2,3,1,bogus,5\n'
                  "3,4,1,5\n", as_path=False)
    @example(text="sequence_id,time,event,x\n0,1,1,2\n\n1,2,0,"
                  + _LONG_CELL + "\n2,3,1,4\n", as_path=True)
    @example(text="sequence_id,time,event," + _LONG_CELL + "\n0,1,1,2\n",
             as_path=False)
    @example(text="sequence_id,time,event,x\n0,1,1,2\n\n1,2,0,3\r2,3,1,4\n",
             as_path=False)
    def test_same_table_or_same_error(self, chunk_lines, text, as_path,
                                      tmp_path_factory):
        if as_path:
            path = tmp_path_factory.getbasetemp() / "table.csv"
            path.write_bytes(text.encode("utf-8"))
            sources = (str(path), str(path))
        else:
            sources = (io.StringIO(text), io.StringIO(text))
        with mock.patch.object(csvio, "_CHUNK_LINES", chunk_lines):
            got = _read_outcome(read_survival_table, sources[0])
        assert got == _read_outcome(csv_rows_read_survival_table, sources[1])
        if isinstance(got[0], type):  # an error, typed for the CLI
            assert issubclass(got[0], FlowHazardError), got

    def test_written_tables_take_the_c_reader(self, monkeypatch):
        # CRLF line ends and quoted names do not keep the body off it
        table = SurvivalTable(np.arange(6.0), np.array([1, 0] * 3),
                              np.ones((6, 2)), ("a,b", 'q"'))
        buf = io.StringIO()
        write_survival_table(table, buf)
        assert "\r\n" in buf.getvalue()
        monkeypatch.setattr(csvio, "_CHUNK_LINES", 4)
        calls = []
        real = csvio._plain_block

        def spy(*args, **kwargs):
            calls.append(real(*args, **kwargs) is not None)
            return real(*args, **kwargs)

        monkeypatch.setattr(csvio, "_plain_block", spy)
        again = read_survival_table(io.StringIO(buf.getvalue()))
        assert calls == [True, True]
        assert again.X.tobytes() == table.X.tobytes()
        assert again.feature_names == ("a,b", 'q"')
