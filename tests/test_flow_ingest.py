"""The chunked flow-CSV parser against the whole-text parser it replaced
(kept in ``_oracles``), plus its memory bound and its input handling.

Both parsers must give the same dataset bit for bit and the same
:class:`ParseReport`, whatever the chunk size: plain
chunks go through numpy's C reader and every other chunk through the csv
module, and a quoted field may run across chunk boundaries.
"""

import csv
import io
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from flowhazard.errors import EmptyInput
from flowhazard.flowdata import FlowSchema, cicids2017_schema, parse_flow_csv
from flowhazard import csvio

from _oracles import whole_text_parse_flow_csv

SCHEMA = FlowSchema(("a", "b"), label_column="Label")

NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.floats(-1e6, 1e6).map(lambda v: f"{v:.3f}"),
)
SPECIAL = st.sampled_from([
    "Infinity", "-Infinity", "NaN", "inf", "nan", "1_0", "2_5e1", "bogus",
    "", "\u0663", "\u0661.5", "\uff17", "1e999", "0x1p3", "+4", ".5",
])
PAD = st.sampled_from(["", "", " ", "\t", "\u2003", "\xa0", "\x0c"])
LABELS = st.sampled_from([
    "x", " y z ", "a#b", "#c", "\xf1and\xfa", "l\u2028m", "k\x0cq",
    "", "BENIGN",
])
QUOTED_LABELS = st.sampled_from([
    '"x"', '"p,q"', '"two\nlines"', '"cr\r\nlf"', '"say ""hi"""', '""',
])


def _quote(cell: str) -> str:
    return '"' + cell.replace('"', '""') + '"'


@st.composite
def feature_cells(draw):
    cell = draw(st.one_of(NUMBERS, NUMBERS, SPECIAL))
    cell = draw(PAD) + cell + draw(PAD)
    if draw(st.integers(0, 9)) == 0:
        cell = _quote(cell)
    return cell


@st.composite
def flow_csvs(draw):
    """Header in any column order, with an extra column or not, then rows
    that are plain, short, long, blank, whitespace-only or quoted, each
    ended by LF or CRLF."""
    columns = ["a", "b", "Label"] + (["extra"] if draw(st.booleans()) else [])
    columns = draw(st.permutations(columns))
    newline = st.sampled_from(["\n", "\n", "\r\n"])
    out = [",".join(columns) + draw(newline)]
    n_rows = draw(st.integers(0, 14))
    for _ in range(n_rows):
        kind = draw(st.sampled_from(
            ["row", "row", "row", "row", "short", "long", "blank", "spaces",
             "quoted_label"]
        ))
        if kind == "blank":
            line = ""
        elif kind == "spaces":
            line = draw(st.sampled_from([" ", "\t", " , ,", ",", " \u2003"]))
        else:
            cells = []
            for col in columns:
                if col == "Label":
                    labels = QUOTED_LABELS if kind == "quoted_label" else LABELS
                    cells.append(draw(labels))
                else:
                    cells.append(draw(feature_cells()))
            if kind == "short":
                cells = cells[:draw(st.integers(1, len(cells) - 1))]
            elif kind == "long":
                cells.append(draw(feature_cells()))
            line = ",".join(cells)
        out.append(line + draw(newline))
    text = "".join(out)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text


def _outcome(parse, data):
    try:
        ds = parse(data, SCHEMA)
    except EmptyInput as exc:
        return "EmptyInput", str(exc)
    return ds.features.shape, ds.features.tobytes(), ds.labels, ds.report


@pytest.mark.parametrize("chunk_lines", [1, 2, 7])
@given(text=flow_csvs())
@example(text='a,b,Label\n1,2,"multi\nline"\n3,bogus,x\n5,6,y\n')
@example(
    text='Label,a,b\r\n"q,r",1,2\r\n\r\nInfinity,3,4\r\n, ,\r\nx,1_0,2\r\n',
)
def test_chunked_parse_equals_whole_text_parse(chunk_lines, text):
    data = text.encode("utf-8")
    with mock.patch.object(csvio, "_CHUNK_LINES", chunk_lines):
        got = _outcome(parse_flow_csv, data)
    assert got == _outcome(whole_text_parse_flow_csv, data)


class TestPlainChunks:
    FEAT = [0, 1]

    def test_plain_lines_take_the_c_reader(self):
        block, labels = csvio._plain_block(
            ["1,2, x\n", "3.5,Infinity,y \n"], self.FEAT, 2
        )
        assert block.tolist() == [[1.0, 2.0], [3.5, np.inf]]
        assert labels == ["x", "y"]

    def test_crlf_lines_take_the_c_reader(self):
        block, labels = csvio._plain_block(
            ["1,2, x\r\n", "3.5,Infinity,y \r\n", "4,5,z"], self.FEAT, 2
        )
        assert block.tolist() == [[1.0, 2.0], [3.5, np.inf], [4.0, 5.0]]
        assert labels == ["x", "y", "z"]

    def test_cell_count_is_checked_when_given(self):
        lines = ["0,1,2\n", "0,3,4\r\n"]
        block, labels = csvio._plain_block(lines, [1, 2], n_cells=3)
        assert block.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert labels is None
        for bad in (["0,1,2,9\n"], ["0,1,2\n", "0,1\n"]):
            assert csvio._plain_block(bad, [1, 2], n_cells=3) is None

    @pytest.mark.parametrize("lines", [
        ['1,2,"x"\n'],
        ["1,2\r,x\n"],
        ["1,2,x\r"],
        ["1,2,x\r\r\n"],
        ["1,2,x\n", "\n"],
        ["1,2,x\n", " \t\n"],
        ["1,\x002,x\n"],
        ["1,2\n"],
        ["1_0,2,x\n"],
        ["\u0663,2,x\n"],
        ["1,2," + "x" * (csv.field_size_limit() + 1) + "\n"],
    ], ids=["quote", "cr", "cr_at_end", "cr_before_crlf", "blank",
            "whitespace", "nul", "short",
            "underscore", "non_ascii_digit", "field_limit"])
    def test_other_chunks_go_to_csv(self, lines):
        assert csvio._plain_block(lines, self.FEAT, 2) is None


class TestInputHandling:
    TEXT = "a,b,Label\n1,2,\xf1\n3,4,\xfcber\n"

    def test_every_source_kind_gives_the_same_dataset(self, tmp_path,
                                                      monkeypatch):
        # one character per read splits the two-byte UTF-8 labels
        monkeypatch.setattr(csvio, "_READ_CHARS", 1)
        data = self.TEXT.encode("utf-8")
        path = tmp_path / "flows.csv"
        path.write_bytes(data)
        sources = [data, str(path), path, io.BytesIO(data),
                   io.StringIO(self.TEXT)]
        for source in sources:
            ds = parse_flow_csv(source, SCHEMA)
            assert ds.labels == ("\xf1", "\xfcber")
            assert ds.features.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_each_distinct_label_is_one_object(self, monkeypatch):
        # the first chunk takes the C reader, the quoted second the csv path
        monkeypatch.setattr(csvio, "_CHUNK_LINES", 2)
        data = ('a,b,Label\n1,2,DoS Hulk\n3,4,DoS Hulk \n'
                '5,6,"DoS Hulk"\n7,8,PortScan\n').encode()
        ds = parse_flow_csv(data, SCHEMA)
        assert ds.labels == ("DoS Hulk",) * 3 + ("PortScan",)
        assert len({id(label) for label in ds.labels}) == 2

    def test_leading_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfa,b,Label\n1,2,x\n")
        ds = parse_flow_csv(str(path), SCHEMA)
        assert ds.features.tolist() == [[1.0, 2.0]]
        quoted = parse_flow_csv('\ufeff"a",b,Label\n1,2,x\n'.encode(), SCHEMA)
        assert quoted.labels == ("x",)

    @pytest.mark.parametrize("bad", [
        "1" * (csv.field_size_limit() + 1) + ",2,x",  # over the field limit
        "1,2\r,x",  # a carriage return in an unquoted field
    ], ids=["oversized_field", "lone_carriage_return"])
    def test_csv_error_is_a_malformed_row(self, bad):
        data = f"a,b,Label\n1,2,x\n{bad}\n3,4,y\n".encode()
        ds = parse_flow_csv(data, SCHEMA)
        assert ds.labels == ("x", "y")
        assert ds.report.malformed_dropped == 1
        assert ds.report.rows_read == 3


def _cic_csv(n_rows: int) -> bytes:
    schema = cicids2017_schema()
    rng = np.random.default_rng(23)
    x = np.round(rng.lognormal(3.0, 2.0, size=(n_rows, schema.n_features)), 3)
    header = ",".join(" " + name for name in schema.feature_names)
    rows = "".join(",".join(map(repr, row)) + ", BENIGN\n"
                   for row in x.tolist())
    return (header + ", Label\n" + rows).encode()


def test_peak_memory_stays_near_the_feature_matrix(tmp_path):
    path = tmp_path / "cic.csv"
    path.write_bytes(_cic_csv(20_000))
    tracemalloc.start()
    try:
        ds = parse_flow_csv(str(path), cicids2017_schema())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(ds) == 20_000
    assert peak < 3 * ds.features.nbytes
