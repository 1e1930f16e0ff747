"""CSV reading and writing shared by flow ingest, survival tables and
every table artifact.

:func:`open_text` is the one text layer for every CSV file read or
written: it turns a path, ``bytes``, or an open text or binary handle
into a text handle, decoding bytes as UTF-8 with undecodable bytes
replaced.
:func:`write_table` is the one table writer: a header through the csv
module, every number written by ``repr``, ``"\\r\\n"`` line ends.
:class:`_CsvChunks` takes the lines the handle yields, a leading
byte-order mark dropped, and cuts them into chunks that numpy's C reader
parses when :func:`_plain_block` accepts them, with one csv reader for
the rest.  This module imports only the standard library and numpy, so
reading a survival table loads no flow ingest and no random-number code.
"""

from __future__ import annotations

import csv
import io
import itertools
import os
import sys
from collections import deque
from contextlib import contextmanager

import numpy as np


@contextmanager
def open_text(source, mode: str = "r", newline: str = ""):
    r"""A text handle on ``source``, UTF-8 with undecodable bytes replaced.

    A path is opened and closed on exit.  ``bytes`` and a binary handle
    are wrapped, and a binary handle is left open: the wrapper is
    detached on exit.  A text handle (one with an ``encoding``) is passed
    through and left open.  ``newline`` is :func:`open`'s: ``""`` (the
    csv module's choice) ends lines at ``"\n"``, ``"\r\n"`` or a bare
    ``"\r"``, ``"\n"`` at ``"\n"`` alone; neither translates line ends.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, mode, encoding="utf-8", errors="replace",
                  newline=newline) as fh:
            yield fh
    elif hasattr(source, "encoding"):
        yield source
    else:
        fh = io.TextIOWrapper(
            io.BytesIO(source) if isinstance(source, bytes) else source,
            encoding="utf-8", errors="replace", newline=newline)
        try:
            yield fh
        finally:
            fh.detach()


def write_table(sink, header, columns) -> None:
    r"""Write ``header``, then one row per index of the equal-length
    ``columns`` (numpy arrays or sequences), to ``sink``: a path or a
    handle, as :func:`open_text` takes it.

    The header, and every row that holds a ``str``, go through the csv
    module, which quotes a cell where it must.  A row of numbers alone is
    joined by hand into the bytes the csv module would write: each number
    by ``repr``, cells separated by commas, ``"\r\n"`` at the end.  (The
    csv module takes about 1.4 times as long on such rows.)  An array
    column is read by ``tolist()``; a sequence must hold Python ``int``,
    ``float`` and ``str`` cells, since a numpy scalar's ``repr`` names its
    type.
    """
    columns = [c.tolist() if isinstance(c, np.ndarray) else c
               for c in columns]
    with open_text(sink, "w") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*columns):
            if str in map(type, row):
                writer.writerow(row)
            else:
                fh.write(",".join(map(repr, row)) + "\r\n")


# Lines per parse chunk.  A chunk is parsed by numpy's C reader when every
# line is one plain record, and by the csv module otherwise.
_CHUNK_LINES = 512


def _plain_block(lines, feat_idx, label_idx=None, n_cells=None):
    r"""Features (and labels) of ``lines`` by numpy's C reader, or None.

    Only a chunk in which every line is one record that the csv module
    would split at each comma is read here: no quote or NUL, no carriage
    return but in a ``"\r\n"`` line end, no blank line, no line long
    enough to hit the csv field limit, and, when ``n_cells`` is given, that
    many cells on every line.  The cells are counted by the chunk's
    commas, so a line with a cell too many passes when another lacks one;
    the short line has no last cell, so the C reader rejects it when the
    last cell is one it reads (in ``feat_idx`` or ``label_idx``).  The C
    reader converts each cell with the same ``PyOS_string_to_double`` as
    ``float``; any cell it rejects (``float`` accepts underscores and
    non-ASCII digits) sends the chunk back to the csv path.  ``labels``
    is None without a ``label_idx``.
    """
    text = "".join(lines)
    limit = csv.field_size_limit()
    if ('"' in text or "\0" in text
            or "\r" in text and text.count("\r") != text.count("\r\n")
            or not all(map(str.strip, lines))
            or len(text) > limit and max(map(len, lines)) > limit
            or n_cells is not None
            and text.count(",") != len(lines) * (n_cells - 1)):
        return None
    fields = [("x", np.float64, (len(feat_idx),))]
    usecols = [*feat_idx]
    if label_idx is not None:
        fields.append(("label", object))
        usecols.append(label_idx)
    try:
        rows = np.loadtxt(lines, dtype=np.dtype(fields), delimiter=",",
                          comments=None, usecols=usecols, ndmin=1)
    except ValueError:
        return None
    labels = (None if label_idx is None
              else [sys.intern(label.strip()) for label in rows["label"]])
    return np.ascontiguousarray(rows["x"]), labels


class _CsvChunks:
    """The lines of the text handle ``fh``, a byte-order mark at the start
    dropped, read in chunks of ``_CHUNK_LINES`` lines.

    One csv reader, ``records``, runs over the whole input: it reads the
    header, then every chunk that :func:`_plain_block` does not read, so a
    quoted field may run on past the end of its chunk.  ``blocks`` yields
    each chunk's line count and its plain block, or None after queueing
    the chunk's lines in ``pending``; the caller then reads ``records``
    until ``pending`` is empty.
    """

    def __init__(self, fh):
        lines = iter(fh)
        first = next(lines, "").removeprefix("\ufeff")
        self._lines = itertools.chain([first] if first else [], lines)
        self.pending: deque[str] = deque()
        self.records = csv.reader(self._feed())

    def _feed(self):
        while True:
            while self.pending:
                yield self.pending.popleft()
            line = next(self._lines, None)
            if line is None:
                return
            yield line

    def blocks(self, feat_idx, label_idx=None, n_cells=None):
        while chunk := list(itertools.islice(self._lines, _CHUNK_LINES)):
            plain = _plain_block(chunk, feat_idx, label_idx, n_cells)
            if plain is None:
                self.pending.extend(chunk)
            yield len(chunk), plain
