"""Numeric CSV reading shared by flow ingest and survival tables.

:func:`open_text` turns a path or an open handle into a text handle;
:func:`_split_lines` reads a handle in blocks and yields its lines; and
:class:`_CsvChunks` cuts lines into chunks that numpy's C reader parses
when :func:`_plain_block` accepts them, with one csv reader for the rest.
This module imports only the standard library and numpy, so reading a
survival table loads no flow ingest and no random-number code.
"""

from __future__ import annotations

import codecs
import csv
import io
import itertools
import os
import sys
from collections import deque
from contextlib import contextmanager

import numpy as np


@contextmanager
def open_text(source, mode: str = "r"):
    """A text handle on ``source``.

    A path is opened (UTF-8, undecodable bytes replaced, no newline
    translation, as the csv module expects) and closed on exit; an open
    handle is passed through and left open.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, mode, encoding="utf-8", errors="replace",
                  newline="") as fh:
            yield fh
    else:
        yield source


# Lines per parse chunk.  A chunk is parsed by numpy's C reader when every
# line is one plain record, and by the csv module otherwise.
_CHUNK_LINES = 512
# Characters per read from the source.
_READ_CHARS = 1 << 20


def _split_lines(fh):
    r"""The text of ``fh`` as lines, each ending after a ``"\n"``.

    Only ``"\n"`` ends a line (the csv module tells ``"\r\n"`` and
    quoted newlines apart itself).  Bytes are decoded as UTF-8 with
    undecodable bytes replaced; a leading byte-order mark is dropped.
    """
    decoder = None
    tail = ""
    first = True
    while True:
        data = fh.read(_READ_CHARS)
        at_end = not data
        if isinstance(data, bytes):
            if decoder is None:
                decoder = codecs.getincrementaldecoder("utf-8")("replace")
            data = decoder.decode(data, final=at_end)
        if first and data:
            first = False
            if data.startswith("\ufeff"):
                data = data[1:]
        if data:
            lines = io.StringIO(tail + data).readlines()
            tail = "" if lines[-1].endswith("\n") else lines.pop()
            yield from lines
        if at_end:
            break
    if tail:
        yield tail


def _plain_block(lines, feat_idx, label_idx=None, n_cells=None):
    r"""Features (and labels) of ``lines`` by numpy's C reader, or None.

    Only a chunk in which every line is one record that the csv module
    would split at each comma is read here: no quote or NUL, no carriage
    return but in a ``"\r\n"`` line end, no blank line, no line long
    enough to hit the csv field limit, and, when ``n_cells`` is given, that
    many cells on every line.  The C reader converts each cell with the
    same ``PyOS_string_to_double`` as ``float``; any cell it rejects
    (``float`` accepts underscores and non-ASCII digits) sends the chunk
    back to the csv path.  ``labels`` is None without a ``label_idx``.
    """
    text = "".join(lines)
    if ('"' in text or "\0" in text
            or "\r" in text and text.count("\r") != text.count("\r\n")
            or not all(map(str.strip, lines))
            or max(map(len, lines)) > csv.field_size_limit()):
        return None
    if n_cells is not None and set(
            map(str.count, lines, itertools.repeat(","))) != {n_cells - 1}:
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
    """Numeric CSV text read in chunks of ``_CHUNK_LINES`` lines.

    One csv reader, ``records``, runs over the whole input: it reads the
    header, then every chunk that :func:`_plain_block` does not read, so a
    quoted field may run on past the end of its chunk.  ``blocks`` yields
    each chunk's line count and its plain block, or None after queueing
    the chunk's lines in ``pending``; the caller then reads ``records``
    until ``pending`` is empty.
    """

    def __init__(self, lines):
        self._lines = lines
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
