"""Flow schema, CSV ingestion with sanitization, dataset assembly and
synthetic flow generation.

A dataset is stored densely: one float64 matrix plus a string label per
row.  Rows that fail sanitization (a cell that cannot be parsed, or one
that parses to inf/nan, which CICFlowMeter emits as literal "Infinity"
and "NaN" tokens) are dropped and counted; a parse never aborts on a bad
row.  All constructed datasets therefore contain only finite values.
"""

from __future__ import annotations

import codecs
import csv
import io
import itertools
import os
from collections import deque
from contextlib import contextmanager
from dataclasses import astuple, dataclass

import numpy as np

from .errors import (
    EmptyInput,
    InvalidSpec,
    InvalidValue,
    LengthMismatch,
    MissingColumn,
    NonFinite,
    SchemaMismatch,
    check_fields,
)
from .seeding import normalize_key, rng_from

# Feature columns of the published CIC-IDS2017 flow CSVs, whitespace
# trimmed.  The raw files list "Fwd Header Length" twice; the duplicate is
# dropped here because schema names must be unique (the parser matches by
# name and takes the first occurrence anyway).  Tool versions vary between
# 78 and 85 columns, so the schema is a parameter, not a constant.
CICIDS2017_FEATURES = (
    "Destination Port", "Flow Duration", "Total Fwd Packets",
    "Total Backward Packets", "Total Length of Fwd Packets",
    "Total Length of Bwd Packets", "Fwd Packet Length Max",
    "Fwd Packet Length Min", "Fwd Packet Length Mean",
    "Fwd Packet Length Std", "Bwd Packet Length Max",
    "Bwd Packet Length Min", "Bwd Packet Length Mean",
    "Bwd Packet Length Std", "Flow Bytes/s", "Flow Packets/s",
    "Flow IAT Mean", "Flow IAT Std", "Flow IAT Max", "Flow IAT Min",
    "Fwd IAT Total", "Fwd IAT Mean", "Fwd IAT Std", "Fwd IAT Max",
    "Fwd IAT Min", "Bwd IAT Total", "Bwd IAT Mean", "Bwd IAT Std",
    "Bwd IAT Max", "Bwd IAT Min", "Fwd PSH Flags", "Bwd PSH Flags",
    "Fwd URG Flags", "Bwd URG Flags", "Fwd Header Length",
    "Bwd Header Length", "Fwd Packets/s", "Bwd Packets/s",
    "Min Packet Length", "Max Packet Length", "Packet Length Mean",
    "Packet Length Std", "Packet Length Variance", "FIN Flag Count",
    "SYN Flag Count", "RST Flag Count", "PSH Flag Count", "ACK Flag Count",
    "URG Flag Count", "CWE Flag Count", "ECE Flag Count", "Down/Up Ratio",
    "Average Packet Size", "Avg Fwd Segment Size", "Avg Bwd Segment Size",
    "Fwd Avg Bytes/Bulk", "Fwd Avg Packets/Bulk", "Fwd Avg Bulk Rate",
    "Bwd Avg Bytes/Bulk", "Bwd Avg Packets/Bulk", "Bwd Avg Bulk Rate",
    "Subflow Fwd Packets", "Subflow Fwd Bytes", "Subflow Bwd Packets",
    "Subflow Bwd Bytes", "Init_Win_bytes_forward", "Init_Win_bytes_backward",
    "act_data_pkt_fwd", "min_seg_size_forward", "Active Mean", "Active Std",
    "Active Max", "Active Min", "Idle Mean", "Idle Std", "Idle Max",
    "Idle Min",
)


@dataclass(frozen=True)
class FlowSchema:
    """Ordered feature names plus the label column of a flow CSV."""

    feature_names: tuple[str, ...]
    label_column: str = "Label"

    def __post_init__(self):
        names = tuple(self.feature_names)
        object.__setattr__(self, "feature_names", names)
        if len(names) < 1:
            raise InvalidSpec("schema needs at least one feature")
        if len(set(names)) != len(names):
            raise InvalidSpec("feature names must be unique")
        if self.label_column in names:
            raise InvalidSpec(
                f"label column {self.label_column!r} is also a feature"
            )

    @property
    def n_features(self) -> int:
        return len(self.feature_names)


def cicids2017_schema() -> FlowSchema:
    """Schema matching the published CIC-IDS2017 flow CSV header."""
    return FlowSchema(CICIDS2017_FEATURES, label_column="Label")


@dataclass(frozen=True)
class ParseReport:
    """Sanitization outcome of one CSV parse."""

    rows_read: int
    rows_kept: int
    nonfinite_dropped: int
    malformed_dropped: int

    def to_json_dict(self) -> dict:
        return {
            "rows_read": self.rows_read,
            "rows_kept": self.rows_kept,
            "nonfinite_dropped": self.nonfinite_dropped,
            "malformed_dropped": self.malformed_dropped,
        }


@dataclass(frozen=True)
class FlowDataset:
    """Immutable collection of flows sharing one schema.

    ``features`` is an (n, F) float64 matrix; ``targets``, when present,
    is an (n,) vector of 0.0/1.0 regression targets.  Any other target
    value raises :class:`InvalidValue`: the forest's split search counts
    on every target equalling its square.
    """

    schema: FlowSchema
    features: np.ndarray
    labels: tuple[str, ...]
    targets: np.ndarray | None = None
    report: ParseReport | None = None

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[1] != self.schema.n_features:
            raise SchemaMismatch(
                f"feature matrix shape {feats.shape} does not match "
                f"schema with {self.schema.n_features} features"
            )
        if not np.all(np.isfinite(feats)):
            raise NonFinite("dataset contains non-finite feature values")
        if len(self.labels) != feats.shape[0]:
            raise LengthMismatch("one label per row required")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", tuple(self.labels))
        if self.targets is not None:
            t = np.asarray(self.targets, dtype=np.float64)
            if t.shape != (feats.shape[0],):
                raise LengthMismatch("one target per row required")
            if not np.all((t == 0.0) | (t == 1.0)):
                raise InvalidValue("targets must be 0.0 or 1.0")
            object.__setattr__(self, "targets", t)

    def __len__(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True)
class FeatureSummary:
    """Per-feature means and population standard deviations."""

    means: np.ndarray
    stds: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.means, dtype=np.float64)
        s = np.asarray(self.stds, dtype=np.float64)
        if m.shape != s.shape or m.ndim != 1:
            raise LengthMismatch("means and stds must be 1-D of equal length")
        if not np.all(np.isfinite(m)) or np.any(s < 0):
            raise NonFinite("summary statistics must be finite, stds >= 0")
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "stds", s)


def _normalize_name(name: str) -> str:
    return name.strip().casefold()


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
              else [label.strip() for label in rows["label"]])
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


def parse_flow_csv(source, schema: FlowSchema) -> FlowDataset:
    """Parse a flow CSV into a dataset, dropping rows that fail sanitization.

    ``source`` may be a path, raw bytes, or an open file object.  Header
    columns are matched to schema names after whitespace trimming, case
    insensitively; column order need not match schema order.  Rows with
    unparseable cells are dropped as malformed; rows whose cells parse to
    inf or nan are dropped as non-finite.  Both counts appear in the
    attached :class:`ParseReport`.

    The file is read in chunks of lines, each converted straight into a
    float64 block, so peak memory is about twice the feature matrix.

    Raises :class:`MissingColumn` when a schema column is absent and
    :class:`EmptyInput` when no data row survives.
    """
    if isinstance(source, bytes):
        source = io.StringIO(source.decode("utf-8", errors="replace"))
    with open_text(source) as fh:
        return _parse_lines(_split_lines(fh), schema)


def _parse_lines(lines, schema: FlowSchema) -> FlowDataset:
    chunks = _CsvChunks(lines)
    reader = chunks.records
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyInput("CSV has no header row")
    except csv.Error as exc:
        raise InvalidValue(f"line 1: {exc}")

    positions: dict[str, int] = {}
    for idx, raw in enumerate(header):
        positions.setdefault(_normalize_name(raw), idx)

    missing = [
        name for name in schema.feature_names
        if _normalize_name(name) not in positions
    ]
    if _normalize_name(schema.label_column) not in positions:
        missing.append(schema.label_column)
    if missing:
        raise MissingColumn(f"columns absent from header: {missing}")

    feat_idx = [positions[_normalize_name(n)] for n in schema.feature_names]
    label_idx = positions[_normalize_name(schema.label_column)]

    blocks: list[np.ndarray] = []
    labels: list[str] = []
    rows_read = 0
    nonfinite = 0
    malformed = 0

    for n_lines, plain in chunks.blocks(feat_idx, label_idx):
        if plain is not None:
            block, labs = plain
            rows_read += n_lines
        else:
            rows: list[list[float]] = []
            labs = []
            while chunks.pending:
                try:
                    row = next(reader)
                except csv.Error:
                    rows_read += 1
                    malformed += 1
                    continue
                if not row or all(cell.strip() == "" for cell in row):
                    continue
                rows_read += 1
                try:
                    values = [float(row[j].strip()) for j in feat_idx]
                    label = row[label_idx].strip()
                except (IndexError, ValueError):  # short row, bad number
                    malformed += 1
                    continue
                rows.append(values)
                labs.append(label)
            block = np.array(rows, dtype=np.float64).reshape(-1, len(feat_idx))

        finite = np.isfinite(block).all(axis=1)
        if not finite.all():
            nonfinite += int((~finite).sum())
            block = block[finite]
            labs = [labs[i] for i in np.flatnonzero(finite).tolist()]
        blocks.append(block)
        labels += labs

    if not labels:
        raise EmptyInput(
            f"no rows survived sanitization ({rows_read} read, "
            f"{malformed} malformed, {nonfinite} non-finite)"
        )

    report = ParseReport(
        rows_read=rows_read,
        rows_kept=len(labels),
        nonfinite_dropped=nonfinite,
        malformed_dropped=malformed,
    )
    features = np.concatenate(blocks)
    del blocks
    return FlowDataset(
        schema=schema,
        features=features,
        labels=tuple(labels),
        report=report,
    )


def serialize_flow_csv(dataset: FlowDataset, sink) -> None:
    """Write a dataset back to CSV; floats use shortest round-trip repr."""
    with open_text(sink, "w") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(dataset.schema.feature_names)
                        + [dataset.schema.label_column])
        for i in range(len(dataset)):
            writer.writerow(
                [repr(float(v)) for v in dataset.features[i]]
                + [dataset.labels[i]]
            )


def subset(dataset: FlowDataset, indices) -> FlowDataset:
    """Row subset preserving schema and targets."""
    idx = np.asarray(indices, dtype=np.intp)
    return FlowDataset(
        schema=dataset.schema,
        features=dataset.features[idx],
        labels=tuple(dataset.labels[i] for i in idx),
        targets=None if dataset.targets is None else dataset.targets[idx],
    )


def filter_label(dataset: FlowDataset, label: str) -> FlowDataset:
    """Rows whose label equals ``label`` exactly."""
    idx = [i for i, lab in enumerate(dataset.labels) if lab == label]
    if not idx:
        raise EmptyInput(f"no rows labeled {label!r}")
    return subset(dataset, idx)


def binary_dataset(
    benign: FlowDataset, attack: FlowDataset, seed
) -> FlowDataset:
    """Stack benign (target 0.0) and attack (target 1.0) rows, shuffled.

    The shuffle is deterministic in ``seed``.  Targets are regression
    targets, exactly 0.0 and 1.0, not class labels.
    """
    if benign.schema != attack.schema:
        raise SchemaMismatch("benign and attack datasets use different schemas")
    if len(benign) == 0 or len(attack) == 0:
        raise EmptyInput("both benign and attack datasets must be non-empty")
    feats = np.vstack([benign.features, attack.features])
    labels = benign.labels + attack.labels
    targets = np.concatenate([
        np.zeros(len(benign)), np.ones(len(attack))
    ])
    perm = rng_from(*normalize_key(seed)).permutation(feats.shape[0])
    return FlowDataset(
        schema=benign.schema,
        features=feats[perm],
        labels=tuple(labels[i] for i in perm),
        targets=targets[perm],
    )


def feature_summary(dataset: FlowDataset) -> FeatureSummary:
    """Arithmetic mean and population std of every feature column."""
    if len(dataset) == 0:
        raise EmptyInput("cannot summarize an empty dataset")
    return FeatureSummary(
        means=dataset.features.mean(axis=0),
        stds=dataset.features.std(axis=0),
    )


def abs_diff_covariates(flow, summary: FeatureSummary) -> np.ndarray:
    """Elementwise absolute distance of a flow's feature vector from the
    summary means."""
    feats = np.asarray(flow)
    if feats.shape != summary.means.shape:
        raise LengthMismatch(
            f"flow has {feats.shape} features, summary has {summary.means.shape}"
        )
    return np.abs(feats - summary.means)


@dataclass(frozen=True)
class ClassSpec:
    """Per-feature normal parameters for one synthetic class."""

    means: np.ndarray
    stds: np.ndarray
    truncate_at_zero: np.ndarray  # bool per feature

    def __post_init__(self):
        m = np.asarray(self.means, dtype=np.float64)
        s = np.asarray(self.stds, dtype=np.float64)
        t = np.asarray(self.truncate_at_zero, dtype=bool)
        if not (m.shape == s.shape == t.shape) or m.ndim != 1:
            raise InvalidSpec("class spec vectors must be 1-D of equal length")
        if np.any(s < 0):
            raise InvalidSpec("negative std in synthetic spec")
        if not np.all(np.isfinite(m)) or not np.all(np.isfinite(s)):
            raise InvalidSpec("non-finite parameter in synthetic spec")
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "stds", s)
        object.__setattr__(self, "truncate_at_zero", t)


@dataclass(frozen=True)
class _Normal:
    """One feature's entry in a synthetic spec."""

    mean: float = 0.0
    std: float = 0.0
    truncate_at_zero: bool = False

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class SyntheticSpec:
    """Synthetic flow distributions: class name -> per-feature normals."""

    schema: FlowSchema
    classes: dict[str, ClassSpec]

    def __post_init__(self):
        for name, cls in self.classes.items():
            if len(cls.means) != self.schema.n_features:
                raise InvalidSpec(
                    f"class {name!r} spec length does not match schema"
                )

    @classmethod
    def from_json_dict(cls, spec: dict, label_column: str = "Label"):
        """Build from ``{class: {feature: {mean, std, truncate_at_zero}}}``.

        Feature order follows the first class; every class must define the
        same feature set.
        """
        if not spec:
            raise InvalidSpec("synthetic spec has no classes")
        for label, feats in spec.items():
            if not isinstance(feats, dict) or not all(
                isinstance(dist, dict) for dist in feats.values()
            ):
                raise InvalidSpec(
                    f"class {label!r} must map each feature to an object "
                    f"with mean, std and truncate_at_zero"
                )
        first = next(iter(spec.values()))
        feature_names = tuple(first.keys())
        schema = FlowSchema(feature_names, label_column=label_column)
        classes = {}
        for label, feats in spec.items():
            if tuple(sorted(feats.keys())) != tuple(sorted(feature_names)):
                raise InvalidSpec(
                    f"class {label!r} does not define the same features as "
                    f"the first class"
                )
            dists = []
            for name in feature_names:
                try:
                    dists.append(_Normal(**feats[name]))
                except (TypeError, ValueError) as err:
                    raise InvalidSpec(
                        f"class {label!r}, feature {name!r}: {err}"
                    ) from None
            means, stds, clips = zip(*map(astuple, dists))
            classes[label] = ClassSpec(means, stds, clips)
        return cls(schema=schema, classes=classes)


def synthesize_flows(spec: SyntheticSpec, n: int, seed) -> FlowDataset:
    """Draw ``n`` flows per class from the spec's per-feature normals.

    Features flagged ``truncate_at_zero`` are clipped at zero after
    sampling (count-like features); the rest are unrestricted.  The output
    is deterministic in ``seed``: classes are generated in spec order from
    one stream.
    """
    if n < 1:
        raise InvalidSpec("need n >= 1 synthetic rows per class")
    rng = rng_from(*normalize_key(seed))
    blocks = []
    labels: list[str] = []
    for label, cls in spec.classes.items():
        z = rng.standard_normal((n, spec.schema.n_features))
        block = cls.means + cls.stds * z
        block[:, cls.truncate_at_zero] = np.clip(
            block[:, cls.truncate_at_zero], 0.0, None
        )
        blocks.append(block)
        labels.extend([label] * n)
    return FlowDataset(
        schema=spec.schema,
        features=np.vstack(blocks),
        labels=tuple(labels),
    )
