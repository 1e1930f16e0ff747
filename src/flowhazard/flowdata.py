"""Flow schema, CSV ingestion with sanitization, dataset assembly and
synthetic flow generation.

A dataset is stored densely: one float64 matrix plus a string label per
row.  Rows that fail sanitization (a cell that cannot be parsed, or one
that parses to inf/nan, which CICFlowMeter emits as literal "Infinity"
and "NaN" tokens) are dropped and counted; a parse never aborts on a bad
row.  All constructed datasets therefore contain only finite values.
"""

from __future__ import annotations

import csv
import sys
from dataclasses import asdict, astuple, dataclass

import numpy as np

from .csvio import _CsvChunks, open_text
from .errors import (
    EmptyInput,
    InvalidSpec,
    InvalidValue,
    LengthMismatch,
    MissingColumn,
    NonFinite,
    SchemaMismatch,
    check_fields,
    read_config,
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
        check_fields(self)
        if not self.feature_names:
            raise InvalidSpec("schema needs at least one feature")
        if len(set(self.feature_names)) != len(self.feature_names):
            raise InvalidSpec("feature names must be unique")
        if self.label_column in self.feature_names:
            raise InvalidSpec(
                f"label column {self.label_column!r} is also a feature"
            )

    @property
    def n_features(self) -> int:
        return len(self.feature_names)


def cicids2017_schema() -> FlowSchema:
    """Schema matching the published CIC-IDS2017 flow CSV header."""
    return FlowSchema(CICIDS2017_FEATURES)


@dataclass(frozen=True)
class ParseReport:
    """Sanitization outcome of one CSV parse."""

    rows_read: int
    rows_kept: int
    nonfinite_dropped: int
    malformed_dropped: int

    def to_json_dict(self) -> dict:
        return asdict(self)


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


def _normalize_name(name: str) -> str:
    return name.strip().casefold()


def parse_flow_csv(source, schema: FlowSchema) -> FlowDataset:
    """Parse a flow CSV into a dataset, dropping rows that fail sanitization.

    ``source`` may be a path, ``bytes``, or an open text or binary
    handle, and a leading byte-order mark is dropped.  Only ``"\n"`` ends
    a line of a path, bytes or a binary handle, so a stray carriage return
    makes its row malformed; a text handle's lines are the ones it yields.

    Header columns are matched to schema names after whitespace trimming,
    case insensitively; column order need not match schema order.  Rows
    with unparseable cells are dropped as malformed; rows whose cells
    parse to inf or nan are dropped as non-finite.  Both counts appear in
    the attached :class:`ParseReport`.

    The file is read in chunks of lines, each converted straight into a
    float64 block, so peak memory is about twice the feature matrix.
    Labels are interned, one string object per distinct label, which
    keeps them small in memory and in a pickle.

    Raises :class:`MissingColumn` when a schema column is absent and
    :class:`EmptyInput` when no data row survives.
    """
    with open_text(source, newline="\n") as fh:
        return _parse_lines(fh, schema)


def _parse_lines(fh, schema: FlowSchema) -> FlowDataset:
    chunks = _CsvChunks(fh)
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
                    label = sys.intern(row[label_idx].strip())
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
    """Row subset preserving schema, targets and parse report."""
    idx = np.asarray(indices, dtype=np.intp)
    return FlowDataset(
        schema=dataset.schema,
        features=dataset.features[idx],
        labels=tuple(dataset.labels[i] for i in idx),
        targets=None if dataset.targets is None else dataset.targets[idx],
        report=dataset.report,
    )


def filter_label(dataset: FlowDataset, label: str) -> FlowDataset:
    """Rows labeled ``label`` exactly, with the parse report: ``dataset``
    itself when every row is.  Its :class:`EmptyInput` names the labels."""
    labels = dataset.labels
    n = labels.count(label)
    if not n:
        held = sorted(set(labels))
        says = (f"every row is labeled {held[0]!r}" if len(held) == 1
                else f"the rows are labeled {held}")
        raise EmptyInput(f"no rows labeled {label!r}; {says}")
    if n == len(labels):
        return dataset
    return subset(dataset, [i for i, lab in enumerate(labels) if lab == label])


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


def feature_summary(dataset: FlowDataset) -> np.ndarray:
    """Arithmetic mean of every feature column; a mean that overflows
    raises :class:`NonFinite` naming its feature."""
    if len(dataset) == 0:
        raise EmptyInput("cannot summarize an empty dataset")
    with np.errstate(over="ignore"):
        means = dataset.features.mean(axis=0)
    bad = np.flatnonzero(~np.isfinite(means))
    if bad.size:
        name = dataset.schema.feature_names[bad[0]]
        raise NonFinite(f"mean of feature {name!r} is not finite")
    return means


def abs_diff_covariates(flow, means: np.ndarray) -> np.ndarray:
    """Elementwise absolute distance of a flow's feature vector from the
    feature means."""
    feats = np.asarray(flow)
    if feats.shape != means.shape:
        raise LengthMismatch(
            f"flow has {feats.shape} features, means have {means.shape}"
        )
    return np.abs(feats - means)


@dataclass(frozen=True)
class ClassSpec:
    """Per-feature normal parameters for one synthetic class."""

    means: np.ndarray
    stds: np.ndarray
    truncate_at_zero: np.ndarray  # bool per feature


@dataclass(frozen=True)
class _Normal:
    """One feature's entry in a synthetic spec."""

    mean: float = 0.0
    std: float = 0.0
    truncate_at_zero: bool = False

    def __post_init__(self):
        check_fields(self)
        if not np.isfinite(self.mean):
            raise InvalidValue("mean must be finite")
        if not 0 <= self.std < np.inf:
            raise InvalidValue("std must be finite and >= 0")


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
    def from_json_dict(cls, spec: dict):
        """Build from ``{class: {feature: {mean, std, truncate_at_zero}}}``.

        Feature order follows the first class; every class must define the
        same feature set.
        """
        if not spec:
            raise InvalidSpec("synthetic spec has no classes")
        schema = None
        classes = {}
        for label, feats in spec.items():
            if not isinstance(feats, dict):
                raise InvalidSpec(
                    f"class {label!r} must map each feature to an object "
                    f"with mean, std and truncate_at_zero"
                )
            if schema is None:
                schema = FlowSchema(tuple(feats))
            if sorted(feats) != sorted(schema.feature_names):
                raise InvalidSpec(
                    f"class {label!r} does not define the same features as "
                    f"the first class"
                )
            dists = [
                read_config(feats[name], _Normal,
                            f"class {label!r}, feature {name!r}")
                for name in schema.feature_names
            ]
            means, stds, clips = zip(*map(astuple, dists))
            classes[label] = ClassSpec(np.array(means), np.array(stds),
                                       np.array(clips))
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
