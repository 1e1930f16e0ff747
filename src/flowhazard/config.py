"""The pipeline config read by ``train`` and ``pipeline``.

:func:`load_pipeline_config` reads a config file into a
:class:`PipelineConfig`, one dataclass per section, each stating its
defaults once.  Only ``synth``, ``train`` and ``pipeline`` import this
module, so ``--help``, ``cox`` and ``km`` build none of it.
"""

from __future__ import annotations

import json
import os
from dataclasses import astuple, dataclass, replace
from typing import TYPE_CHECKING

from .cli import EMIT_CHOICES, _require_path
from .errors import InvalidSpec, check_fields, read_config
from .flowdata import FlowSchema, SyntheticSpec, cicids2017_schema

if TYPE_CHECKING:  # annotations only
    from .experiment import ExperimentConfig


def _load_json(path: str) -> dict:
    """The JSON object in the file at ``path``, which may start with a
    byte-order mark."""
    with open(_require_path(path), encoding="utf-8-sig") as fh:
        try:
            doc = json.load(fh)
        except ValueError as err:
            raise InvalidSpec(f"{path}: not valid JSON: {err}") from None
    if not isinstance(doc, dict):
        raise InvalidSpec(
            f"{path}: expected a JSON object, got {type(doc).__name__}"
        )
    return doc


def load_synthetic_spec(path: str) -> SyntheticSpec:
    """The synthetic spec in the JSON file at ``path``; an invalid spec
    is reported under that path."""
    doc = _load_json(path)
    try:
        return SyntheticSpec.from_json_dict(doc)
    except InvalidSpec as err:
        raise InvalidSpec(f"{path}: {err}") from None


@dataclass(frozen=True)
class SyntheticInputs:
    """``inputs`` drawn from a synthetic spec."""

    synthetic_spec: str
    rows_per_class: int = 1000

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class CsvInputs:
    """``inputs`` read from one flow CSV per role."""

    benign_csv: str
    pre_attack_csv: str
    post_attack_csv: str

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class SchemaColumns:
    """A ``schema`` given by its columns."""

    features: tuple[str, ...]
    label_column: str | None = None  # None: FlowSchema's default

    def __post_init__(self):
        check_fields(self)


def _read_schema(raw, spec: SyntheticSpec | None) -> FlowSchema:
    """The flow schema of the ``schema`` section ``raw``: absent, the spec's
    or CIC-IDS2017's; beside a synthetic spec, the spec's."""
    if raw is None:
        return spec.schema if spec is not None else cicids2017_schema()
    if isinstance(raw, dict) and "preset" in raw:
        if raw != {"preset": "cicids2017"}:
            raise InvalidSpec(f"the schema preset is 'cicids2017' and takes "
                              f"no other key, got {raw!r}")
        schema = cicids2017_schema()
    else:
        columns = read_config(raw, SchemaColumns, "schema")
        schema = FlowSchema(*(v for v in astuple(columns) if v is not None))
    if spec is not None and schema != spec.schema:
        raise InvalidSpec(f"schema must be the synthetic spec's, {spec.schema}")
    return schema


@dataclass(frozen=True)
class PipelineConfig:
    """A pipeline config, its input paths resolved and the synthetic spec
    that ``inputs`` names loaded (None for CSV inputs)."""

    inputs: SyntheticInputs | CsvInputs
    synthetic: SyntheticSpec | None
    schema: FlowSchema
    experiment: ExperimentConfig
    output_dir: str = "."
    emit: tuple[str, ...] = EMIT_CHOICES
    benign_label: str = "BENIGN"

    def __post_init__(self):
        check_fields(self)
        bad = set(self.emit) - set(EMIT_CHOICES)
        if bad:
            raise InvalidSpec(f"unknown emit flags {sorted(bad)}")


def load_pipeline_config(path: str, args) -> PipelineConfig:
    """The config in the file at ``path``, with the ``--seed``, ``--out``
    and ``--emit`` flags of ``args`` applied."""
    from .experiment import ExperimentConfig  # synth loads no classifier

    # paths inside the config resolve relative to the config file itself;
    # the --out flag stays relative to the working directory
    base = os.path.dirname(os.path.abspath(path))

    def sections(doc: dict) -> dict:
        raw, spec = doc.pop("inputs", None), None
        if raw is None:
            raise InvalidSpec("'inputs' needs 'synthetic_spec', or "
                              "'benign_csv', 'pre_attack_csv' and "
                              "'post_attack_csv'")
        # one key picks the form, so a key of the other form is unknown
        if isinstance(raw, dict) and "synthetic_spec" in raw:
            inputs = read_config(raw, SyntheticInputs, "inputs")
            spec = load_synthetic_spec(
                os.path.join(base, inputs.synthetic_spec)
            )
        else:
            paths = astuple(read_config(raw, CsvInputs, "inputs"))
            inputs = CsvInputs(*(_require_path(os.path.join(base, p))
                                 for p in paths))
        given = {"inputs": inputs, "synthetic": spec}
        if "experiment" in doc:  # if absent, read_config names it
            given["experiment"] = ExperimentConfig.from_json_dict(
                doc.pop("experiment"), getattr(args, "seed", None)
            )
        given["schema"] = _read_schema(doc.pop("schema", None), spec)
        return given

    cfg = read_config(_load_json(path), PipelineConfig, path, sections)
    emit = getattr(args, "emit", None)
    return replace(
        cfg,
        output_dir=(getattr(args, "out", None)
                    or os.path.join(base, cfg.output_dir)),
        emit=(tuple(e.strip() for e in emit.split(",") if e.strip())
              if emit is not None else cfg.emit),
    )
